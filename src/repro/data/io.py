"""CSV persistence for spatial datasets.

A plain-text interchange format: header ``x,y,<attr>,...``; categorical
values are written as their (string) domain values, numeric as floats.
The schema travels separately (it declares domains and types), matching
how the benchmark harness regenerates datasets deterministically.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..core.atomicio import replace_atomically
from ..core.attributes import CategoricalAttribute, Schema
from ..core.objects import SpatialDataset


def save_csv(dataset: SpatialDataset, path: str | Path) -> None:
    """Write a dataset to ``path`` as CSV (atomic, fsynced tmp + rename).

    The CSV often travels as the checkpoint partner of a session bundle
    and may gate a WAL checkpoint (``repro update --save-data``) -- a
    crash mid-write must not destroy the previous good copy a restart's
    replay depends on, so it goes through the same
    :func:`~repro.core.atomicio.replace_atomically` sequence as
    :func:`~repro.engine.persist.save_session`.
    """
    schema = dataset.schema
    # .tolist() yields Python floats and the domain values themselves,
    # never numpy scalars: csv.writer formats those as repr() / str(),
    # which is what keeps the file's bytes stable.
    columns = [dataset.xs.tolist(), dataset.ys.tolist()]
    for attr in schema:
        column = dataset.column(attr.name).tolist()
        if isinstance(attr, CategoricalAttribute):
            column = attr.decode(column)
        columns.append(column)

    def write(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", *schema.names])
        writer.writerows(zip(*columns))

    replace_atomically(path, write, text=True, newline="")


def load_csv_infer(
    path: str | Path,
    categorical: list[str] | tuple[str, ...] = (),
    numeric: list[str] | tuple[str, ...] = (),
) -> SpatialDataset:
    """Load a CSV, inferring categorical domains from the data.

    Column typing is declared by name (``categorical`` / ``numeric``);
    categorical domains are the sorted distinct values found.  Used by
    the command-line interface, where no Schema object exists yet.
    """
    from ..core.attributes import NumericAttribute

    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if header[:2] != ["x", "y"]:
        raise ValueError("CSV must start with columns x,y")
    names = header[2:]
    declared = set(categorical) | set(numeric)
    unknown = declared - set(names)
    if unknown:
        raise ValueError(f"declared columns not in CSV: {sorted(unknown)}")
    undeclared = set(names) - declared
    if undeclared:
        raise ValueError(
            f"columns {sorted(undeclared)} need a --categorical/--numeric type"
        )
    columns = {name: [row[2 + i] for row in rows] for i, name in enumerate(names)}
    attributes = []
    raw = {}
    for name in names:
        if name in categorical:
            domain = tuple(sorted(set(columns[name])))
            attributes.append(CategoricalAttribute(name, domain))
            raw[name] = columns[name]
        else:
            attributes.append(NumericAttribute(name))
            raw[name] = [float(v) for v in columns[name]]
    schema = Schema(tuple(attributes))
    xs = [float(row[0]) for row in rows]
    ys = [float(row[1]) for row in rows]
    return SpatialDataset.from_columns(xs, ys, schema, raw)


def load_csv(path: str | Path, schema: Schema) -> SpatialDataset:
    """Read a dataset written by :func:`save_csv` back under ``schema``."""
    path = Path(path)
    xs: list[float] = []
    ys: list[float] = []
    raw: dict[str, list] = {name: [] for name in schema.names}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        expected = ["x", "y", *schema.names]
        if header != expected:
            raise ValueError(f"CSV header {header} does not match {expected}")
        for row in reader:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
            for name, value in zip(schema.names, row[2:]):
                attr = schema[name]
                if isinstance(attr, CategoricalAttribute):
                    # Domain values may be non-strings (e.g. ints); map
                    # through their string form for the round-trip.
                    by_str = {str(v): v for v in attr.domain}
                    raw[name].append(by_str[value])
                else:
                    raw[name].append(float(value))
    return SpatialDataset.from_columns(xs, ys, schema, raw)
