"""The typed request/response surface of :class:`~repro.service.RegionService`.

Every serving operation is described by a frozen dataclass with a
stable ``to_dict()`` / ``from_dict()`` JSON codec (DESIGN.md §11.2):

* :class:`DatasetSpec` -- how a dataset is bound: CSV path + declared
  columns, optional bundle and write-ahead-log paths, grid granularity,
  and a :class:`DurabilityPolicy`;
* :class:`QueryRequest` -- one ASRS query as data: term specs
  (``fD:attr`` / ``fA:attr@sel=value``), region size, target vector,
  weights, method knobs;
* :class:`UpdateRequest` -- one mutation: records to append (inline or
  from a CSV) and/or row indices to delete;
* :class:`RegionResult` -- a structured answer: region, score
  (the representation distance), representation, optional search
  stats, the dataset epoch it was answered at, and wall-clock timing;
* :class:`UpdateResult` / :class:`CheckpointResult` /
  :class:`CompactResult` / :class:`OpenResult` -- structured outcomes
  of the mutation and durability operations.

The codec is strict JSON: non-finite floats -- legal in scores,
representations and stats, though a :class:`QueryRequest` refuses them
in its target, weights and ``delta`` -- are encoded as the sentinel
strings ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"`` rather than
relying on ``json.dumps(allow_nan=True)``'s non-standard literals, so
any JSON parser (the HTTP frontend's clients included) can round-trip
a result bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Iterable, Mapping, Tuple

import numpy as np

# ----------------------------------------------------------------------
# Non-finite-safe float codec
# ----------------------------------------------------------------------


def encode_float(value: float) -> float | str:
    """A strictly-JSON value for one float (sentinel strings for non-finite)."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def decode_float(value: "float | int | str") -> float:
    """Invert :func:`encode_float` (plain numbers pass through)."""
    if isinstance(value, str):
        if value == "NaN":
            return math.nan
        if value == "Infinity":
            return math.inf
        if value == "-Infinity":
            return -math.inf
        raise ValueError(f"not an encoded float: {value!r}")
    return float(value)


def _encode_floats(values: Iterable[float]) -> "list[float | str]":
    return [encode_float(v) for v in values]


def _decode_floats(values: "Iterable[float | int | str]") -> Tuple[float, ...]:
    return tuple(decode_float(v) for v in values)


def dumps(document: object) -> str:
    """Serialize an already-encoded document to strict JSON.

    The single sanctioned ``json.dumps`` of the serving surface
    (lint rule RPL004): ``allow_nan=False`` guarantees a document
    that skipped the :func:`encode_float` sentinels fails loudly
    here instead of emitting the non-interoperable bare ``NaN``
    token to a client.
    """
    return json.dumps(document, allow_nan=False)


def loads(text: str | bytes) -> object:
    """Parse strict JSON (inverse of :func:`dumps`)."""
    return json.loads(text)


# ----------------------------------------------------------------------
# Durability policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DurabilityPolicy:
    """Declarative durability for one dataset served by the facade.

    The policy turns the checkpoint/compaction choreography that used to
    live in ``cli.py`` into knobs (DESIGN.md §11.3): after every
    effective update the service reads the write-ahead log's
    :meth:`~repro.engine.wal.WriteAheadLog.state` and

    * **checkpoints** (CSV + bundle saved, log truncated) when the log
      holds >= ``checkpoint_every_records`` records or
      >= ``checkpoint_every_bytes`` bytes;
    * otherwise **compacts** (N records merged into one equivalent
      batch, bundle untouched) when the log holds
      >= ``compact_every_records`` records;
    * checkpoints once more on :meth:`RegionService.close` when
      ``checkpoint_on_close`` and any records remain.

    ``replay_on_open`` controls whether an existing log is replayed
    onto the freshly opened session (the crash-recovery default); it is
    the only knob a read-only replica honours.  ``None`` disables a
    trigger.  The K-records and B-bytes triggers require the spec to
    name both ``data`` and ``index`` paths -- a checkpoint that cannot
    persist the dataset would truncate the only durable copy of the
    updates, so :meth:`RegionService.open` refuses such a combination
    up front.  ``checkpoint_on_close`` is best-effort by design: when
    the spec lacks either path, :meth:`RegionService.close` skips the
    checkpoint and leaves the log intact as the recovery path (a
    WAL-only deployment stays valid; its log is simply bounded by
    explicit :meth:`~RegionService.compact` calls or the
    ``compact_every_records`` trigger, not by checkpoints).
    """

    checkpoint_every_records: int | None = None
    checkpoint_every_bytes: int | None = None
    checkpoint_on_close: bool = True
    compact_every_records: int | None = None
    replay_on_open: bool = True

    def __post_init__(self) -> None:
        for name in (
            "checkpoint_every_records",
            "checkpoint_every_bytes",
            "compact_every_records",
        ):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ValueError(f"{name} must be a positive int or None")

    @property
    def wants_checkpoints(self) -> bool:
        """Whether any trigger can ever fire a checkpoint."""
        return (
            self.checkpoint_every_records is not None
            or self.checkpoint_every_bytes is not None
            or self.checkpoint_on_close
        )

    def checkpoint_due(self, wal_state: Mapping) -> bool:
        """Whether a log in ``wal_state`` trips a checkpoint trigger."""
        records, nbytes = wal_state["records"], wal_state["bytes"]
        if (
            self.checkpoint_every_records is not None
            and records >= self.checkpoint_every_records
        ):
            return True
        return (
            self.checkpoint_every_bytes is not None
            and records > 0
            and nbytes >= self.checkpoint_every_bytes
        )

    def compact_due(self, wal_state: Mapping) -> bool:
        """Whether a log in ``wal_state`` trips the compaction trigger."""
        return (
            self.compact_every_records is not None
            and wal_state["records"] >= self.compact_every_records
        )

    def to_dict(self) -> dict:
        return {
            "checkpoint_every_records": self.checkpoint_every_records,
            "checkpoint_every_bytes": self.checkpoint_every_bytes,
            "checkpoint_on_close": self.checkpoint_on_close,
            "compact_every_records": self.compact_every_records,
            "replay_on_open": self.replay_on_open,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DurabilityPolicy":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    """How the service binds (and persists) one dataset.

    ``data`` is the baseline CSV the service loads on open and rewrites
    on checkpoint; ``None`` means the dataset is handed in-memory to
    :meth:`RegionService.open` (no checkpointing possible).  ``index``
    and ``wal`` are the bundle and write-ahead-log paths; either may
    name a not-yet-existing file (created on first save / first logged
    mutation).  ``granularity`` is ``"auto"`` or ``(sx, sy)``.
    """

    key: str
    data: str | None = None
    categorical: Tuple[str, ...] = ()
    numeric: Tuple[str, ...] = ()
    index: str | None = None
    wal: str | None = None
    granularity: Any = "auto"
    durability: DurabilityPolicy = field(default_factory=DurabilityPolicy)

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("DatasetSpec.key must be a non-empty string")
        object.__setattr__(self, "categorical", tuple(self.categorical))
        object.__setattr__(self, "numeric", tuple(self.numeric))
        granularity = self.granularity
        if not isinstance(granularity, str):
            granularity = tuple(int(g) for g in granularity)
            object.__setattr__(self, "granularity", granularity)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "data": self.data,
            "categorical": list(self.categorical),
            "numeric": list(self.numeric),
            "index": self.index,
            "wal": self.wal,
            "granularity": (
                self.granularity
                if isinstance(self.granularity, str)
                else list(self.granularity)
            ),
            "durability": self.durability.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DatasetSpec":
        kwargs = {
            f.name: data[f.name]
            for f in fields(cls)
            if f.name in data and f.name != "durability"
        }
        if "durability" in data:
            kwargs["durability"] = DurabilityPolicy.from_dict(data["durability"])
        return cls(**kwargs)


@dataclass(frozen=True)
class QueryRequest:
    """One ASRS query as data (the serving twin of :class:`ASRSQuery`).

    ``terms`` use the CLI grammar (``fD:attr``, ``fA:attr@sel=value``,
    ``fS:attr``); requests sharing a terms tuple share one interned
    aggregator object inside the facade, so they hit every session
    cache.  ``method`` is ``"gids"`` or ``"ds"``; ``topk`` > 1 answers
    through the exact top-k search (``method`` is then ignored).
    """

    dataset: str
    terms: Tuple[str, ...]
    width: float
    height: float
    target: Tuple[float, ...]
    weights: Tuple[float, ...] | None = None
    method: str = "gids"
    delta: float = 0.0
    probe_cells: int = 16
    topk: int = 1
    p: int = 1
    include_stats: bool = False

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("QueryRequest needs at least one term")
        if self.method not in ("gids", "ds"):
            raise ValueError(f"method must be 'gids' or 'ds', got {self.method!r}")
        if self.topk < 1:
            raise ValueError("topk must be >= 1")
        # probe_cells sizes one (probes x n) cover matrix; delta and the
        # target reach every prune comparison, where NaN is never true.
        probes = self.probe_cells
        if isinstance(probes, bool) or not isinstance(probes, (int, np.integer)):
            raise ValueError(f"probe_cells must be an integer, got {probes!r}")
        if probes < 0:
            raise ValueError(f"probe_cells must be >= 0, got {probes}")
        if math.isnan(self.delta) or self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta!r}")
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "target", tuple(float(v) for v in self.target))
        if self.weights is not None:
            object.__setattr__(
                self, "weights", tuple(float(v) for v in self.weights)
            )
        for name in ("target", "weights"):
            values = getattr(self, name) or ()
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} entries must be finite, got {values!r}")

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "terms": list(self.terms),
            "width": encode_float(self.width),
            "height": encode_float(self.height),
            "target": _encode_floats(self.target),
            "weights": (
                None if self.weights is None else _encode_floats(self.weights)
            ),
            "method": self.method,
            "delta": encode_float(self.delta),
            "probe_cells": self.probe_cells,
            "topk": self.topk,
            "p": self.p,
            "include_stats": self.include_stats,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "QueryRequest":
        kwargs = dict(
            dataset=data["dataset"],
            terms=tuple(data["terms"]),
            width=decode_float(data["width"]),
            height=decode_float(data["height"]),
            target=_decode_floats(data["target"]),
        )
        if data.get("weights") is not None:
            kwargs["weights"] = _decode_floats(data["weights"])
        for name in ("method", "probe_cells", "topk", "p", "include_stats"):
            if name in data:
                kwargs[name] = data[name]
        if "delta" in data:
            kwargs["delta"] = decode_float(data["delta"])
        return cls(**kwargs)


@dataclass(frozen=True)
class UpdateRequest:
    """One mutation: delete current rows, then append new ones.

    ``append`` holds inline records ``(x, y, {attr: value})``;
    ``append_csv`` names a CSV sharing the dataset's columns (the CLI
    path).  ``delete`` holds 0-based row indices into the dataset as it
    is when the update applies.  Either side may be empty, not both.
    """

    dataset: str
    append: Tuple[tuple, ...] = ()
    append_csv: str | None = None
    delete: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "append",
            tuple((float(x), float(y), dict(attrs)) for x, y, attrs in self.append),
        )
        object.__setattr__(self, "delete", tuple(int(i) for i in self.delete))
        if not self.append and not self.delete and self.append_csv is None:
            raise ValueError(
                "UpdateRequest needs rows to append and/or indices to delete"
            )

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "append": [
                [encode_float(x), encode_float(y), attrs]
                for x, y, attrs in self.append
            ],
            "append_csv": self.append_csv,
            "delete": list(self.delete),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "UpdateRequest":
        return cls(
            dataset=data["dataset"],
            append=tuple(
                (decode_float(x), decode_float(y), attrs)
                for x, y, attrs in data.get("append", ())
            ),
            append_csv=data.get("append_csv"),
            delete=tuple(data.get("delete", ())),
        )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegionResult:
    """A structured ASRS answer (the serving twin of the engine result).

    ``region`` is ``(x_min, y_min, x_max, y_max)``; ``score`` is the
    representation distance (lower is more similar; may be non-finite
    for degenerate targets, which the codec round-trips exactly);
    ``epoch`` is the dataset epoch the answer was computed at, so a
    client can correlate answers with updates; ``elapsed_s`` is the
    facade-measured wall clock of the solve.
    """

    region: Tuple[float, ...]
    score: float
    representation: Tuple[float, ...] | None = None
    stats: dict | None = None
    epoch: int = 0
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "region", tuple(float(v) for v in self.region)
        )
        object.__setattr__(self, "score", float(self.score))
        if self.representation is not None:
            object.__setattr__(
                self,
                "representation",
                tuple(float(v) for v in self.representation),
            )

    @classmethod
    def from_engine(
        cls,
        result: Any,
        *,
        epoch: int,
        elapsed_s: float,
        stats: Any = None,
    ) -> "RegionResult":
        """Wrap a :class:`repro.core.query.RegionResult` (or MaxRS result)."""
        region = result.region
        score = getattr(result, "distance", None)
        if score is None:
            score = result.score
        representation = getattr(result, "representation", None)
        return cls(
            region=(region.x_min, region.y_min, region.x_max, region.y_max),
            score=score,
            representation=(
                None if representation is None else tuple(representation)
            ),
            stats=_stats_dict(stats),
            epoch=epoch,
            elapsed_s=elapsed_s,
        )

    def to_dict(self) -> dict:
        return {
            "region": _encode_floats(self.region),
            "score": encode_float(self.score),
            "representation": (
                None
                if self.representation is None
                else _encode_floats(self.representation)
            ),
            "stats": self.stats,
            "epoch": self.epoch,
            "elapsed_s": encode_float(self.elapsed_s),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RegionResult":
        representation = data.get("representation")
        return cls(
            region=_decode_floats(data["region"]),
            score=decode_float(data["score"]),
            representation=(
                None if representation is None else _decode_floats(representation)
            ),
            stats=data.get("stats"),
            epoch=int(data.get("epoch", 0)),
            elapsed_s=decode_float(data.get("elapsed_s", 0.0)),
        )


def _stats_dict(stats: Any) -> dict | None:
    """Search stats as a JSON-safe dict, nested counters included.

    Nested dicts and dataclasses (a GI-DS solve's ``search`` counters)
    are encoded recursively; numpy scalars are unwrapped and floats go
    through the non-finite sentinels.  Values of any other type are
    dropped.
    """
    if stats is None:
        return None
    out: dict = {}
    source = stats if isinstance(stats, dict) else vars(stats)
    for name, value in source.items():
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, (int, bool, str)) or value is None:
            out[name] = value
        elif isinstance(value, float):
            out[name] = encode_float(value)
        elif isinstance(value, dict) or (
            is_dataclass(value) and not isinstance(value, type)
        ):
            out[name] = _stats_dict(value)
    return out


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one :meth:`RegionService.update` call."""

    dataset: str
    epoch: int
    appended: int
    deleted: int
    wal_logged: bool = False
    index_patched: bool = False
    dirty_cells: int = 0
    cell_entries_kept: int = 0
    checkpointed: bool = False
    compacted: bool = False
    #: The update committed, but the policy-driven checkpoint/compaction
    #: after it failed -- the dataset is serving degraded (DESIGN.md
    #: §12).  Deliberately not an error: erroring after the commit would
    #: push clients into retrying an applied batch.
    degraded: bool = False
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["elapsed_s"] = encode_float(self.elapsed_s)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "UpdateResult":
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        if "elapsed_s" in kwargs:
            kwargs["elapsed_s"] = decode_float(kwargs["elapsed_s"])
        return cls(**kwargs)


@dataclass(frozen=True)
class CheckpointResult:
    """Outcome of one :meth:`RegionService.checkpoint` call."""

    dataset: str
    epoch: int
    data_path: str | None
    index_path: str | None
    wal_records_dropped: int = 0
    n: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "CheckpointResult":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass(frozen=True)
class CompactResult:
    """Outcome of one :meth:`RegionService.compact` call."""

    dataset: str
    records_before: int
    records_after: int
    bytes_before: int
    bytes_after: int
    epoch: int

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "CompactResult":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


@dataclass(frozen=True)
class OpenResult:
    """Outcome of one :meth:`RegionService.open` call.

    ``replay_*`` mirror the :class:`~repro.engine.wal.ReplayStats` of
    the open-time recovery (zeros when no log was replayed), so callers
    -- the CLI included -- can report exactly what recovery did.
    """

    dataset: str
    n: int
    epoch: int
    restored_from_bundle: bool = False
    replayed: int = 0
    replay_skipped: int = 0
    replay_appended: int = 0
    replay_deleted: int = 0
    replay_truncated_bytes: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "OpenResult":
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})
