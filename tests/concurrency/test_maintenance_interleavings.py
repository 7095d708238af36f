"""Maintenance beside queries and updates, under pinned schedules.

Checkpoints, compactions and ``persist`` hold a session's update gate
*shared* (DESIGN.md §11.3): queries run beside them, updates wait for
them.  Each case parks a maintenance call at a chosen point -- after
its CSV write, or at ``facade.compact.pre-rewrite`` -- and drives
queries and updates against it under the interleaving harness:

* a query during the park returns the quiescent answer, bitwise;
* an update started during the park queues at the gate and applies
  only after the maintenance call has finished, so its record survives
  the log truncation;
* reopening from the (CSV, bundle, WAL) files yields the live state,
  bitwise, including after two overlapping checkpoints and a
  compaction.

The harness only switches threads at sanitized locks and conditions,
so the parks and hand-offs here are sanitizer conditions, never
sleeps: a schedule that cannot progress fails as a deadlock.
"""

import numpy as np
import pytest

from repro import faults
from repro.analysis import sanitizer
from repro.analysis.interleave import run_interleaved
from repro.core import CategoricalAttribute
from repro.data import io as data_io
from repro.dssearch import SearchSettings
from repro.service import DatasetSpec, QueryRequest, RegionService, UpdateRequest
from repro.service.facade import FP_COMPACT_PRE_REWRITE

from ..conftest import make_random_dataset

TINY = SearchSettings(ncol=5, nrow=5, max_depth=10)
SEEDS = (0, 7, 42)

REQ = QueryRequest(
    dataset="d",
    terms=("fD:kind", "fS:score", "fA:score@kind=k0"),
    width=10.0,
    height=8.0,
    target=(2.0, 1.0, 1.0, 6.0, 1.5),
)


def _update(i: int) -> UpdateRequest:
    """The ``i``-th update: one delete and one append, every kind kept."""
    return UpdateRequest(
        dataset="d",
        delete=(i,),
        append=((5.0 + 3.0 * i, 30.0 - 2.0 * i, {"kind": f"k{i % 3}", "score": 1.5 * i}),),
    )


class _Flag:
    """A one-shot event built on a sanitizer condition (harness-visible)."""

    def __init__(self) -> None:
        self._cv = sanitizer.make_condition("test.flag")
        self._set = False

    def set_once(self) -> bool:
        """Set the flag; True only for the call that set it."""
        with self._cv:
            first = not self._set
            self._set = True
            self._cv.notify_all()
            return first

    def wait(self) -> None:
        with self._cv:
            while not self._set:
                self._cv.wait()

    def is_set(self) -> bool:
        with self._cv:
            return self._set


class _Park:
    """The first caller of :meth:`hold` blocks there until :meth:`release`."""

    def __init__(self) -> None:
        self.parked = _Flag()
        self.released = _Flag()

    def hold(self) -> None:
        if self.parked.set_once():
            self.released.wait()

    def release(self) -> None:
        self.released.set_once()


def _park_after_csv(monkeypatch, park: _Park) -> None:
    real = data_io.save_csv

    def save_csv_then_park(dataset, path):
        real(dataset, path)
        park.hold()

    # The facade imports save_csv at call time, from this module.
    monkeypatch.setattr(data_io, "save_csv", save_csv_then_park)


def _park_at(monkeypatch, site: str, park: _Park) -> None:
    real = faults.failpoint

    def failpoint(name, **kwargs):
        if name == site:
            park.hold()
        real(name, **kwargs)

    monkeypatch.setattr(faults, "failpoint", failpoint)


def _update_waits_at_gate(service) -> bool:
    """An update has claimed the gate and waits for shared holders."""
    gate = service.session("d")._update_gate
    with gate._cv:
        return gate._exclusive and gate._shared > 0


def _release_once_update_queued(park: _Park, service, update_done: _Flag) -> None:
    """Release ``park`` once the update is queued at the gate -- or, if
    nothing holds the gate against it, once it has finished."""
    # Each probe takes the gate's condition, a harness switch point, so
    # the updater advances between probes.  The bound turns a schedule
    # where neither ever happens into a failure instead of a livelock.
    for _ in range(10_000):
        if update_done.is_set() or _update_waits_at_gate(service):
            park.release()
            return
    raise AssertionError("the update neither queued at the gate nor finished")


def _run_update(service, request, results: dict, update_done: _Flag) -> None:
    try:
        results["update"] = service.update(request)
    finally:
        update_done.set_once()


def _durable(tmp_path, updates: int):
    """A writer service over (CSV, bundle, WAL) with ``updates`` logged."""
    data = tmp_path / "d.csv"
    data_io.save_csv(make_random_dataset(np.random.default_rng(23), 60, extent=40.0), data)
    spec = DatasetSpec(
        key="d",
        data=str(data),
        categorical=("kind",),
        numeric=("score",),
        index=str(tmp_path / "d.idx"),
        wal=str(tmp_path / "d.wal"),
    )
    service = RegionService(settings=TINY)
    service.open(spec)
    for i in range(updates):
        service.update(_update(i))
    return service, spec


def _answer(result):
    return (
        result.region,
        result.score.hex(),
        np.asarray(result.representation, dtype=np.float64).tobytes(),
        result.epoch,
    )


def _state(service):
    """Epoch, coordinates and decoded attribute values, bitwise."""
    session = service.session("d")
    dataset = session.dataset
    columns = []
    for attr in dataset.schema:
        values = dataset.column(attr.name).tolist()
        if isinstance(attr, CategoricalAttribute):
            values = attr.decode(values)
        columns.append(values)
    return session.epoch, dataset.xs.tobytes(), dataset.ys.tobytes(), columns


def _assert_reopens_to(live, spec, *, replayed: int) -> None:
    """A fresh service over the same files holds ``live``'s state."""
    reopened = RegionService(settings=TINY)
    assert reopened.open(spec).replayed == replayed
    assert _state(reopened) == _state(live)
    assert _answer(reopened.query(REQ)) == _answer(live.query(REQ))


class TestCheckpointBesideTraffic:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_query_passes_parked_checkpoint_and_update_waits(
        self, seed, tmp_path, monkeypatch
    ):
        service, spec = _durable(tmp_path, updates=1)
        quiet = _answer(service.query(REQ))
        park, queried, update_done = _Park(), _Flag(), _Flag()
        _park_after_csv(monkeypatch, park)
        results = {}

        def checkpointer():
            results["checkpoint"] = service.checkpoint("d")

        def querier():
            park.parked.wait()
            # Were the checkpoint to hold the gate exclusively, this
            # query would wait for it while it waits for this thread:
            # the harness would report a deadlock.
            results["query"] = _answer(service.query(REQ))
            queried.set_once()
            _release_once_update_queued(park, service, update_done)

        def updater():
            queried.wait()
            _run_update(service, _update(1), results, update_done)

        run_interleaved([checkpointer, querier, updater], seed=seed)
        assert results["query"] == quiet
        # The checkpoint saved epoch 1 and dropped its one record; the
        # update applied after it, so its record is the one left.
        assert results["checkpoint"].epoch == 1
        assert results["checkpoint"].wal_records_dropped == 1
        assert results["update"].epoch == 2
        assert service.session("d").wal.state()["records"] == 1
        _assert_reopens_to(service, spec, replayed=1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_query_passes_parked_compaction_and_update_waits(
        self, seed, tmp_path, monkeypatch
    ):
        service, spec = _durable(tmp_path, updates=2)
        quiet = _answer(service.query(REQ))
        park, queried, update_done = _Park(), _Flag(), _Flag()
        _park_at(monkeypatch, FP_COMPACT_PRE_REWRITE, park)
        results = {}

        def compactor():
            results["compact"] = service.compact("d")

        def querier():
            park.parked.wait()
            results["query"] = _answer(service.query(REQ))
            queried.set_once()
            _release_once_update_queued(park, service, update_done)

        def updater():
            queried.wait()
            _run_update(service, _update(2), results, update_done)

        run_interleaved([compactor, querier, updater], seed=seed)
        assert results["query"] == quiet
        compact = results["compact"]
        assert (compact.records_before, compact.records_after, compact.epoch) == (2, 1, 2)
        assert results["update"].epoch == 3
        # The merged record plus the update's, appended after the rewrite.
        assert service.session("d").wal.state()["records"] == 2
        _assert_reopens_to(service, spec, replayed=2)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_overlapping_checkpoints_and_compaction_reopen_bitwise(
        self, seed, tmp_path, monkeypatch
    ):
        service, spec = _durable(tmp_path, updates=3)
        quiet = _answer(service.query(REQ))
        csv_park, compact_park = _Park(), _Park()
        update_go, update_done = _Flag(), _Flag()
        _park_after_csv(monkeypatch, csv_park)
        _park_at(monkeypatch, FP_COMPACT_PRE_REWRITE, compact_park)
        results = {}

        def first_checkpoint():
            results["a"] = service.checkpoint("d")

        def compactor():
            results["compact"] = service.compact("d")

        def coordinator():
            csv_park.parked.wait()
            compact_park.parked.wait()
            # Checkpoint A sits between its CSV write and its bundle
            # save, the compaction before its rewrite.  Release the
            # compaction and run a second checkpoint start to finish:
            # the schedule decides which of the two rewrites the log
            # first, while A stays parked.
            results["query"] = _answer(service.query(REQ))
            compact_park.release()
            results["b"] = service.checkpoint("d")
            update_go.set_once()
            _release_once_update_queued(csv_park, service, update_done)

        def updater():
            update_go.wait()
            _run_update(service, _update(3), results, update_done)

        run_interleaved(
            [first_checkpoint, compactor, coordinator, updater], seed=seed
        )
        assert results["query"] == quiet
        assert results["a"].epoch == results["b"].epoch == 3
        # Three records, or the one the compaction merged them into.
        assert results["b"].wal_records_dropped in (1, 3)
        assert results["compact"].epoch == 3
        assert results["update"].epoch == 4
        assert service.session("d").wal.state()["records"] == 1
        _assert_reopens_to(service, spec, replayed=1)


class TestPersistHoldsTheGate:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_update_during_parked_persist_survives_reopen(
        self, seed, tmp_path, monkeypatch
    ):
        # Without the gate, the update commits while persist sits
        # between its CSV write and its bundle save: the bundle then
        # covers a record the CSV lacks, and the log truncation drops it.
        service, spec = _durable(tmp_path, updates=1)
        park, update_done = _Park(), _Flag()
        _park_after_csv(monkeypatch, park)
        results = {}

        def persister():
            results["persist"] = service.persist(
                "d", save_data=spec.data, save_index=spec.index
            )

        def updater():
            park.parked.wait()
            _run_update(service, _update(1), results, update_done)

        def releaser():
            park.parked.wait()
            _release_once_update_queued(park, service, update_done)

        run_interleaved([persister, updater, releaser], seed=seed)
        assert results["persist"].epoch == 1
        assert results["persist"].wal_action == "checkpointed"
        assert results["update"].epoch == 2
        _assert_reopens_to(service, spec, replayed=1)
