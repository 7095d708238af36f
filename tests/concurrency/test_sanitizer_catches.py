"""The sanitizer catches what it claims to catch -- deterministically.

The mutation-sweep bar applied to the sanitizer itself: each class in
``fixtures/racy.py`` hides one classic concurrency defect (unguarded
write, lock-order inversion, missed condition signal), and each test
pins a schedule under which the corresponding checker *must* fire.
The guard-declaration completeness tests close the loop from the other
side: deleting any ``# guarded-by:`` from the instrumented
modules flips one of these red, even though lint alone would only see
the accesses stop being checked.
"""

import pytest

from repro.analysis import guards
from repro.analysis.interleave import (
    DeadlockError,
    PrefixChooser,
    run_interleaved,
)
from repro.analysis.sanitizer import GuardViolation, LockOrderViolation

from .fixtures.racy import InvertedPair, MissedSignal, RacyCounter


class TestRacyFixtures:
    def test_unguarded_write_raises_guard_violation(self):
        counter = RacyCounter()
        with pytest.raises(GuardViolation) as exc:
            run_interleaved([counter.increment, counter.increment], seed=7)
        message = str(exc.value)
        assert "RacyCounter.count" in message
        assert "guarded-by: _lock" in message
        assert "offending stack" in message

    def test_same_seed_same_schedule(self):
        def trace_of():
            counter = RacyCounter()
            return tuple(
                run_interleaved([counter.read, counter.read], seed=99).trace
            )

        assert trace_of() == trace_of()  # replayable

    def test_lock_order_inversion_raises_with_both_stacks(self):
        pair = InvertedPair()
        with pytest.raises(LockOrderViolation) as exc:
            run_interleaved([pair.ab, pair.ba], seed=3)
        message = str(exc.value)
        assert "InvertedPair._a" in message and "InvertedPair._b" in message
        assert "closes the cycle" in message
        # Both stacks: the acquiring thread's and the one that first
        # established the opposite edge.
        assert message.count("--- stack") == 2

    def test_inversion_caught_under_every_seed(self):
        # lockdep property: one edge per direction suffices; no actual
        # deadlock schedule is needed, so *every* schedule convicts.
        for seed in (0, 1, 2, 17, 1991):
            pair = InvertedPair()
            with pytest.raises(LockOrderViolation):
                run_interleaved([pair.ab, pair.ba], seed=seed)

    def test_missed_signal_raises_deadlock_error(self):
        signal = MissedSignal()
        # Force the consumer (task 0) to reach its cv-wait first, then
        # let the producer run: with the notify missing, the consumer
        # can never be woken and the harness reports the deadlock
        # instead of hanging.
        chooser = PrefixChooser([0] * 8, seed=5)
        with pytest.raises(DeadlockError) as exc:
            run_interleaved(
                [signal.consume, signal.produce], chooser=chooser
            )
        assert "MissedSignal._cv" in str(exc.value)
        assert not signal.consumed

    def test_fixed_signal_completes(self):
        # The same schedule with the notify restored completes fine --
        # the DeadlockError above is the bug, not the harness.
        signal = MissedSignal()

        def produce_correctly():
            with signal._cv:
                signal.ready = True
                signal._cv.notify_all()

        run_interleaved(
            [signal.consume, produce_correctly],
            chooser=PrefixChooser([0] * 8, seed=5),
        )
        assert signal.consumed


#: Every ``# guarded-by:`` declaration the instrumented modules
#: make, keyed by class.  Deleting a declaration (the acceptance-bar
#: mutation) shrinks the parsed table and fails the matching test.
EXPECTED_GUARDS = {
    ("repro.service.facade", "RegionService"): {
        "_specs": "_lock",
        "_sessions": "_lock",
        "_baselines": "_lock",
        "_aggregators": "_lock",
        "_counters": "_lock",
        "_health": "_lock",
        "_wal_marks": "_lock",
    },
    ("repro.engine.pool", "SessionPool"): {
        "_sessions": "_lock",
        "_nbytes_cache": "_lock",
        "_evictions": "_lock",
    },
    ("repro.engine.session", "QuerySession"): {
        "_pins": "_memo_lock",
        "_inflight": "_memo_lock",
    },
    ("repro.engine.gate", "SharedExclusiveGate"): {
        "_shared": "_cv",
        "_exclusive": "_cv",
    },
    ("repro.engine.wal", "WriteAheadLog"): {
        "_fh": "_lock",
        "_unsynced": "_lock",
        "_head_epoch": "_lock",
        "_records": "_lock",
        "_checkpoint_epoch": "_lock",
        "_adopt_head": "_lock",
    },
    ("repro.dssearch.grid", "BufferPool"): {
        "_free": "_lock",
        "_pooled_ids": "_lock",
    },
}


class TestGuardDeclarationCoverage:
    @pytest.mark.parametrize(
        "module,classname", sorted(k for k in EXPECTED_GUARDS)
    )
    def test_declarations_complete(self, module, classname):
        import importlib

        mod = importlib.import_module(module)
        declared = guards.guarded_attrs_of(mod.__file__, classname)
        assert declared == EXPECTED_GUARDS[(module, classname)], (
            f"{classname}'s '# guarded-by:' declarations changed -- if "
            "intentional, update EXPECTED_GUARDS; if not, a guard was "
            "dropped and the sanitizer just lost coverage of it"
        )

    def test_descriptors_installed_when_armed(self):
        from repro.analysis.sanitizer import _GuardedAttribute
        from repro.service.facade import RegionService

        for attr in EXPECTED_GUARDS[("repro.service.facade", "RegionService")]:
            assert isinstance(
                RegionService.__dict__.get(attr), _GuardedAttribute
            ), f"no runtime check installed on RegionService.{attr}"
