"""Cycle-attribution profiler: bucket semantics and the sum invariant."""

import pytest

from repro.obs.profiler import BUCKETS, CycleProfiler
from repro.obs.tracer import EventTracer


def _profiled(tracer):
    return CycleProfiler(tracer).profile()


def test_requires_finalized_tracer():
    with pytest.raises(ValueError):
        CycleProfiler(EventTracer())


def test_committed_attempt_counts_as_useful_work():
    tracer = EventTracer()
    tracer.on_begin(0, 0, 100, "FlexTM", 1)
    tracer.on_commit(0, 0, 400)
    tracer.finalize([500])
    profile = _profiled(tracer)
    proc = profile.processors[0]
    assert proc.useful_work == 300
    assert proc.non_tx == 200  # 0-100 before begin + 400-500 tail
    assert proc.total == 500


def test_aborted_attempt_counts_as_discarded():
    tracer = EventTracer()
    tracer.on_begin(0, 0, 0, "FlexTM", 1)
    tracer.on_abort(0, 0, 250, "wounded", by=1)
    tracer.finalize([250])
    profile = _profiled(tracer)
    assert profile.processors[0].aborted_discarded == 250
    assert profile.processors[0].useful_work == 0


def test_abort_then_commit_attributes_each_attempt():
    tracer = EventTracer()
    tracer.on_begin(0, 0, 0, "FlexTM", 1)
    tracer.on_abort(0, 0, 100, "wounded", by=1)
    tracer.on_begin(0, 0, 100, "FlexTM", 2)
    tracer.on_commit(0, 0, 350)
    tracer.finalize([350])
    proc = _profiled(tracer).processors[0]
    assert proc.aborted_discarded == 100
    assert proc.useful_work == 250


def test_settled_stall_moves_cycles_out_of_attempt():
    tracer = EventTracer()
    tracer.on_begin(0, 0, 0, "FlexTM", 1)
    # 80 cycles elapsed inside the attempt; 50 of them were backoff.
    tracer.on_stall(0, 80, 50, enemy=1)
    tracer.on_commit(0, 0, 100)
    tracer.finalize([100])
    proc = _profiled(tracer).processors[0]
    assert proc.stalled_on_conflict == 50
    assert proc.useful_work == 50
    assert proc.total == 100


def test_stall_outside_transaction_comes_from_non_tx():
    tracer = EventTracer()
    tracer.on_begin(0, 0, 0, "FlexTM", 1)
    tracer.on_abort(0, 0, 60, "wounded")
    tracer.on_stall(0, 100, 40)  # retry backoff after the abort
    tracer.finalize([100])
    proc = _profiled(tracer).processors[0]
    assert proc.stalled_on_conflict == 40
    assert proc.aborted_discarded == 60
    assert proc.non_tx == 0
    assert proc.total == 100


def test_deferred_overflow_satisfied_by_later_flush():
    tracer = EventTracer()
    tracer.on_begin(0, 0, 0, "FlexTM", 1)
    # Spill announced mid-operation at cycle 50, 20 cycles of walk; the
    # clock lands them when the operation retires.
    tracer.on_overflow(0, 50, "spill", 64, dur=20)
    tracer.on_commit(0, 0, 100)
    tracer.finalize([100])
    proc = _profiled(tracer).processors[0]
    assert proc.overflow_walk == 20
    assert proc.useful_work == 80
    assert proc.total == 100


def test_cut_off_attempt_is_discarded():
    tracer = EventTracer()
    tracer.on_begin(0, 0, 10, "FlexTM", 1)
    tracer.finalize([300])  # run ended mid-attempt
    proc = _profiled(tracer).processors[0]
    assert proc.aborted_discarded == 290
    assert proc.non_tx == 10


def test_preempt_stashes_and_dispatch_restores():
    tracer = EventTracer()
    tracer.on_begin(0, 3, 0, "FlexTM", 1)
    tracer.on_sched(0, 100, "preempt", 3)
    tracer.on_sched(0, 150, "dispatch", 3, status="ok")
    tracer.on_commit(0, 3, 250)
    tracer.finalize([250])
    proc = _profiled(tracer).processors[0]
    # 100 pre-switch + 100 post-resume attempt cycles commit; the 50
    # switch cycles in between are non-transactional overhead.
    assert proc.useful_work == 200
    assert proc.non_tx == 50
    assert proc.total == 250


def test_aborted_while_descheduled_discards_stash():
    tracer = EventTracer()
    tracer.on_begin(0, 3, 0, "FlexTM", 1)
    tracer.on_sched(0, 100, "preempt", 3)
    tracer.on_sched(0, 150, "dispatch", 3, status="aborted")
    tracer.on_abort(0, 3, 160, "aborted while descheduled")
    tracer.finalize([160])
    proc = _profiled(tracer).processors[0]
    # Pre-switch work (100) was stashed and the resume came back
    # aborted: the attempt's work is discarded.  The post-resume unwind
    # (10 cycles) ran outside any attempt, so it is scheduler overhead.
    assert proc.aborted_discarded == 100
    assert proc.non_tx == 50 + 10
    assert proc.total == 160


def test_sum_invariant_synthetic_multiprocessor():
    tracer = EventTracer()
    tracer.on_begin(0, 0, 5, "FlexTM", 1)
    tracer.on_stall(0, 60, 30, enemy=1)
    tracer.on_commit(0, 0, 90)
    tracer.on_begin(1, 1, 0, "FlexTM", 1)
    tracer.on_overflow(1, 40, "walk", 128, dur=20)
    tracer.on_abort(1, 1, 80, "wounded", by=0)
    tracer.finalize([120, 95, 30])
    profile = _profiled(tracer)
    assert profile.total_cycles == 120 + 95 + 30
    aggregate = profile.aggregate()
    assert sum(aggregate[bucket] for bucket in BUCKETS) == profile.total_cycles
    # The idle third processor is pure non-tx.
    assert profile.processors[2].non_tx == 30
