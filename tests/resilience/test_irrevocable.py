"""Irrevocability: token FIFO semantics and the serial-mode protocol.

The unit half locks the :class:`IrrevocabilityToken`'s bounded-wait
FIFO (the starvation-freedom argument's core).  The integration half
runs a contended FlexTM workload with a tight ladder and asserts the
whole protocol fired — grants, peer drains with ``irrevocable`` abort
attribution, tracer events, counters on the RunResult — under an armed
:class:`InvariantChecker` whose ``irrevocable-mutex`` rule sweeps the
run (at most one holder, no ACTIVE peers while serial).
"""

from repro.chaos import ChaosSpec
from repro.core.descriptor import ConflictMode
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.obs.tracer import EventTracer
from repro.params import small_test_params
from repro.resilience import DegradeSpec, IrrevocabilityToken

# -- unit: FIFO token ---------------------------------------------------------


def test_token_grants_in_fifo_order():
    token = IrrevocabilityToken()
    for tid in (3, 1, 2):
        token.enqueue(tid)
    assert token.waiting() == [3, 1, 2]
    assert not token.try_grant(1)       # not at the head
    assert not token.try_grant(2)
    assert token.try_grant(3)           # head of the queue
    assert token.holders() == [3]
    assert not token.try_grant(1)       # held: nobody else gets in
    token.release(3)
    assert token.try_grant(1)
    token.release(1)
    assert token.try_grant(2)
    token.release(2)
    assert token.holders() == []
    assert token.waiting() == []
    assert token.grants == 3
    assert token.releases == 3


def test_token_enqueue_is_idempotent():
    token = IrrevocabilityToken()
    token.enqueue(5)
    token.enqueue(5)
    token.enqueue(5)
    assert token.waiting() == [5]
    assert token.try_grant(5)
    token.release(5)
    assert not token.busy


def test_token_busy_while_held_or_queued():
    token = IrrevocabilityToken()
    assert not token.busy
    token.enqueue(1)
    assert token.busy                   # queued counts: new arrivals must wait
    assert token.try_grant(1)
    assert token.busy
    token.release(1)
    assert not token.busy


def test_token_release_by_non_holder_is_a_no_op():
    token = IrrevocabilityToken()
    token.enqueue(1)
    assert token.try_grant(1)
    token.release(2)
    assert token.holders() == [1]
    assert token.releases == 0


def test_token_regrant_to_current_holder():
    token = IrrevocabilityToken()
    token.enqueue(1)
    assert token.try_grant(1)
    assert token.try_grant(1)           # holder re-asking is satisfied
    assert token.grants == 1            # ...without a second grant


# -- integration: the full serial-mode protocol -------------------------------


def _contended_run():
    tracer = EventTracer(trace_coherence=False)
    config = ExperimentConfig(
        workload="HashTable",
        system="FlexTM",
        threads=4,
        cycle_limit=60_000,
        seed=9,
        params=small_test_params(4),
        mode=ConflictMode.LAZY,
        chaos=ChaosSpec(seed=11, sched_preempt=0.002, sig_false_positive=0.05),
        invariants=True,
        degrade=DegradeSpec(boost_after=1, eager_after=1, irrevocable_after=2),
        observers=(tracer,),
    )
    return run_experiment(config), tracer


def test_serial_mode_fires_and_survives_the_invariant_checker():
    # invariants=True arms the irrevocable-mutex sweep: completing at
    # all proves <=1 holder and no ACTIVE peers while serial.
    result, tracer = _contended_run()
    assert result.commits > 0
    assert result.escalations["irrevocable_grants"] >= 1
    assert result.escalations["irrevocable_drains"] >= 1
    assert result.escalations["commits_irrevocable"] >= 1
    # Drained peers carry exact cause attribution.
    assert result.aborts_by_kind.get("irrevocable", 0) >= 1
    # The ladder's path to serial mode is visible in the trace.
    assert len(tracer.by_kind("degrade_escalate")) >= 1
    assert len(tracer.by_kind("degrade_irrevocable_grant")) >= 1
    assert len(tracer.by_kind("degrade_irrevocable_drain")) >= 1
    assert len(tracer.by_kind("degrade_irrevocable_release")) >= 1
    assert len(tracer.by_kind("degrade_recover")) >= 1


def test_lazy_transactions_flip_to_eager_under_pressure():
    result, tracer = _contended_run()
    assert result.escalations["policy_flips"] >= 1
    assert result.escalations["commits_eager"] >= 1
    assert len(tracer.by_kind("degrade_policy_flip")) >= 1


def test_escalation_counters_round_trip_the_run_result():
    result, _ = _contended_run()
    # Every rung's commit bucket is present (even when zero) so report
    # consumers can rely on the schema.
    for rung in ("healthy", "boosted", "eager", "irrevocable"):
        assert f"commits_{rung}" in result.escalations
    assert sum(
        result.escalations[f"commits_{rung}"]
        for rung in ("healthy", "boosted", "eager", "irrevocable")
    ) == result.commits
    assert result.escalations["peak_abort_streak"] >= 2


def test_hash_rotation_fires_on_sustained_pressure():
    # Force "hot" readings on every sample: threshold 0 makes any fill
    # hot, sustain 1 rotates immediately, capped at two rotations.
    config = ExperimentConfig(
        workload="HashTable",
        system="FlexTM",
        threads=2,
        cycle_limit=40_000,
        seed=9,
        params=small_test_params(4),
        invariants=True,
        degrade=DegradeSpec(
            sample_interval=1, sig_fill_threshold=0.0, sig_sustain=1,
            max_rotations=2,
        ),
    )
    result = run_experiment(config)
    assert result.escalations["sig_rotations"] == 2
    assert result.commits > 0
