"""End-to-end observability: tracing is observational, buckets add up.

The load-bearing guarantees:

* attaching an EventTracer never changes a single simulated number
  (same seed => bit-identical RunResult);
* the cycle-attribution buckets sum exactly to the total simulated
  cycles (each processor's final clock);
* the exported Chrome trace is schema-valid for a real run;
* the ``trace`` CLI runs and writes parseable JSON.
"""

import json

import pytest

from repro.core.descriptor import ConflictMode
from repro.harness.overflow import overflow_params
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.profiler import BUCKETS, CycleProfiler
from repro.obs.tracer import EventTracer

CYCLES = 30_000


def _pair(**kwargs):
    """Run the same config untraced and traced; return both results."""
    untraced = run_experiment(ExperimentConfig(**kwargs))
    tracer = EventTracer()
    traced = run_experiment(ExperimentConfig(observers=(tracer,), **kwargs))
    return untraced, traced, tracer


@pytest.mark.parametrize("system", ["FlexTM", "CGL", "RSTM", "TL2", "RTM-F", "LogTM-SE"])
def test_traced_run_is_bit_identical(system):
    untraced, traced, tracer = _pair(
        workload="HashTable", system=system, threads=4, cycle_limit=CYCLES
    )
    # Compares cycles, commits, aborts, per-thread numbers and the
    # stats snapshot.
    assert untraced == traced
    assert tracer.proc_cycles, "the tracer saw the run end"


def test_traced_run_identical_under_preemption():
    kwargs = dict(
        workload="HashTable", system="FlexTM", threads=8,
        cycle_limit=CYCLES, processors=2, quantum=3_000,
    )
    untraced, traced, tracer = _pair(**kwargs)
    assert untraced == traced
    assert tracer.by_kind("preempt"), "expected context switches"


def test_profile_buckets_sum_to_total_cycles():
    _, traced, tracer = _pair(
        workload="RBTree", system="FlexTM", threads=4, cycle_limit=CYCLES
    )
    profile = CycleProfiler(tracer).profile()
    assert profile.total_cycles == sum(tracer.proc_cycles)
    aggregate = profile.aggregate()
    assert sum(aggregate[bucket] for bucket in BUCKETS) == profile.total_cycles
    assert aggregate["useful_work"] > 0


def test_profile_invariant_with_overflow_traffic():
    tracer = EventTracer()
    run_experiment(
        ExperimentConfig(
            workload="RandomGraph", system="FlexTM", threads=2,
            mode=ConflictMode.LAZY, cycle_limit=CYCLES,
            params=overflow_params(), observers=(tracer,),
        )
    )
    assert tracer.by_kind("overflow_spill"), "geometry should spill"
    profile = CycleProfiler(tracer).profile()
    assert profile.total_cycles == sum(tracer.proc_cycles)
    assert profile.aggregate()["overflow_walk"] > 0


def test_lifecycle_events_match_run_counts():
    _, traced, tracer = _pair(
        workload="HashTable", system="FlexTM", threads=4, cycle_limit=CYCLES
    )
    assert len(tracer.by_kind("tx_commit")) == traced.commits
    assert len(tracer.by_kind("tx_abort")) == traced.aborts
    begins = len(tracer.by_kind("tx_begin"))
    # Every begin resolves or is the attempt in flight at the limit.
    assert traced.commits + traced.aborts <= begins <= (
        traced.commits + traced.aborts + traced.per_thread.__len__()
    )


def test_conflict_events_name_cst_kinds():
    _, _, tracer = _pair(
        workload="RBTree", system="FlexTM", threads=8, cycle_limit=CYCLES
    )
    kinds = {event.data["cst"] for event in tracer.by_kind("conflict_detected")}
    assert kinds, "contended RBTree should produce conflicts"
    assert kinds <= {"R-W", "W-R", "W-W", "SI"}


def test_chrome_export_of_real_run_is_valid():
    _, _, tracer = _pair(
        workload="HashTable", system="FlexTM", threads=4, cycle_limit=CYCLES
    )
    document = to_chrome_trace(tracer, label="integration")
    assert validate_chrome_trace(document) is None


def test_trace_cli_end_to_end(tmp_path, capsys):
    from repro.harness.__main__ import main

    trace_path = tmp_path / "run.json"
    jsonl_path = tmp_path / "run.jsonl"
    code = main([
        "trace", "hashtable", "flextm", "--threads", "4",
        "--cycles", "20000",
        "--trace-out", str(trace_path), "--jsonl-out", str(jsonl_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Cycle attribution" in out and "100.0%" in out
    document = json.loads(trace_path.read_text())
    assert validate_chrome_trace(document) is None
    assert jsonl_path.read_text().strip()


def test_trace_cli_rejects_unknown_workload():
    from repro.harness.__main__ import main

    with pytest.raises(SystemExit):
        main(["trace", "nosuchworkload", "FlexTM"])
