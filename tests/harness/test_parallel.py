"""The parallel experiment executor.

The load-bearing invariant (same one PR 1 established for tracing):
fanning points out across worker processes changes *when* they run,
never *what* they compute — ``--jobs N`` rows are bit-identical to
``--jobs 1`` for every TM backend.  Worker failure modes (exception,
crash, timeout) must surface as structured outcomes, not dead sweeps.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.core.descriptor import ConflictMode
from repro.harness import parallel
from repro.harness.benchgate import bench_payload, validate_bench_payload
from repro.harness.parallel import (
    Outcome,
    PointSpec,
    effective_jobs,
    run_points,
    unwrap,
)
from repro.harness.runner import SYSTEMS, ExperimentConfig
from repro.harness.sweep import ROW_FIELDS, SweepSpec, run_sweep
from repro.params import small_test_params

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault-injecting units are inherited by forked workers",
)


class CrashingPoint(PointSpec):
    """A point whose worker dies without reporting."""

    def __call__(self):
        os._exit(3)


class HangingPoint(PointSpec):
    """A point that never finishes within any test budget."""

    def __call__(self):
        time.sleep(60)


def _config(workload="HashTable", system="FlexTM", threads=2, seed=7):
    return ExperimentConfig(
        workload=workload,
        system=system,
        threads=threads,
        mode=ConflictMode.EAGER,
        cycle_limit=10_000,
        seed=seed,
        params=small_test_params(4),
    )


@pytest.fixture
def all_backend_spec():
    return SweepSpec(
        workloads=["HashTable"],
        systems=sorted(SYSTEMS),
        thread_counts=(1, 2),
        modes=(ConflictMode.EAGER,),
        seeds=(7,),
        cycle_limit=10_000,
        params=small_test_params(4),
    )


def test_parallel_rows_bit_identical_to_serial(all_backend_spec):
    serial = run_sweep(all_backend_spec, jobs=1)
    fanned = run_sweep(all_backend_spec, jobs=3)
    assert serial == fanned
    assert len(serial) == all_backend_spec.size()
    assert {row["system"] for row in serial} == set(SYSTEMS)
    assert all(row["status"] == "ok" for row in serial)


def test_outcomes_ordered_by_submission_index():
    specs = [
        PointSpec(config=_config(threads=threads), label=f"p{threads}")
        for threads in (4, 1, 3, 2)
    ]
    outcomes = run_points(specs, jobs=2)
    assert [outcome.index for outcome in outcomes] == [0, 1, 2, 3]
    assert [outcome.label for outcome in outcomes] == ["p4", "p1", "p3", "p2"]
    assert all(outcome.ok for outcome in outcomes)


@pytest.mark.parametrize("jobs", [1, 2])
def test_exception_becomes_error_row_not_dead_sweep(jobs):
    spec = SweepSpec(
        workloads=["HashTable", "NoSuchWorkload"],
        systems=["FlexTM"],
        thread_counts=(1,),
        modes=(ConflictMode.EAGER,),
        seeds=(7,),
        cycle_limit=10_000,
        params=small_test_params(4),
    )
    rows = run_sweep(spec, jobs=jobs)
    assert len(rows) == 2
    good, bad = rows
    assert good["status"] == "ok" and good["commits"] > 0
    assert bad["workload"] == "NoSuchWorkload"
    assert bad["status"] == "exception"
    assert "NoSuchWorkload" in bad["error"]
    assert bad["commits"] == 0 and bad["throughput"] == 0.0
    assert set(bad) == set(ROW_FIELDS)


@needs_fork
def test_crashed_worker_is_isolated_and_retried():
    specs = [
        PointSpec(config=_config(system="FlexTM"), label="ok-point"),
        CrashingPoint(config=_config(system="CGL"), label="crash-point"),
    ]
    outcomes = run_points(specs, jobs=2, retries=1)
    assert outcomes[0].ok and outcomes[0].status == "ok"
    crashed = outcomes[1]
    assert not crashed.ok
    assert crashed.status == "crash"
    assert "exit code 3" in crashed.error
    assert crashed.attempts == 2  # initial launch + one retry
    with pytest.raises(RuntimeError, match="crash-point"):
        unwrap(crashed)


@needs_fork
def test_hung_worker_times_out_without_killing_the_sweep():
    specs = [
        HangingPoint(config=_config(system="TL2"), label="hung-point"),
        PointSpec(config=_config(system="FlexTM"), label="ok-point"),
    ]
    started = time.perf_counter()
    outcomes = run_points(specs, jobs=2, timeout=0.5, retries=0)
    assert time.perf_counter() - started < 30
    hung, fine = outcomes
    assert hung.status == "timeout" and not hung.ok
    assert hung.attempts == 1
    assert "0.5s budget" in hung.error
    assert fine.ok


def test_serial_path_never_forks(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover — would fail the test
        raise AssertionError("jobs=1 must not spawn workers")

    monkeypatch.setattr(parallel, "_mp_context", boom)
    outcomes = run_points(
        [PointSpec(config=_config(threads=threads)) for threads in (1, 2)], jobs=1
    )
    assert [outcome.ok for outcome in outcomes] == [True, True]


def test_parallel_figures_match_serial():
    from repro.harness.figure4 import run_figure4
    from repro.harness.figure5 import run_multiprogramming, run_policy_comparison

    assert run_figure4(
        workloads=["HashTable"], thread_points=(1, 2), cycle_limit=10_000, jobs=2
    ) == run_figure4(
        workloads=["HashTable"], thread_points=(1, 2), cycle_limit=10_000, jobs=1
    )
    assert run_policy_comparison(
        workloads=["RBTree"], thread_points=(1, 2), cycle_limit=10_000, jobs=2
    ) == run_policy_comparison(
        workloads=["RBTree"], thread_points=(1, 2), cycle_limit=10_000, jobs=1
    )
    assert run_multiprogramming(
        workloads=["LFUCache"], thread_points=(2,), cycle_limit=10_000, jobs=2
    ) == run_multiprogramming(
        workloads=["LFUCache"], thread_points=(2,), cycle_limit=10_000, jobs=1
    )


def test_parallel_traces_written_by_workers(tmp_path):
    specs = [
        PointSpec(
            config=_config(threads=threads),
            label=f"t{threads}",
            name=f"point_{threads}t",
            trace_dir=str(tmp_path),
        )
        for threads in (1, 2)
    ]
    outcomes = run_points(specs, jobs=2)
    for outcome, threads in zip(outcomes, (1, 2)):
        assert outcome.ok
        path = tmp_path / f"point_{threads}t.json"
        document = json.loads(path.read_text())
        assert document["traceEvents"]


def test_bench_json_written_and_valid(all_backend_spec, tmp_path):
    bench_path = tmp_path / "BENCH_sweep.json"
    run_sweep(all_backend_spec, jobs=2, bench_out=str(bench_path))
    document = json.loads(bench_path.read_text())
    assert validate_bench_payload(document) is None
    assert document["jobs"] == 2
    assert document["num_points"] == all_backend_spec.size()
    assert document["num_errors"] == 0
    assert document["total_wall_time_s"] > 0
    assert document["serial_estimate_s"] > 0
    assert document["sweep"]["systems"] == sorted(SYSTEMS)
    assert document["host"]["cpu_count"] == os.cpu_count()


def test_validate_bench_payload_rejects_junk():
    assert validate_bench_payload([]) is not None
    assert validate_bench_payload({"schema": "nope"}) is not None
    good = bench_payload(
        [Outcome(index=0, label="p", ok=True, status="ok", wall_time=0.1)],
        jobs=2,
        total_wall_time=0.1,
    )
    assert validate_bench_payload(good) is None
    broken = dict(good, num_errors=5)
    assert validate_bench_payload(broken) is not None


def test_benchgate_cli(all_backend_spec, tmp_path, capsys):
    from repro.harness.benchgate import main as benchgate

    bench_path = tmp_path / "BENCH_sweep.json"
    run_sweep(all_backend_spec, jobs=2, bench_out=str(bench_path))
    assert benchgate([str(bench_path), "--baseline", str(bench_path)]) == 0
    assert "benchgate: OK" in capsys.readouterr().out

    # A 1000x-faster fake baseline must trip the regression gate.
    fast = json.loads(bench_path.read_text())
    fast["total_wall_time_s"] = fast["total_wall_time_s"] / 1000.0
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(fast))
    assert (
        benchgate([str(bench_path), "--baseline", str(baseline_path)]) == 1
    )
    assert "FAIL" in capsys.readouterr().out


def test_effective_jobs():
    assert effective_jobs(None) == (os.cpu_count() or 1)
    assert effective_jobs(0) == (os.cpu_count() or 1)
    assert effective_jobs(1) == 1
    assert effective_jobs(7) == 7
