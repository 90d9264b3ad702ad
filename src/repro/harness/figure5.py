"""Figure 5: eager vs lazy conflict management (E3) and
multiprogramming (E4).

Plots (a)-(d): FlexTM throughput for RBTree, Vacation-High, LFUCache and
RandomGraph under Eager and Lazy modes, normalized to the 1-thread
Eager run.  The paper's findings to reproduce: Lazy scales better once
contention appears (reader-writer concurrency pays off; commit-time
aborts leave a tiny window of vulnerability), Eager livelocks
RandomGraph, and for low-conflict workloads the two coincide.

Plots (e)-(f): a Prime-factorization application shares the machine
with LFUCache or RandomGraph; transactional threads yield the CPU on
abort.  Eager mode detects doomed transactions earlier and hands the
core to Prime sooner, so Prime scales ~20% better under Eager without
hurting the (concurrency-free) transactional workload.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.core.descriptor import ConflictMode
from repro.harness.parallel import PointSpec, run_points, unwrap
from repro.harness.report import format_series
from repro.harness.runner import ExperimentConfig

POLICY_WORKLOADS = ["RBTree", "Vacation-High", "LFUCache", "RandomGraph"]
MIX_WORKLOADS = ["RandomGraph", "LFUCache"]
DEFAULT_THREAD_POINTS = (1, 2, 4, 8, 16)


@dataclasses.dataclass
class PolicyPoint:
    workload: str
    mode: str
    threads: int
    throughput: float
    normalized: float
    commits: int
    aborts: int


def run_policy_comparison(
    workloads: Sequence[str] = POLICY_WORKLOADS,
    thread_points: Sequence[int] = DEFAULT_THREAD_POINTS,
    cycle_limit: int = 0,
    seed: int = 42,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    jobs: int = 1,
) -> Dict[str, List[PolicyPoint]]:
    """Figure 5(a)-(d): FlexTM Eager vs Lazy.

    ``trace_out`` names a directory for one Chrome trace per point
    (written by the worker that ran it); ``metrics_out`` likewise
    receives one windowed-metrics JSON artifact per point; ``jobs > 1``
    fans the points out across processes with bit-identical output.
    """
    specs: List[PointSpec] = []
    for workload in workloads:
        specs.append(
            PointSpec(
                config=ExperimentConfig(
                    workload=workload,
                    system="FlexTM",
                    threads=1,
                    mode=ConflictMode.EAGER,
                    cycle_limit=cycle_limit,
                    seed=seed,
                ),
                label=f"figure5:{workload}:baseline",
            )
        )
    for workload in workloads:
        for mode in (ConflictMode.EAGER, ConflictMode.LAZY):
            for threads in thread_points:
                specs.append(
                    PointSpec(
                        config=ExperimentConfig(
                            workload=workload,
                            system="FlexTM",
                            threads=threads,
                            mode=mode,
                            cycle_limit=cycle_limit,
                            seed=seed,
                        ),
                        label=f"figure5:{workload}:{mode.value}:{threads}t",
                        name=f"figure5_{workload}_{mode.value}_{threads}t",
                        trace_dir=trace_out,
                        metrics_dir=metrics_out,
                    )
                )
    outcomes = iter(run_points(specs, jobs=jobs))
    baselines = {
        workload: unwrap(next(outcomes)).throughput or 1.0
        for workload in workloads
    }
    results: Dict[str, List[PolicyPoint]] = {}
    for workload in workloads:
        base_tput = baselines[workload]
        points: List[PolicyPoint] = []
        for mode in (ConflictMode.EAGER, ConflictMode.LAZY):
            for threads in thread_points:
                result = unwrap(next(outcomes))
                points.append(
                    PolicyPoint(
                        workload=workload,
                        mode=mode.value,
                        threads=threads,
                        throughput=result.throughput,
                        normalized=result.throughput / base_tput,
                        commits=result.commits,
                        aborts=result.aborts,
                    )
                )
        results[workload] = points
    return results


@dataclasses.dataclass
class MixPoint:
    workload: str
    mode: str
    threads: int
    prime_items: int
    tx_commits: int


def run_multiprogramming(
    workloads: Sequence[str] = MIX_WORKLOADS,
    thread_points: Sequence[int] = (2, 4, 8),
    cycle_limit: int = 0,
    seed: int = 42,
    jobs: int = 1,
) -> Dict[str, List[MixPoint]]:
    """Figure 5(e)-(f): Prime sharing the machine with a TM workload.

    Implements the paper's user-level schedule: "on transaction abort
    the thread yields to compute-intensive work" — each aborting thread
    runs one Prime factorization before retrying.  Eager management
    detects doomed transactions earlier, so aborts (and therefore Prime
    interludes) come sooner and CPU wasted in doomed work shrinks;
    yielding also serializes the transactional side enough to sidestep
    Eager RandomGraph's livelock.
    """
    specs = [
        PointSpec(
            config=ExperimentConfig(
                workload=workload,
                system="FlexTM",
                threads=threads,
                mode=mode,
                cycle_limit=cycle_limit,
                seed=seed,
                yield_on_abort=True,
            ),
            label=f"figure5mix:{workload}:{mode.value}:{threads}t",
        )
        for workload in workloads
        for mode in (ConflictMode.EAGER, ConflictMode.LAZY)
        for threads in thread_points
    ]
    outcomes = iter(run_points(specs, jobs=jobs))
    results: Dict[str, List[MixPoint]] = {}
    for workload in workloads:
        points: List[MixPoint] = []
        for mode in (ConflictMode.EAGER, ConflictMode.LAZY):
            for threads in thread_points:
                result = unwrap(next(outcomes))
                prime_items = result.nontx_items
                points.append(
                    MixPoint(
                        workload=workload,
                        mode=mode.value,
                        threads=threads,
                        prime_items=prime_items,
                        tx_commits=result.commits,
                    )
                )
        results[workload] = points
    return results


def render_policy(results: Dict[str, List[PolicyPoint]]) -> str:
    lines = ["Figure 5(a)-(d): FlexTM Eager vs Lazy (normalized to Eager, 1 thread)"]
    for workload, points in results.items():
        lines.append(f"-- {workload} --")
        by_mode: Dict[str, List] = {}
        for point in points:
            by_mode.setdefault(point.mode, []).append((point.threads, point.normalized))
        for mode, series in by_mode.items():
            lines.append(format_series(f"  {mode}", series))
    return "\n".join(lines)


def render_multiprogramming(results: Dict[str, List[MixPoint]]) -> str:
    lines = ["Figure 5(e)-(f): Prime + transactional workload (items completed)"]
    for workload, points in results.items():
        lines.append(f"-- Prime + {workload} --")
        by_mode: Dict[str, List] = {}
        for point in points:
            by_mode.setdefault(point.mode, []).append((point.threads, point.prime_items))
        for mode, series in by_mode.items():
            lines.append(format_series(f"  Prime w/ {mode}", series))
    return "\n".join(lines)
