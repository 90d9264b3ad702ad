"""The Section 7.3 overflow study (E7).

The paper extended the L1 with an *unbounded victim buffer* as an ideal
machine in which TMI lines never spill, and compared redo-logging
(overflow-table) performance against it: ~7% average slowdown, up to
13% in RandomGraph, because restarted transactions queue behind the
committed transaction's copy-back.  Workloads that never overflow show
no slowdown.

To make the small write sets of the benchmarks overflow the same way
they do on the paper's 2-way 32KB L1, the study runs on a reduced L1
(set conflicts, not capacity, cause all the spills — as the paper
observes).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.core.descriptor import ConflictMode
from repro.harness.parallel import PointSpec, run_points, unwrap
from repro.harness.runner import ExperimentConfig
from repro.params import CacheGeometry, SystemParams


def overflow_params(num_processors: int = 16) -> SystemParams:
    """A geometry under which benchmark write sets spill by conflict.

    Like the paper's 32KB 2-way L1, overflows here come from *set*
    conflicts, not capacity: the cache is scaled down in proportion to
    our scaled-down working sets, keeping spills occasional (a handful
    of lines per affected transaction) rather than thrashing.
    """
    return SystemParams(
        num_processors=num_processors,
        l1=CacheGeometry(size_bytes=1024, associativity=2, line_bytes=64),
        l2=CacheGeometry(size_bytes=1024 * 1024, associativity=8, line_bytes=64),
        victim_buffer_entries=0,
    )


@dataclasses.dataclass
class OverflowPoint:
    workload: str
    ot_throughput: float
    ideal_throughput: float
    spills: int

    @property
    def slowdown_percent(self) -> float:
        if self.ideal_throughput <= 0:
            return 0.0
        return 100.0 * (1.0 - self.ot_throughput / self.ideal_throughput)


def run_overflow_study(
    workloads: Sequence[str] = ("HashTable", "RBTree", "RandomGraph"),
    threads: int = 2,
    cycle_limit: int = 0,
    seeds: Sequence[int] = (42, 43, 44),
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    jobs: int = 1,
) -> Dict[str, OverflowPoint]:
    """OT vs ideal, averaged over seeds, under lazy management.

    Conflict dynamics differ run to run (wound patterns shift with the
    interleaving), so the modest OT cost only emerges from an average —
    the paper's much longer Simics runs average implicitly.  Lazy mode
    keeps RandomGraph out of the eager livelock that would otherwise
    drown the versioning signal this study isolates.  ``jobs > 1`` fans
    the (workload, seed, OT/ideal) points out across processes.
    """
    params = overflow_params()
    specs: List[PointSpec] = []
    for workload in workloads:
        for seed in seeds:
            base = ExperimentConfig(
                workload=workload,
                system="FlexTM",
                threads=threads,
                mode=ConflictMode.LAZY,
                cycle_limit=cycle_limit,
                seed=seed,
                params=params,
            )
            specs.append(
                PointSpec(
                    config=base,
                    label=f"overflow:{workload}:s{seed}:ot",
                    name=f"overflow_{workload}_seed{seed}",
                    trace_dir=trace_out,
                    metrics_dir=metrics_out,
                )
            )
            specs.append(
                PointSpec(
                    config=dataclasses.replace(base, tmi_to_victim=True),
                    label=f"overflow:{workload}:s{seed}:ideal",
                )
            )
    outcomes = iter(run_points(specs, jobs=jobs))
    results: Dict[str, OverflowPoint] = {}
    for workload in workloads:
        ot_total, ideal_total, spills = 0.0, 0.0, 0
        for seed in seeds:
            with_ot = unwrap(next(outcomes))
            ideal = unwrap(next(outcomes))
            ot_total += with_ot.throughput
            ideal_total += ideal.throughput
            spills += with_ot.stats.get("ot.spills", 0)
        results[workload] = OverflowPoint(
            workload=workload,
            ot_throughput=ot_total / len(seeds),
            ideal_throughput=ideal_total / len(seeds),
            spills=spills,
        )
    return results


def render_overflow(results: Dict[str, OverflowPoint]) -> str:
    from repro.harness.report import format_table

    rows = [
        [
            point.workload,
            f"{point.ot_throughput:.0f}",
            f"{point.ideal_throughput:.0f}",
            point.spills,
            f"{point.slowdown_percent:.1f}%",
        ]
        for point in results.values()
    ]
    return format_table(
        ["Workload", "OT tput", "Ideal tput", "Spills", "Slowdown"],
        rows,
        title="Section 7.3 overflow study (OT vs unbounded victim buffer)",
    )
