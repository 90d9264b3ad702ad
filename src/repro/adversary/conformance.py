"""Per-(backend, schedule) conformance cells and the adversary matrix.

Every named schedule from :mod:`repro.adversary.schedules` runs against
every TM backend with the full oracle stack armed: strict invariants,
the :class:`~repro.adversary.probes.OpacityProbe`, the recording
serializability checker, and the metrics hub (for wasted-cycle
accounting).  Each cell gets one of three verdicts:

``conforms``
    every transaction committed, the history is serializable, every
    attempt (committed or aborted) saw a consistent snapshot, and — for
    ``forbid_aborts`` schedules — no transaction aborted;
``aborts-as-required``
    same, except the conflict schedule made the TM abort someone, which
    is the *correct* response to the interleaving;
``violates``
    anything else: a crash, a wedge (missing commits at the cycle
    budget), a serializability or snapshot-consistency (opacity)
    violation, memory diverging from the serial witness, or an abort on
    a progressiveness schedule.

Cells are fully deterministic: the schedule script consumes no RNG and
the per-cell seed only offsets the unique write values, so the same
(seed, backend, schedule) triple replays bit-identically — including
across ``--jobs`` fan-out, which partitions by backend exactly like
the chaos harness.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Dict, List, Optional, Sequence

from repro.adversary.director import ScheduleDirector
from repro.adversary.probes import OpacityProbe
from repro.adversary.schedules import SCHEDULES, ScheduleSpec
from repro.chaos.invariants import InvariantChecker
from repro.harness.chaos import (
    Perturbation,
    cell_seed,
    fan_out,
    judge,
    matrix_cell,
    per_backend,
    run_cell,
)
from repro.runtime.txthread import TxThread

DEFAULT_CYCLE_LIMIT = 10_000_000

#: The verdict that fails the harness.
VIOLATES = "violates"


@dataclasses.dataclass
class ScheduleCell:
    """One (backend, schedule) cell of the conformance matrix."""

    backend: str
    schedule: str
    verdict: str
    seed: int = 0
    commits: int = 0
    aborts: int = 0
    cycles: int = 0
    aborts_by_kind: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: tx.wasted_cycles histogram snapshot (count/total/mean/p95).
    wasted_cycles: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: OpacityProbe.summary() — reads/snapshots checked, zombies, stale.
    probe: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: How the script actually unfolded (ScheduleDirector.log).
    directives: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict != VIOLATES

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class ScheduleArms(Perturbation):
    """An adversary cell: strict invariants, the opacity probe, and the
    schedule's bodies driven by its :class:`ScheduleDirector`."""

    def __init__(self, spec: ScheduleSpec, seed: int, strict: bool):
        self.spec = spec
        self.seed = seed
        self.strict = strict
        self.processors = max(spec.threads, 2)
        self.num_cells = spec.cells
        self.oracle = not spec.plain_ops
        self.probe = OpacityProbe()

    def arm(self, machine):
        machine.set_invariants(InvariantChecker(strict=self.strict))
        machine.observe(self.probe)

    def workload(self, backend, cells):
        for index, cell in enumerate(cells):
            self.probe.track(cell, index)
        # Unique write values, offset per cell so reads-from attribution
        # is exact and distinct across the matrix.
        unique = itertools.count(1000 + (self.seed % 1000) * 10_000)
        bodies, script = self.spec.build(cells, unique)
        self.director = ScheduleDirector(dataclasses.replace(script, seed=self.seed))
        tx_threads = [
            TxThread(thread_id, backend, items)
            for thread_id, items in enumerate(bodies)
        ]
        # Only transactional items produce commits; plain items (bridged
        # schedules) are tallied separately by the threads.
        return tx_threads, sum(
            1 for items in bodies for item in items if item.transactional
        )

    def observe(self, machine, hub, result, run):
        if result is not None:
            wasted = hub.histogram("tx.wasted_cycles")
            run["wasted_cycles"] = {
                key: getattr(wasted, key) for key in ("count", "total", "mean", "p95")
            }
        run["probe"] = self.probe.summary()
        run["directives"] = list(self.director.log)
        if self.probe.violations:
            run["opacity"] = "opacity: " + self.probe.violations[0].detail


def run_schedule_cell(
    backend_name: str,
    schedule: str,
    seed: int = 1,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    strict: bool = True,
    spec: Optional[ScheduleSpec] = None,
) -> ScheduleCell:
    """Run one schedule on one backend with all oracles armed.

    ``spec`` overrides the catalog lookup so synthesized schedules —
    the model-checker's counterexample bridge, the DSL fuzzer — replay
    through exactly the same oracle stack as the named catalog;
    ``schedule`` then only names the cell (and salts its seed).
    """
    if spec is None:
        spec = SCHEDULES[schedule]
    mixed = cell_seed(seed, backend_name, schedule)
    run = run_cell(backend_name, ScheduleArms(spec, mixed, strict), cycle_limit)
    label, detail = judge(run)
    verdict = "conforms"
    if label:
        verdict = VIOLATES
        detail = {"crash": "crash ", "wedged": "wedged: "}.get(label, "") + detail
    elif run["aborts"] and spec.forbid_aborts:
        verdict = VIOLATES
        detail = f"progressiveness: {run['aborts']} abort(s) on a no-conflict schedule"
    elif run["aborts"]:
        verdict = "aborts-as-required"
    return matrix_cell(ScheduleCell, run, backend=backend_name, schedule=schedule,
                       verdict=verdict, seed=mixed, detail=detail)


# ------------------------------------------------------------------ the matrix


def run_adversary_matrix(
    backends: Sequence[str],
    schedules: Sequence[str],
    seed: int,
    jobs: int = 1,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    strict: bool = True,
    progress=None,
) -> List[ScheduleCell]:
    """The full matrix; one worker unit per backend, rows in input order."""
    unit = functools.partial(
        per_backend, run_schedule_cell, tuple(schedules), seed=seed,
        cycle_limit=cycle_limit, strict=strict,
    )
    return fan_out(unit, backends, jobs, progress)
