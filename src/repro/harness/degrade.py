"""Degradation-ladder harness: ``python -m repro.harness degrade``.

Crosses the same seeded fault matrix as ``harness chaos`` — every TM
backend under every fault profile, with the chaos engine, invariant
checker, livelock watchdog, and serializability oracle armed — but
additionally installs a :class:`~repro.resilience.degrade.\
ResilienceController` with a deliberately tight ladder, then reports
**forward progress**: commits per ladder rung and time-to-recovery.

Classification per cell:

``clean``
    every transaction committed and the ladder never left HEALTHY.
``recovered``
    every transaction committed and the ladder fired at least once
    (boost, policy flip, signature rotation, or irrevocable grant) —
    the detect->react loop earned its keep.
``diagnosed``
    the run (or its oracle) raised a structured
    :class:`~repro.errors.ReproError` naming the damage.
``wedged``
    the cycle budget expired with transactions outstanding: the ladder
    failed to guarantee progress.  **Test failure.**
``silent-corruption``
    final memory does not replay from the serializability witness.
    **Test failure.**
``crash``
    a non-``ReproError`` escaped.  **Test failure.**

Every cell is deterministic from ``(seed, backend, profile, mode)``:
the controller draws no random numbers and the chaos streams are the
same crc32-mixed ones the chaos harness replays.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Sequence

from repro.core.descriptor import ConflictMode
from repro.harness.chaos import (
    DEFAULT_CYCLE_LIMIT,
    DEFAULT_THREADS,
    DEFAULT_TXNS,
    FAILING as FAILING,  # re-exported: the labels that fail the harness
    FAULT_PROFILES,
    FaultArms,
    FaultCell,
    MatrixCli,
    fan_out,
    judge,
    matrix_cell,
    per_backend,
    profile_spec,
    render_table,
    run_cell,
)
from repro.resilience import DegradeSpec, ResilienceController

#: The harness ladder is tighter than the library default so every
#: profile actually exercises the rungs on a small workload.
HARNESS_SPEC = DegradeSpec(boost_after=1, eager_after=2, irrevocable_after=3)

#: Escalation counters that mean the ladder fired.
LADDER_KEYS = ("boosts", "policy_flips", "sig_rotations", "irrevocable_grants")


@dataclasses.dataclass
class DegradeCell(FaultCell):
    """One (backend, profile) cell of the ladder-armed fault matrix."""

    #: Commits grouped by the committing thread's ladder rung.
    commits_by_rung: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Cycles from first escalation to the recovering commit.
    recovery: Dict[str, int] = dataclasses.field(default_factory=dict)


class LadderArms(FaultArms):
    """A chaos cell with a :class:`ResilienceController` armed too."""

    def __init__(self, chaos, seed, spec: DegradeSpec, mode: ConflictMode, threads, txns):
        super().__init__(chaos, seed, threads, txns)
        self.controller = ResilienceController(spec)
        self.mode = mode

    def arm(self, machine):
        super().arm(machine)
        machine.set_resilience(self.controller)

    def workload(self, backend, cells):
        self.controller.bind_manager(getattr(backend.inner, "manager", None))
        return super().workload(backend, cells)

    def observe(self, machine, hub, result, run):
        super().observe(machine, hub, result, run)
        run["commits_by_rung"] = dict(self.controller.commits_by_rung)
        recovery = machine.stats.histogram("resilience.recovery_cycles")
        run["recovery"] = {
            "count": recovery.count,
            "mean": int(recovery.mean),
            "max": recovery.maximum,
        }


def run_degrade_cell(
    backend_name: str,
    profile: str,
    seed: int,
    spec: DegradeSpec,
    mode: ConflictMode,
    threads: int,
    txns: int,
    cycle_limit: int,
) -> DegradeCell:
    """One ladder-armed cell, classified."""
    arms = LadderArms(profile_spec(profile, seed, backend_name), seed, spec, mode, threads, txns)
    run = run_cell(backend_name, arms, cycle_limit)
    classification, detail = judge(run)
    if not classification:
        fired = any(run["escalations"].get(key) for key in LADDER_KEYS)
        classification = "recovered" if fired else "clean"
    return matrix_cell(DegradeCell, run, backend=backend_name, profile=profile,
                       classification=classification, detail=detail)


def run_degrade_matrix(
    backends: Sequence[str],
    profiles: Sequence[str],
    seed: int,
    spec: DegradeSpec = HARNESS_SPEC,
    mode: ConflictMode = ConflictMode.LAZY,
    jobs: int = 1,
    threads: int = DEFAULT_THREADS,
    txns: int = DEFAULT_TXNS,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    progress=None,
) -> List[DegradeCell]:
    """The full ladder-armed matrix; one worker unit per backend."""
    unit = functools.partial(
        per_backend, run_degrade_cell, tuple(profiles), seed=seed, spec=spec, mode=mode,
        threads=threads, txns=txns, cycle_limit=cycle_limit,
    )
    return fan_out(unit, backends, jobs, progress)


# -- CLI ----------------------------------------------------------------------


def render_degrade_matrix(rows: List[DegradeCell]) -> str:
    """Human-readable report: per-rung commits and recovery latency."""

    def line(cell: DegradeCell) -> str:
        rungs = "/".join(
            str(cell.commits_by_rung.get(rung, 0))
            for rung in ("healthy", "boosted", "eager", "irrevocable")
        )
        return (
            f"{cell.backend:<10} {cell.profile:<10} {cell.classification:<17} "
            f"{sum(cell.injected.values()):>5} {cell.commits:>7} {cell.aborts:>7} "
            f"{rungs:>14} {cell.recovery.get('max', 0):>11}  "
            f"{cell.detail}"
        )

    return render_table(
        f"{'backend':<10} {'profile':<10} {'class':<17} {'inj':>5} "
        f"{'commits':>7} {'aborts':>7} {'rungs h/b/e/i':>14} {'recov(max)':>11}  detail",
        rows, line,
    )


CLI = MatrixCli(
    name="degrade", axis="profile", choices=tuple(FAULT_PROFILES),
    axis_help="fault profiles", label="classification", run=run_degrade_matrix,
    render=render_degrade_matrix,
    passed="forward progress held on every cell (no wedges, no corruption)",
)


def run_degrade_command(argv=None) -> int:
    """``python -m repro.harness degrade`` — ladder-armed fault matrix."""
    parser = CLI.parser(
        "Run every TM backend under seeded fault injection "
        "with the adaptive degradation ladder armed; report commits per "
        "rung and time-to-recovery; fail on any crash, wedge, or silent "
        "corruption (the forward-progress guarantee).",
        DEFAULT_CYCLE_LIMIT,
    )
    parser.add_argument("--mode", choices=("eager", "lazy"), default="lazy",
                        help="baseline conflict mode (lazy makes the "
                        "EAGER rung's policy flip observable; default lazy)")
    parser.add_argument("--threads", type=int, default=DEFAULT_THREADS,
                        help="transactional threads per run")
    parser.add_argument("--txns", type=int, default=DEFAULT_TXNS,
                        help="transactions per thread per run")
    parser.add_argument("--boost-after", type=int,
                        default=HARNESS_SPEC.boost_after,
                        help="abort streak before back-off boost")
    parser.add_argument("--eager-after", type=int,
                        default=HARNESS_SPEC.eager_after,
                        help="abort streak before the lazy->eager flip")
    parser.add_argument("--irrevocable-after", type=int,
                        default=HARNESS_SPEC.irrevocable_after,
                        help="abort streak before irrevocability")
    args = parser.parse_args(argv)

    spec = dataclasses.replace(
        HARNESS_SPEC,
        boost_after=args.boost_after,
        eager_after=args.eager_after,
        irrevocable_after=args.irrevocable_after,
    )
    sizes = dict(threads=args.threads, txns=args.txns)
    return CLI.main(
        args, dict(spec=spec, mode=ConflictMode(args.mode), **sizes),
        setting=f", mode {args.mode}",
        mode=args.mode, spec=dataclasses.asdict(spec), **sizes,
    )
