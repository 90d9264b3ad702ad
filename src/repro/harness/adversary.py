"""``python -m repro.harness adversary`` — the conformance matrix CLI.

Runs every named adversarial schedule (see
:mod:`repro.adversary.schedules`) against every TM backend with strict
invariants, the opacity probe, and the serializability oracle armed,
then renders a verdict table and (optionally) writes the
``repro.adversary/v1`` JSON report.  The exit status is non-zero on
any ``violates`` verdict — including opacity (zombie snapshot)
violations and aborts on progressiveness schedules.

The matrix is bit-identical across reruns and across ``--jobs`` values
(workers partition by backend, preserving every cell's seed and row
order), so a CI failure replays locally with the same command line.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Sequence

from repro.adversary.conformance import (
    DEFAULT_CYCLE_LIMIT,
    ScheduleCell,
    run_adversary_matrix,
)
from repro.adversary.schedules import SCHEDULES
from repro.harness.chaos import MatrixCli, render_table
from repro.harness.runner import resolve_names

#: Schema tag for the JSON report.
REPORT_SCHEMA = "repro.adversary/v1"


def resolve_schedules(names: Sequence[str]) -> List[str]:
    """Validate schedule names against the catalog (SystemExit on junk)."""
    return resolve_names(names, tuple(SCHEDULES), "schedule")


def list_schedules() -> str:
    """The ``--list-schedules`` discovery listing."""
    lines = ["named adversarial schedules:"]
    for spec in SCHEDULES.values():
        flavor = "forbid-aborts" if spec.forbid_aborts else "conflict"
        lines.append(f"  {spec.name:<22} [{flavor}] {spec.description}")
        lines.append(f"  {'':<22} -- {spec.citation}")
    return "\n".join(lines) + "\n"


def render_matrix(rows: List[ScheduleCell]) -> str:
    """Human-readable verdict table."""
    return render_table(
        f"{'backend':<10} {'schedule':<22} {'verdict':<19} "
        f"{'commits':>7} {'aborts':>7} {'zombies':>7}  detail",
        rows,
        lambda cell: (
            f"{cell.backend:<10} {cell.schedule:<22} {cell.verdict:<19} "
            f"{cell.commits:>7} {cell.aborts:>7} "
            f"{cell.probe.get('zombie_attempts', 0):>7}  {cell.detail}"
        ),
    )


CLI = MatrixCli(
    name="adversary", axis="schedule", choices=tuple(SCHEDULES),
    axis_help="schedule names", label="verdict", run=run_adversary_matrix,
    render=render_matrix,
    passed="every schedule conforms (or aborts exactly as the theory "
    "requires) on every backend",
    fail_detail=True,
)


def build_report(
    rows: List[ScheduleCell],
    seed: int,
    backends: Sequence[str],
    schedules: Sequence[str],
    cycle_limit: int,
    strict: bool,
) -> Dict[str, object]:
    return CLI.report(rows, seed, backends, schedules, cycle_limit,
                      schema=REPORT_SCHEMA, strict=strict)


def run_adversary_command(argv=None) -> int:
    """``python -m repro.harness adversary`` — run the conformance matrix."""
    parser = CLI.parser(
        "Drive every TM backend through the named adversarial "
        "schedules from the TM-theory literature, with strict invariants, "
        "opacity/zombie probes, and the serializability oracle armed; "
        "fail on any conformance violation.",
        DEFAULT_CYCLE_LIMIT,
    )
    parser.add_argument("--no-strict", action="store_true",
                        help="drop strict invariants (wound-attribution "
                        "losses become silent instead of diagnosed)")
    parser.add_argument("--list-schedules", action="store_true",
                        help="list the named schedules and exit")
    args = parser.parse_args(argv)

    if args.list_schedules:
        sys.stdout.write(list_schedules())
        return 0
    strict = not args.no_strict
    return CLI.main(args, dict(strict=strict), schema=REPORT_SCHEMA, strict=strict)
