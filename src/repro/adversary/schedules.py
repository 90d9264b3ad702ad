"""The named-schedule catalog: theory-bound adversarial interleavings.

Each :class:`ScheduleSpec` packages a workload (per-thread transaction
bodies) with the :class:`~repro.adversary.script.ScheduleScript` that
drives it through a specific interleaving named by the TM-theory
literature — chiefly Kuznetsov & Ravi, "Progressive Transactional
Memory in Time and Space" (arXiv:1502.04908) and "Why Transactional
Memory Should Not Be Obstruction-Free" (arXiv:1502.02725) — plus the
classic opacity/zombie probes (Guerraoui & Kapalka).

Two conformance classes:

* ``forbid_aborts`` schedules encode *progressiveness*: the papers'
  read-read and disjoint-access interleavings admit no conflict, so a
  progressive TM must commit every transaction with zero aborts.  Any
  abort is a ``violates`` verdict.  (FlexTM's Bloom signatures could in
  principle alias disjoint lines into a false conflict; the catalog's
  cells are line-aligned precisely so this stays a real conformance
  check.)
* the rest are conflict schedules where aborting is the *correct*
  response (``aborts-as-required``) — the verdict machinery instead
  checks serializability, opacity (via the probe) and completion.

Bodies are built from an op-list mini-language (``("r", addr)``,
``("w", addr)``, ``("work", n)``, ``("spacer", n)``) with globally
unique write values so the oracles attribute reads exactly.  Spacers
are runs of 1-cycle work ops: they give the director a wide, backend-
independent window of scheduler steps to park/wound a thread *between*
two specific accesses without counting backend-specific op costs.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence, Tuple

from repro.adversary.script import ScheduleScript, Step
from repro.runtime.txthread import WorkItem

#: Ops that position a directive window between two accesses.  40 steps
#: of "run" lands safely past begin + one or two reads on every backend
#: (the costliest, TL2, needs ~10) while a 300-op spacer guarantees the
#: thread is still short of its next access.
_WINDOW = 40
_SPACER = 300

#: Papers the catalog encodes.
PROGRESSIVE = "Kuznetsov & Ravi, arXiv:1502.04908 (progressiveness)"
NOT_OF = "Kuznetsov & Ravi, arXiv:1502.02725 (obstruction-freedom cost)"
OPACITY = "Guerraoui & Kapalka, PPoPP 2008 (opacity / zombie reads)"


def _body(ops: Sequence[Tuple], unique):
    """One transaction body from the op-list mini-language."""

    def body(ctx):
        for op in ops:
            kind = op[0]
            if kind == "r":
                yield from ctx.read(op[1])
            elif kind == "w":
                yield from ctx.write(op[1], next(unique))
            elif kind == "work":
                yield from ctx.work(op[1])
            elif kind == "spacer":
                for _ in range(op[1]):
                    yield from ctx.work(1)
            else:  # pragma: no cover - catalog bugs should fail loudly
                raise ValueError(f"unknown body op {op!r}")

    return body


def _thread(unique, *txns: Sequence[Tuple]) -> List[WorkItem]:
    """One thread's work queue: each op-list is one transaction."""
    return [WorkItem(_body(ops, unique)) for ops in txns]


@dataclasses.dataclass(frozen=True)
class ScheduleSpec:
    """One named schedule: workload builder + script + conformance class."""

    name: str
    description: str
    citation: str
    #: Thread count (the machine gets at least this many processors).
    threads: int
    #: Shadow cells the workload touches (A, B, C, ... by index).
    cells: int
    #: Progressiveness schedules: any abort is a conformance violation.
    forbid_aborts: bool
    #: build(cells, unique) -> (bodies per thread, script).
    build: Callable[..., Tuple[List[List[WorkItem]], ScheduleScript]]
    #: Bridged schedules (model-checker counterexamples) mix plain
    #: loads/stores into the workload.  Plain ops never reach the
    #: recording backend, so the serializability and serial-witness
    #: memory oracles are skipped for these cells (opacity, invariants,
    #: wedge and crash detection stay armed).
    plain_ops: bool = False


# ---------------------------------------------------------------- the catalog


#: The progressiveness schedules' common prefix: both threads begin and
#: interleave a window of operations, then thread 0 reaches its commit.
_INTERLEAVED = (
    Step.run(0, until="begin"),
    Step.run(1, until="begin"),
    Step.run(0, until="ops", count=_WINDOW),
    Step.run(1, until="ops", count=_WINDOW),
    Step.run(0, until="commit"),
)


def _prog_read_read(cells, unique):
    a = cells[0]
    bodies = [
        _thread(unique, [("r", a), ("spacer", _SPACER)]),
        _thread(unique, [("r", a), ("spacer", _SPACER)]),
    ]
    script = ScheduleScript(
        name="prog-read-read",
        citation=PROGRESSIVE,
        steps=_INTERLEAVED + (
            Step.run(1, until="commit"),
            Step.run(0, until="done"),
            Step.run(1, until="done"),
        ),
    )
    return bodies, script


def _prog_disjoint(cells, unique):
    a, b = cells[0], cells[1]
    bodies = [
        _thread(unique, [("r", a), ("spacer", _SPACER), ("w", a)]),
        _thread(unique, [("r", b), ("spacer", _SPACER), ("w", b)]),
    ]
    script = ScheduleScript(
        name="prog-disjoint",
        citation=PROGRESSIVE,
        steps=_INTERLEAVED + (
            Step.run(1, until="commit"),
            Step.run(0, until="done"),
            Step.run(1, until="done"),
        ),
    )
    return bodies, script


def _prog_wr_conflict(cells, unique):
    a = cells[0]
    txn = [("r", a), ("spacer", _SPACER), ("w", a)]
    bodies = [_thread(unique, list(txn)), _thread(unique, list(txn))]
    script = ScheduleScript(
        name="prog-wr-conflict",
        citation=PROGRESSIVE,
        steps=_INTERLEAVED + (Step.run(1, until="done"), Step.run(0, until="done")),
    )
    return bodies, script


def _commit_duel(cells, unique):
    a, b = cells[0], cells[1]
    bodies = [
        _thread(unique, [("w", a), ("spacer", _SPACER), ("w", b)]),
        _thread(unique, [("w", b), ("spacer", _SPACER), ("w", a)]),
    ]
    script = ScheduleScript(
        name="commit-duel",
        citation=NOT_OF,
        steps=(
            Step.run(0, until="begin"),
            Step.run(1, until="begin"),
            Step.run(0, until="ops", count=60),
            Step.run(1, until="ops", count=60),
            Step.stall(1, 500),
            Step.run(0, until="done"),
            Step.run(1, until="done"),
        ),
    )
    return bodies, script


def _read_validation_chain(cells, unique):
    a, b, c = cells[0], cells[1], cells[2]
    bodies = [
        _thread(unique, [
            ("r", a), ("spacer", _SPACER),
            ("r", b), ("spacer", _SPACER),
            ("r", c),
        ]),
        _thread(unique, [("w", a), ("w", b)]),
    ]
    script = ScheduleScript(
        name="read-validation-chain",
        citation=OPACITY,
        steps=(
            Step.run(0, until="begin"),
            Step.run(0, until="ops", count=_WINDOW),
            # Under CGL the writer cannot commit while the reader holds
            # the global lock — a tight budget lets it give up (the
            # schedule is unrealizable there, which is conformant) while
            # every optimistic backend commits in well under 2000 steps.
            Step.run(1, until="commit", budget=2_000),
            Step.run(0, until="ops", count=_SPACER + _WINDOW),
            Step.run(0, until="done"),
            Step.run(1, until="done"),
        ),
    )
    return bodies, script


def _zombie_probe(cells, unique):
    a, b = cells[0], cells[1]
    bodies = [
        _thread(unique, [("r", a), ("spacer", _SPACER), ("r", b), ("work", 10)]),
        _thread(unique, [("w", a), ("w", b)]),
    ]
    script = ScheduleScript(
        name="zombie-probe",
        citation=OPACITY,
        steps=(
            Step.run(0, until="begin"),
            Step.run(0, until="ops", count=_WINDOW),
            Step.preempt(0),
            Step.run(1, until="commit"),
            Step.place(0, processor=0),
            Step.run(0, until="ops", count=_SPACER + _WINDOW),
            Step.wound(0),
            Step.run(0, until="done"),
            Step.run(1, until="done"),
        ),
    )
    return bodies, script


def _of_penalty(cells, unique):
    a = cells[0]
    bodies = [
        _thread(unique, [("r", a), ("w", a), ("spacer", 400)]),
        _thread(unique, [("r", a), ("w", a)], [("r", a), ("w", a)]),
    ]
    script = ScheduleScript(
        name="of-penalty",
        citation=NOT_OF,
        steps=(
            Step.run(0, until="begin"),
            Step.run(0, until="ops", count=50),
            Step.preempt(0),
            Step.pin(1),
            Step.run(1, until="commit", count=2),
            Step.unpin(1),
            Step.place(0),
            Step.run(0, until="done"),
            Step.run(1, until="done"),
        ),
    )
    return bodies, script


def _wound_convoy(cells, unique):
    a, b, c = cells[0], cells[1], cells[2]
    bodies = [
        _thread(unique, [("w", a), ("spacer", 100)]),
        _thread(unique, [("r", a), ("w", b), ("spacer", 100)]),
        _thread(unique, [("r", b), ("w", c), ("spacer", 100)]),
    ]
    script = ScheduleScript(
        name="wound-convoy",
        citation=NOT_OF,
        steps=(
            Step.run(0, until="begin"),
            Step.run(1, until="begin"),
            Step.run(2, until="begin"),
            Step.run(0, until="ops", count=60),
            Step.run(1, until="ops", count=60),
            Step.run(2, until="ops", count=60),
            Step.run(2, until="done"),
            Step.run(1, until="done"),
            Step.run(0, until="done"),
        ),
    )
    return bodies, script


def _migration_restart(cells, unique):
    a, b = cells[0], cells[1]
    bodies = [
        _thread(unique, [("r", a), ("spacer", _SPACER), ("w", a)]),
        _thread(unique, [("r", b), ("w", b)]),
    ]
    script = ScheduleScript(
        name="migration-restart",
        citation=NOT_OF,
        steps=(
            Step.run(0, until="begin"),
            Step.run(0, until="ops", count=_WINDOW),
            Step.preempt(0),
            Step.run(1, until="done"),
            Step.place(0, processor=1),
            Step.run(0, until="done"),
        ),
    )
    return bodies, script


def _adversary_wound(cells, unique):
    a, b = cells[0], cells[1]
    bodies = [
        _thread(unique, [("r", a), ("spacer", _SPACER), ("w", a)]),
        _thread(unique, [("r", b), ("w", b)]),
    ]
    script = ScheduleScript(
        name="adversary-wound",
        citation=NOT_OF,
        steps=(
            Step.run(0, until="begin"),
            Step.run(0, until="ops", count=_WINDOW),
            Step.wound(0),
            Step.run(0, until="done"),
            Step.run(1, until="done"),
        ),
    )
    return bodies, script


#: The catalog, keyed by schedule name (insertion order = run order).
SCHEDULES: Dict[str, ScheduleSpec] = {
    spec.name: spec
    for spec in (
        ScheduleSpec(
            name="prog-read-read",
            description="two readers of one cell fully interleaved — "
                        "progressiveness forbids any abort",
            citation=PROGRESSIVE,
            threads=2, cells=1, forbid_aborts=True,
            build=_prog_read_read,
        ),
        ScheduleSpec(
            name="prog-disjoint",
            description="interleaved transactions on disjoint lines — "
                        "progressiveness forbids any abort (and catches "
                        "signature aliasing)",
            citation=PROGRESSIVE,
            threads=2, cells=2, forbid_aborts=True,
            build=_prog_disjoint,
        ),
        ScheduleSpec(
            name="prog-wr-conflict",
            description="overlapped read-then-write duel on one cell — a "
                        "real conflict the TM may resolve by aborting",
            citation=PROGRESSIVE,
            threads=2, cells=1, forbid_aborts=False,
            build=_prog_wr_conflict,
        ),
        ScheduleSpec(
            name="commit-duel",
            description="opposite-order writes to two cells with a clock "
                        "skew — the classic deadlock-shaped duel",
            citation=NOT_OF,
            threads=2, cells=2, forbid_aborts=False,
            build=_commit_duel,
        ),
        ScheduleSpec(
            name="read-validation-chain",
            description="a slow 3-cell reader races a 2-cell writer that "
                        "commits between its reads — snapshot consistency "
                        "is the oracle",
            citation=OPACITY,
            threads=2, cells=3, forbid_aborts=False,
            build=_read_validation_chain,
        ),
        ScheduleSpec(
            name="zombie-probe",
            description="reader descheduled mid-transaction while a writer "
                        "commits both its cells; the resumed zombie must "
                        "never observe the torn snapshot",
            citation=OPACITY,
            threads=2, cells=2, forbid_aborts=False,
            build=_zombie_probe,
        ),
        ScheduleSpec(
            name="of-penalty",
            description="a parked transaction's summary signatures obstruct "
                        "two successive committers — the obstruction-freedom "
                        "cost schedule",
            citation=NOT_OF,
            threads=2, cells=1, forbid_aborts=False,
            build=_of_penalty,
        ),
        ScheduleSpec(
            name="wound-convoy",
            description="three transactions chained W(A)/R(A)W(B)/R(B)W(C) "
                        "committing in reverse order — a wound cascade",
            citation=NOT_OF,
            threads=3, cells=3, forbid_aborts=False,
            build=_wound_convoy,
        ),
        ScheduleSpec(
            name="migration-restart",
            description="a mid-transaction thread is parked and resumed on "
                        "a different core — the migration abort-restart path",
            citation=NOT_OF,
            threads=2, cells=2, forbid_aborts=False,
            build=_migration_restart,
        ),
        ScheduleSpec(
            name="adversary-wound",
            description="a scripted wound directive force-aborts a "
                        "mid-transaction thread through the OS path",
            citation=NOT_OF,
            threads=2, cells=2, forbid_aborts=False,
            build=_adversary_wound,
        ),
    )
}
