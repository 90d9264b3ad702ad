"""Seeded fault-matrix harness: ``python -m repro.harness chaos``.

Runs every TM backend under every fault profile with the chaos engine,
the invariant checker, the livelock watchdog, and the serializability
oracle all armed, then classifies each cell:

``clean``
    the profile's dice never fired (nothing injected).
``masked``
    faults were injected but the run is indistinguishable from the
    fault-free baseline (same commits and aborts, serializable,
    witness-replay-consistent final memory): pure latency.
``degraded``
    faults changed the numbers (extra aborts, watchdog escalations)
    but the committed history is still serializable and the final
    memory replays from the witness: graceful degradation.
``diagnosed``
    the run (or its oracle) raised a structured
    :class:`~repro.errors.ReproError` — an invariant violation or a
    :class:`~repro.verify.history.SerializabilityViolation` — naming
    the damage: the robustness layer caught the fault.
``wedged``
    the run hit its cycle budget without committing every
    transaction: a liveness failure.  **Test failure.**
``silent-corruption``
    the history passed the checker but the final memory does not
    equal a serial replay of the witness, or some other undiagnosed
    divergence: exactly the outcome this layer exists to prevent.
    **Test failure.**
``crash``
    a non-``ReproError`` escaped — a bug, not a diagnosis.
    **Test failure.**

Every cell is deterministic from ``(seed, backend, profile)``: per-cell
chaos seeds are mixed with :func:`zlib.crc32` (stable across processes,
unlike salted string hashes), thread bodies draw from
:class:`~repro.sim.rng.DeterministicRng`, and the scheduler is
timing-driven.  Re-running a failing cell with the same flags replays
it bit-identically.

This module also hosts the verification-matrix engine that the chaos,
``degrade`` and ``adversary`` matrices share: one cell runner
(:func:`run_cell`), one classification ladder (:func:`judge`), one
backend-partitioned fan-out on the harness executor (:func:`fan_out`,
over :func:`repro.harness.parallel.run_points`) and one set of CLI
plumbing (:class:`MatrixCli`).  A matrix supplies only a
:class:`Perturbation` and the labels it gives a run that passes every
rung.  See docs/ROBUSTNESS.md, "The verification-matrix engine".
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import itertools
import json
import sys
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos import ChaosEngine, ChaosSpec, InvariantChecker, LivelockWatchdog, WatchdogSpec
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.errors import ReproError
from repro.harness.parallel import effective_jobs, run_points, unwrap
from repro.params import small_test_params
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.sim.rng import DeterministicRng
from repro.verify.history import (
    RecordingBackend,
    SerializabilityViolation,
    check_serializable,
)

#: Classifications that fail the harness (exit status 1).
FAILING = ("crash", "wedged", "silent-corruption")

#: Fault profiles: one adversary per subsystem plus a combined storm.
#: Probabilities are tuned so a profile reliably injects on the default
#: workload size while the run still finishes well inside its budget.
FAULT_PROFILES: Dict[str, Dict[str, float]] = {
    "coherence": dict(coh_drop=0.05, coh_delay=0.05, coh_dup=0.03),
    "aou": dict(alert_drop=0.25, alert_spurious=0.01),
    "signature": dict(sig_false_positive=0.05, sig_false_negative=0.02),
    "overflow": dict(ot_walk_fail=0.30, l1_evict=0.02),
    "sched": dict(sched_preempt=0.005),
    "storm": dict(
        coh_drop=0.02, coh_delay=0.02, coh_dup=0.01,
        alert_drop=0.10, alert_spurious=0.005,
        sig_false_positive=0.02, sig_false_negative=0.01,
        ot_walk_fail=0.10, l1_evict=0.01, sched_preempt=0.002,
    ),
}

NUM_CELLS = 6
DEFAULT_THREADS = 4
DEFAULT_TXNS = 10
DEFAULT_CYCLE_LIMIT = 100_000_000


def cell_seed(seed: int, backend: str, name: str) -> int:
    """The replay seed of one (backend, profile or schedule) cell."""
    return seed ^ zlib.crc32(f"{backend}:{name}".encode())


def profile_spec(profile: str, seed: int, backend: str) -> ChaosSpec:
    """The replayable ChaosSpec for one (seed, backend, profile) cell."""
    if profile not in FAULT_PROFILES:
        raise KeyError(f"unknown fault profile {profile!r}; have {sorted(FAULT_PROFILES)}")
    return ChaosSpec(seed=cell_seed(seed, backend, profile), **FAULT_PROFILES[profile])


@dataclasses.dataclass
class FaultCell:
    """One (backend, profile) cell of a fault matrix (chaos or degrade)."""

    backend: str
    profile: str
    classification: str
    injected: Dict[str, int]
    commits: int = 0
    aborts: int = 0
    cycles: int = 0
    aborts_by_kind: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Per-rung escalation counters from the run's RunResult (watchdog
    #: ladder always; degradation ladder when a controller was armed).
    escalations: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Windowed commit/abort series from the metrics hub, keyed by
    #: series name (see repro.obs.metrics.TimeSeries.to_dict).
    series: Dict[str, object] = dataclasses.field(default_factory=dict)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.classification not in FAILING

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class CellResult(FaultCell):
    """One (backend, profile) cell of the chaos fault matrix."""

    watchdog: Dict[str, int] = dataclasses.field(default_factory=dict)
    invariant_checks: int = 0


# -- the verification-matrix engine -------------------------------------------


class Perturbation:
    """What one matrix adds to the shared cell; the engine does the rest.

    :func:`run_cell` calls ``arm`` on the bare machine, ``workload``
    once the backend is wrapped and the cells are seeded, and
    ``observe`` after the run, whether or not it raised.
    """

    #: Processors of the machine.
    processors = DEFAULT_THREADS
    #: Shared cells seeded with their index and handed to ``workload``.
    num_cells = NUM_CELLS
    mode = ConflictMode.EAGER
    #: False skips the serializability oracle and the witness replay
    #: (schedules of plain, untracked operations).
    oracle = True
    #: Scheduler hooks; ``arm`` or ``workload`` may set them.
    watchdog: Optional[LivelockWatchdog] = None
    director = None

    def arm(self, machine: FlexTMMachine) -> None:
        """Install this matrix's faults, checkers, probes or controllers."""

    def workload(self, backend: RecordingBackend, cells: List[int]) -> Tuple[List[TxThread], int]:
        """The threads to run, and the commits a complete run makes."""
        raise NotImplementedError

    def observe(self, machine: FlexTMMachine, hub, result, run: Dict[str, object]) -> None:
        """Add this matrix's observations to ``run`` (``hub`` is the
        cell's MetricsHub; ``result`` is None when the run raised)."""


def run_cell(backend_name: str, arms: Perturbation, cycle_limit: int) -> Dict[str, object]:
    """One instrumented run of any matrix; raw observations, no verdict.

    Shared keys: ``commits``/``aborts``/``cycles``/``aborts_by_kind``,
    ``expected`` commits, ``error`` / ``error_kind`` when something was
    raised (``repro`` for structured ReproErrors, ``crash`` for
    everything else), the oracle verdicts ``serializable`` (with the
    ``violation`` text when it fails) and ``memory_ok``, and
    ``opacity``, an armed probe's first finding.  ``arms.observe``
    adds the rest.
    """
    from repro.harness.runner import SYSTEMS
    from repro.obs.metrics import MetricsHub

    machine = FlexTMMachine(small_test_params(arms.processors))
    hub = MetricsHub()
    machine.observe(hub)
    arms.arm(machine)
    backend = RecordingBackend(SYSTEMS[backend_name](machine, arms.mode))
    line = machine.params.line_bytes
    cells = [machine.allocate(line, line_aligned=True) for _ in range(arms.num_cells)]
    for index, cell in enumerate(cells):
        machine.memory.write(cell, index)
        backend.recorder.note_initial(cell, index)
    tx_threads, expected = arms.workload(backend, cells)
    run: Dict[str, object] = {
        "commits": 0,
        "aborts": 0,
        "cycles": 0,
        "aborts_by_kind": {},
        "expected": expected,
        "error": "",
        "error_kind": "",
        "serializable": False,
        "violation": "",
        "memory_ok": False,
        "opacity": "",
    }
    result = None
    try:
        result = Scheduler(
            machine, tx_threads, watchdog=arms.watchdog, director=arms.director
        ).run(cycle_limit=cycle_limit)
    except ReproError as error:
        run["error"] = f"{type(error).__name__}: {error}"
        run["error_kind"] = "repro"
    except Exception as error:  # noqa: BLE001 — a crash IS the finding
        run["error"] = f"{type(error).__name__}: {error}"
        run["error_kind"] = "crash"
    else:
        run.update(commits=result.commits, aborts=result.aborts, cycles=result.cycles,
                   aborts_by_kind=dict(result.aborts_by_kind))
    arms.observe(machine, hub, result, run)
    # The ladder ranks a raise or a wedge above any oracle verdict, so
    # the oracles judge only complete runs.
    if run["error_kind"] or run["commits"] < expected:
        return run
    if not arms.oracle:
        run["serializable"] = run["memory_ok"] = True
        return run
    # The committed history must be conflict-serializable, and the
    # final memory must equal a serial replay of the witness order.
    try:
        witness = check_serializable(backend.recorder)
    except SerializabilityViolation as error:
        run["violation"] = f"SerializabilityViolation: {error}"
        return run
    run["serializable"] = True
    replay = dict(backend.recorder.initial_values)
    for txn in witness:
        replay.update(txn.writes)
    run["memory_ok"] = all(machine.memory.read(cell) == replay[cell] for cell in cells)
    return run


def judge(run: Dict[str, object]) -> Tuple[str, str]:
    """The classification ladder every matrix applies to a run.

    Returns ``(label, detail)`` for the first rung that fires — crash,
    raised ReproError, wedged, serializability, opacity, memory
    divergence — or ``("", "")`` when the run passes every rung and the
    matrix picks its own success label.
    """
    if run["error_kind"] == "crash":
        return "crash", str(run["error"])
    if run["error_kind"] == "repro":
        return "diagnosed", str(run["error"])
    if run["commits"] < run["expected"]:
        return "wedged", f"{run['commits']}/{run['expected']} commits at cycle budget"
    if not run["serializable"]:
        return "diagnosed", str(run["violation"])
    if run["opacity"]:
        return "diagnosed", str(run["opacity"])
    if not run["memory_ok"]:
        return "silent-corruption", "final memory diverges from serial witness replay"
    return "", ""


def matrix_cell(cls, run: Dict[str, object], **fields):
    """Build a matrix's cell dataclass from ``fields`` plus the
    observations in ``run`` that the dataclass reports."""
    names = {field.name for field in dataclasses.fields(cls)} - set(fields)
    return cls(**fields, **{key: value for key, value in run.items() if key in names})


def per_backend(cell: Callable, names: Sequence[str], backend_name: str, **params) -> list:
    """``cell(backend_name, name, **params)`` for every name: the
    :func:`fan_out` unit of a matrix whose cells share no baseline."""
    return [cell(backend_name, name, **params) for name in names]


def fan_out(unit: Callable[[str], list], backends: Sequence[str], jobs: int = 1,
            progress=None) -> list:
    """Run ``unit(backend)`` for every backend as one executor partition
    each, ``jobs`` at a time, and concatenate the cell lists in input
    order.  A partition that fails raises :class:`RuntimeError` naming
    its backend (a crashed worker is retried once first).

    Partitioning by backend (not by cell) keeps the row order, and
    every cell's seed and workload, identical at any ``jobs`` value.
    """
    partitions = [functools.partial(unit, backend) for backend in backends]
    for backend, partition in zip(backends, partitions):
        partition.label = f"{backend} partition"
    outcomes = run_points(partitions, jobs, progress=progress)
    return [cell for outcome in outcomes for cell in unwrap(outcome)]


# -- the chaos matrix -----------------------------------------------------------


def _bodies(cells, rng, count, unique):
    """Contended random read/write transactions with globally unique
    write values, so the oracle's reads-from attribution is exact."""

    def make(reads, writes):
        def body(ctx):
            for address in reads:
                yield from ctx.read(address)
            yield from ctx.work(10)
            for address in writes:
                yield from ctx.write(address, next(unique))

        return body

    for _ in range(count):
        reads = rng.sample(cells, rng.randint(1, 3))
        writes = rng.sample(cells, rng.randint(1, 2))
        yield WorkItem(make(tuple(reads), tuple(writes)))


class FaultArms(Perturbation):
    """A chaos cell: the fault profile ``spec`` with the invariant
    checker and livelock watchdog, or nothing armed (``spec`` None) for
    the fault-free baseline; the workload is :func:`_bodies`."""

    def __init__(self, spec: Optional[ChaosSpec], seed: int, threads: int, txns: int):
        self.spec = spec
        self.seed = seed
        self.processors = threads
        self.txns = txns

    def arm(self, machine):
        if self.spec is None:
            return
        machine.set_chaos(ChaosEngine(self.spec, stats=machine.stats))
        machine.set_invariants(InvariantChecker())
        self.watchdog = LivelockWatchdog(WatchdogSpec())

    def workload(self, backend, cells):
        unique = itertools.count(1000)
        tx_threads = [
            TxThread(i, backend, _bodies(cells, DeterministicRng(self.seed * 7919 + i),
                                         self.txns, unique))
            for i in range(self.processors)
        ]
        return tx_threads, self.processors * self.txns

    def observe(self, machine, hub, result, run):
        run["escalations"], run["series"] = {}, {}
        if result is not None:
            run["escalations"] = dict(result.escalations)
            run["series"] = {
                name: hub.series(name).to_dict()
                for name in ("tx.commits", "tx.aborts")
            }
        run["injected"] = dict(machine.chaos.injected) if machine.chaos else {}
        run["watchdog"] = {
            key: getattr(self.watchdog, key)
            for key in ("escalations", "forced_aborts", "recoveries")
        } if self.watchdog else {}
        checker = machine.invariants
        run["invariant_checks"] = checker.inline_checks + checker.sweeps if checker else 0


def _run_cell(
    backend_name: str,
    seed: int,
    spec: Optional[ChaosSpec],
    threads: int,
    txns: int,
    cycle_limit: int,
) -> Dict[str, object]:
    """One chaos cell (``spec`` None: the fault-free baseline); the raw
    observations of :func:`run_cell`."""
    return run_cell(backend_name, FaultArms(spec, seed, threads, txns), cycle_limit)


def _classify(run: Dict[str, object], baseline: Dict[str, object],
              backend: str = "", profile: str = "") -> CellResult:
    """The shared ladder, then chaos's own rungs: clean, masked, degraded."""
    classification, detail = judge(run)
    if not classification:
        if not sum(run["injected"].values()):
            classification = "clean"
        elif (run["commits"], run["aborts"]) == (baseline["commits"], baseline["aborts"]):
            classification = "masked"
        else:
            classification = "degraded"
    return matrix_cell(CellResult, run, backend=backend, profile=profile,
                       classification=classification, detail=detail)


def run_backend_matrix(
    backend_name: str,
    profiles: Sequence[str],
    seed: int,
    threads: int = DEFAULT_THREADS,
    txns: int = DEFAULT_TXNS,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
) -> List[CellResult]:
    """Baseline one backend, then run and classify every fault profile."""
    baseline = _run_cell(backend_name, seed, None, threads, txns, cycle_limit)
    failed, detail = judge(baseline)
    if failed:
        return [CellResult(
            backend=backend_name, profile="baseline",
            classification="crash" if failed == "crash" else "silent-corruption",
            injected={}, commits=int(baseline["commits"]),
            aborts=int(baseline["aborts"]), cycles=int(baseline["cycles"]),
            detail=f"fault-free baseline failed: {detail}",
        )]
    return [
        _classify(
            _run_cell(backend_name, seed, profile_spec(profile, seed, backend_name),
                      threads, txns, cycle_limit),
            baseline, backend_name, profile,
        )
        for profile in profiles
    ]


def run_chaos_matrix(
    backends: Sequence[str],
    profiles: Sequence[str],
    seed: int,
    jobs: int = 1,
    threads: int = DEFAULT_THREADS,
    txns: int = DEFAULT_TXNS,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    progress=None,
) -> List[CellResult]:
    """The full matrix; one worker unit per backend, rows in input order."""
    unit = functools.partial(
        run_backend_matrix, profiles=tuple(profiles), seed=seed, threads=threads,
        txns=txns, cycle_limit=cycle_limit,
    )
    return fan_out(unit, backends, jobs, progress)


# -- CLI ----------------------------------------------------------------------


def resolve_backends(names: Sequence[str]) -> List[str]:
    """Canonicalize backend names (SystemExit on junk or nothing)."""
    from repro.harness.runner import SYSTEMS, resolve_names

    return resolve_names(names, sorted(SYSTEMS), "backend")


def render_backend_list() -> str:
    """``--list-backends`` text shared by the chaos/degrade/adversary CLIs."""
    from repro.harness.runner import BACKEND_SUMMARIES, SYSTEMS

    lines = ["backends:"]
    for name in SYSTEMS:
        lines.append(f"  {name:<10} {BACKEND_SUMMARIES.get(name, '')}")
    return "\n".join(lines) + "\n"


def render_table(header: str, rows: Sequence, line: Callable[[object], str]) -> str:
    """A matrix report table: header, rule, one ``line`` per cell."""
    lines = [header, "-" * len(header)]
    lines += [line(cell) + ("" if cell.ok else "  <-- FAIL") for cell in rows]
    return "\n".join(lines) + "\n"


def render_matrix(rows: List[CellResult]) -> str:
    """Human-readable report table."""
    return render_table(
        f"{'backend':<10} {'profile':<10} {'class':<17} {'inj':>5} {'commits':>7} {'aborts':>7}  detail",
        rows,
        lambda cell: (
            f"{cell.backend:<10} {cell.profile:<10} {cell.classification:<17} "
            f"{sum(cell.injected.values()):>5} {cell.commits:>7} {cell.aborts:>7}  "
            f"{cell.detail}"
        ),
    )


@dataclasses.dataclass(frozen=True)
class MatrixCli:
    """The CLI plumbing the chaos, degrade and adversary matrices share:
    the common flags, progress lines, counts summary, JSON report and
    the closing verdict line."""

    #: Subcommand name; prefixes every line the CLI prints.
    name: str
    #: The matrix's second axis ("profile" or "schedule") and its names.
    axis: str
    choices: Sequence[str]
    #: Help text naming the axis (``comma-separated <axis_help>``).
    axis_help: str
    #: The cell attribute holding its label.
    label: str
    #: ``run(backends, names, seed, jobs=, cycle_limit=, progress=,
    #: **params)`` returns the matrix's rows; ``render`` tabulates them.
    run: Callable[..., list]
    render: Callable[[list], str]
    #: The closing line when no cell fails.
    passed: str
    #: The FAIL line names a failing cell's detail (when it has one)
    #: instead of its label.
    fail_detail: bool = False

    def parser(self, description: str, cycle_limit: int) -> argparse.ArgumentParser:
        """An argument parser carrying the shared flags."""
        from repro.harness.runner import SYSTEMS

        parser = argparse.ArgumentParser(
            prog=f"python -m repro.harness {self.name}", description=description,
        )
        parser.add_argument("--seed", type=int, default=1,
                            help="master seed for the matrix (default 1)")
        for axis, choices, noun in (("backend", SYSTEMS, "backend names"),
                                    (self.axis, self.choices, self.axis_help)):
            parser.add_argument(f"--{axis}s", default=",".join(choices),
                                help=f"comma-separated {noun} (default: all)")
            parser.add_argument(f"--{axis}", action="append", default=None,
                                metavar="NAME", dest=axis,
                                help=f"run a single {axis} (repeatable; "
                                f"overrides --{axis}s)")
        parser.add_argument("--cycles", type=int, default=cycle_limit,
                            help="cycle budget per cell (wedge detector)")
        parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes (0 = one per CPU; 1 = serial)")
        parser.add_argument("--report", metavar="FILE",
                            help=f"write the JSON {self.name}-matrix report here")
        parser.add_argument("--quiet", action="store_true",
                            help="suppress progress on stderr")
        parser.add_argument("--list-backends", action="store_true",
                            help="list the TM backends and exit")
        return parser

    def report(self, rows: Sequence, seed: int, backends: Sequence[str],
               names: Sequence[str], cycle_limit: int, **extra) -> Dict[str, object]:
        """The JSON report document; ``extra`` holds matrix-specific keys."""
        counts = collections.Counter(getattr(cell, self.label) for cell in rows)
        return {
            "seed": seed,
            "backends": list(backends),
            f"{self.axis}s": list(names),
            "cycle_limit": cycle_limit,
            "counts": dict(counts),
            "ok": all(cell.ok for cell in rows),
            "cells": [cell.to_json() for cell in rows],
            **extra,
        }

    def main(self, args, params: Dict[str, object], setting: str = "", **extra) -> int:
        """Resolve the selection, run the matrix with ``params``, and
        print, report (with ``extra`` keys) and judge its rows."""
        from repro.harness.runner import comma_list, resolve_names

        if args.list_backends:
            sys.stdout.write(render_backend_list())
            return 0
        backends = resolve_backends(args.backend or comma_list(args.backends))
        names = resolve_names(
            getattr(args, self.axis) or comma_list(getattr(args, f"{self.axis}s")),
            self.choices, self.axis,
        )
        jobs = min(effective_jobs(args.jobs), len(backends))
        progress = None
        if not args.quiet:
            sys.stderr.write(
                f"{self.name}: seed {args.seed}, {len(backends)} backend(s) x "
                f"{len(names)} {self.axis}(s){setting}, {jobs} worker(s)\n"
            )

            def progress(done, total, _outcome):
                sys.stderr.write(f"{self.name}: {done}/{total} backends done\n")

        rows = self.run(backends, names, args.seed, jobs=jobs, cycle_limit=args.cycles,
                        progress=progress, **params)
        sys.stdout.write(self.render(rows))
        document = self.report(rows, args.seed, backends, names, args.cycles, **extra)
        summary = ", ".join(f"{k}={v}" for k, v in sorted(document["counts"].items()))
        sys.stdout.write(f"\n{self.name}: {len(rows)} cells: {summary}\n")
        if args.report:
            with open(args.report, "w") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
        failures = [cell for cell in rows if not cell.ok]
        if failures:
            sys.stdout.write(
                f"{self.name}: FAIL — "
                + "; ".join(
                    f"{c.backend}/{getattr(c, self.axis)}: "
                    f"{(c.detail if self.fail_detail else '') or getattr(c, self.label)}"
                    for c in failures
                )
                + "\n"
            )
            return 1
        sys.stdout.write(f"{self.name}: {self.passed}\n")
        return 0


CLI = MatrixCli(
    name="chaos", axis="profile", choices=tuple(FAULT_PROFILES),
    axis_help="fault profiles", label="classification", run=run_chaos_matrix,
    render=render_matrix,
    passed="every injected fault was masked, degraded gracefully, or diagnosed",
)


def run_chaos_command(argv=None) -> int:
    """``python -m repro.harness chaos`` — run the seeded fault matrix."""
    parser = CLI.parser(
        "Run every TM backend under seeded fault injection "
        "with invariants, watchdog, and serializability oracle armed; "
        "fail on any crash, wedge, or silent corruption.",
        DEFAULT_CYCLE_LIMIT,
    )
    parser.add_argument("--threads", type=int, default=DEFAULT_THREADS,
                        help="transactional threads per run")
    parser.add_argument("--txns", type=int, default=DEFAULT_TXNS,
                        help="transactions per thread per run")
    parser.add_argument("--list-profiles", action="store_true",
                        help="list the fault profiles and exit")
    args = parser.parse_args(argv)

    if args.list_profiles:
        sys.stdout.write("fault profiles:\n")
        for name, knobs in FAULT_PROFILES.items():
            settings = ", ".join(f"{k}={v}" for k, v in sorted(knobs.items()))
            sys.stdout.write(f"  {name:<10} {settings}\n")
        return 0
    sizes = dict(threads=args.threads, txns=args.txns)
    return CLI.main(args, sizes, **sizes)
