"""The harness's one executor: deterministic fan-out over forked workers.

Every paper artifact and every verification matrix is built from
independent, sealed simulations: each builds a fresh machine, runs, and
returns numbers that depend only on its inputs.  Host-level parallelism
is therefore free speedup with zero result drift.  The executor's unit
is any zero-argument callable with a ``label``:

* a :class:`PointSpec` — one measurement point; calling it runs the
  point and writes its trace and metrics artifacts (sweep, Figure 4/5,
  overflow);
* a matrix partition — ``functools.partial(unit, backend)``, one whole
  backend of the chaos, degrade or adversary matrix
  (:func:`repro.harness.chaos.fan_out`).

Guarantees:

* **Determinism** — outcomes come back ordered by submission index, so
  ``--jobs 8`` produces bit-identical rows to ``--jobs 1`` regardless of
  completion order.
* **Isolation** — each unit runs in its own forked process; a crashed
  or hung worker yields a structured :class:`Outcome` error, never a
  dead run.
* **Bounded retry** — crashed and timed-out units are relaunched up to
  ``retries`` extra times before being reported as failures.
  Deterministic Python exceptions (bad workload name, simulator
  assertion) are *not* retried: rerunning a pure function cannot
  change its answer.

``--jobs 1`` (the default for library callers) never forks: units run
inline, preserving the exact serial code path.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.runner import ExperimentConfig, run_experiment
from repro.runtime.scheduler import RunResult


@dataclasses.dataclass
class PointSpec:
    """One measurement point: a config plus optional artifact output.

    Traces and metrics are armed and written *inside* the worker (the
    observers never cross the process boundary), into
    ``trace_dir/<name>.json`` and ``metrics_dir/<name>.metrics.json``.
    """

    config: ExperimentConfig
    label: str = ""
    #: Artifact file stem; defaults to the label.
    name: Optional[str] = None
    trace_dir: Optional[str] = None
    metrics_dir: Optional[str] = None

    def __call__(self) -> RunResult:
        """Run the point in this process and write its artifacts."""
        config = self.config
        name = self.name or self.label or "point"
        tracer = hub = None
        if self.trace_dir:
            from repro.harness.trace import sweep_tracer

            tracer = sweep_tracer()
            config = dataclasses.replace(config, observers=config.observers + (tracer,))
        if self.metrics_dir:
            from repro.harness.metrics import sweep_hub

            hub = sweep_hub()
            config = dataclasses.replace(config, observers=config.observers + (hub,))
        result = run_experiment(config)
        if tracer is not None:
            from repro.harness.trace import write_point_trace

            write_point_trace(tracer, self.trace_dir, name)
        if hub is not None:
            from repro.harness.metrics import write_point_metrics

            write_point_metrics(hub, result, self.metrics_dir, name)
        return result


@dataclasses.dataclass
class Outcome:
    """What happened to one unit, in submission order.

    ``status`` is ``"ok"`` (``result`` holds the unit's return value)
    or one of the failure kinds:

    * ``"exception"`` — the unit raised (deterministic; never retried).
    * ``"crash"`` — the worker process died without reporting
      (segfault, ``os._exit``, OOM kill).
    * ``"timeout"`` — the unit exceeded the per-unit budget and the
      worker was terminated.
    """

    index: int
    label: str
    ok: bool
    status: str
    result: Any = None
    error: str = ""
    attempts: int = 1
    wall_time: float = 0.0


def unwrap(outcome: Outcome) -> Any:
    """Return the outcome's result, raising loudly on a failed unit.

    Figure, overflow and matrix harnesses use this: a missing point or
    partition has no sensible row, so the failure (including the
    worker's message) aborts the run instead.
    """
    if not outcome.ok:
        raise RuntimeError(
            f"{outcome.label or outcome.index} failed ({outcome.status}): {outcome.error}"
        )
    return outcome.result


def effective_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``--jobs`` value: ``None``/0 means one per CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _attempt(unit: Callable[[], Any]) -> Tuple[str, Any]:
    """Run ``unit`` once: ``("ok", value)`` or ``("exception", msg)``."""
    try:
        return "ok", unit()
    except Exception as exc:  # noqa: BLE001 — every exception becomes an outcome
        return "exception", f"{type(exc).__name__}: {exc}"


def _worker(conn, unit) -> None:
    """Child-process entry: run one unit, ship the attempt, exit."""
    try:
        attempt = _attempt(unit)
        try:
            conn.send(attempt)
        except Exception as exc:  # an unpicklable result is the unit's error
            conn.send(("exception", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _mp_context():
    """Prefer fork (cheap, inherits loaded modules); fall back cleanly."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX hosts
        return multiprocessing.get_context()


def run_points(
    units: Sequence[Callable[[], Any]],
    jobs: Optional[int] = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[Callable[[int, int, Outcome], None]] = None,
) -> List[Outcome]:
    """Run every unit; return outcomes ordered by submission index.

    ``jobs <= 1`` runs inline (no subprocesses, no timeout enforcement —
    there is nothing to interrupt in-process).  ``jobs > 1`` fans out
    across worker processes, at most ``jobs`` in flight.  ``progress``
    is invoked as ``progress(done, total, outcome)`` each time a unit
    reaches its final state, in completion order.
    """
    units = list(units)
    jobs = effective_jobs(jobs)
    if retries < 0:
        raise ValueError("retries must be >= 0")
    outcomes: List[Any] = [None] * len(units)
    done = 0

    def finish(index: int, status: str, value: Any, attempts: int, wall_time: float) -> None:
        nonlocal done
        ok = status == "ok"
        outcome = outcomes[index] = Outcome(
            index=index, label=units[index].label, ok=ok, status=status,
            result=value if ok else None, error="" if ok else value,
            attempts=attempts, wall_time=wall_time,
        )
        done += 1
        if progress is not None:
            progress(done, len(units), outcome)

    if jobs <= 1 or len(units) <= 1:
        for index, unit in enumerate(units):
            started = time.perf_counter()
            status, value = _attempt(unit)
            finish(index, status, value, 1, time.perf_counter() - started)
    else:
        _run_pool(units, jobs, timeout, retries, finish)
    return outcomes


def _run_pool(units, jobs, timeout, retries, finish) -> None:
    context = _mp_context()
    attempts = [0] * len(units)
    spent = [0.0] * len(units)
    pending = deque(range(len(units)))
    # One record per in-flight worker: receiving end -> (index, process, started).
    live: Dict[object, Tuple[int, Any, float]] = {}
    try:
        while pending or live:
            while pending and len(live) < jobs:
                index = pending.popleft()
                attempts[index] += 1
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_worker, args=(sender, units[index]), daemon=True
                )
                process.start()
                sender.close()
                live[receiver] = (index, process, time.perf_counter())
            wait_budget = None
            if timeout:
                oldest = min(started for _, _, started in live.values())
                wait_budget = max(0.0, oldest + timeout - time.perf_counter())
            ready = set(connection_wait(list(live), timeout=wait_budget))
            now = time.perf_counter()
            for conn, (index, process, started) in list(live.items()):
                if conn in ready:
                    try:
                        attempt = conn.recv()
                    except (EOFError, OSError):
                        attempt = None
                    process.join()
                    status, value = attempt or (
                        "crash", f"worker died (exit code {process.exitcode})"
                    )
                elif timeout and now - started >= timeout:
                    _stop(process)
                    status, value = "timeout", f"point exceeded {timeout:g}s budget"
                else:
                    continue
                del live[conn]
                conn.close()
                spent[index] += now - started
                if status in ("crash", "timeout") and attempts[index] <= retries:
                    pending.appendleft(index)
                else:
                    finish(index, status, value, attempts[index], spent[index])
    finally:
        for conn, (_, process, _) in live.items():
            _stop(process)
            conn.close()


def _stop(process) -> None:
    """Terminate a worker, escalating to SIGKILL if it lingers."""
    if not process.is_alive():
        process.join()
        return
    process.terminate()
    process.join(1.0)
    if process.is_alive():  # pragma: no cover — SIGTERM is always enough here
        process.kill()
        process.join()


def render_progress(done: int, total: int, outcome: Outcome) -> None:
    """Default progress reporter: one stderr line per finished unit."""
    marker = "ok" if outcome.ok else outcome.status.upper()
    label = outcome.label or f"point {outcome.index}"
    sys.stderr.write(
        f"[{done}/{total}] {label}: {marker} ({outcome.wall_time:.2f}s"
        + (f", {outcome.attempts} attempts" if outcome.attempts > 1 else "")
        + ")\n"
    )
    sys.stderr.flush()
