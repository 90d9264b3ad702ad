"""Traced pass: timing wrappers on the public entry points of each layer.

The simulator itself carries no host-time instrumentation.  This module
patches the public functions of each ``repro`` layer with wrappers that
record one span per call (or, for generator-returning methods, one span
per resume), keeps the spans in memory, and derives per-layer self time
from their nesting.  :class:`Patcher` restores every original on exit, so
an untraced pass that follows runs the unmodified code.

A span name is ``<layer>/<function>``; the layer is the part before the
slash.  Self time of a span is its duration minus the durations of its
direct children, so the self times of all spans add up to the time spent
inside traced layers.
"""

from __future__ import annotations

import array
import collections
import functools
import gzip
import inspect
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_now_ns = time.perf_counter_ns


class SpanLog:
    """Spans in memory: parallel arrays of name id, start, end and parent.

    ``parent`` is the index of the enclosing open span, or -1 for a root
    span.  ``counts`` holds event counters recorded at the same
    boundaries (signature probe hits, flash lines changed).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.counts: collections.Counter = collections.Counter()
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_of.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(index)
        self.start.append(_now_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now_ns()
        self._stack.pop()

    def resumes(self, name_id: int, gen: Iterator) -> Iterator:
        """Re-yield ``gen``, recording one span per resume.

        Forwards ``send``, ``throw`` and ``close`` exactly as ``yield
        from`` would, and returns the generator's return value.
        """
        value = None
        pending: Optional[BaseException] = None
        while True:
            index = self.open(name_id)
            try:
                if pending is not None:
                    exc, pending = pending, None
                    op = gen.throw(exc)
                else:
                    op = gen.send(value)
            except StopIteration as stop:
                self.close(index)
                return stop.value
            except BaseException:
                self.close(index)
                raise
            self.close(index)
            try:
                value = yield op
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into gen on the next resume
                pending = exc

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """Per span name: ``calls``, ``self_ns`` and ``inclusive_ns``.

        ``inclusive_ns`` counts only spans whose parent has another name,
        so direct recursion is not counted twice.
        """
        names, name_of, start, end, parent = (
            self.names, self.name_of, self.start, self.end, self.parent,
        )
        calls = [0] * len(names)
        self_ns = [0] * len(names)
        inclusive = [0] * len(names)
        for index in range(len(start)):
            nid = name_of[index]
            duration = end[index] - start[index]
            calls[nid] += 1
            self_ns[nid] += duration
            up = parent[index]
            if up >= 0:
                self_ns[name_of[up]] -= duration
                if name_of[up] != nid:
                    inclusive[nid] += duration
            else:
                inclusive[nid] += duration
        return {
            name: {"calls": calls[i], "self_ns": self_ns[i], "inclusive_ns": inclusive[i]}
            for i, name in enumerate(names)
        }

    def root_ns(self) -> int:
        """Time covered by root spans (everything inside traced layers)."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0
        )

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed JSON lines."""
        base = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({"names": self.names, "counts": dict(self.counts),
                                     "fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for index in range(len(self.start)):
                handle.write(
                    f"[{self.name_of[index]},{self.start[index] - base},"
                    f"{self.end[index] - base},{self.parent[index]}]\n"
                )


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (own attribute only) by ``make(original)``."""
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            self.replace(owner, attr, staticmethod(make(original.__func__)))
        else:
            self.replace(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _timed(log: SpanLog, name: str, fn: Callable) -> Callable:
    """Span per call, or per resume when ``fn`` is a generator function."""
    nid = log.name_id(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def resumed(*args, **kwargs):
            return log.resumes(nid, fn(*args, **kwargs))

        return resumed

    @functools.wraps(fn)
    def called(*args, **kwargs):
        index = log.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            log.close(index)

    return called


def _wrap_own(patcher: Patcher, log: SpanLog, owner: object, layer: str,
              methods: Tuple[str, ...]) -> None:
    """Time each of ``methods`` that ``owner`` (a class or module) itself defines."""
    for method in methods:
        if method in owner.__dict__:
            patcher.wrap(owner, method, lambda fn, m=method: _timed(log, f"{layer}/{m}", fn))


BACKEND_METHODS = ("begin", "read", "write", "commit", "on_abort", "check_aborted")
VIRT_METHODS = ("suspend", "resume")


def install(patcher: Patcher, log: SpanLog) -> None:
    """Install the layer wrappers listed in perfbench/README.md."""
    from repro.chaos.invariants import InvariantChecker
    from repro.chaos.watchdog import LivelockWatchdog
    from repro.coherence.directory import Directory
    from repro.coherence.l1 import L1Controller
    from repro.core.machine import FlexTMMachine
    from repro.harness import chaos as chaos_harness
    from repro.memory.cache import CacheArray
    from repro.obs.metrics import MetricsHub
    from repro.runtime.api import TMBackend
    from repro.runtime.flextm import FlexTMRuntime
    from repro.runtime.scheduler import Scheduler
    from repro.runtime.txthread import TxThread, WorkItem
    from repro.signatures.bloom import Signature
    from repro.signatures.summary import SummarySignatures
    from repro.stm.cgl import CglRuntime
    from repro.stm.htmbe import HtmBestEffortRuntime
    from repro.stm.logtmse import LogTmSeRuntime
    from repro.stm.rstm import RstmRuntime
    from repro.stm.rtmf import RtmfRuntime
    from repro.stm.tl2 import Tl2Runtime
    from repro.verify import history

    _wrap_own(patcher, log, Scheduler, "runtime.scheduler", ("run",))
    steps = log.counts

    def count_steps(fn):
        @functools.wraps(fn)
        def step(*args, **kwargs):
            steps["runtime.scheduler.steps"] += 1
            return fn(*args, **kwargs)

        return step

    patcher.wrap(Scheduler, "_step", count_steps)
    _wrap_own(patcher, log, TxThread, "runtime.txthread", ("run",))

    body_id = log.name_id("workloads/body")
    original_init = WorkItem.__dict__["__init__"]

    def work_item_init(self, body, transactional=True):
        def timed_body(ctx, _body=body):
            ops = _body(ctx)
            return log.resumes(body_id, ops) if inspect.isgenerator(ops) else ops

        original_init(self, timed_body, transactional)

    patcher.replace(WorkItem, "__init__", work_item_init)

    backend_classes = (TMBackend, FlexTMRuntime, RtmfRuntime, LogTmSeRuntime, CglRuntime,
                       RstmRuntime, Tl2Runtime, HtmBestEffortRuntime, history.RecordingBackend)
    for cls in backend_classes:
        # TMBackend's default hooks serve the software backends, which
        # inherit them, so they count as stm.
        layer = {"repro.runtime.flextm": "runtime.flextm",
                 "repro.verify.history": "verify.recorder"}.get(cls.__module__, "stm")
        _wrap_own(patcher, log, cls, layer, BACKEND_METHODS)
        _wrap_own(patcher, log, cls, "core.virt", VIRT_METHODS)

    _wrap_own(patcher, log, FlexTMMachine, "core.machine",
              ("load", "store", "tload", "tstore", "cas", "cas_commit", "aload"))
    _wrap_own(patcher, log, L1Controller, "coherence.l1",
              ("access", "aload", "arelease", "flash_commit", "flash_abort", "evict"))
    _wrap_own(patcher, log, L1Controller, "coherence.directory", ("handle_forwarded",))
    _wrap_own(patcher, log, Directory, "coherence.directory",
              ("request", "writeback", "drop_processor"))
    _wrap_own(patcher, log, CacheArray, "memory.cache",
              ("lookup", "peek", "choose_victim", "install", "remove"))
    patcher.wrap(CacheArray, "flash_transform", lambda fn: _flash(log, fn))
    _wrap_own(patcher, log, Signature, "signatures",
              ("insert", "union", "intersects", "clear", "copy"))
    patcher.wrap(Signature, "member", lambda fn: _probe(log, fn))
    _wrap_own(patcher, log, SummarySignatures, "signatures",
              ("install", "remove", "conflicts", "sticky_sharer", "threads_conflicting"))
    _wrap_own(patcher, log, InvariantChecker, "chaos.invariants",
              ("on_access_conflicts", "on_tsw_write", "check_machine"))
    _wrap_own(patcher, log, LivelockWatchdog, "chaos.watchdog", ("observe",))
    _wrap_own(patcher, log, MetricsHub, "obs.metrics",
              tuple(name for name in MetricsHub.__dict__ if name.startswith("on_")))
    # The matrix harness imported check_serializable by name: patch both.
    oracle = _timed(log, "verify.oracle/check_serializable", history.check_serializable)
    patcher.replace(history, "check_serializable", oracle)
    patcher.replace(chaos_harness, "check_serializable", oracle)
    _wrap_own(patcher, log, chaos_harness, "harness.cell", ("_run_cell",))


def _flash(log: SpanLog, fn: Callable) -> Callable:
    """Time a flash sweep and count lines swept and lines it changed."""
    nid = log.name_id("memory.cache/flash_transform")
    counts = log.counts

    @functools.wraps(fn)
    def flash_transform(self, transform):
        changed = 0

        def counting(line):
            nonlocal changed
            before = (line.state, line.t_bit, line.a_bit)
            transform(line)
            if (line.state, line.t_bit, line.a_bit) != before:
                changed += 1

        index = log.open(nid)
        try:
            swept = fn(self, counting)
        finally:
            log.close(index)
        counts["memory.cache.flash_sweeps"] += 1
        counts["memory.cache.flash_lines_swept"] += swept
        counts["memory.cache.flash_lines_changed"] += changed
        return swept

    return flash_transform


def _probe(log: SpanLog, fn: Callable) -> Callable:
    """Time a signature membership probe and count its hits."""
    nid = log.name_id("signatures/member")
    counts = log.counts

    @functools.wraps(fn)
    def member(self, address):
        index = log.open(nid)
        try:
            hit = fn(self, address)
        finally:
            log.close(index)
        if hit:
            counts["signatures.probe_hits"] += 1
        return hit

    return member
