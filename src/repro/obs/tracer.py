"""The observer protocol: one event channel for every pure observer.

Every layer of the simulator reports structured, cycle-stamped events
through the one :class:`Tracer` protocol held in ``machine.tracer``:

* :class:`NullTracer` — the default.  ``enabled`` is ``False`` and every
  call site guards with ``if tracer.enabled:``, so the hot path pays one
  attribute read per potential event and benchmarks are unaffected.
* :class:`EventTracer` — records :class:`TraceEvent` entries in emission
  order.  Per-processor streams are cycle-monotonic (each processor's
  clock only moves forward), which is what the cycle-attribution
  profiler and the exporters rely on.
* :class:`~repro.obs.metrics.MetricsHub` and
  :class:`~repro.adversary.probes.OpacityProbe` — the other two
  observers; each overrides only the ``on_*`` events it consumes.
* :class:`Fanout` — several observers armed at once.

Observing is purely observational: arming any observer never changes a
single simulated cycle, so an observed run reproduces the unobserved
run bit for bit (tests/obs/test_trace_integration.py,
tests/obs/test_observer_fanout.py).

Event taxonomy (the ``kind`` field of :class:`TraceEvent`):

========================  =====================================================
``tx_begin``              transaction attempt starts (thread, incarnation)
``tx_commit``             attempt committed
``tx_abort``              attempt aborted (``cause`` + wounding processor)
``tx_read`` / ``tx_write``  sampled transactional data accesses
``conflict_detected``     a CST-setting response (R-W / W-R / W-W / SI)
``aou_alert``             alert-on-update delivery (line + reason)
``conflict_stall``        cycles spent waiting on an enemy (duration)
``overflow_spill``        TMI eviction walked into the overflow table
``overflow_walk``         OT refill walk on an L1 miss
``overflow_copyback``     post-commit OT drain (controller-overlapped)
``preempt`` / ``yield``   scheduler took the core away / thread gave it up
``dispatch`` / ``retire``  thread installed on a core / finished for good
``coh_request``           directory request (type, line, grant, nack)
``coh_response``          signature-qualified forwarded response
``coh_evict``             L1 eviction (victimized line + state)
``watchdog_*``            liveness-watchdog ladder (escalate / backoff_boost /
                          forced_abort / recover)
``degrade_*``             degradation-ladder actions (escalate / policy_flip /
                          rotate / irrevocable_grant / irrevocable_drain /
                          irrevocable_release / recover)
``metrics_*``             metrics-hub pressure samples (signature fill / FP /
                          OT occupancy / CST density, cycle-stamped)
========================  =====================================================
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

#: CST kinds reported by ``conflict_detected`` events.  "SI" marks a
#: strong-isolation abort caused by a non-transactional writer.
CST_KINDS = ("R-W", "W-R", "W-W", "SI")


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One structured, cycle-stamped observation."""

    kind: str
    cycle: int
    proc: int
    thread: int = -1
    line: int = -1
    dur: int = 0
    cause: str = ""
    #: Event-specific payload (responder, CST kind, grant state, ...).
    data: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "cycle": self.cycle,
            "proc": self.proc,
        }
        if self.thread >= 0:
            out["thread"] = self.thread
        if self.line >= 0:
            out["line"] = self.line
        if self.dur:
            out["dur"] = self.dur
        if self.cause:
            out["cause"] = self.cause
        if self.data:
            out.update(self.data)
        return out


class Tracer:
    """The one observer protocol every simulator layer emits through.

    Each event has one no-op ``on_<event>`` method; an observer
    subclasses this and overrides only the events it consumes.  The
    machine holds exactly one observer in ``machine.tracer`` (see
    :meth:`~repro.core.machine.FlexTMMachine.observe`): the shared
    :data:`NULL_TRACER`, a single armed observer, or a :class:`Fanout`
    over several.

    ``enabled`` is the contract: call sites test it before building any
    event payload, so an unobserved run costs one attribute read per
    potential event.  Observers never write simulated state, so an
    observed run is bit-identical to an unobserved one.
    """

    enabled = False

    def attach(self, machine) -> None:
        """Called once when the observer is armed on ``machine``."""

    # -- transaction lifecycle -------------------------------------------------

    def on_begin(self, proc: int, thread: int, cycle: int, system: str,
                 incarnation: int) -> None:
        pass

    def on_commit(self, proc: int, thread: int, cycle: int) -> None:
        pass

    def on_abort(self, proc: int, thread: int, cycle: int, cause: str,
                 by: int = -1, conflict: str = "") -> None:
        pass

    def on_access(self, proc: int, thread: int, cycle: int, rw: str,
                  address: int) -> None:
        pass

    # -- conflicts and alerts --------------------------------------------------

    def on_conflict(self, proc: int, cycle: int, responder: int, cst_kind: str,
                    line: int) -> None:
        pass

    def on_alert(self, proc: int, cycle: int, line: int, reason: str) -> None:
        pass

    def on_stall(self, proc: int, cycle: int, dur: int, enemy: int = -1,
                 settled: bool = True) -> None:
        pass

    # -- overflow machinery ----------------------------------------------------

    def on_overflow(self, proc: int, cycle: int, what: str, line: int = -1,
                    dur: int = 0) -> None:
        pass

    # -- scheduling ------------------------------------------------------------

    def on_sched(self, proc: int, cycle: int, what: str, thread: int,
                 status: str = "") -> None:
        pass

    def on_step(self, scheduler) -> None:
        """Once per scheduler step (not a trace event)."""

    # -- coherence -------------------------------------------------------------

    def on_coherence(self, proc: int, cycle: int, msg: str, line: int,
                     responder: int = -1, detail: str = "") -> None:
        pass

    # -- liveness watchdog -----------------------------------------------------

    def on_watchdog(self, cycle: int, what: str, **data) -> None:
        """Watchdog escalation ladder events (escalate/boost/abort/recover)."""

    # -- degradation ladder ------------------------------------------------------

    def on_degrade(self, cycle: int, what: str, **data) -> None:
        """Resilience-controller actions (escalate/flip/rotate/irrevocable)."""

    # -- metrics hub -------------------------------------------------------------

    def on_metrics(self, cycle: int, what: str, **data) -> None:
        """Metrics-hub observations (periodic pressure samples)."""

    # -- committed memory and logical accesses (not trace events) --------------

    def on_read(self, thread: int, address: int, value: int) -> None:
        """A transaction's logical read returned ``value``."""

    def on_write(self, thread: int, address: int, value: int) -> None:
        """A transaction logically wrote ``value``."""

    def on_memory_write(self, address: int, value: int) -> None:
        """A committed write landed (plain store or successful CAS)."""

    def on_commit_flash(self, overlay) -> None:
        """A CAS-Commit made a whole write overlay visible at once."""

    # -- run boundary ----------------------------------------------------------

    def finalize(self, proc_cycles: List[int]) -> None:
        """Called once by the scheduler with each processor's final clock."""


#: Every method an observer may override (what :class:`Fanout` forwards).
EVENT_METHODS = tuple(
    name for name in vars(Tracer) if name.startswith("on_")
) + ("finalize",)


class NullTracer(Tracer):
    """The zero-overhead default; every hook is a no-op."""

    __slots__ = ()


#: Shared do-nothing instance installed everywhere by default.
NULL_TRACER = NullTracer()


def _forward(handlers):
    """One event method calling every handler in arming order."""
    if len(handlers) == 1:
        return handlers[0]

    def forward(*args, **kwargs):
        for handler in handlers:
            handler(*args, **kwargs)

    return forward


class Fanout(Tracer):
    """Several armed observers behind the one ``machine.tracer`` slot.

    Each event is forwarded, in arming order, only to the observers
    that override it, so an observer pays nothing for the events it
    ignores.  Built by :meth:`~repro.core.machine.FlexTMMachine.observe`.
    """

    enabled = True

    def __init__(self, observers):
        self.observers = tuple(observers)
        for name in EVENT_METHODS:
            default = getattr(Tracer, name)
            handlers = [
                getattr(observer, name) for observer in self.observers
                if getattr(type(observer), name) is not default
            ]
            setattr(self, name, _forward(handlers) if handlers
                    else getattr(NULL_TRACER, name))


class EventTracer(Tracer):
    """Records structured events for profiling and export.

    Args:
        sample_memory: record one in N ``tx_read``/``tx_write`` events
            (1 = every access).  Lifecycle and conflict events are never
            sampled.
        trace_coherence: record per-message directory/L1 events.  These
            dominate event volume; disable for long runs.
        max_events: stop recording past this many events (``dropped``
            counts the overflow).  ``None`` = unbounded.
    """

    enabled = True

    def __init__(
        self,
        sample_memory: int = 1,
        trace_coherence: bool = True,
        max_events: Optional[int] = None,
    ):
        if sample_memory < 1:
            raise ValueError("sample_memory must be >= 1")
        self.sample_memory = sample_memory
        self.trace_coherence = trace_coherence
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped = 0
        #: Final per-processor cycle counts (set by finalize()).
        self.proc_cycles: List[int] = []
        self._access_tick = 0

    # -- recording core --------------------------------------------------------

    def _record(self, event: TraceEvent) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    # -- transaction lifecycle -------------------------------------------------

    def on_begin(self, proc, thread, cycle, system, incarnation):
        self._record(TraceEvent("tx_begin", cycle, proc, thread,
                                data={"system": system, "incarnation": incarnation}))

    def on_commit(self, proc, thread, cycle):
        self._record(TraceEvent("tx_commit", cycle, proc, thread))

    def on_abort(self, proc, thread, cycle, cause, by=-1, conflict=""):
        data = {"by": by}
        if conflict:
            data["conflict"] = conflict
        self._record(TraceEvent("tx_abort", cycle, proc, thread, cause=cause,
                                data=data))

    def on_access(self, proc, thread, cycle, rw, address):
        self._access_tick += 1
        if self._access_tick % self.sample_memory:
            return
        self._record(TraceEvent(f"tx_{rw}", cycle, proc, thread, line=address))

    # -- conflicts and alerts --------------------------------------------------

    def on_conflict(self, proc, cycle, responder, cst_kind, line):
        self._record(TraceEvent("conflict_detected", cycle, proc, line=line,
                                data={"responder": responder, "cst": cst_kind}))

    def on_alert(self, proc, cycle, line, reason):
        self._record(TraceEvent("aou_alert", cycle, proc, line=line, cause=reason))

    def on_stall(self, proc, cycle, dur, enemy=-1, settled=True):
        self._record(TraceEvent("conflict_stall", cycle, proc, dur=dur,
                                data={"enemy": enemy, "settled": settled}))

    # -- overflow machinery ----------------------------------------------------

    def on_overflow(self, proc, cycle, what, line=-1, dur=0):
        self._record(TraceEvent(f"overflow_{what}", cycle, proc, line=line, dur=dur))

    # -- scheduling ------------------------------------------------------------

    def on_sched(self, proc, cycle, what, thread, status=""):
        self._record(TraceEvent(what, cycle, proc, thread, cause=status))

    # -- coherence -------------------------------------------------------------

    def on_coherence(self, proc, cycle, msg, line, responder=-1, detail=""):
        if not self.trace_coherence:
            return
        data = {"responder": responder} if responder >= 0 else None
        self._record(TraceEvent(msg, cycle, proc, line=line, cause=detail,
                                data=data))

    # -- liveness watchdog -----------------------------------------------------

    def on_watchdog(self, cycle, what, **data):
        self._record(TraceEvent(f"watchdog_{what}", cycle, proc=-1,
                                data=dict(data) if data else None))

    # -- degradation ladder ------------------------------------------------------

    def on_degrade(self, cycle, what, **data):
        self._record(TraceEvent(f"degrade_{what}", cycle, proc=-1,
                                data=dict(data) if data else None))

    # -- metrics hub -------------------------------------------------------------

    def on_metrics(self, cycle, what, **data):
        self._record(TraceEvent(f"metrics_{what}", cycle, proc=-1,
                                data=dict(data) if data else None))

    # -- run boundary ----------------------------------------------------------

    def finalize(self, proc_cycles):
        self.proc_cycles = list(proc_cycles)

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def per_processor(self) -> Dict[int, List[TraceEvent]]:
        """Events grouped by processor, preserving emission order."""
        grouped: Dict[int, List[TraceEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.proc, []).append(event)
        return grouped


def classify_conflict(access_kind, response_kind) -> Optional[str]:
    """Map a (requester access, responder signature hit) pair to a CST kind.

    The requester's view: its TLoad that hit a remote Wsig is an R-W
    conflict; its TStore against a remote Wsig is W-W; against an
    exposed read (remote Rsig) it is W-R.  Accepts the coherence enums
    or their string values (this module stays dependency-free).
    """
    access = getattr(access_kind, "value", access_kind)
    response = getattr(response_kind, "value", response_kind)
    if response == "Threatened":
        return "R-W" if access == "TLoad" else "W-W"
    if response == "Exposed-Read" and access == "TStore":
        return "W-R"
    return None
