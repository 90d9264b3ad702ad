"""Central registry of every tracer event kind.

The tracer's event taxonomy used to live only in the
:mod:`repro.obs.tracer` docstring, which meant a typo'd event name at an
emit site (``"coh_evcit"``) or an undocumented new kind would sail
through review and only surface when a trace consumer silently matched
nothing.  This module is the single source of truth:

* every ``kind`` an :class:`~repro.obs.tracer.EventTracer` can record
  appears here with a one-line description;
* the ``simcheck`` static pass (rule ``SIM-E201``) resolves the literal
  event-name argument at every emit site — applying the per-method
  prefixes in :data:`EMIT_PREFIXES` — and fails the build when the
  resolved kind is missing from :data:`EVENT_REGISTRY`;
* rule ``SIM-E202`` reports registry entries that no emit site produces
  any more (dead taxonomy), so the registry cannot rot in the other
  direction either;
* docs and tests import :data:`EVENT_KINDS` instead of copying the
  table.

Adding an event kind is therefore a two-line change: emit it, and
register it here (``docs/OBSERVABILITY.md`` is generated prose; the
registry is the contract).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping

#: kind -> one-line description.  Grouped to mirror the tracer API.
EVENT_REGISTRY: Dict[str, str] = {
    # -- transaction lifecycle (Tracer.on_begin/on_commit/on_abort/on_access)
    "tx_begin": "transaction attempt starts (thread, backend, incarnation)",
    "tx_commit": "attempt committed",
    "tx_abort": "attempt aborted (cause + wounding processor + CST kind)",
    "tx_read": "sampled transactional load",
    "tx_write": "sampled transactional store",
    # -- conflicts and alerts (Tracer.on_conflict/on_alert/on_stall)
    "conflict_detected": "a CST-setting response (R-W / W-R / W-W / SI)",
    "aou_alert": "alert-on-update delivery (line + reason)",
    "conflict_stall": "cycles spent waiting on an enemy (duration)",
    # -- overflow machinery (Tracer.on_overflow)
    "overflow_spill": "TMI eviction walked into the overflow table",
    "overflow_walk": "OT refill walk on an L1 miss",
    "overflow_copyback": "post-commit OT drain (controller-overlapped)",
    # -- scheduling (Tracer.on_sched)
    "preempt": "scheduler took the core away at quantum expiry",
    "yield": "thread voluntarily gave the core up",
    "dispatch": "thread installed on a core",
    "retire": "thread finished for good",
    # -- coherence (Tracer.on_coherence)
    "coh_request": "directory request (type, line, grant, nack)",
    "coh_response": "signature-qualified forwarded response",
    "coh_evict": "L1 eviction (victimized line + state)",
    # -- liveness watchdog (Tracer.on_watchdog)
    "watchdog_escalate": "no-commit window escalated the watchdog level",
    "watchdog_backoff_boost": "watchdog widened contention-manager backoff",
    "watchdog_forced_abort": "watchdog force-aborted the most prolific wounder",
    "watchdog_recover": "commits resumed; watchdog ladder reset",
    # -- degradation ladder (Tracer.on_degrade)
    "degrade_escalate": "abort streak moved a thread up the resilience ladder",
    "degrade_policy_flip": "lazy->eager conflict-resolution flip (EAGER rung)",
    "degrade_rotate": "signature hash-family rotation under Bloom pressure",
    "degrade_irrevocable_grant": "serial-irrevocable token granted to a thread",
    "degrade_irrevocable_drain": "in-flight peer force-aborted during a grant",
    "degrade_irrevocable_release": "serial-irrevocable token released",
    "degrade_recover": "streak cleared; thread returned to the HEALTHY rung",
    # -- metrics hub (Tracer.on_metrics)
    "metrics_sample": "periodic pressure sample (sig fill/FP, OT, CST density)",
}

#: Every registered kind, for membership tests and docs/tests.
EVENT_KINDS: FrozenSet[str] = frozenset(EVENT_REGISTRY)

#: How each kind-carrying observer method derives the recorded event
#: kind from its name argument: ``kind = prefix + <literal argument>``.
#: Methods that always record a single fixed kind appear in
#: :data:`FIXED_KINDS` instead; both tables drive rule ``SIM-E201``.
#: ``on_step``/``on_read``/``on_write``/``on_memory_write``/
#: ``on_commit_flash`` are observer events but not trace events, so they
#: appear in neither table.
EMIT_PREFIXES: Mapping[str, str] = {
    "on_access": "tx_",  # argument is "read" / "write"
    "on_overflow": "overflow_",
    "on_sched": "",
    "on_coherence": "",
    "on_watchdog": "watchdog_",
    "on_degrade": "degrade_",
    "on_metrics": "metrics_",
}

#: Observer methods whose recorded kind is fixed (no name argument).
FIXED_KINDS: Mapping[str, str] = {
    "on_begin": "tx_begin",
    "on_commit": "tx_commit",
    "on_abort": "tx_abort",
    "on_conflict": "conflict_detected",
    "on_alert": "aou_alert",
    "on_stall": "conflict_stall",
}

#: Position (0-based, after self) of the kind-name argument in each
#: prefixed method's signature, for emit-site resolution:
#: ``on_access(proc, thread, cycle, rw, ...)`` -> index 3, etc.
KIND_ARG_INDEX: Mapping[str, int] = {
    "on_access": 3,
    "on_overflow": 2,
    "on_sched": 2,
    "on_coherence": 2,
    "on_watchdog": 1,
    "on_degrade": 1,
    "on_metrics": 1,
}

#: Keyword name of the kind argument (emit sites may pass it by name).
KIND_ARG_NAME: Mapping[str, str] = {
    "on_access": "rw",
    "on_overflow": "what",
    "on_sched": "what",
    "on_coherence": "msg",
    "on_watchdog": "what",
    "on_degrade": "what",
    "on_metrics": "what",
}


def is_registered(kind: str) -> bool:
    """True when ``kind`` is a documented tracer event."""
    return kind in EVENT_REGISTRY
