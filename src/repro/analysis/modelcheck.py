"""Exhaustive explicit-state model checking of the TMESI/CST spec.

The checker explores *every* reachable interleaving of the protocol
tables in :mod:`repro.coherence.spec` for one cache line across N
caches plus a directory, and verifies the declared invariant catalog
(``spec.INVARIANTS``, rules SIM-M401..407).  It consumes only the spec
tables — never the implementation — so a hole in the spec cannot hide
behind a correct controller, and vice versa.

Abstract state
--------------
One tuple per cache: ``(line, rsig, wsig, pending, r_w, w_w, w_r)``
where ``line`` is a stable Figure 1 state, ``rsig``/``wsig`` are the
signature footprint bits for *the* line, ``pending`` is the access kind
of an in-flight directory request (-1 when none) and the three CST
masks are bitsets of remote cache ids.  Events are:

* ``access(i, kind)`` — dispatched through ``LOCAL_DISPATCH``: a local
  hit applies ``LOCAL_NEXT_STATE`` and the signature insert; a miss
  parks the request (``MISS_REQUESTS``) until its ``deliver``;
* ``deliver(i)`` — the directory atomically forwards to every holder
  (valid line *or* signature stake — the sticky conflict interest the
  real directory retains), applies ``REMOTE_NEXT_STATE``, the
  ``RESPONSE_TABLE``, both CST tables, strong-isolation aborts, then
  grants per ``GETS_GRANT_RULES``/``GRANTS`` and installs per
  ``GRANT_INSTALL``;
* ``commit(i)`` / ``abort(i)`` — Figure 3 flash transforms.  Commit
  first force-aborts every active enemy named in the committer's
  W-R|W-W masks (the lazy CAS-abort sweep); abort is always enabled
  for a transaction, which over-approximates every contention-manager
  policy at once.

Deliberate abstractions (documented divergences from the simulator):

* CST hygiene is eager: when a cache commits/aborts, bits *naming* it
  in remote CSTs clear immediately.  The hardware leaves them until
  the owner's own flash-clear; the only behaviour this hides is a
  stale-bit wound of a fresh transaction — an ``abort`` event the
  model already explores unconditionally — and it keeps the state
  space finite-tractable.
* A cache that is wounded while a request is in flight still receives
  its grant (and signature insert) later; the resulting state is
  identical to the same access re-issued by an immediate retry, which
  is a legal behaviour in its own right.
* A cache with a live signature footprint on the line issues
  transactional accesses and plain Loads, but never a plain Store.
  The runtime does issue plain stores inside transactions: the
  manager's TSW CAS traffic, and RTM-F's ownership and version
  updates to its object headers (``stm/rtmf.py`` ``write`` and
  ``commit``).  Neither kind of line is ever TLoaded or TStored: TSWs
  see only plain stores, ALoads and CAS, and RTM-F's header lines only
  plain loads and stores, so no cache holds signature footprint on them
  (``tests/analysis/test_modelcheck.py`` pins this disjointness on
  RTM-F runs).  Consequently the single dispatch cell
  ``LOCAL_DISPATCH[Store,TI]`` — legal hardware behaviour, undrivable
  by the runtime — is exempted from dead-cell coverage
  (``UNDRIVEN_CELLS``).

Every violation is minimized (BFS parent links), annotated into a
concrete event trace, and exported two ways: SARIF findings under the
SIM-M rule ids (:func:`findings_from`), and — through
:mod:`repro.adversary.bridge` — a :class:`ScheduleScript` replayed on
the real simulator.  See docs/ANALYSIS.md for the state-space table
and the dead-cell story per N.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.engine import Finding, Rule, register
from repro.coherence import spec as spec_tables

#: What dual-update symmetry *means*, independent of the spec's own
#: DUAL_CST arrow: a writes-vs-reads edge mirrors as reads-vs-writes,
#: writes-vs-writes mirrors onto itself.  SIM-M403 checks the spec's
#: routing against this intrinsic mirror, so a coherently mutated
#: DUAL_CST cannot vacuously agree with itself.
_INTRINSIC_MIRROR: Dict[str, str] = {"w_r": "r_w", "r_w": "w_r", "w_w": "w_w"}

#: CST name -> field index inside a cache tuple.
_MASK_INDEX: Dict[str, int] = {"r_w": 4, "w_w": 5, "w_r": 6}

#: A cache: (line, rsig, wsig, pending access index, r_w, w_w, w_r).
CacheState = Tuple[str, bool, bool, int, int, int, int]
State = Tuple[CacheState, ...]
#: Raw exploration event: (op, cache, access kind) — kind is "" for
#: deliver/commit/abort.
Event = Tuple[str, int, str]
#: Annotated trace event: op in {local, issue, deliver, commit, abort}
#: with the access kind resolved for local/issue/deliver.
TraceEvent = Tuple[str, int, str]

_NO_PENDING = -1


@dataclasses.dataclass(frozen=True)
class ProtocolSpec:
    """An immutable snapshot of the protocol tables.

    The checker explores a snapshot rather than the module so the
    mutation-kill suite can corrupt individual cells without tripping
    the spec module's own import-time consistency assertions.
    """

    states: Tuple[str, ...]
    accesses: Tuple[str, ...]
    requests: Tuple[str, ...]
    responses: Tuple[str, ...]
    encodings: Dict[str, Tuple[int, int, int]]
    state_predicates: Dict[str, FrozenSet[str]]
    transactional_accesses: FrozenSet[str]
    write_accesses: FrozenSet[str]
    local_dispatch: Dict[Tuple[str, str], str]
    local_next_state: Dict[Tuple[str, str], str]
    miss_requests: Dict[str, str]
    remote_next_state: Dict[Tuple[str, str], str]
    response_table: Dict[Tuple[str, str], str]
    responder_cst: Dict[Tuple[str, str], str]
    requester_cst: Dict[Tuple[str, str], str]
    dual_cst: Dict[str, str]
    conflict_responses: FrozenSet[str]
    strong_isolation_aborts: FrozenSet[Tuple[str, str]]
    grants: Dict[str, FrozenSet[str]]
    gets_grant_rules: Tuple[Tuple[str, str], ...]
    grant_install: Dict[Tuple[str, str], str]
    commit_transform: Dict[str, str]
    abort_transform: Dict[str, str]
    initial_state: str
    final_line_states: FrozenSet[str]

    @classmethod
    def from_tables(cls) -> "ProtocolSpec":
        """Snapshot the live :mod:`repro.coherence.spec` tables."""
        return cls(
            states=tuple(spec_tables.STATES),
            accesses=tuple(spec_tables.ACCESSES),
            requests=tuple(spec_tables.REQUESTS),
            responses=tuple(spec_tables.RESPONSES),
            encodings=dict(spec_tables.ENCODINGS),
            state_predicates=dict(spec_tables.STATE_PREDICATES),
            transactional_accesses=spec_tables.ACCESS_PREDICATES[
                "is_transactional"
            ],
            write_accesses=spec_tables.ACCESS_PREDICATES["is_write"],
            local_dispatch=dict(spec_tables.LOCAL_DISPATCH),
            local_next_state=dict(spec_tables.LOCAL_NEXT_STATE),
            miss_requests=dict(spec_tables.MISS_REQUESTS),
            remote_next_state=dict(spec_tables.REMOTE_NEXT_STATE),
            response_table=dict(spec_tables.RESPONSE_TABLE),
            responder_cst=dict(spec_tables.RESPONDER_CST),
            requester_cst=dict(spec_tables.REQUESTER_CST),
            dual_cst=dict(spec_tables.DUAL_CST),
            conflict_responses=spec_tables.CONFLICT_RESPONSES,
            strong_isolation_aborts=spec_tables.STRONG_ISOLATION_ABORTS,
            grants=dict(spec_tables.GRANTS),
            gets_grant_rules=tuple(spec_tables.GETS_GRANT_RULES),
            grant_install=dict(spec_tables.GRANT_INSTALL),
            commit_transform=dict(spec_tables.COMMIT_TRANSFORM),
            abort_transform=dict(spec_tables.ABORT_TRANSFORM),
            initial_state=spec_tables.INITIAL_STATE,
            final_line_states=spec_tables.FINAL_LINE_STATES,
        )

    def replace(self, **overrides: object) -> "ProtocolSpec":
        """A mutated copy — the mutation-kill suite's entry point."""
        return dataclasses.replace(self, **overrides)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant violation with its minimal counterexample."""

    rule: str
    message: str
    #: Annotated events from the initial state up to (and including)
    #: the violating event.
    trace: Tuple[TraceEvent, ...]
    caches: int

    def render_trace(self) -> str:
        """``TStore@0; TStore@1!; commit@0`` — ``!`` marks a grant."""
        return "; ".join(_render_event(event) for event in self.trace)


@dataclasses.dataclass
class ModelCheckResult:
    """Everything one exploration produced."""

    caches: int
    strategy: str
    states: int = 0
    transitions: int = 0
    depth: int = 0
    truncated: bool = False
    violations: List[Violation] = dataclasses.field(default_factory=list)
    dead_cells: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.dead_cells

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": "repro.modelcheck/v1",
            "caches": self.caches,
            "strategy": self.strategy,
            "states": self.states,
            "transitions": self.transitions,
            "depth": self.depth,
            "truncated": self.truncated,
            "ok": self.ok,
            "violations": [
                {
                    "rule": violation.rule,
                    "message": violation.message,
                    "trace": [list(event) for event in violation.trace],
                    "rendered": violation.render_trace(),
                    "caches": violation.caches,
                }
                for violation in self.violations
            ],
            "dead_cells": list(self.dead_cells),
        }


def _render_event(event: TraceEvent) -> str:
    op, cache, kind = event
    if op == "local":
        return f"{kind}@{cache}"
    if op == "issue":
        return f"{kind}@{cache}?"
    if op == "deliver":
        return f"{kind}@{cache}!"
    return f"{op}@{cache}"


# --------------------------------------------------------------------------- #
# Transition semantics.


class _Applied:
    """Outcome of applying one event: next state or a violation."""

    __slots__ = ("state", "violation", "cells")

    def __init__(
        self,
        state: Optional[State],
        violation: Optional[Tuple[str, str]],
        cells: List[Tuple[str, str]],
    ) -> None:
        self.state = state
        self.violation = violation
        self.cells = cells


def _initial_state(spec: ProtocolSpec, caches: int) -> State:
    cache: CacheState = (spec.initial_state, False, False, _NO_PENDING, 0, 0, 0)
    return tuple(cache for _ in range(caches))


def _enabled_events(spec: ProtocolSpec, state: State) -> List[Event]:
    events: List[Event] = []
    for i, cache in enumerate(state):
        if cache[3] != _NO_PENDING:
            events.append(("deliver", i, ""))
            continue
        footprint = cache[1] or cache[2]
        for kind in spec.accesses:
            if (
                footprint
                and kind not in spec.transactional_accesses
                and kind in spec.write_accesses
            ):
                # An in-transaction plain store to a tracked line never
                # happens: the manager's CAS traffic targets TSW lines.
                continue
            if spec.local_dispatch.get((kind, cache[0])) != "error":
                events.append(("access", i, kind))
        if cache[1] or cache[2]:
            events.append(("commit", i, ""))
            events.append(("abort", i, ""))
    return events


def _abort_cache(
    spec: ProtocolSpec,
    lines: List[str],
    rsig: List[bool],
    wsig: List[bool],
    masks: Tuple[List[int], List[int], List[int]],
    j: int,
    cells: List[Tuple[str, str]],
) -> Optional[Tuple[str, str]]:
    """Flash-abort cache ``j`` in place (transform, sig + CST clears)."""
    target = spec.abort_transform.get(lines[j])
    cells.append(("ABORT_TRANSFORM", lines[j]))
    if target is None or target not in spec.states:
        return (
            "SIM-M402",
            f"abort of a {lines[j]} line has no legal transform",
        )
    lines[j] = target
    rsig[j] = False
    wsig[j] = False
    clear = ~(1 << j)
    for mask in masks:
        mask[j] = 0
        for k in range(len(lines)):
            mask[k] &= clear
    return None


def _apply(spec: ProtocolSpec, state: State, event: Event) -> _Applied:
    """Apply one event; returns the successor or the first violation."""
    op, i, kind = event
    cells: List[Tuple[str, str]] = []
    lines = [cache[0] for cache in state]
    rsig = [cache[1] for cache in state]
    wsig = [cache[2] for cache in state]
    pending = [cache[3] for cache in state]
    rw = [cache[4] for cache in state]
    ww = [cache[5] for cache in state]
    wr = [cache[6] for cache in state]
    masks = (rw, ww, wr)
    mask_of = {"r_w": rw, "w_w": ww, "w_r": wr}

    def freeze() -> State:
        return tuple(
            (lines[k], rsig[k], wsig[k], pending[k], rw[k], ww[k], wr[k])
            for k in range(len(lines))
        )

    def fail(rule: str, message: str) -> _Applied:
        return _Applied(None, (rule, message), cells)

    if op == "access":
        outcome = spec.local_dispatch.get((kind, lines[i]))
        if outcome is None:
            return fail(
                "SIM-M407",
                f"{kind} against a {lines[i]} line has no dispatch cell",
            )
        cells.append(("LOCAL_DISPATCH", f"{kind},{lines[i]}"))
        if outcome == "local":
            target = spec.local_next_state.get((kind, lines[i]))
            if target is None or target not in spec.states:
                return fail(
                    "SIM-M402",
                    f"local {kind} hit on {lines[i]} has no next state",
                )
            lines[i] = target
            if kind in spec.transactional_accesses:
                if kind in spec.write_accesses:
                    wsig[i] = True
                else:
                    rsig[i] = True
            return _Applied(freeze(), None, cells)
        request = spec.miss_requests.get(kind)
        if request is None or request not in spec.requests:
            return fail(
                "SIM-M407",
                f"{kind} misses but MISS_REQUESTS names no request",
            )
        cells.append(("MISS_REQUESTS", kind))
        pending[i] = spec.accesses.index(kind)
        return _Applied(freeze(), None, cells)

    if op == "deliver":
        kind = spec.accesses[pending[i]]
        request = spec.miss_requests[kind]
        requester_tx = kind in spec.transactional_accesses
        threatened = False
        any_holder = False
        si_victims: List[int] = []
        for j in range(len(lines)):
            if j == i:
                continue
            if lines[j] == spec.initial_state and not rsig[j] and not wsig[j]:
                continue
            any_holder = True
            category = (
                "wsig" if wsig[j] else ("rsig_only" if rsig[j] else "none")
            )
            response: Optional[str] = None
            if category != "none":
                response = spec.response_table.get((request, category))
                if response is None:
                    return fail(
                        "SIM-M405",
                        f"a {category} holder has no response to {request}: "
                        "the conflict is silently lost",
                    )
                cells.append(("RESPONSE_TABLE", f"{request},{category}"))
            next_state = spec.remote_next_state.get((request, lines[j]))
            if next_state is None or next_state not in spec.states:
                return fail(
                    "SIM-M407",
                    f"in-flight {request} cannot be serviced by a "
                    f"{lines[j]} holder: the request wedges",
                )
            cells.append(("REMOTE_NEXT_STATE", f"{request},{lines[j]}"))
            responder_cst = spec.responder_cst.get((request, category))
            requester_cst = (
                spec.requester_cst.get((kind, response))
                if response is not None
                else None
            )
            strong = (request, category) in spec.strong_isolation_aborts
            if response is not None and response in spec.conflict_responses:
                if requester_tx:
                    if (
                        responder_cst is None
                        or requester_cst is None
                        or spec.dual_cst.get(responder_cst) != requester_cst
                    ):
                        return fail(
                            "SIM-M404",
                            f"{response} to a {kind} miss: responder CST "
                            f"{responder_cst!r} and requester CST "
                            f"{requester_cst!r} do not agree through "
                            "DUAL_CST",
                        )
                    cells.append(("DUAL_CST", responder_cst))
                    if _INTRINSIC_MIRROR[responder_cst] != requester_cst:
                        return fail(
                            "SIM-M403",
                            f"{response} to a {kind} miss routes the dual "
                            f"update to ({responder_cst}, {requester_cst}), "
                            "which is not a mirrored CST pair",
                        )
                elif responder_cst is None and not strong:
                    return fail(
                        "SIM-M405",
                        f"{response} to a plain {kind} is neither "
                        "CST-recorded nor strong-isolation resolved",
                    )
            if responder_cst is not None:
                cells.append(("RESPONDER_CST", f"{request},{category}"))
                mask_of[responder_cst][j] |= 1 << i
            if requester_cst is not None:
                cells.append(("REQUESTER_CST", f"{kind},{response}"))
                mask_of[requester_cst][i] |= 1 << j
            if response == "Threatened":
                threatened = True
            if strong and not requester_tx:
                cells.append(
                    ("STRONG_ISOLATION_ABORTS", f"{request},{category}")
                )
                si_victims.append(j)
            lines[j] = next_state
        grant_domain = spec.grants.get(request, frozenset())
        grant: Optional[str] = None
        if request == "GETS":
            for condition, target in spec.gets_grant_rules:
                if (
                    (condition == "threatened" and threatened)
                    or (condition == "no_holders" and not any_holder)
                    or condition == "otherwise"
                ):
                    grant = target
                    cells.append(("GETS_GRANT_RULES", condition))
                    break
        elif len(grant_domain) == 1:
            grant = sorted(grant_domain)[0]
        if grant is None or grant not in grant_domain:
            return fail(
                "SIM-M402",
                f"{request} grants {grant!r}, which is outside "
                f"GRANTS[{request}]",
            )
        cells.append(("GRANTS", f"{request}->{grant}"))
        installed = spec.grant_install.get((kind, grant), grant)
        if (kind, grant) in spec.grant_install:
            cells.append(("GRANT_INSTALL", f"{kind},{grant}"))
        if installed not in spec.states:
            return fail(
                "SIM-M402",
                f"grant {grant} installs unknown state {installed!r}",
            )
        lines[i] = installed
        pending[i] = _NO_PENDING
        if requester_tx:
            if kind in spec.write_accesses:
                wsig[i] = True
            else:
                rsig[i] = True
        for j in si_victims:
            if rsig[j] or wsig[j]:
                violation = _abort_cache(spec, lines, rsig, wsig, masks, j, cells)
                if violation is not None:
                    return _Applied(None, violation, cells)
        return _Applied(freeze(), None, cells)

    if op == "commit":
        enemies = wr[i] | ww[i]
        for j in range(len(lines)):
            if j != i and enemies & (1 << j) and (rsig[j] or wsig[j]):
                violation = _abort_cache(spec, lines, rsig, wsig, masks, j, cells)
                if violation is not None:
                    return _Applied(None, violation, cells)
        target = spec.commit_transform.get(lines[i])
        cells.append(("COMMIT_TRANSFORM", lines[i]))
        if target is None or target not in spec.states:
            return fail(
                "SIM-M402",
                f"commit of a {lines[i]} line has no legal transform",
            )
        lines[i] = target
        rsig[i] = False
        wsig[i] = False
        clear = ~(1 << i)
        for mask in masks:
            mask[i] = 0
            for k in range(len(lines)):
                mask[k] &= clear
        return _Applied(freeze(), None, cells)

    # op == "abort": a spontaneous abort (covers every CM policy).
    violation = _abort_cache(spec, lines, rsig, wsig, masks, i, cells)
    if violation is not None:
        return _Applied(None, violation, cells)
    return _Applied(freeze(), None, cells)


# --------------------------------------------------------------------------- #
# State-level invariants.


def _check_state(spec: ProtocolSpec, state: State) -> Optional[Tuple[str, str]]:
    """SWMR (SIM-M401) and TSW legality (SIM-M406) on one state."""
    exclusive: List[int] = []
    shared: List[int] = []
    for i, cache in enumerate(state):
        line = cache[0]
        if line in ("M", "E"):
            exclusive.append(i)
        elif line == "S":
            shared.append(i)
        if (line == "TMI") != cache[2]:
            return (
                "SIM-M406",
                f"cache{i} is {line} with wsig={cache[2]}: a TMI line must "
                "exist exactly while its owner's write signature is live",
            )
        if line == "TI" and not cache[1]:
            return (
                "SIM-M406",
                f"cache{i} holds TI with no live read signature",
            )
    if len(exclusive) > 1:
        detail = ", ".join(f"cache{i}={state[i][0]}" for i in exclusive)
        return ("SIM-M401", f"two exclusive holders: {detail}")
    if exclusive and shared:
        return (
            "SIM-M401",
            f"cache{exclusive[0]}={state[exclusive[0]][0]} coexists with "
            f"S copies at {', '.join(f'cache{i}' for i in shared)}",
        )
    return None


def _is_final(spec: ProtocolSpec, state: State) -> bool:
    for cache in state:
        if cache[3] != _NO_PENDING or cache[1] or cache[2]:
            return False
        if cache[0] not in spec.final_line_states:
            return False
        if cache[4] or cache[5] or cache[6]:
            return False
    return True


def _static_violations(spec: ProtocolSpec) -> List[Tuple[str, str]]:
    """SIM-M402's static half: the encoding table itself is coherent."""
    out: List[Tuple[str, str]] = []
    if sorted(spec.encodings) != sorted(spec.states):
        out.append(("SIM-M402", "ENCODINGS does not cover exactly STATES"))
        return out
    seen: Dict[Tuple[int, int, int], str] = {}
    for name in spec.states:
        bits = spec.encodings[name]
        if bits in seen:
            out.append(
                (
                    "SIM-M402",
                    f"states {seen[bits]} and {name} share encoding {bits}",
                )
            )
        seen[bits] = name
    expect: Dict[str, Callable[[Tuple[int, int, int]], bool]] = {
        "is_valid": lambda bits: bits != (0, 0, 0),
        "is_transactional": lambda bits: bits[2] == 1,
        "readable": lambda bits: bits != (0, 0, 0),
        "writable": lambda bits: bits[0] == 1 and bits[2] == 0,
        "tstore_hits": lambda bits: bits[0] == 1 and bits[2] == 1,
    }
    for predicate in sorted(expect):
        derived = frozenset(
            name for name in spec.states if expect[predicate](spec.encodings[name])
        )
        declared = spec.state_predicates.get(predicate)
        if declared is not None and declared != derived:
            out.append(
                (
                    "SIM-M402",
                    f"predicate {predicate} is {sorted(declared)} but the "
                    f"(M,V,T) bits derive {sorted(derived)}",
                )
            )
    return out


# --------------------------------------------------------------------------- #
# Coverage (dead spec cells).


#: Spec cells that are architecturally legal but undrivable under the
#: runtime's access discipline, and hence exempt from dead-cell
#: reporting.  Today exactly one: a plain Store upgrade from a TI line
#: would require an in-transaction non-speculative store to a tracked
#: line (TI exists only while its reader's transaction runs), which the
#: runtime never issues — its in-transaction plain stores (manager CAS
#: on TSW lines, RTM-F header updates) target lines that are never
#: TLoaded or TStored.
UNDRIVEN_CELLS: FrozenSet[str] = frozenset({"LOCAL_DISPATCH[Store,TI]"})


def coverage_universe(spec: ProtocolSpec) -> List[str]:
    """Every spec cell an exhaustive exploration is expected to reach."""
    cells: List[str] = []
    for (access, state), outcome in sorted(spec.local_dispatch.items()):
        if outcome != "error":
            cells.append(f"LOCAL_DISPATCH[{access},{state}]")
    for access in sorted(spec.miss_requests):
        cells.append(f"MISS_REQUESTS[{access}]")
    for request, state in sorted(spec.remote_next_state):
        cells.append(f"REMOTE_NEXT_STATE[{request},{state}]")
    for request, category in sorted(spec.response_table):
        cells.append(f"RESPONSE_TABLE[{request},{category}]")
    for request, category in sorted(spec.responder_cst):
        cells.append(f"RESPONDER_CST[{request},{category}]")
    for access, response in sorted(spec.requester_cst):
        cells.append(f"REQUESTER_CST[{access},{response}]")
    for cst in sorted(spec.dual_cst):
        cells.append(f"DUAL_CST[{cst}]")
    for request in sorted(spec.grants):
        for grant in sorted(spec.grants[request]):
            cells.append(f"GRANTS[{request}->{grant}]")
    for condition, _target in spec.gets_grant_rules:
        cells.append(f"GETS_GRANT_RULES[{condition}]")
    for access, grant in sorted(spec.grant_install):
        cells.append(f"GRANT_INSTALL[{access},{grant}]")
    for request, category in sorted(spec.strong_isolation_aborts):
        cells.append(f"STRONG_ISOLATION_ABORTS[{request},{category}]")
    for state in sorted(spec.commit_transform):
        cells.append(f"COMMIT_TRANSFORM[{state}]")
    for state in sorted(spec.abort_transform):
        cells.append(f"ABORT_TRANSFORM[{state}]")
    return cells


# --------------------------------------------------------------------------- #
# The explorer.


def check(
    spec: Optional[ProtocolSpec] = None,
    caches: int = 3,
    depth: Optional[int] = None,
    strategy: str = "bfs",
) -> ModelCheckResult:
    """Exhaustively explore the spec for ``caches`` caches + directory.

    BFS (the default) guarantees each reported counterexample is a
    shortest trace; DFS trades minimality for a smaller frontier.  At
    most one violation is reported per rule — the first (shortest)
    one found — and a transition that violates an invariant is not
    expanded further, so one hole cannot cascade into noise.
    """
    # Bind to a non-Optional name so the closures below type-check.
    tables: ProtocolSpec = (
        ProtocolSpec.from_tables() if spec is None else spec
    )
    if caches < 2 or caches > 5:
        raise ValueError(f"caches must be in 2..5, got {caches}")
    if strategy not in ("bfs", "dfs"):
        raise ValueError(f"strategy must be bfs or dfs, got {strategy!r}")
    result = ModelCheckResult(caches=caches, strategy=strategy)
    violations: Dict[str, Violation] = {}
    covered: Set[Tuple[str, str]] = set()

    def record(rule: str, message: str, trace: Tuple[Event, ...]) -> None:
        if rule not in violations:
            violations[rule] = Violation(
                rule=rule,
                message=message,
                trace=annotate_trace(tables, caches, trace),
                caches=caches,
            )

    for rule, message in _static_violations(tables):
        record(rule, message, ())

    start = _initial_state(tables, caches)
    parents: Dict[State, Tuple[Optional[State], Optional[Event]]] = {
        start: (None, None)
    }
    depths: Dict[State, int] = {start: 0}

    def trace_of(state: State) -> Tuple[Event, ...]:
        events: List[Event] = []
        cursor: Optional[State] = state
        while cursor is not None:
            parent, event = parents[cursor]
            if event is not None:
                events.append(event)
            cursor = parent
        events.reverse()
        return tuple(events)

    initial_violation = _check_state(tables, start)
    if initial_violation is not None:
        record(initial_violation[0], initial_violation[1], ())

    # BFS walks the list by index (pop(0) is O(n)); DFS pops the tail.
    frontier: List[State] = [start]
    result.states = 1
    cursor_index = 0
    while True:
        if strategy == "bfs":
            if cursor_index >= len(frontier):
                break
            state = frontier[cursor_index]
            cursor_index += 1
        else:
            if not frontier:
                break
            state = frontier.pop()
        level = depths[state]
        if depth is not None and level >= depth:
            result.truncated = True
            continue
        events = _enabled_events(tables, state)
        if not events and not _is_final(tables, state):
            record(
                "SIM-M407",
                "non-final state with no enabled transition",
                trace_of(state),
            )
            continue
        for event in events:
            applied = _apply(tables, state, event)
            result.transitions += 1
            for cell in applied.cells:
                covered.add(cell)
            if applied.violation is not None:
                rule, message = applied.violation
                record(rule, message, trace_of(state) + (event,))
                continue
            successor = applied.state
            if successor is None or successor in parents:
                continue
            parents[successor] = (state, event)
            depths[successor] = level + 1
            result.states += 1
            result.depth = max(result.depth, level + 1)
            state_violation = _check_state(tables, successor)
            if state_violation is not None:
                record(
                    state_violation[0],
                    state_violation[1],
                    trace_of(successor),
                )
                continue
            frontier.append(successor)

    result.violations = [violations[rule] for rule in sorted(violations)]
    covered_names = {f"{table}[{key}]" for table, key in sorted(covered)}
    covered_names |= UNDRIVEN_CELLS
    result.dead_cells = [
        cell for cell in coverage_universe(tables) if cell not in covered_names
    ]
    return result


def annotate_trace(
    spec: ProtocolSpec, caches: int, trace: Sequence[Event]
) -> Tuple[TraceEvent, ...]:
    """Resolve raw events into local/issue/deliver ops with kinds.

    Replays the trace so each ``access`` is classified as a local hit
    or a request issue, and each ``deliver`` learns which access kind
    it completes — everything the adversary bridge needs to rebuild
    the interleaving on the real simulator.
    """
    state = _initial_state(spec, caches)
    out: List[TraceEvent] = []
    for event in trace:
        op, i, kind = event
        if op == "access":
            outcome = spec.local_dispatch.get((kind, state[i][0]))
            out.append(("local" if outcome == "local" else "issue", i, kind))
        elif op == "deliver":
            pending = state[i][3]
            out.append(
                ("deliver", i, spec.accesses[pending] if pending >= 0 else "")
            )
        else:
            out.append((op, i, ""))
        applied = _apply(spec, state, event)
        if applied.state is None:
            break
        state = applied.state
    return tuple(out)


# --------------------------------------------------------------------------- #
# simcheck integration: SIM-M rules + Finding export.


class _ModelRule(Rule):
    """Model-checker rules run through ``check()``, not the AST walk."""

    severity = "error"
    scope = "modelcheck"


@register
class ModelSWMRRule(_ModelRule):
    name = "SIM-M401"
    description = spec_tables.INVARIANTS["SIM-M401"]


@register
class ModelEncodingRule(_ModelRule):
    name = "SIM-M402"
    description = spec_tables.INVARIANTS["SIM-M402"]


@register
class ModelCSTSymmetryRule(_ModelRule):
    name = "SIM-M403"
    description = spec_tables.INVARIANTS["SIM-M403"]


@register
class ModelCSTAgreementRule(_ModelRule):
    name = "SIM-M404"
    description = spec_tables.INVARIANTS["SIM-M404"]


@register
class ModelLostResponseRule(_ModelRule):
    name = "SIM-M405"
    description = spec_tables.INVARIANTS["SIM-M405"]


@register
class ModelTSWLegalityRule(_ModelRule):
    name = "SIM-M406"
    description = spec_tables.INVARIANTS["SIM-M406"]


@register
class ModelQuiescenceRule(_ModelRule):
    name = "SIM-M407"
    description = spec_tables.INVARIANTS["SIM-M407"]


#: Representative spec table per rule, used to anchor findings to a
#: line in spec.py.
_RULE_ANCHORS: Dict[str, str] = {
    "SIM-M401": "REMOTE_NEXT_STATE",
    "SIM-M402": "ENCODINGS",
    "SIM-M403": "DUAL_CST",
    "SIM-M404": "REQUESTER_CST",
    "SIM-M405": "RESPONSE_TABLE",
    "SIM-M406": "ABORT_TRANSFORM",
    "SIM-M407": "LOCAL_DISPATCH",
}

#: Where the spec lives, relative to the analysis root.
SPEC_PATH = "src/repro/coherence/spec.py"


def _anchor_lines(root: Path) -> Dict[str, int]:
    """Line number of each table assignment in spec.py (1 if unknown)."""
    lines: Dict[str, int] = {}
    path = root / SPEC_PATH
    if not path.exists():
        return lines
    for number, text in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        name = text.split(":", 1)[0].split(" ", 1)[0]
        if name and name == text[: len(name)] and name.isupper():
            lines.setdefault(name, number)
    return lines


def findings_from(result: ModelCheckResult, root: Path) -> List[Finding]:
    """Render violations as simcheck findings anchored into spec.py."""
    anchors = _anchor_lines(root)
    findings: List[Finding] = []
    for violation in result.violations:
        table = _RULE_ANCHORS.get(violation.rule, "STATES")
        message = violation.message
        if violation.trace:
            message = f"{message} [after: {violation.render_trace()}]"
        findings.append(
            Finding(
                rule=violation.rule,
                severity="error",
                path=SPEC_PATH,
                line=anchors.get(table, 1),
                col=0,
                message=message,
                context=f"modelcheck(caches={result.caches})",
            )
        )
    return findings


def iter_model_rules() -> Iterator[Rule]:
    """The registered SIM-M rules, in id order (for SARIF descriptors)."""
    from repro.analysis.engine import all_rules

    rules = all_rules()
    for rule_id in sorted(rules):
        if rules[rule_id].scope == "modelcheck":
            yield rules[rule_id]
