"""Cache-line states and the compiled TMESI protocol tables.

Figure 1's encoding table::

        M bit  V bit  T bit
    I     0      0      0
    S     0      1      0
    M     1      0      0
    E     1      1      0
    TMI   1      0      1
    TI    0      0      1

TMI is "M with the T bit" — a speculatively written line whose value
must not escape until commit; it reverts to M on commit and I on abort.
TI is "I with the T bit" — a transactional read of a line some remote
processor holds in TMI; the local copy is the *pre-speculative* value
and must revert to I on either commit or abort (the remote commit could
make it stale).

Below the enum, the string tables of :mod:`repro.coherence.spec` are
compiled once, at import time, into dicts keyed by the
:class:`LineState`, :class:`~repro.coherence.messages.AccessKind`,
:class:`~repro.coherence.messages.RequestType` and
:class:`~repro.coherence.messages.ResponseKind` enums.  The same step
then re-indexes the per-state tables into the executed form: each
:class:`LineState` member carries tuples indexed by the small-int
``code`` of an access kind or request type (``local``, ``remote``,
``install``), its flash targets (``commit``, ``abort``) and its T and M
bits (``t``, ``m``).  The L1 and the directory dispatch by one tuple
index, so the tables the model checker verifies are the tables that
run.  Compilation fails at import when a spec name has no enum member,
or when a table the controllers index directly is not total over its
enum domain.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple, TypeVar

from repro.coherence import spec
from repro.coherence.messages import AccessKind, RequestType, ResponseKind


class LineState(enum.Enum):
    """Stable L1 line states of the TMESI protocol.

    Every member also carries its compiled cells (see :func:`_index`):
    ``code``; ``local[access.code]``, the next state of a local hit or
    ``"request"``/``"error"``; ``remote[request.code]``, the responder's
    next state; ``install[access.code]``, what a requestor granted this
    state installs; ``commit``/``abort``, the flash targets; ``t`` and
    ``m``, the T and M bits.
    """

    I = "I"
    S = "S"
    E = "E"
    M = "M"
    TMI = "TMI"
    TI = "TI"

    @property
    def encoding(self) -> Tuple[int, int, int]:
        """(M bit, V bit, T bit) hardware encoding from Figure 1."""
        return ENCODINGS[self]

    @property
    def is_valid(self) -> bool:
        """Line holds usable data (everything except I)."""
        return self in VALID_STATES

    @property
    def is_transactional(self) -> bool:
        """T bit set (TMI or TI)."""
        return self in TRANSACTIONAL_STATES


# --------------------------------------------------------------------------- #
# Compilation: spec names -> enum members.

_E = TypeVar("_E", bound=enum.Enum)

_STATE: Dict[str, LineState] = {state.value: state for state in LineState}
_ACCESS: Dict[str, AccessKind] = {kind.value: kind for kind in AccessKind}
_REQUEST: Dict[str, RequestType] = {request.value: request for request in RequestType}
_RESPONSE: Dict[str, ResponseKind] = {response.value: response for response in ResponseKind}


def _member(members: Mapping[str, _E], name: str) -> _E:
    """The enum member a spec name denotes; an unknown name fails loudly."""
    if name not in members:
        raise ValueError(f"protocol spec names unknown member {name!r}")
    return members[name]


def _states(names: FrozenSet[str]) -> FrozenSet[LineState]:
    return frozenset(_member(_STATE, name) for name in names)


def _require_total(what: str, keys: Iterable[object], domain: Iterable[object]) -> None:
    """Totality check: ``keys`` cover every element of ``domain``."""
    present = set(keys)
    missing = sorted(str(cell) for cell in domain if cell not in present)
    if missing:
        raise ValueError(f"{what} has no cell for {', '.join(missing)}")


#: Figure 1's (M, V, T) encoding of every state.
ENCODINGS: Dict[LineState, Tuple[int, int, int]] = {
    _member(_STATE, name): bits for name, bits in spec.ENCODINGS.items()
}
VALID_STATES: FrozenSet[LineState] = _states(spec.STATE_PREDICATES["is_valid"])
TRANSACTIONAL_STATES: FrozenSet[LineState] = _states(spec.STATE_PREDICATES["is_transactional"])

#: (access, state) -> ``"local"`` / ``"request"`` / ``"error"``.
LOCAL_DISPATCH: Dict[Tuple[AccessKind, LineState], str] = {
    (_member(_ACCESS, access), _member(_STATE, state)): outcome
    for (access, state), outcome in spec.LOCAL_DISPATCH.items()
}
#: (access, state) -> the state a ``local`` outcome leaves behind.
LOCAL_NEXT_STATE: Dict[Tuple[AccessKind, LineState], LineState] = {
    (_member(_ACCESS, access), _member(_STATE, state)): _member(_STATE, target)
    for (access, state), target in spec.LOCAL_NEXT_STATE.items()
}
#: access -> the directory request a miss or an upgrade issues.
MISS_REQUESTS: Dict[AccessKind, RequestType] = {
    _member(_ACCESS, access): _member(_REQUEST, request)
    for access, request in spec.MISS_REQUESTS.items()
}
#: (forwarded request, responder state) -> responder next state.
REMOTE_NEXT_STATE: Dict[Tuple[RequestType, LineState], LineState] = {
    (_member(_REQUEST, request), _member(_STATE, state)): _member(_STATE, target)
    for (request, state), target in spec.REMOTE_NEXT_STATE.items()
}
#: (request, signature category) -> response; the category is
#: ``"wsig"`` or ``"rsig_only"`` (no entry: no signature response).
RESPONSE_TABLE: Dict[Tuple[RequestType, str], ResponseKind] = {
    (_member(_REQUEST, request), category): _member(_RESPONSE, response)
    for (request, category), response in spec.RESPONSE_TABLE.items()
}
#: (request, signature category) -> responder CST naming the requestor.
RESPONDER_CST: Dict[Tuple[RequestType, str], str] = {
    (_member(_REQUEST, request), category): cst
    for (request, category), cst in spec.RESPONDER_CST.items()
}
#: (access, response) -> requestor CST naming the responder.
REQUESTER_CST: Dict[Tuple[AccessKind, ResponseKind], str] = {
    (_member(_ACCESS, access), _member(_RESPONSE, response)): cst
    for (access, response), cst in spec.REQUESTER_CST.items()
}
#: The grant conditions the directory evaluates (``Directory._grant_and_record``).
GRANT_CONDITIONS: FrozenSet[str] = frozenset({"threatened", "no_holders", "otherwise"})
#: request -> (condition, grant) rules, most specific first: GETS follows
#: spec.GETS_GRANT_RULES; an exclusive request gets its spec.GRANTS state.
GRANT_RULES: Dict[RequestType, Tuple[Tuple[str, LineState], ...]] = {
    request: tuple(
        (condition, _member(_STATE, grant))
        for condition, grant in (
            spec.GETS_GRANT_RULES
            if request is RequestType.GETS
            else [("otherwise", name) for name in sorted(spec.GRANTS[request.value])]
        )
    )
    for request in RequestType
}
#: (access, granted state) -> state installed in the requestor's L1.
GRANT_INSTALL: Dict[Tuple[AccessKind, LineState], LineState] = {
    (access, granted): _member(
        _STATE, spec.GRANT_INSTALL.get((access.value, granted.value), granted.value)
    )
    for access in AccessKind
    for granted in LineState
}
#: Figure 3's flash transforms.
COMMIT_TRANSFORM: Dict[LineState, LineState] = {
    _member(_STATE, state): _member(_STATE, target)
    for state, target in spec.COMMIT_TRANSFORM.items()
}
ABORT_TRANSFORM: Dict[LineState, LineState] = {
    _member(_STATE, state): _member(_STATE, target)
    for state, target in spec.ABORT_TRANSFORM.items()
}

_require_total(
    "LOCAL_DISPATCH", LOCAL_DISPATCH, [(kind, state) for kind in AccessKind for state in LineState]
)
_require_total(
    "REMOTE_NEXT_STATE",
    REMOTE_NEXT_STATE,
    [(request, state) for request in RequestType for state in LineState],
)
_require_total("MISS_REQUESTS", MISS_REQUESTS, AccessKind)
_require_total("ENCODINGS", ENCODINGS, LineState)
_require_total("COMMIT_TRANSFORM", COMMIT_TRANSFORM, LineState)
_require_total("ABORT_TRANSFORM", ABORT_TRANSFORM, LineState)
for _request, _rules in GRANT_RULES.items():
    if len(_rules) == 0 or _rules[-1][0] != "otherwise":
        raise ValueError(f"grant rules for {_request.value} lack a final 'otherwise' rule")
    for _condition, _ in _rules:
        if _condition not in GRANT_CONDITIONS:
            raise ValueError(f"grant rules for {_request.value} name unknown {_condition!r}")


# --------------------------------------------------------------------------- #
# The executed form: the dicts above re-indexed by small-int codes.

#: access code -> the directory request a miss or an upgrade issues.
MISS_REQUESTS_BY_CODE: Tuple[RequestType, ...] = tuple(MISS_REQUESTS[kind] for kind in AccessKind)
#: request code -> its GRANT_RULES.
GRANT_RULES_BY_CODE: Tuple[Tuple[Tuple[str, LineState], ...], ...] = tuple(
    GRANT_RULES[request] for request in RequestType
)


def _index() -> None:
    """Attach each state's code-indexed cells (totality checked above)."""
    for code, state in enumerate(LineState):
        state.code = code
        state.local = tuple(
            LOCAL_NEXT_STATE.get((kind, state), LOCAL_DISPATCH[kind, state])
            for kind in AccessKind
        )
        state.remote = tuple(REMOTE_NEXT_STATE[request, state] for request in RequestType)
        state.install = tuple(GRANT_INSTALL[kind, state] for kind in AccessKind)
        state.commit = COMMIT_TRANSFORM[state]
        state.abort = ABORT_TRANSFORM[state]
        state.t = state in TRANSACTIONAL_STATES
        state.m = ENCODINGS[state][0]


_index()
