"""Pin the executable protocol against the machine-readable spec.

The controllers execute the tables :mod:`repro.coherence.states`
compiles from :mod:`repro.coherence.spec`; the enum properties that
remain (``LineState.encoding`` / ``is_valid`` / ``is_transactional``,
the ``AccessKind`` / ``RequestType`` predicates and
``ResponseKind.signals_conflict``) are derived from the same spec.
These tests check, member by member, that what the running code
observes agrees with the spec's predicates and Figure 1 / Figure 3.
Predicates without an enum property (``readable``, ``writable``,
``tstore_hits``) are checked against the local dispatch the L1
executes.
"""

from __future__ import annotations

import pytest

from repro.coherence import spec
from repro.coherence.l1 import L1Controller
from repro.coherence.messages import AccessKind, RequestType, ResponseKind
from repro.coherence.states import LOCAL_DISPATCH, LOCAL_NEXT_STATE, LineState
from repro.memory.cache import CacheLine

_ACCESS_BY_NAME = {
    "Load": AccessKind.LOAD,
    "Store": AccessKind.STORE,
    "TLoad": AccessKind.TLOAD,
    "TStore": AccessKind.TSTORE,
}


def _executed_predicate(state, predicate):
    """A state predicate as the L1's executed dispatch exhibits it."""
    if predicate == "readable":
        return LOCAL_DISPATCH[AccessKind.LOAD, state] == "local"
    if predicate == "writable":
        return LOCAL_DISPATCH[AccessKind.STORE, state] == "local"
    if predicate == "tstore_hits":
        cell = (AccessKind.TSTORE, state)
        return LOCAL_DISPATCH[cell] == "local" and LOCAL_NEXT_STATE[cell] is state
    return getattr(state, predicate)


@pytest.mark.parametrize("state", list(LineState))
def test_encodings_match_figure1(state):
    assert state.encoding == spec.ENCODINGS[state.name]


@pytest.mark.parametrize("state", list(LineState))
def test_state_predicates_match_spec(state):
    for predicate, satisfying in spec.STATE_PREDICATES.items():
        assert _executed_predicate(state, predicate) == (state.name in satisfying), (
            f"LineState.{state.name}.{predicate} disagrees with "
            f"spec.STATE_PREDICATES[{predicate!r}]"
        )


def test_t_bit_is_exactly_the_transactional_predicate():
    for state in LineState:
        assert (state.encoding[2] == 1) == state.is_transactional


def test_m_v_bits_match_predicates():
    for state in LineState:
        m_bit, v_bit, t_bit = state.encoding
        # Writable (exclusive, non-speculative) states are M-bit
        # non-transactional states.
        assert _executed_predicate(state, "writable") == (m_bit == 1 and t_bit == 0)
        # I is the only state without a usable copy.
        assert state.is_valid == (state is not LineState.I)


@pytest.mark.parametrize("kind", list(AccessKind))
def test_access_predicates_match_spec(kind):
    name = next(name for name, member in _ACCESS_BY_NAME.items() if member is kind)
    for predicate, satisfying in spec.ACCESS_PREDICATES.items():
        assert getattr(kind, predicate) == (name in satisfying)


@pytest.mark.parametrize("req_type", list(RequestType))
def test_request_predicates_match_spec(req_type):
    for predicate, satisfying in spec.REQUEST_PREDICATES.items():
        assert getattr(req_type, predicate) == (req_type.name in satisfying)


@pytest.mark.parametrize("state", list(LineState))
def test_flash_transforms_match_figure3(state):
    # Apply the per-line callables the L1 hands to CacheArray.flash_transform.
    committed = CacheLine(0x40, state=state, t_bit=state.is_transactional)
    L1Controller._commit_line(committed)
    assert committed.state.name == spec.COMMIT_TRANSFORM[state.name]
    assert not committed.t_bit
    aborted = CacheLine(0x40, state=state, t_bit=state.is_transactional)
    L1Controller._abort_line(aborted)
    assert aborted.state.name == spec.ABORT_TRANSFORM[state.name]
    assert not aborted.t_bit


def test_response_conflict_signal_matches_table():
    # Every response the spec derives from a signature hit signals a
    # conflict relationship except plain Shared.
    conflicting = {
        response
        for response in spec.RESPONSE_TABLE.values()
        if response != "Shared"
    }
    for response in ResponseKind:
        if response.value in conflicting:
            assert response.signals_conflict
