"""The compiled protocol tables: total, faithful to the spec, and live.

:mod:`repro.coherence.states` compiles the string tables of
:mod:`repro.coherence.spec` into enum-keyed dicts, and re-indexes them
into the int-coded cells the controllers execute (each
:class:`LineState` member's ``local``/``remote``/``install`` tuples and
flash targets).  These tests check that every (message x state) pair
has a cell, that each compiled table and each int-coded cell maps back
onto its spec table exactly, and that execution really reads the
int-coded cells: corrupting one cell changes the matching Figure 1
conformance transition.
"""

from __future__ import annotations

import pytest

import tests.coherence.test_figure1_conformance as conformance
from repro.coherence import spec, states
from repro.coherence.messages import AccessKind, RequestType, ResponseKind
from repro.coherence.states import LineState
from repro.errors import ProtocolError


def _names(table):
    """A compiled table rendered back onto spec strings."""

    def name(item):
        if isinstance(item, tuple):
            return tuple(name(part) for part in item)
        return getattr(item, "value", item)

    return {name(key): name(value) for key, value in table.items()}


def test_spec_vocabulary_matches_the_enums():
    assert set(spec.STATES) == {state.value for state in LineState}
    assert set(spec.ACCESSES) == {kind.value for kind in AccessKind}
    assert set(spec.REQUESTS) == {request.value for request in RequestType}
    assert set(spec.RESPONSES) == {response.value for response in ResponseKind}


@pytest.mark.parametrize(
    "table,domain",
    [
        (states.LOCAL_DISPATCH, AccessKind),
        (states.REMOTE_NEXT_STATE, RequestType),
        (states.GRANT_INSTALL, AccessKind),
    ],
    ids=["LOCAL_DISPATCH", "REMOTE_NEXT_STATE", "GRANT_INSTALL"],
)
def test_pair_tables_are_total(table, domain):
    assert set(table) == {(message, state) for message in domain for state in LineState}


def test_single_key_tables_are_total():
    for table in (states.ENCODINGS, states.COMMIT_TRANSFORM, states.ABORT_TRANSFORM):
        assert set(table) == set(LineState)
    assert set(states.MISS_REQUESTS) == set(AccessKind)
    assert set(states.GRANT_RULES) == set(RequestType)
    for rules in states.GRANT_RULES.values():
        assert rules[-1][0] == "otherwise"


@pytest.mark.parametrize(
    "name",
    [
        "ENCODINGS",
        "LOCAL_DISPATCH",
        "LOCAL_NEXT_STATE",
        "MISS_REQUESTS",
        "REMOTE_NEXT_STATE",
        "RESPONSE_TABLE",
        "RESPONDER_CST",
        "REQUESTER_CST",
        "COMMIT_TRANSFORM",
        "ABORT_TRANSFORM",
    ],
)
def test_compiled_table_round_trips_to_the_spec(name):
    assert _names(getattr(states, name)) == getattr(spec, name)


def test_grant_tables_round_trip_to_the_spec():
    rules = {request.value: rules for request, rules in states.GRANT_RULES.items()}
    assert tuple((c, grant.value) for c, grant in rules["GETS"]) == spec.GETS_GRANT_RULES
    for request, granted in spec.GRANTS.items():
        assert {grant.value for _, grant in rules[request]} == granted
    installed = _names(states.GRANT_INSTALL)
    for (access, granted), target in installed.items():
        assert target == spec.GRANT_INSTALL.get((access, granted), granted)


def test_state_and_message_predicates_come_from_the_spec():
    for state in LineState:
        assert state.is_valid == (state.value in spec.STATE_PREDICATES["is_valid"])
        assert state.is_transactional == (
            state.value in spec.STATE_PREDICATES["is_transactional"]
        )
    for kind in AccessKind:
        for predicate, members in spec.ACCESS_PREDICATES.items():
            assert getattr(kind, predicate) == (kind.value in members)
    for request in RequestType:
        for predicate, members in spec.REQUEST_PREDICATES.items():
            assert getattr(request, predicate) == (request.value in members)
    for response in ResponseKind:
        assert response.signals_conflict == (response.value in spec.CONFLICT_RESPONSES)


def test_int_coded_cells_round_trip_to_the_spec():
    assert [kind.code for kind in AccessKind] == list(range(len(AccessKind)))
    assert [request.code for request in RequestType] == list(range(len(RequestType)))
    assert [state.code for state in LineState] == list(range(len(LineState)))
    for state in LineState:
        name = state.value
        for kind in AccessKind:
            outcome = spec.LOCAL_DISPATCH[kind.value, name]
            cell = state.local[kind.code]
            if outcome == "local":
                assert cell.value == spec.LOCAL_NEXT_STATE[kind.value, name]
            else:
                assert cell == outcome
            installed = spec.GRANT_INSTALL.get((kind.value, name), name)
            assert state.install[kind.code].value == installed
        for request in RequestType:
            assert state.remote[request.code].value == spec.REMOTE_NEXT_STATE[request.value, name]
        assert state.commit.value == spec.COMMIT_TRANSFORM[name]
        assert state.abort.value == spec.ABORT_TRANSFORM[name]
        m_bit, _, t_bit = spec.ENCODINGS[name]
        assert state.m == m_bit
        assert state.t == bool(t_bit)
    for kind in AccessKind:
        assert states.MISS_REQUESTS_BY_CODE[kind.code].value == spec.MISS_REQUESTS[kind.value]
    for request in RequestType:
        assert states.GRANT_RULES_BY_CODE[request.code] == states.GRANT_RULES[request]


def _corrupt(monkeypatch, state, table, code, target):
    """Replace one int-coded cell of ``state`` for the rest of the test."""
    cells = list(getattr(state, table))
    cells[code] = target
    monkeypatch.setattr(state, table, tuple(cells))


def test_remote_dispatch_executes_the_compiled_table(monkeypatch):
    # Unpatched, a remote GETS demotes an E holder to S.
    conformance.test_remote_transition(LineState.E, RequestType.GETS, LineState.S)
    _corrupt(monkeypatch, LineState.E, "remote", RequestType.GETS.code, LineState.E)
    with pytest.raises(AssertionError):
        conformance.test_remote_transition(LineState.E, RequestType.GETS, LineState.S)
    conformance.test_remote_transition(LineState.E, RequestType.GETS, LineState.E)


def test_local_dispatch_executes_the_compiled_table(monkeypatch):
    # Unpatched, a Store to an E line upgrades silently to M.
    conformance.test_local_transition(LineState.E, AccessKind.STORE, LineState.M)
    _corrupt(monkeypatch, LineState.E, "local", AccessKind.STORE.code, LineState.E)
    with pytest.raises(AssertionError):
        conformance.test_local_transition(LineState.E, AccessKind.STORE, LineState.M)
    conformance.test_local_transition(LineState.E, AccessKind.STORE, LineState.E)


def test_quiet_hit_path_executes_the_compiled_table(monkeypatch):
    # Unpatched, a TStore to a local TMI line is a quiet hit.
    conformance.test_local_transition(LineState.TMI, AccessKind.TSTORE, LineState.TMI)
    _corrupt(monkeypatch, LineState.TMI, "local", AccessKind.TSTORE.code, "error")
    with pytest.raises(ProtocolError):
        conformance.test_local_transition(LineState.TMI, AccessKind.TSTORE, LineState.TMI)
