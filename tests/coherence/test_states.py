"""TMESI state encodings and transforms (Figure 1)."""


from repro.coherence import spec
from repro.coherence.messages import AccessKind
from repro.coherence.states import (
    ABORT_TRANSFORM,
    COMMIT_TRANSFORM,
    LOCAL_DISPATCH,
    LOCAL_NEXT_STATE,
    LineState,
)


def test_encoding_table_matches_figure1():
    assert LineState.I.encoding == (0, 0, 0)
    assert LineState.S.encoding == (0, 1, 0)
    assert LineState.M.encoding == (1, 0, 0)
    assert LineState.E.encoding == (1, 1, 0)
    assert LineState.TMI.encoding == (1, 0, 1)
    assert LineState.TI.encoding == (0, 0, 1)


def test_encodings_are_distinct():
    encodings = [spec.ENCODINGS[name] for name in spec.STATES]
    assert len(set(encodings)) == len(encodings)
    assert len({state.encoding for state in LineState}) == len(LineState)


def test_t_bit_marks_transactional_states():
    for state in LineState:
        assert state.is_transactional == (state.encoding[2] == 1)


def test_commit_transform():
    """TMI -> M (speculation becomes real), TI -> I (copy may be stale)."""
    assert COMMIT_TRANSFORM[LineState.TMI] is LineState.M
    assert COMMIT_TRANSFORM[LineState.TI] is LineState.I
    for state in (LineState.M, LineState.E, LineState.S, LineState.I):
        assert COMMIT_TRANSFORM[state] is state


def test_abort_transform():
    """Both transactional states discard to I."""
    assert ABORT_TRANSFORM[LineState.TMI] is LineState.I
    assert ABORT_TRANSFORM[LineState.TI] is LineState.I
    for state in (LineState.M, LineState.E, LineState.S, LineState.I):
        assert ABORT_TRANSFORM[state] is state


def test_readability():
    """A local load is satisfied without a request in every valid state."""
    for kind in (AccessKind.LOAD, AccessKind.TLOAD):
        assert LOCAL_DISPATCH[kind, LineState.TI] == "local"
        assert LOCAL_DISPATCH[kind, LineState.TMI] == "local"
        assert LOCAL_DISPATCH[kind, LineState.I] == "request"
        for state in LineState:
            assert (LOCAL_DISPATCH[kind, state] == "local") == state.is_valid


def test_writability():
    """A plain store hits in M and E; the M bit without the T bit."""
    assert LOCAL_DISPATCH[AccessKind.STORE, LineState.M] == "local"
    assert LOCAL_DISPATCH[AccessKind.STORE, LineState.E] == "local"
    for state in (LineState.S, LineState.I, LineState.TI, LineState.TMI):
        assert LOCAL_DISPATCH[AccessKind.STORE, state] != "local"
    for state in LineState:
        m_bit, _v_bit, t_bit = state.encoding
        writable = LOCAL_DISPATCH[AccessKind.STORE, state] == "local"
        assert writable == (m_bit == 1 and t_bit == 0)


def test_tstore_hits_only_in_tmi():
    """A TStore proceeds in place (no request, no state change) only in TMI."""
    for state in LineState:
        cell = (AccessKind.TSTORE, state)
        hits = LOCAL_DISPATCH[cell] == "local" and LOCAL_NEXT_STATE[cell] is state
        assert hits == (state is LineState.TMI)


def test_validity():
    assert not LineState.I.is_valid
    for state in LineState:
        if state is not LineState.I:
            assert state.is_valid
