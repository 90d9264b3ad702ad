"""Request/response vocabulary."""

from repro.coherence import spec
from repro.coherence.messages import AccessKind, AccessResult, RequestType, ResponseKind


def test_access_kind_classification():
    assert AccessKind.TLOAD.is_transactional
    assert AccessKind.TSTORE.is_transactional
    assert not AccessKind.LOAD.is_transactional
    assert AccessKind.STORE.is_write and AccessKind.TSTORE.is_write
    assert not AccessKind.TLOAD.is_write


def test_exclusive_requests():
    assert RequestType.GETX.is_exclusive
    assert RequestType.TGETX.is_exclusive
    assert not RequestType.GETS.is_exclusive


def test_conflict_signalling():
    assert ResponseKind.THREATENED.signals_conflict
    assert ResponseKind.EXPOSED_READ.signals_conflict
    # Rsig hit on a non-transactional GETX (strong isolation).
    assert ResponseKind.INVALIDATED.signals_conflict
    assert not ResponseKind.SHARED.signals_conflict
    # Every signature-table response except plain Shared carries one.
    conflicting = {
        response for response in spec.RESPONSE_TABLE.values() if response != "Shared"
    }
    for response in ResponseKind:
        assert response.signals_conflict == (response.value in conflicting)


def test_dual_cst_is_an_involution():
    for table, mirror in spec.DUAL_CST.items():
        assert spec.DUAL_CST[mirror] == table


def test_access_result_defaults():
    result = AccessResult()
    assert not result.conflicted
    assert result.cycles == 0
    result.conflicts.append((1, ResponseKind.THREATENED))
    assert result.conflicted
