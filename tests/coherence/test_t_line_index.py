"""The L1's T-line index stays exact under random coherence traffic.

``CacheArray`` indexes the lines whose T bit is set so that flash
commit/abort visit only those lines.  Three L1s share a directory with a
tiny 4-set, 2-way geometry (constant evictions) and run seeded random
mixes of the four access kinds, ALoads, directly forwarded
GETS/GETX/TGETX, explicit and chaos evictions, and flash commits and
aborts.  After every operation the index must equal a brute-force scan
for valid TMI/TI lines, and every flash must visit exactly the indexed
lines while leaving S/E/M lines, A bits and LRU stamps untouched.
"""

import random

import pytest

from repro.coherence.directory import Directory
from repro.coherence.l1 import L1Controller, NullL1Hooks
from repro.coherence.messages import AccessKind, RequestType, ResponseKind
from repro.coherence.states import ABORT_TRANSFORM, COMMIT_TRANSFORM, LineState
from repro.params import CacheGeometry, SystemParams

CORES = 3
LINES = 16  # addresses 0..15 over 4 sets
T_STATES = (LineState.TMI, LineState.TI)


class _Hooks(NullL1Hooks):
    """TMI holders answer Threatened; TMI evictions spill at no cost."""

    def __init__(self):
        self.l1 = None

    def classify_remote(self, requestor, req_type, line_address):
        line = self.l1.array.peek(line_address)
        if line is not None and line.state is LineState.TMI:
            return ResponseKind.THREATENED
        return None

    def spill_tmi(self, line_address):
        return 0


class _Pressure:
    """Chaos stand-in: seeded forced evictions through ``_chaos_evict``."""

    enabled = True

    def __init__(self, rng):
        self.rng = rng

    def l1_pressure(self):
        return self.rng.random() < 0.1

    def pick(self, count):
        return self.rng.randrange(count)


def _rig(rng):
    params = SystemParams(
        num_processors=CORES,
        l1=CacheGeometry(size_bytes=512, associativity=2, line_bytes=64),
        l2=CacheGeometry(size_bytes=64 * 1024, associativity=8, line_bytes=64),
        victim_buffer_entries=4,
    )
    directory = Directory(params)
    l1s = []
    for proc in range(CORES):
        hooks = _Hooks()
        l1 = L1Controller(proc, params, directory, hooks=hooks)
        hooks.l1 = l1
        l1.chaos = _Pressure(rng)
        l1s.append(l1)
    directory.forward = lambda responder, requestor, req_type, line_address: (
        l1s[responder].handle_forwarded(requestor, req_type, line_address)
    )
    return l1s


def _assert_index_exact(l1):
    expected = {
        line.line_address: line
        for line in l1.array.valid_lines()
        if line.state in T_STATES
    }
    index = l1.array._t_lines
    assert set(index) == set(expected)
    assert all(index[address] is expected[address] for address in expected)
    for line in l1.array.valid_lines():
        assert line.t_bit == (line.state in T_STATES)


def _flash(l1, commit):
    """Flash one L1 and check what the sweep visited and what it left."""
    transform = COMMIT_TRANSFORM if commit else ABORT_TRANSFORM
    before = {
        line.line_address: (line, line.state, line.a_bit, line.last_use)
        for line in l1.array.valid_lines()
    }
    indexed = set(l1.array._t_lines)
    swept = l1.flash_commit() if commit else l1.flash_abort()
    assert swept == len(indexed)
    assert not l1.array._t_lines
    for address, (line, state, a_bit, last_use) in before.items():
        new_state = transform[state]
        assert (line.a_bit, line.last_use) == (a_bit, last_use)
        assert not line.t_bit
        if address not in indexed:
            assert state not in T_STATES and line.state is state
        if new_state is LineState.I:
            assert l1.array.peek(address) is None
        else:
            assert l1.array.peek(address) is line and line.state is new_state
    return swept


def _access(l1, kind, address):
    line = l1.array.peek(address)
    if kind is AccessKind.STORE and line is not None and line.state is LineState.TMI:
        kind = AccessKind.TSTORE  # a plain Store to a local TMI line is illegal
    l1.access(kind, address)


@pytest.mark.parametrize("seed", range(8))
def test_index_matches_brute_force_scan(seed):
    rng = random.Random(seed)
    l1s = _rig(rng)
    flashes = swept = 0
    for _ in range(600):
        proc = rng.randrange(CORES)
        l1 = l1s[proc]
        address = rng.randrange(LINES)
        roll = rng.random()
        if roll < 0.55:
            _access(l1, rng.choice(list(AccessKind)), address)
        elif roll < 0.62:
            l1.aload(address)
        elif roll < 0.72:
            requestor = rng.choice([p for p in range(CORES) if p != proc])
            l1.handle_forwarded(requestor, rng.choice(list(RequestType)), address)
        elif roll < 0.80:
            resident = list(l1.array.valid_lines())
            if resident:
                l1.evict(rng.choice(resident))
        elif roll < 0.85:
            l1._chaos_evict(address)
        else:
            swept += _flash(l1, commit=rng.random() < 0.5)
            flashes += 1
        for each in l1s:
            _assert_index_exact(each)
    assert flashes > 50 and swept > 40


def test_random_traffic_indexes_both_t_states():
    """Transactional accesses in this rig put both TMI and TI lines in the index."""
    rng = random.Random(0)
    l1s = _rig(rng)
    seen = set()
    for _ in range(400):
        l1 = l1s[rng.randrange(CORES)]
        _access(l1, rng.choice([AccessKind.TLOAD, AccessKind.TSTORE]), rng.randrange(LINES))
        seen.update(line.state for line in l1.array._t_lines.values())
    assert seen == set(T_STATES)
