"""Set-associative cache array behaviour."""

import random

import pytest

from repro.coherence.states import COMMIT_TRANSFORM, LineState
from repro.errors import ProtocolError
from repro.memory.cache import CacheArray


def test_install_and_lookup():
    cache = CacheArray(num_sets=4, associativity=2)
    cache.install(0, LineState.E)
    line = cache.lookup(0)
    assert line is not None and line.state is LineState.E


def test_lookup_misses_invalid_lines():
    cache = CacheArray(4, 2)
    line = cache.install(0, LineState.E)
    line.state = LineState.I
    assert cache.lookup(0) is None


def test_install_rejects_duplicates_and_full_sets():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    with pytest.raises(ProtocolError):
        cache.install(0, LineState.S)
    cache.install(4, LineState.S)  # same set (0 mod 4)
    with pytest.raises(ProtocolError):
        cache.install(8, LineState.S)


def test_choose_victim_is_lru():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    cache.install(4, LineState.S)
    cache.lookup(0)  # 0 becomes most recently used
    victim = cache.choose_victim(8)
    assert victim is not None and victim.line_address == 4


def test_choose_victim_none_when_room():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    assert cache.choose_victim(4) is None


def test_remove_frees_slot():
    cache = CacheArray(4, 1)
    cache.install(0, LineState.M)
    cache.remove(0)
    cache.install(4, LineState.M)
    assert cache.lookup(4) is not None


def _commit(line):
    line.state = COMMIT_TRANSFORM[line.state]
    line.t_bit = False


def test_flash_transform_sweeps_and_prunes():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.TMI)
    cache.install(1, LineState.TI)
    cache.install(2, LineState.M)

    assert cache.flash_transform(_commit) == 2  # only the T lines are visited
    assert cache.peek(0).state is LineState.M
    assert cache.peek(1) is None  # TI -> I, pruned
    assert cache.peek(2).state is LineState.M


def test_install_and_set_state_keep_t_bit_and_index():
    cache = CacheArray(4, 2)
    tmi = cache.install(0, LineState.TMI)
    plain = cache.install(1, LineState.E)
    assert tmi.t_bit and not plain.t_bit
    assert set(cache._t_lines) == {0}
    cache.set_state(plain, LineState.TI)
    cache.set_state(tmi, LineState.M)
    assert plain.t_bit and not tmi.t_bit
    assert set(cache._t_lines) == {1}
    cache.remove(1)
    assert not cache._t_lines


def test_flash_visits_exactly_the_t_lines():
    """Seeded random fills and state changes: a flash visits the index,
    which always equals a brute-force scan, and leaves the rest alone."""
    rng = random.Random(7)
    cache = CacheArray(8, 2)
    states = [state for state in LineState if state is not LineState.I]
    for _ in range(300):
        address = rng.randrange(40)
        line = cache.peek(address)
        roll = rng.random()
        if line is None:
            victim = cache.choose_victim(address)
            if victim is not None:
                cache.remove(victim.line_address)
            cache.install(address, rng.choice(states)).a_bit = rng.random() < 0.3
        elif roll < 0.5:
            cache.set_state(line, rng.choice(states))
        elif roll < 0.7:
            cache.remove(address)
        else:
            before = {
                line.line_address: (line.state, line.a_bit, line.last_use)
                for line in cache.valid_lines()
            }
            visited = []
            cache.flash_transform(lambda line: (visited.append(line.line_address), _commit(line)))
            assert sorted(visited) == sorted(
                address for address, (state, _, _) in before.items() if state.is_transactional
            )
            for address, (state, a_bit, last_use) in before.items():
                line = cache.peek(address)
                if state is LineState.TI:
                    assert line is None
                    continue
                expected = LineState.M if state is LineState.TMI else state
                assert (line.state, line.a_bit, line.last_use) == (expected, a_bit, last_use)
        assert set(cache._t_lines) == {
            line.line_address for line in cache.valid_lines() if line.state.is_transactional
        }


def test_occupancy_counts():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    cache.install(1, LineState.E)
    assert cache.occupancy() == 2
    assert cache.set_occupancy(0) == 1


def test_valid_lines_iterates_all():
    cache = CacheArray(4, 2)
    for address in (0, 1, 2):
        cache.install(address, LineState.S)
    assert sorted(line.line_address for line in cache.valid_lines()) == [0, 1, 2]


def test_shape_validation():
    with pytest.raises(ValueError):
        CacheArray(3, 2)
    with pytest.raises(ValueError):
        CacheArray(4, 0)


def test_peek_does_not_touch_lru():
    cache = CacheArray(4, 2)
    cache.install(0, LineState.S)
    cache.install(4, LineState.S)
    cache.lookup(4)
    cache.peek(0)  # must not refresh 0
    victim = cache.choose_victim(8)
    assert victim.line_address == 0
