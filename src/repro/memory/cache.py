"""A set-associative cache array with LRU replacement.

The array stores :class:`CacheLine` records carrying the coherence state
bits of Figure 2: the MESI state is encoded by the protocol layer; the
``T`` (transactional/TMI or TI) and ``A`` (alert-on-update mark) bits
live here so the flash-clear commit/abort operations can sweep them.
The array indexes the lines whose T bit is set, so a flash sweep visits
only those lines, as the one-cycle conditional clear of Figure 3 does.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, List, Optional

from repro.coherence.states import LineState
from repro.errors import ProtocolError

#: ``LineState.I`` for the per-line loops below: a member read through the
#: Enum class costs a metaclass lookup (about ten plain reads on 3.11).
_I = LineState.I


@dataclasses.dataclass
class CacheLine:
    """One L1 line: tag + coherence and FlexTM state bits."""

    line_address: int
    state: LineState = LineState.I
    # FlexTM bits (Figure 2): T marks TMI/TI encodings, A marks AOU lines.
    t_bit: bool = False
    a_bit: bool = False
    # SMT owner id for TMI lines (unused on single-threaded cores).
    owner_context: int = 0
    # Monotonic timestamp for LRU.
    last_use: int = 0

    @property
    def is_speculative(self) -> bool:
        """True for TMI (speculatively written) lines."""
        return self.state is LineState.TMI

    def __repr__(self) -> str:
        flags = ("T" if self.t_bit else "") + ("A" if self.a_bit else "")
        return f"CacheLine(0x{self.line_address:x}, {self.state.name}{',' + flags if flags else ''})"


class CacheArray:
    """Tag/state array for a private cache.

    Data values are not stored here — the simulator is state-accurate,
    not value-accurate, at the cache level (values live in the
    functional memory image held by the machine).
    """

    def __init__(self, num_sets: int, associativity: int):
        if num_sets <= 0 or num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a positive power of two")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        self.num_sets = num_sets
        self.associativity = associativity
        self._sets: List[Dict[int, CacheLine]] = [{} for _ in range(num_sets)]
        self._mask = num_sets - 1
        self._use_tick = 0
        #: line address -> line, for every line whose T bit is set.
        #: :meth:`set_state`, :meth:`install` and :meth:`remove` keep it
        #: in step; callers never write ``state`` or ``t_bit`` directly.
        self._t_lines: Dict[int, CacheLine] = {}

    def set_index(self, line_address: int) -> int:
        return line_address & self._mask

    def lookup(self, line_address: int) -> Optional[CacheLine]:
        """Find a valid line (state != I), updating LRU on hit."""
        line = self._sets[line_address & self._mask].get(line_address)
        if line is None or line.state is _I:
            return None
        self._use_tick += 1
        line.last_use = self._use_tick
        return line

    def touch_if_kept(self, line_address: int, code: int) -> bool:
        """Touch LRU as :meth:`lookup` does, if the access keeps the state.

        True when ``line_address`` is resident and its state's compiled
        local cell for access code ``code`` is the state itself (a hit
        that changes nothing but the LRU order).  Otherwise returns
        False and touches nothing.  An I line never qualifies: its local
        cells all issue a request.
        """
        line = self._sets[line_address & self._mask].get(line_address)
        if line is None or line.state.local[code] is not line.state:
            return False
        self._use_tick += 1
        line.last_use = self._use_tick
        return True

    def peek(self, line_address: int) -> Optional[CacheLine]:
        """Find a line without touching LRU state (snoops, asserts)."""
        line = self._sets[line_address & self._mask].get(line_address)
        if line is None or line.state is _I:
            return None
        return line

    def choose_victim(self, line_address: int) -> Optional[CacheLine]:
        """LRU victim in ``line_address``'s set, or None if there is room."""
        cache_set = self._sets[line_address & self._mask]
        valid = [line for line in cache_set.values() if line.state is not _I]
        if len(valid) < self.associativity:
            return None
        return min(valid, key=lambda line: line.last_use)

    def install(self, line_address: int, state: LineState) -> CacheLine:
        """Place a line; the set must have room (caller evicts first)."""
        cache_set = self._sets[line_address & self._mask]
        existing = cache_set.get(line_address)
        if existing is not None and existing.state is not _I:
            raise ProtocolError(f"line 0x{line_address:x} already present as {existing.state.name}")
        valid = sum(1 for line in cache_set.values() if line.state is not _I)
        if valid >= self.associativity:
            raise ProtocolError(f"set for 0x{line_address:x} is full; evict first")
        self._use_tick += 1
        line = CacheLine(line_address=line_address, last_use=self._use_tick)
        cache_set[line_address] = line
        self.set_state(line, state)
        return line

    def set_state(self, line: CacheLine, state: LineState) -> None:
        """Move a resident line to ``state``, keeping T bit and T-line index in step."""
        line.state = state
        line.t_bit = state.t
        if line.t_bit:
            self._t_lines[line.line_address] = line
        else:
            self._t_lines.pop(line.line_address, None)

    def remove(self, line_address: int) -> None:
        """Drop a line entirely (post-eviction cleanup)."""
        self._sets[line_address & self._mask].pop(line_address, None)
        self._t_lines.pop(line_address, None)

    def valid_lines(self) -> Iterator[CacheLine]:
        """All lines whose state is not I."""
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.state is not _I:
                    yield line

    def occupancy(self) -> int:
        return sum(1 for _ in self.valid_lines())

    def set_occupancy(self, line_address: int) -> int:
        cache_set = self._sets[line_address & self._mask]
        return sum(1 for line in cache_set.values() if line.state is not _I)

    def flash_transform(self, transform: Callable[[CacheLine], None]) -> int:
        """Apply a state transform to every T line; returns lines visited.

        Models the flash commit/abort hardware: a single-cycle clear
        conditioned on the T bits.  Only the indexed lines are visited,
        so the cost is proportional to the number of T lines, not the
        array size; Figure 3's transforms map S, E and M to themselves.
        The transform must clear the T bit (the index is emptied); lines
        it invalidates are dropped from the array.
        """
        swept, self._t_lines = self._t_lines, {}
        for address, line in swept.items():
            transform(line)
            if line.state is _I:
                self._sets[address & self._mask].pop(address, None)
        return len(swept)
