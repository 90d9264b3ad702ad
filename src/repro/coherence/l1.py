"""The private L1 cache controller (Figure 1 state machine).

Processor-side behaviour (Load/Store/TLoad/TStore against the six
stable states), remote-request handling with signature-qualified
responses, eviction policy (silent for E/S/TI, write-back for M,
overflow-table spill for TMI), the flash commit/abort sweeps, and the
alert-on-update machinery all live here.

The controller executes the protocol spec rather than restating it:
every (state x message) decision is one index into the int-coded cells
:mod:`repro.coherence.states` compiles from :mod:`repro.coherence.spec`
(a state's ``local``, ``remote`` and ``install`` tuples, its ``commit``
and ``abort`` targets, and ``MISS_REQUESTS_BY_CODE``), the same tables
the model checker verifies.  Only the side effects the tables do not
describe are written out here: victim-buffer refills, the posted
write-back on M -> TMI, NACKs, eviction, alerts and the stats counters.

TM-specific policy is injected through a small hook object so that the
coherence layer itself stays TM-agnostic — the decoupling the paper
argues for.  The hooks are:

``classify_remote(requestor, req_type, line_address)``
    Run the signature checks of Figure 1's response table and update the
    responder-side CSTs; returns a :class:`ResponseKind` or ``None``
    when neither signature hits.
``holds_overflow(line_address)``
    True when a TMI line for this address lives in the overflow table
    (the L1 must still count as retaining the line).
``spill_tmi(line_address)``
    Move an evicted TMI line into the overflow table; returns the cycle
    cost.
``on_alert(line_address, reason)``
    Deliver an alert-on-update trap (marked line invalidated/evicted).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.coherence.directory import Directory
from repro.coherence.messages import AccessKind, AccessResult, RequestType, ResponseKind
from repro.coherence.states import MISS_REQUESTS_BY_CODE, LineState
from repro.errors import ProtocolError
from repro.memory.cache import CacheArray, CacheLine
from repro.memory.victim import VictimBuffer
from repro.obs.tracer import NULL_TRACER
from repro.params import SystemParams
from repro.sim.stats import Counter, StatsRegistry


class NullL1Hooks:
    """Default hooks: no signatures, no overflow table, no alerts."""

    def classify_remote(self, requestor: int, req_type: RequestType, line_address: int):
        return None

    def holds_overflow(self, line_address: int) -> bool:
        return False

    def spill_tmi(self, line_address: int) -> int:
        raise ProtocolError("TMI eviction without an overflow-table hook")

    def on_alert(self, line_address: int, reason: str) -> None:
        pass


class L1Controller:
    """One processor's private L1 + victim buffer + protocol engine."""

    def __init__(
        self,
        proc_id: int,
        params: SystemParams,
        directory: Directory,
        hooks=None,
        stats: Optional[StatsRegistry] = None,
        tmi_to_victim: bool = False,
    ):
        self.proc_id = proc_id
        self.params = params
        self.directory = directory
        self.hooks = hooks or NullL1Hooks()
        self.stats = stats or StatsRegistry()
        #: The machine's observer slot (installed by FlexTMMachine.observe).
        self.tracer = NULL_TRACER
        #: Fault injection (installed by FlexTMMachine.set_chaos).
        self.chaos = None
        self.array = CacheArray(params.l1.num_sets, params.l1.associativity)
        self.victims = VictimBuffer(params.victim_buffer_entries)
        #: E7 knob — route TMI evictions into an unbounded side buffer
        #: instead of the OT (the paper's "ideal" overflow machine).
        #: Only speculative lines get the unbounded treatment; plain
        #: lines keep the normal victim buffer.
        self.tmi_to_victim = tmi_to_victim
        self.tmi_victims = VictimBuffer(None) if tmi_to_victim else None
        #: Cycles accumulated by evictions performed inside an access.
        self._eviction_cycles = 0
        #: access code -> its ``l1.access.<kind>`` counter, created on
        #: first use so that no zero-valued key appears in the stats.
        self._access_counters: List[Optional[Counter]] = [None] * len(AccessKind)

    # ------------------------------------------------------------------ local

    def count_access(self, kind: AccessKind) -> None:
        """Count one ``kind`` access in ``l1.access.<kind>``."""
        counter = self._access_counters[kind.code]
        if counter is None:
            counter = self.stats.counter(f"l1.access.{kind.value}")
            self._access_counters[kind.code] = counter
        counter.increment()

    def access(self, kind: AccessKind, line_address: int) -> AccessResult:
        """Perform one processor memory operation; returns the outcome."""
        self.count_access(kind)
        self._eviction_cycles = 0
        if self.chaos is not None and self.chaos.enabled and self.chaos.l1_pressure():
            self._chaos_evict(line_address)
        line = self.array.lookup(line_address)
        if line is not None:
            result = self._dispatch(kind, line_address, line)
        else:
            refill = self.victims.extract(line_address)
            if refill is None and self.tmi_victims is not None:
                refill = self.tmi_victims.extract(line_address)
            if refill is not None:
                line = self.install(line_address, refill)
                self.stats.counter("l1.victim_hits").increment()
                result = self._dispatch(kind, line_address, line)
                result.cycles += 1  # victim-buffer lookup penalty
            else:
                result = self._dispatch(kind, line_address, None)
        result.cycles += self._eviction_cycles
        self._eviction_cycles = 0
        return result

    def quiet_hit(self, kind: AccessKind, line_address: int) -> bool:
        """Answer a quiet hit, or decline without touching anything.

        A hit is quiet when the line is resident and its compiled local
        cell for ``kind`` keeps the state: no directory request, no
        state change, no eviction.  A quiet hit is counted and touches
        the LRU exactly as :meth:`access` would, and costs
        ``l1_hit_cycles``.  An enabled chaos engine always declines, so
        its pressure draws stay on :meth:`access`.
        """
        chaos = self.chaos
        if chaos is not None and chaos.enabled:
            return False
        if not self.array.touch_if_kept(line_address, kind.code):
            return False
        self.count_access(kind)
        return True

    def _dispatch(
        self, kind: AccessKind, line_address: int, line: Optional[CacheLine]
    ) -> AccessResult:
        """Resolve one access against the compiled Figure 1 tables."""
        state = line.state if line is not None else LineState.I
        next_state = state.local[kind.code]
        if next_state is state:
            return AccessResult(cycles=self.params.l1_hit_cycles, state=state)
        if next_state == "request":
            if line is None:
                self.stats.counter("l1.misses").increment()
            return self._request(kind, line_address)
        if next_state == "error":
            raise ProtocolError(f"illegal {kind.value} to a local {state.name} line")
        cycles = self.params.l1_hit_cycles
        if state is LineState.M:
            # Figure 1: M --TStore/Flush--> TMI.  The modified data is
            # written back so later Loads see the latest non-speculative
            # version.  The write-back is *posted* (drains through the
            # write buffer), so the store only pays a couple of cycles,
            # not the L2 round trip.
            self.directory.writeback(self.proc_id, line_address)
            self.stats.counter("l1.m_to_tmi_flush").increment()
            cycles += 2
        self.array.set_state(line, next_state)
        return AccessResult(cycles=cycles, state=next_state)

    def _request(self, kind: AccessKind, line_address: int) -> AccessResult:
        request = MISS_REQUESTS_BY_CODE[kind.code]
        outcome = self.directory.request(self.proc_id, request, line_address)
        result = AccessResult(
            cycles=outcome.cycles + self.params.l1_hit_cycles,
            conflicts=outcome.conflicts,
            state=outcome.grant,
        )
        if outcome.nacked:
            result.nacked = True
            return result
        installed = outcome.grant.install[kind.code]
        existing = self.array.peek(line_address)
        if installed is LineState.I:
            # Strong isolation: a plain Load that was threatened reads
            # the committed value but leaves the line uncached so that
            # it serializes before the writing transaction.
            if existing is not None and not existing.state.t:
                self._drop_line(existing)
            result.state = LineState.I
        elif existing is not None:
            self.array.set_state(existing, installed)
        else:
            self.install(line_address, installed)
        return result

    def install(self, line_address: int, state: LineState) -> CacheLine:
        """Fill a line, evicting the set's LRU victim first when it is full."""
        victim = self.array.choose_victim(line_address)
        if victim is not None:
            self.evict(victim)
        return self.array.install(line_address, state)

    # --------------------------------------------------------------- eviction

    def evict(self, line: CacheLine) -> None:
        """Apply the per-state eviction policy to a chosen victim."""
        state = line.state
        if self.tracer.enabled:
            clock = getattr(self.hooks, "clock", None)
            self.tracer.on_coherence(
                self.proc_id,
                clock.now if clock is not None else 0,
                "coh_evict",
                line.line_address,
                detail=state.name,
            )
        if line.a_bit:
            # Tracking for an ALoaded line is lost on eviction; alert.
            self.hooks.on_alert(line.line_address, "evicted")
        if state is LineState.TMI:
            if self.tmi_to_victim:
                self.tmi_victims.insert(line.line_address, LineState.TMI)
            else:
                self._eviction_cycles += self.hooks.spill_tmi(line.line_address)
                self.stats.counter("l1.tmi_overflows").increment()
        elif state is LineState.M:
            self._eviction_cycles += self.directory.writeback(self.proc_id, line.line_address)
            self.victims.insert(line.line_address, LineState.E)
        else:
            # Silent eviction of E/S/TI: the directory keeps us listed,
            # so conflict-detecting forwards continue to arrive.
            self.victims.insert(line.line_address, state)
            self.stats.counter("l1.silent_evictions").increment()
        self.array.remove(line.line_address)

    def _chaos_evict(self, line_address: int) -> None:
        """Cache-pressure fault: evict one other line, policy intact.

        Exercises the TMI-spill and silent-eviction paths under
        adversarial pressure; the victim goes through :meth:`evict`, so
        every state keeps its architected eviction behaviour.
        """
        if self.chaos is None:
            return
        candidates = [
            line
            for line in self.array.valid_lines()
            if line.line_address != line_address
        ]
        if not candidates:
            return
        victim = candidates[self.chaos.pick(len(candidates))]
        self.stats.counter("l1.chaos_evictions").increment()
        self.evict(victim)

    # ----------------------------------------------------------------- remote

    def handle_forwarded(
        self, requestor: int, req_type: RequestType, line_address: int
    ) -> Tuple[Optional[ResponseKind], bool]:
        """Service a request forwarded by the directory.

        Returns ``(response_kind, retained)`` where ``retained`` tells
        the directory whether we still hold a stake in the line.
        """
        kind = self.hooks.classify_remote(requestor, req_type, line_address)
        line = self.array.peek(line_address)
        if line is not None:
            state = line.state
            next_state = state.remote[req_type.code]
            if next_state is not state:
                if state is LineState.M:
                    self.stats.counter("l1.remote_flushes").increment()
                if next_state is LineState.I:
                    self._drop_line(line)
                else:
                    self.array.set_state(line, next_state)
        # A silently evicted copy in the victim buffer follows the same
        # table (TMI lines never sit there: they spill to the OT).
        refill = self.victims.extract(line_address)
        if refill is not None:
            self.victims.insert(line_address, refill.remote[req_type.code])

        # A responder whose signature matched retains a conflict-
        # detection stake in the line even when its cached copy is gone
        # (invalidated or evicted): the directory must keep it listed so
        # *future* requestors still reach these signatures — the
        # invariant behind Section 4.1's sticky directory information.
        retained = (
            kind is not None
            or self.array.peek(line_address) is not None
            or self.victims.contains(line_address)
            or (self.tmi_victims is not None and self.tmi_victims.contains(line_address))
            or self.hooks.holds_overflow(line_address)
        )
        return kind, retained

    def _drop_line(self, line: CacheLine) -> None:
        if line.a_bit:
            self.hooks.on_alert(line.line_address, "invalidated")
        self.array.remove(line.line_address)

    # ------------------------------------------------------------- AOU / PDI

    def aload(self, line_address: int) -> AccessResult:
        """Mark a line for alert-on-update (loads it if necessary)."""
        result = self.access(AccessKind.LOAD, line_address)
        line = self.array.peek(line_address)
        if line is not None:
            line.a_bit = True
        return result

    def arelease(self, line_address: int) -> None:
        """Clear the alert mark."""
        line = self.array.peek(line_address)
        if line is not None:
            line.a_bit = False

    def flash_commit(self) -> int:
        """CAS-Commit success path: Figure 3's COMMIT_TRANSFORM, T bits cleared."""
        swept = self.array.flash_transform(self._commit_line)
        self._sweep_victims(commit=True)
        return swept

    def flash_abort(self) -> int:
        """Abort path: Figure 3's ABORT_TRANSFORM, T bits cleared."""
        swept = self.array.flash_transform(self._abort_line)
        self._sweep_victims(commit=False)
        return swept

    @staticmethod
    def _commit_line(line: CacheLine) -> None:
        line.state = line.state.commit
        line.t_bit = False

    @staticmethod
    def _abort_line(line: CacheLine) -> None:
        line.state = line.state.abort
        line.t_bit = False

    def _sweep_victims(self, commit: bool) -> None:
        """The flash transforms also cover the victim buffers."""
        stale = []
        for address in list(self.victims._entries):
            state = self.victims._entries[address]
            new_state = state.commit if commit else state.abort
            if new_state is LineState.I:
                stale.append(address)
            elif new_state is not state:
                self.victims._entries[address] = new_state
        for address in stale:
            self.victims.invalidate(address)
        if self.tmi_victims is not None:
            # The TMI side buffer drains entirely: on commit its values
            # are globally visible (the line is simply uncached now); on
            # abort they are discarded.
            self.tmi_victims.clear()

    def speculative_lines(self):
        """All locally buffered TMI lines (cache + TMI side buffer)."""
        for line in self.array.valid_lines():
            if line.state is LineState.TMI:
                yield line.line_address
        if self.tmi_victims is not None:
            for address, state in list(self.tmi_victims._entries.items()):
                if state is LineState.TMI:
                    yield address
