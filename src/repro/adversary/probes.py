"""Opacity and zombie probes: shadow-state oracles for conformance runs.

Opacity (Guerraoui & Kapalka) demands that *every* transaction — even
one that later aborts — observes a consistent snapshot of committed
state.  A "zombie" is a doomed transaction still running on stale data;
zombies are legal under weaker criteria (TL2-style invisible readers
abort them at validation) but a zombie that *observes an inconsistent
snapshot* and keeps executing is an opacity violation the simulator
must never produce.

The :class:`OpacityProbe` verifies this from outside the system under
test.  It keeps a shadow version history per tracked address, appended
at the exact committed-mutation chokepoints of the machine
(``store``/``cas`` memory writes and the ``cas_commit`` overlay flash),
and records the first value each transaction attempt reads per address
through the universal read chokepoint (:meth:`TxContext.read`).  When
an attempt ends — commit *or* abort — the probe checks snapshot
consistency: some single version of the shadow history must explain
every first-read.  Read-own-writes are excluded (they never touch
committed state), and untracked addresses are ignored.

The probe is an observer on the one tracer channel (armed with
``machine.observe``; see :class:`~repro.obs.tracer.Tracer`), observes
only, and mutates nothing — an armed run is bit-identical to an unarmed
one, a property the tests lock across all seven backends.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.obs.tracer import Tracer


@dataclasses.dataclass(frozen=True)
class OpacityViolation:
    """One transaction attempt that saw an inconsistent snapshot."""

    thread: int
    #: "commit" or "abort" — aborted zombies violate opacity too.
    outcome: str
    #: The attempt's first-reads, address -> value seen.
    reads: Tuple[Tuple[int, int], ...]
    detail: str


class _Attempt:
    """Shadow record of one in-flight transaction attempt."""

    __slots__ = ("first_reads", "writes")

    def __init__(self) -> None:
        self.first_reads: Dict[int, int] = {}
        self.writes: set = set()


class OpacityProbe(Tracer):
    """Observes transactional reads against the committed history."""

    enabled = True

    def __init__(self) -> None:
        self.machine = None
        #: address -> [(version, value), ...] committed history; version
        #: numbers are global (one counter across all tracked cells).
        self._history: Dict[int, List[Tuple[int, int]]] = {}
        self._initial: Dict[int, int] = {}
        self._version = 0
        self._attempts: Dict[int, _Attempt] = {}
        #: Telemetry.
        self.reads_checked = 0
        self.snapshots_checked = 0
        self.zombie_attempts = 0
        self.stale_reads = 0
        self.violations: List[OpacityViolation] = []

    def attach(self, machine) -> None:
        self.machine = machine

    def track(self, address: int, initial: int) -> None:
        """Register one shadow cell (pre-run, matching its seeded value)."""
        self._history[address] = []
        self._initial[address] = initial

    # -- machine-level events (exact commit points) --------------------------

    def on_memory_write(self, address: int, value: int) -> None:
        """A committed write landed (machine.store / successful CAS)."""
        history = self._history.get(address)
        if history is None:
            return
        self._version += 1
        history.append((self._version, value))

    def on_commit_flash(self, overlay) -> None:
        """A cas_commit flashed a write overlay into committed state.

        The whole overlay is one atomic version: all of a transaction's
        writes become visible at a single point in the shadow history.
        """
        items = sorted(
            (address, value)
            for address, value in dict(overlay).items()
            if address in self._history
        )
        if not items:
            return
        self._version += 1
        for address, value in items:
            self._history[address].append((self._version, value))

    # -- runtime-level events (attempt lifecycle) ----------------------------

    def on_begin(self, proc, thread, cycle, system, incarnation):
        self._attempts[thread] = _Attempt()

    def on_read(self, thread: int, address: int, value) -> None:
        attempt = self._attempts.get(thread)
        if attempt is None or address not in self._history:
            return
        if address in attempt.writes:
            return  # read-own-write never observes committed state
        if address not in attempt.first_reads:
            attempt.first_reads[address] = value
            self.reads_checked += 1

    def on_write(self, thread: int, address: int, value) -> None:
        attempt = self._attempts.get(thread)
        if attempt is None:
            return
        attempt.writes.add(address)

    def on_commit(self, proc, thread, cycle):
        self._end(thread, "commit")

    def on_abort(self, proc, thread, cycle, cause, by=-1, conflict=""):
        self._end(thread, "abort")

    # -- the oracle ----------------------------------------------------------

    def _value_at(self, address: int, version: int) -> int:
        """Committed value of a cell as of a global version number."""
        value = self._initial[address]
        for entry_version, entry_value in self._history[address]:
            if entry_version > version:
                break
            value = entry_value
        return value

    def _end(self, thread: int, outcome: str) -> None:
        attempt = self._attempts.pop(thread, None)
        if attempt is None or not attempt.first_reads:
            return
        self.snapshots_checked += 1
        if outcome == "abort":
            self.zombie_attempts += 1
        # Candidate snapshot points: initial state plus every committed
        # version of any read cell.  The attempt is consistent iff some
        # single point explains every first-read.
        candidates = {0}
        for address in attempt.first_reads:
            for entry_version, _ in self._history[address]:
                candidates.add(entry_version)
        for version in sorted(candidates, reverse=True):
            if all(
                self._value_at(address, version) == value
                for address, value in attempt.first_reads.items()
            ):
                return
        self.stale_reads += 1
        reads = tuple(sorted(attempt.first_reads.items()))
        self.violations.append(
            OpacityViolation(
                thread=thread,
                outcome=outcome,
                reads=reads,
                detail=(
                    f"thread {thread} ({outcome}) read "
                    + ", ".join(f"[{a}]={v}" for a, v in reads)
                    + " — no single committed version explains this snapshot"
                ),
            )
        )

    def summary(self) -> Dict[str, int]:
        return {
            "reads_checked": self.reads_checked,
            "snapshots_checked": self.snapshots_checked,
            "zombie_attempts": self.zombie_attempts,
            "stale_reads": self.stale_reads,
            "violations": len(self.violations),
        }
