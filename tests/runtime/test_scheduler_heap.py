"""The scheduler's clock heap picks what a least-clock scan would pick.

``Scheduler._pick_processor`` repairs a lazy ``(clock, proc)`` heap at
its top instead of scanning every core.  These tests wrap it so that
every pick — the scheduler's own and the ones a schedule director asks
for — is checked against the O(P) reference scan kept here, and the
heap is checked to hold at most one entry per processor.  The runs
cover quantum preemption and dispatch, voluntary yields, and director
stalls/parks/places, the paths that move clocks or change which cores
are occupied outside the plain step.
"""

import pytest

from repro.adversary.director import ScheduleDirector
from repro.adversary.script import ScheduleScript, Step
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.harness.runner import SYSTEMS, ExperimentConfig, run_experiment
from repro.params import small_test_params
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem


def _reference_pick(scheduler, cycle_limit):
    """Least-advanced running processor under the limit; ties to the lower id."""
    best, best_now = None, None
    for proc, slot in scheduler._running.items():
        if slot.done:
            continue
        now = scheduler.machine.processors[proc].clock.now
        if now >= cycle_limit:
            continue
        if best_now is None or (now, proc) < (best_now, best):
            best, best_now = proc, now
    return best


@pytest.fixture
def checked_picks(monkeypatch):
    """Check every pick against the reference; returns the pick count."""
    picks = []
    heap_pick = Scheduler._pick_processor

    def checked(scheduler, cycle_limit):
        expected = _reference_pick(scheduler, cycle_limit)
        got = heap_pick(scheduler, cycle_limit)
        assert got == expected
        procs = [proc for _, proc in scheduler._heap]
        assert len(procs) == len(set(procs)) == len(scheduler._in_heap)
        assert set(procs) == scheduler._in_heap
        picks.append(got)
        return got

    monkeypatch.setattr(Scheduler, "_pick_processor", checked)
    return picks


def test_flextm_eager_16_threads(checked_picks):
    result = run_experiment(ExperimentConfig(
        workload="HashTable", system="FlexTM", threads=16, cycle_limit=4_000,
    ))
    assert result.commits > 0
    assert len(checked_picks) > 1_000


def test_flextm_lazy_oversubscribed_with_quantum(checked_picks):
    result = run_experiment(ExperimentConfig(
        workload="LFUCache", system="FlexTM", threads=8, mode=ConflictMode.LAZY,
        processors=4, quantum=2_000, cycle_limit=30_000,
    ))
    assert result.stats["ctxsw.switches"] > 0
    assert len(checked_picks) > 1_000


def test_yield_cpu_run(checked_picks):
    machine = FlexTMMachine(small_test_params(4))
    runtime = SYSTEMS["FlexTM"](machine, ConflictMode.LAZY)

    def yielder(ctx):
        for _ in range(5):
            yield ("work", 7)
            yield ("yield_cpu",)

    threads = [
        TxThread(tid, runtime, iter([WorkItem(yielder, transactional=False)] * 3))
        for tid in range(6)
    ]
    result = Scheduler(machine, threads, processors=[1, 3]).run(cycle_limit=1_000_000)
    assert result.stats["ctxsw.yields"] > 0
    assert result.nontx_items == 18


def test_director_stall_park_and_place(checked_picks):
    machine = FlexTMMachine(small_test_params(4))
    backend = SYSTEMS["FlexTM"](machine, ConflictMode.EAGER)
    line = machine.params.line_bytes
    cells = [machine.allocate(line, line_aligned=True) for _ in range(2)]

    def txn(address, value):
        def body(ctx):
            yield from ctx.work(3)
            current = yield from ctx.read(address)
            yield from ctx.write(address, current + value)

        return WorkItem(body)

    threads = [
        TxThread(tid, backend, [txn(cells[tid % 2], tid + 1) for _ in range(4)])
        for tid in range(3)
    ]
    script = ScheduleScript(name="heap", steps=(
        Step.run(0, count=3),
        Step.stall(1, 500),
        Step.preempt(0),
        Step.run(2, until="commit"),
        Step.place(0, 3),
        Step.stall(0, 2_000),
        Step.preempt(2),
        Step.run(1, count=4),
        Step.place(2),
    ))
    director = ScheduleDirector(script)
    result = Scheduler(machine, threads, processors=[0, 1, 2, 3], director=director).run(
        cycle_limit=200_000
    )
    outcomes = [entry["outcome"] for entry in director.log]
    assert outcomes.count("stalled") == 2
    assert outcomes.count("parked") == 2
    assert outcomes.count("placed") == 2
    assert result.commits == 12
    assert len(checked_picks) > 50
