"""Scheduler edge cases not covered by the main scheduler tests."""

import pytest

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.errors import SchedulerError
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem


@pytest.fixture
def m():
    return FlexTMMachine(small_test_params(4))


def _one_tx(counter):
    def body(ctx):
        value = yield from ctx.read(counter)
        yield from ctx.write(counter, value + 1)

    yield WorkItem(body)


def test_yield_cpu_with_empty_ready_queue_is_cheap(m):
    """yield_cpu with nobody waiting must not context-switch."""
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)

    def body(ctx):
        yield ("yield_cpu",)
        yield ("work", 5)

    threads = [TxThread(0, runtime, iter([WorkItem(body, transactional=False)]))]
    result = Scheduler(m, threads).run(cycle_limit=100_000)
    assert result.stats.get("ctxsw.yields", 0) == 0
    assert result.nontx_items == 1


def test_yield_cpu_hands_core_to_waiting_thread(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    order = []

    def yielder(ctx):
        order.append("yielder-start")
        yield ("yield_cpu",)
        order.append("yielder-resumed")
        yield ("work", 1)

    def waiter(ctx):
        order.append("waiter-ran")
        yield ("work", 1)

    threads = [
        TxThread(0, runtime, iter([WorkItem(yielder, transactional=False)])),
        TxThread(1, runtime, iter([WorkItem(waiter, transactional=False)])),
    ]
    scheduler = Scheduler(m, threads, processors=[0])  # single core
    scheduler.run(cycle_limit=10_000_000)
    assert order.index("waiter-ran") < order.index("yielder-resumed")


def test_explicit_processor_subset(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    counter = m.allocate(64, line_aligned=True)
    threads = [TxThread(i, runtime, _one_tx(counter)) for i in range(3)]
    scheduler = Scheduler(m, threads, processors=[1, 2])
    result = scheduler.run(cycle_limit=10_000_000)
    assert result.commits == 3
    # Processor 0 never executed anything.
    assert m.processors[0].clock.now == 0
    assert m.processors[3].clock.now == 0


def test_empty_processor_list_rejected(m):
    runtime = FlexTMRuntime(m)
    with pytest.raises(SchedulerError):
        Scheduler(m, [TxThread(0, runtime, iter(()))], processors=[])


def test_duplicate_processor_ids_rejected(m):
    """A repeated id would install two threads on one core and lose one."""
    runtime = FlexTMRuntime(m)
    counter = m.allocate(64, line_aligned=True)
    threads = [TxThread(i, runtime, _one_tx(counter)) for i in range(2)]
    with pytest.raises(SchedulerError, match="duplicate"):
        Scheduler(m, threads, processors=[1, 1])


@pytest.mark.parametrize("procs", [[7], [0, 4], [-1]])
def test_out_of_range_processor_ids_rejected(m, procs):
    runtime = FlexTMRuntime(m)
    with pytest.raises(SchedulerError, match="out of range"):
        Scheduler(m, [TxThread(0, runtime, iter(()))], processors=procs)


def test_finished_thread_frees_core_for_queued_thread(m):
    runtime = FlexTMRuntime(m, mode=ConflictMode.LAZY)
    counter = m.allocate(64, line_aligned=True)
    # Three threads, one core, no quantum: strictly sequential hand-off.
    threads = [TxThread(i, runtime, _one_tx(counter)) for i in range(3)]
    scheduler = Scheduler(m, threads, quantum=None, processors=[0])
    result = scheduler.run(cycle_limit=10_000_000)
    assert result.commits == 3
    assert m.memory.read(counter) == 3


def test_run_result_abort_ratio_zero_when_idle():
    from repro.runtime.scheduler import RunResult

    result = RunResult(
        cycles=100, commits=0, aborts=0, nontx_items=0,
        per_thread=[], stats={}, conflict_degrees=[],
    )
    assert result.abort_ratio == 0.0
    assert result.throughput == 0.0
