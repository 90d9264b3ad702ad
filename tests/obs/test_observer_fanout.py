"""Several observers on the one tracer channel.

Arming the event tracer, the metrics hub and the opacity probe together
puts a :class:`~repro.obs.tracer.Fanout` in ``machine.tracer``.  The
contract is that the fan-out is invisible:

* the run is bit-identical to the unarmed run, on every backend;
* each observer records exactly what it records when armed alone.  The
  one designed exception is the hub's ``metrics_sample`` events, which
  the hub emits on the channel and so reach a co-armed tracer.
"""

import itertools

import pytest

from repro.adversary.probes import OpacityProbe
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.harness.runner import SYSTEMS
from repro.obs.metrics import MetricsHub
from repro.obs.tracer import NULL_TRACER, EventTracer, Fanout
from repro.params import small_test_params
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.sim.rng import DeterministicRng

THREADS = 4
TXNS = 6
CELLS = 6


def _bodies(cells, rng, unique):
    def make(reads, writes):
        def body(ctx):
            for address in reads:
                yield from ctx.read(address)
            yield from ctx.work(10)
            for address in writes:
                yield from ctx.write(address, next(unique))

        return body

    for _ in range(TXNS):
        yield WorkItem(make(tuple(rng.sample(cells, 2)), tuple(rng.sample(cells, 1))))


def _run(backend_name, tracer=False, hub=False, probe=False):
    """One contended run with the chosen observers armed."""
    observers = {}
    if tracer:
        observers["tracer"] = EventTracer()
    if hub:
        observers["hub"] = MetricsHub(sample_interval=16)
    if probe:
        observers["probe"] = OpacityProbe()
    machine = FlexTMMachine(small_test_params(THREADS))
    for observer in observers.values():
        machine.observe(observer)
    line = machine.params.line_bytes
    cells = [machine.allocate(line, line_aligned=True) for _ in range(CELLS)]
    for index, cell in enumerate(cells):
        machine.memory.write(cell, index)
        if probe:
            observers["probe"].track(cell, index)
    backend = SYSTEMS[backend_name](machine, ConflictMode.EAGER)
    unique = itertools.count(1000)
    threads = [
        TxThread(i, backend, _bodies(cells, DeterministicRng(7 * i + 1), unique))
        for i in range(THREADS)
    ]
    result = Scheduler(machine, threads).run(cycle_limit=2_000_000)
    return result, observers, machine


def _events(tracer, with_samples=False):
    return [
        event for event in tracer.events
        if with_samples or not event.kind.startswith("metrics_")
    ]


@pytest.mark.parametrize("backend", sorted(SYSTEMS))
def test_fanout_is_invisible(backend):
    plain, _, _ = _run(backend)
    armed, observers, machine = _run(backend, tracer=True, hub=True, probe=True)
    assert isinstance(machine.tracer, Fanout)
    assert armed == plain
    assert armed.commits == THREADS * TXNS

    _, alone, _ = _run(backend, tracer=True)
    assert _events(observers["tracer"]) == _events(alone["tracer"])
    assert observers["tracer"].proc_cycles == alone["tracer"].proc_cycles
    samples = observers["tracer"].by_kind("metrics_sample")
    assert len(samples) == observers["hub"].samples_taken > 0

    _, alone, _ = _run(backend, hub=True)
    assert observers["hub"].to_dict() == alone["hub"].to_dict()

    _, alone, _ = _run(backend, probe=True)
    assert observers["probe"].summary() == alone["probe"].summary()
    assert alone["probe"].summary()["reads_checked"] > 0


def test_one_observer_is_installed_directly():
    machine = FlexTMMachine(small_test_params(2))
    assert machine.tracer is NULL_TRACER
    hub = MetricsHub()
    machine.observe(hub)
    assert machine.tracer is hub
    assert hub._machine is machine
    assert all(proc.tracer is hub and proc.l1.tracer is hub for proc in machine.processors)
    assert machine.directory.tracer is hub


def test_fanout_forwards_only_to_observers_that_consume_an_event():
    tracer, hub, probe = EventTracer(), MetricsHub(), OpacityProbe()
    machine = FlexTMMachine(small_test_params(2))
    for observer in (tracer, hub, probe):
        machine.observe(observer)
    fanout = machine.tracer
    assert fanout.observers == (tracer, hub, probe)
    assert machine.directory.tracer is fanout
    # Consumed by the tracer alone: the fan-out binds its method directly.
    assert fanout.on_access == tracer.on_access
    # Consumed by nobody but the probe.
    assert fanout.on_read == probe.on_read
    fanout.on_begin(0, 3, 10, "FlexTM", 1)
    fanout.on_commit(0, 3, 40)
    assert [event.kind for event in tracer.events] == ["tx_begin", "tx_commit"]
    assert hub.counters["tx.commits"] == 1
    assert hub.histograms["tx.commit_cycles"].total == 30
