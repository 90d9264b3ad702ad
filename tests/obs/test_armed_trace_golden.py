"""Golden digests of armed 16-thread FlexTM traces.

An armed run emits ``on_access``/``on_conflict`` from both the full L1
access path and the quiet-hit path of ``FlexTMMachine.tload``/``tstore``.
These digests pin the complete event stream of two 16-thread points, so
a hit path that skips, reorders or duplicates an event fails here even
when every cycle count stays the same.

The digests were recorded before the quiet-hit path existed.  A change
that moves them changes what an armed run observes; regenerate them
only together with a CHANGES.md entry that says why.
"""

import hashlib
import json

import pytest

from repro.harness.runner import ExperimentConfig, run_experiment
from repro.obs.tracer import EventTracer

GOLDEN = {
    "RBTree": (15999, "751cf4be1119790c149ac9732dc579ca97773510381b34cff99327e9407b093e"),
    "HashTable": (4809, "b42291865c273494363757158c34f090b986a8ea8860748f3df78726f406a831"),
}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_armed_trace_matches_golden(workload):
    tracer = EventTracer()
    run_experiment(
        ExperimentConfig(
            workload=workload, system="FlexTM", threads=16,
            cycle_limit=8_000, seed=42, observers=(tracer,),
        )
    )
    events = [event.to_dict() for event in tracer.events]
    digest = hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()
    assert (len(events), digest) == GOLDEN[workload]
