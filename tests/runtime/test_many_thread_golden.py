"""Bit-identity golden for many-thread simulation points.

The CI sweep stops at two threads, so nothing else pins the 16-core
interleaving: the scheduler's least-advanced-clock pick, the per-commit
flash sweeps and the quantum path at 8 threads on 4 cores.  The golden
holds each point's full ``RunResult`` (cycles, commits, aborts,
``aborts_by_kind``, ``per_thread``, ``stats``).  A host-speed change
must reproduce it exactly; a change that moves it is a behaviour change
and needs its own justification.

Regenerate (only for a deliberate behaviour change) with::

    PYTHONPATH=src python tests/runtime/test_many_thread_golden.py
"""

import json
import pathlib

import pytest

from repro.core.descriptor import ConflictMode
from repro.harness.runner import ExperimentConfig, run_experiment

GOLDEN = pathlib.Path(__file__).parent / "golden" / "many_thread_points.json"

#: label -> ExperimentConfig keyword arguments.
POINTS = {
    "RBTree/FlexTM/16t/eager": dict(
        workload="RBTree", system="FlexTM", threads=16, cycle_limit=8_000
    ),
    "HashTable/FlexTM/16t/eager": dict(
        workload="HashTable", system="FlexTM", threads=16, cycle_limit=8_000
    ),
    "LFUCache/FlexTM/8t/4p/lazy/q2000": dict(
        workload="LFUCache", system="FlexTM", threads=8, mode=ConflictMode.LAZY,
        processors=4, quantum=2_000, cycle_limit=60_000,
    ),
    "HashTable/RTM-F/8t/eager": dict(
        workload="HashTable", system="RTM-F", threads=8, cycle_limit=20_000
    ),
    "HashTable/LogTM-SE/8t/eager": dict(
        workload="HashTable", system="LogTM-SE", threads=8, cycle_limit=20_000
    ),
}


def _capture(label):
    result = run_experiment(ExperimentConfig(seed=42, **POINTS[label]))
    return {
        "cycles": result.cycles,
        "commits": result.commits,
        "aborts": result.aborts,
        "aborts_by_kind": result.aborts_by_kind,
        "per_thread": result.per_thread,
        "stats": result.stats,
    }


@pytest.mark.parametrize("label", sorted(POINTS))
def test_point_matches_golden(label):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(POINTS)
    # Round-trip through JSON so tuple/int-key differences cannot hide.
    assert json.loads(json.dumps(_capture(label))) == golden[label]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    captured = {label: _capture(label) for label in sorted(POINTS)}
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
