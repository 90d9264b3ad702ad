"""The benchmark's own tests: tiny-budget smoke runs and wrapper hygiene.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import batches
import run
import spans

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _measure(workload: str, trace: bool, seed: int = 1) -> run.Measurement:
    measurement = run.Measurement(workload, seed, tiny=True)
    measurement.run(seconds=0, trace=trace)
    return measurement


@pytest.fixture(scope="module")
def declared():
    with open(BENCHMARK_JSON) as handle:
        document = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in document["end_to_end"]},
        {m["name"]: m["unit"] for m in document["per_layer"]},
    )


@pytest.mark.parametrize("workload", batches.WORKLOADS)
def test_tiny_smoke_run_is_correct_and_reports_every_metric(workload, declared, tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    end_to_end, per_layer = declared
    measurement = _measure(workload, trace=True)
    assert measurement.failed == 0, measurement.problems
    # one untraced and one traced pass, fingerprint-equal
    assert len(measurement.untraced) == 1 and len(measurement.traced) == 1
    assert measurement.traced[0].digest == measurement.reference.digest
    e2e = measurement.end_to_end(import_s=0.0)
    layers = measurement.per_layer()
    assert {k: v["unit"] for k, v in e2e.items()} == end_to_end
    assert {k: v["unit"] for k, v in layers.items()} == per_layer
    assert all(entry["value"] > 0 for entry in e2e.values())
    assert (tmp_path / f"{workload}.spans.jsonl.gz").stat().st_size > 0


def test_wrappers_restore_the_originals():
    from repro.core.machine import FlexTMMachine
    from repro.harness import chaos
    from repro.runtime.txthread import WorkItem

    with spans.Patcher() as patcher:
        spans.install(patcher, spans.SpanLog())
        batches.Probe().install(patcher)
        originals = {}
        for owner, attr, original in patcher._saved:  # first save is the original
            originals.setdefault((owner, attr), original)
        assert FlexTMMachine.__dict__["tload"] is not originals[(FlexTMMachine, "tload")]
    assert len(originals) > 40
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"
    assert chaos._run_cell.__module__ == "repro.harness.chaos"
    assert WorkItem.__init__.__qualname__ == "WorkItem.__init__"


def test_fingerprint_is_stable_across_calls():
    first = batches.run_pass("oversub-lazy", seed=5, tiny=True)
    second = batches.run_pass("oversub-lazy", seed=5, tiny=True)
    assert first.fingerprints == second.fingerprints
    assert first.failed == 0


def test_traced_pass_matches_untraced_pass():
    untraced = batches.run_pass("backends-8t", seed=2, tiny=True)
    traced = batches.run_pass("backends-8t", seed=2, tiny=True, log=spans.SpanLog())
    assert traced.fingerprints == untraced.fingerprints


@pytest.mark.parametrize("workload", sorted(batches.SIM_BATCHES))
def test_a_different_seed_changes_the_inputs(workload):
    one = batches.run_pass(workload, seed=1, tiny=True)
    two = batches.run_pass(workload, seed=2, tiny=True)
    assert one.digest != two.digest


def test_matrix_runs_at_the_ci_seed_whatever_the_benchmark_seed():
    one = batches.run_pass(batches.MATRIX, seed=1, tiny=True)
    two = batches.run_pass(batches.MATRIX, seed=2, tiny=True)
    assert one.digest == two.digest


def test_every_metric_name_is_well_formed(declared):
    for names in declared:
        for name, unit in names.items():
            assert NAME.fullmatch(name), name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_resume_wrapper_forwards_send_throw_and_return():
    def inner():
        got = yield "first"
        try:
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    log = spans.SpanLog()
    nid = log.name_id("layer/inner")
    wrapped = log.resumes(nid, inner())
    assert next(wrapped) == "first"
    assert wrapped.send(21) == 42
    assert wrapped.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(wrapped)
    assert stop.value.value == "done"
    assert log.layer_totals()["layer/inner"]["calls"] == 4


def test_self_time_subtracts_children():
    log = spans.SpanLog()
    outer, child = log.name_id("a/outer"), log.name_id("b/child")
    index = log.open(outer)
    log.close(log.open(child))
    log.close(index)
    totals = log.layer_totals()
    duration = log.end[0] - log.start[0]
    child_ns = log.end[1] - log.start[1]
    assert totals["a/outer"]["self_ns"] == duration - child_ns
    assert totals["b/child"]["self_ns"] == child_ns
    assert log.root_ns() == duration


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    label, value = run.tail(samples)
    assert label == "p75" and value == 29.0
    assert sum(1 for s in samples if s > value) == 10
    assert run.tail([3.0, 1.0, 2.0]) == ("p50", 2.0)


def test_missing_source_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "fig4-16t", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.xfail(strict=True, reason="known defect: the fault-free RTM-F baseline of the chaos "
                   "matrix is not serializable at seed 16, so verify-matrix fails that seed")
def test_rtmf_matrix_baseline_is_serializable_at_seed_16():
    from repro.harness.chaos import run_backend_matrix

    rows = run_backend_matrix("RTM-F", ["coherence"], 16)
    assert [cell.classification for cell in rows if not cell.ok] == []
