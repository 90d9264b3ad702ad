"""Exporter tests: Chrome trace schema validity, JSONL round-trip."""

import json

from repro.obs.export import (
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import EventTracer


def _lifecycle_tracer():
    tracer = EventTracer()
    tracer.on_begin(0, 0, 10, "FlexTM", 1)
    tracer.on_conflict(0, 40, 1, "W-W", 256)
    tracer.on_stall(0, 70, 25, enemy=1)
    tracer.on_abort(0, 0, 80, "wounded", by=1)
    tracer.on_begin(0, 0, 90, "FlexTM", 2)
    tracer.on_commit(0, 0, 150)
    tracer.on_begin(1, 1, 0, "FlexTM", 1)  # never finishes
    tracer.on_overflow(1, 30, "spill", 512, dur=20)
    tracer.finalize([200, 180])
    return tracer


def test_chrome_trace_is_schema_valid():
    document = to_chrome_trace(_lifecycle_tracer(), label="unit")
    assert validate_chrome_trace(document) is None


def test_chrome_trace_names_processor_tracks():
    document = to_chrome_trace(_lifecycle_tracer())
    metadata = [event for event in document["traceEvents"] if event["ph"] == "M"]
    names = {event["args"]["name"] for event in metadata}
    assert "proc 0" in names and "proc 1" in names


def test_chrome_trace_pairs_attempts_into_slices():
    document = to_chrome_trace(_lifecycle_tracer())
    slices = [
        event for event in document["traceEvents"]
        if event["ph"] == "X" and event.get("cat") == "tx"
    ]
    outcomes = sorted(event["args"]["outcome"] for event in slices)
    assert outcomes == ["abort", "commit", "unfinished"]
    abort = next(e for e in slices if e["args"]["outcome"] == "abort")
    assert abort["ts"] == 10 and abort["dur"] == 70
    assert abort["args"]["cause"] == "wounded"
    unfinished = next(e for e in slices if e["args"]["outcome"] == "unfinished")
    # Drawn out to its processor's final cycle.
    assert unfinished["ts"] + unfinished["dur"] == 180


def test_chrome_trace_stall_slice_spans_backoff():
    document = to_chrome_trace(_lifecycle_tracer())
    stall = next(
        event for event in document["traceEvents"]
        if event["ph"] == "X" and event.get("cat") == "conflict"
    )
    # The stall event is emitted when the wait ends, so the slice is
    # drawn backwards from its stamp.
    assert stall["ts"] == 70 - 25 and stall["dur"] == 25


def test_chrome_trace_round_trips_through_json(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(_lifecycle_tracer(), str(path), label="roundtrip")
    loaded = json.loads(path.read_text())
    assert validate_chrome_trace(loaded) is None
    assert loaded["otherData"]["events_recorded"] == len(_lifecycle_tracer().events)


def test_jsonl_one_object_per_event(tmp_path):
    tracer = _lifecycle_tracer()
    lines = list(to_jsonl(tracer))
    assert len(lines) == len(tracer.events)
    first = json.loads(lines[0])
    assert first["kind"] == "tx_begin" and first["system"] == "FlexTM"
    path = tmp_path / "trace.jsonl"
    write_jsonl(tracer, str(path))
    assert len(path.read_text().splitlines()) == len(tracer.events)


def test_validator_rejects_malformed_documents():
    assert validate_chrome_trace([]) is not None
    assert validate_chrome_trace({}) is not None
    assert validate_chrome_trace({"traceEvents": [{}]}) is not None
    bad_phase = {"traceEvents": [
        {"name": "x", "ph": "Z", "pid": 0, "tid": 0, "ts": 0}
    ]}
    assert "phase" in validate_chrome_trace(bad_phase)
    missing_dur = {"traceEvents": [
        {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0}
    ]}
    assert "dur" in validate_chrome_trace(missing_dur)
