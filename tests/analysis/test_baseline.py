"""Baseline round-trip, counting, and staleness semantics."""

from __future__ import annotations

import json

from repro.analysis import all_rules, run_analysis
from repro.analysis.baseline import load_baseline, write_baseline

from tests.analysis.helpers import analyze_snippet

_BAD = """
class Machine:
    def step(self):
        self.tracer.on_begin(0, 1, 2)
"""


def _violation_report(tmp_path, baseline=None):
    return analyze_snippet(
        tmp_path, "repro/core/bad.py", _BAD, ["SIM-H102"], baseline=baseline
    )


def test_round_trip_suppresses_the_finding(tmp_path):
    report = _violation_report(tmp_path)
    assert len(report.findings) == 1

    baseline_path = tmp_path / "simcheck-baseline.json"
    counts = write_baseline(baseline_path, report.findings)
    assert load_baseline(baseline_path) == counts

    suppressed = _violation_report(tmp_path, baseline=counts)
    assert suppressed.findings == []
    assert len(suppressed.baselined) == 1
    assert suppressed.exit_code() == 0


def test_count_limits_how_many_match(tmp_path):
    source = _BAD + "        self.tracer.on_begin(0, 1, 2)\n"
    report = analyze_snippet(tmp_path, "repro/core/bad.py", source, ["SIM-H102"])
    # Identical message + scope: both findings share one fingerprint.
    fingerprints = {finding.fingerprint() for finding in report.findings}
    assert len(report.findings) == 2 and len(fingerprints) == 1

    limited = analyze_snippet(
        tmp_path,
        "repro/core/bad.py",
        source,
        ["SIM-H102"],
        baseline={next(iter(fingerprints)): 1},
    )
    assert len(limited.findings) == 1
    assert len(limited.baselined) == 1


def test_stale_entries_are_reported(tmp_path):
    report = analyze_snippet(
        tmp_path,
        "repro/core/ok.py",
        "class Machine:\n    pass\n",
        ["SIM-H102"],
        baseline={"deadbeefdeadbeefdead": 1},
    )
    assert report.stale_baseline == ["deadbeefdeadbeefdead"]
    assert report.exit_code() == 0  # stale entries warn, they don't gate


def test_fingerprint_survives_line_moves(tmp_path):
    before = _violation_report(tmp_path)
    moved = analyze_snippet(
        tmp_path,
        "repro/core/bad.py",
        "# a new leading comment\n\n" + _BAD,
        ["SIM-H102"],
    )
    assert before.findings[0].line != moved.findings[0].line
    assert before.findings[0].fingerprint() == moved.findings[0].fingerprint()


def test_baseline_file_is_versioned_and_sorted(tmp_path):
    report = _violation_report(tmp_path)
    baseline_path = tmp_path / "simcheck-baseline.json"
    write_baseline(baseline_path, report.findings)
    data = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert data["version"] == 1
    for entry in data["suppressions"].values():
        assert {"rule", "path", "message", "count"} <= set(entry)


def test_update_baseline_prunes_stale(tmp_path):
    # write_baseline from a clean run produces an empty suppression map.
    baseline_path = tmp_path / "simcheck-baseline.json"
    write_baseline(baseline_path, [])
    assert load_baseline(baseline_path) == {}


def test_repo_clean_gate(tmp_path):
    """The real tree at HEAD must analyze clean against its baseline.

    This is the acceptance gate: zero unsuppressed errors (including
    zero unhandled protocol pairs) over ``src/repro``.
    """
    from tests.analysis.helpers import SRC_ROOT

    root = SRC_ROOT.parent  # repo root
    baseline = load_baseline(root / "simcheck-baseline.json")
    report = run_analysis(
        root,
        [SRC_ROOT / "repro"],
        rules=list(all_rules().values()),
        baseline_fingerprints=baseline,
    )
    assert report.errors == [], [finding.to_dict() for finding in report.errors]
    assert report.stale_baseline == []
