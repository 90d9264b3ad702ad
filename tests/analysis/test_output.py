"""Renderer sanity: text, JSON, and SARIF 2.1.0 structure."""

from __future__ import annotations

import json

from repro.analysis import all_rules
from repro.analysis.output import SARIF_VERSION, render_json, render_sarif, render_text

from tests.analysis.helpers import analyze_snippet

_BAD = """
class Machine:
    def step(self):
        self.tracer.on_begin(0, 1, 2)
"""


def _report(tmp_path):
    return analyze_snippet(tmp_path, "repro/core/bad.py", _BAD, ["SIM-H102"])


def test_text_has_location_and_summary(tmp_path):
    text = render_text(_report(tmp_path))
    assert "repro/core/bad.py:4:9: error: SIM-H102:" in text
    assert "1 error(s)" in text


def test_json_is_parseable_and_complete(tmp_path):
    payload = json.loads(render_json(_report(tmp_path)))
    assert payload["summary"] == {"errors": 1, "warnings": 0}
    (finding,) = payload["findings"]
    assert finding["rule"] == "SIM-H102"
    assert finding["path"] == "repro/core/bad.py"
    assert len(finding["fingerprint"]) == 20


def test_sarif_schema_sanity(tmp_path):
    rules = list(all_rules().values())
    log = json.loads(render_sarif(_report(tmp_path), rules))
    assert log["version"] == SARIF_VERSION
    assert log["$schema"].endswith("sarif-schema-2.1.0.json")

    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "simcheck"

    declared = {descriptor["id"] for descriptor in driver["rules"]}
    assert declared == set(all_rules())
    for descriptor in driver["rules"]:
        assert descriptor["shortDescription"]["text"]
        assert descriptor["defaultConfiguration"]["level"] in ("error", "warning")

    (result,) = run["results"]
    assert result["ruleId"] == "SIM-H102"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "repro/core/bad.py"
    assert location["region"]["startLine"] == 4
    # Every result's ruleId must be declared by the driver.
    assert result["ruleId"] in declared


def test_sarif_of_clean_report_has_no_results(tmp_path):
    report = analyze_snippet(
        tmp_path, "repro/core/ok.py", "class Machine:\n    pass\n", ["SIM-H102"]
    )
    log = json.loads(render_sarif(report, list(all_rules().values())))
    assert log["runs"][0]["results"] == []
