"""Exhaustive TMESI/CST model checker: HEAD is clean and deterministic."""

from __future__ import annotations

import pytest

from repro.analysis.modelcheck import (
    ProtocolSpec,
    UNDRIVEN_CELLS,
    annotate_trace,
    check,
    coverage_universe,
    findings_from,
    iter_model_rules,
)


def test_head_spec_is_clean_at_two_caches():
    result = check(caches=2)
    assert result.ok, [v.render_trace() for v in result.violations]
    assert result.violations == []
    assert result.dead_cells == []
    assert not result.truncated
    # Pinned so an accidental semantic change to the model (a lost
    # event kind, a silently-narrowed enabling condition) shows up as
    # a count drift even when every invariant still holds.
    assert (result.states, result.transitions, result.depth) == (360, 1816, 10)


def test_head_spec_is_clean_at_three_caches():
    # The CI gate configuration.
    result = check(caches=3)
    assert result.ok, [v.render_trace() for v in result.violations]
    assert (result.states, result.transitions) == (7206, 57660)


def test_exploration_is_deterministic():
    first = check(caches=2)
    second = check(caches=2)
    assert first.to_json() == second.to_json()


def test_dfs_agrees_with_bfs_on_the_state_space():
    bfs = check(caches=2, strategy="bfs")
    dfs = check(caches=2, strategy="dfs")
    assert bfs.states == dfs.states
    assert dfs.ok


def test_depth_bound_truncates_and_reports_it():
    result = check(caches=2, depth=3)
    assert result.truncated
    assert result.states < 360
    # A truncated run must not report dead cells as findings-worthy
    # silence: they are listed, the caller sees ``truncated`` and
    # knows coverage is partial.
    assert result.dead_cells != []


def test_parameter_validation():
    with pytest.raises(ValueError, match="caches"):
        check(caches=1)
    with pytest.raises(ValueError, match="caches"):
        check(caches=6)
    with pytest.raises(ValueError, match="strategy"):
        check(caches=2, strategy="random")


def test_coverage_universe_contains_every_dispatch_cell():
    spec = ProtocolSpec.from_tables()
    universe = set(coverage_universe(spec))
    assert "LOCAL_DISPATCH[TStore,I]" in universe
    assert "RESPONSE_TABLE[TGETX,wsig]" in universe
    assert "COMMIT_TRANSFORM[TMI]" in universe
    # The one legal-but-undrivable cell is exempted, not covered.
    assert UNDRIVEN_CELLS <= universe


def test_annotate_trace_resolves_issue_and_deliver():
    spec = ProtocolSpec.from_tables()
    trace = (("access", 0, "TStore"), ("deliver", 0, ""), ("commit", 0, ""))
    annotated = annotate_trace(spec, 2, trace)
    kinds = [event[0] for event in annotated]
    assert kinds == ["issue", "deliver", "commit"]
    assert annotated[1][2] == "TStore"  # deliver resolves its access kind


def test_model_rules_are_registered_with_modelcheck_scope():
    rules = list(iter_model_rules())
    names = [rule.name for rule in rules]
    assert names == sorted(names)
    assert names == [f"SIM-M40{i}" for i in range(1, 8)]
    for rule in rules:
        assert rule.scope == "modelcheck"
        assert rule.severity == "error"
        assert rule.description
        # Model rules are no-ops in AST runs: the program-level hook
        # only fires through findings_from().
        assert list(rule.check_program(None)) == []


def test_findings_from_anchor_into_the_spec_module(tmp_path):
    spec = ProtocolSpec.from_tables()
    # Corrupt one remote transition so a violation exists to render.
    mutated = dict(spec.remote_next_state)
    mutated[("GETX", "M")] = "M"
    result = check(spec=spec.replace(remote_next_state=mutated), caches=2)
    assert not result.ok

    findings = findings_from(result, tmp_path)  # no spec.py: line 1 anchors
    assert findings, "violations must surface as findings"
    for finding in findings:
        assert finding.rule.startswith("SIM-M4")
        assert finding.path == "src/repro/coherence/spec.py"
        assert "modelcheck(caches=2)" in finding.context


def test_clean_result_produces_no_findings(tmp_path):
    result = check(caches=2)
    assert findings_from(result, tmp_path) == []


def test_rtmf_plain_stores_in_transactions_never_touch_tracked_lines(monkeypatch):
    # The UNDRIVEN_CELLS premise: RTM-F's in-transaction plain stores
    # (header updates) hit lines that no transaction TLoads or TStores.
    from repro.core.machine import FlexTMMachine
    from repro.harness.runner import ExperimentConfig, run_experiment

    plain, tracked = set(), set()

    def recording(method, lines, in_transaction_only):
        real = getattr(FlexTMMachine, method)

        def wrapper(self, proc_id, address, *args):
            if not in_transaction_only or self.processors[proc_id].in_transaction:
                lines.add(self.amap.line_of(address))
            return real(self, proc_id, address, *args)

        monkeypatch.setattr(FlexTMMachine, method, wrapper)

    for method in ("store", "cas"):
        recording(method, plain, True)
    for method in ("tload", "tstore"):
        recording(method, tracked, False)
    result = run_experiment(ExperimentConfig(
        workload="HashTable", system="RTM-F", threads=4, cycle_limit=30_000, seed=1,
    ))
    assert result.commits > 0 and plain and tracked
    assert not plain & tracked
