"""The capacity sweep: deterministic fallback-ladder engagement."""

import json

import pytest

from repro.harness.capacity import (
    REPORT_SCHEMA,
    check_ladder,
    render_capacity,
    run_capacity_command,
    run_capacity_sweep,
)

# A fast two-point sweep straddling a write bound of 4 lines.
FAST = dict(threads=2, txns=2, read_lines=8, write_lines=4)


def test_ladder_engages_exactly_at_the_bound():
    below, above = run_capacity_sweep((3, 6), **FAST)
    assert below["aborts"] == 0
    assert below["fallback_rate"] == 0.0
    assert below["commits_by_path"]["htm"] == below["commits"] == 4
    assert above["aborts_by_kind"] == {"capacity": 4}  # one fastfail each
    assert above["fallback_rate"] == 1.0
    assert above["commits_by_path"]["htm"] == 0
    assert above["commits_by_path"]["sw"] == above["commits"] == 4
    assert check_ladder([below, above]) == []


def test_sweep_is_bit_identical_across_runs():
    first = run_capacity_sweep((3, 6), **FAST)
    second = run_capacity_sweep((3, 6), **FAST)
    assert first == second


def test_check_ladder_flags_misbehavior():
    rows = run_capacity_sweep((3, 6), **FAST)
    good = [dict(row) for row in rows]
    assert check_ladder(good) == []
    # A hardware commit above the bound is a ladder failure.
    bad = [dict(row) for row in rows]
    bad[1]["commits_by_path"] = dict(bad[1]["commits_by_path"], htm=1)
    assert any("hardware commit" in p for p in check_ladder(bad))
    # A capacity abort below the bound is one too.
    bad = [dict(row) for row in rows]
    bad[0]["aborts"] = 1
    assert any("below the capacity bound" in p for p in check_ladder(bad))
    # Non-capacity aborts never belong on disjoint working sets.
    bad = [dict(row) for row in rows]
    bad[1]["aborts_by_kind"] = {"htm-conflict": 2}
    assert any("non-capacity" in p for p in check_ladder(bad))


def test_render_mentions_every_path():
    table = render_capacity(run_capacity_sweep((3,), **FAST))
    assert "fb_rate" in table and "htm" in table and "irrev" in table


def test_command_end_to_end_with_report(tmp_path, capsys):
    out = tmp_path / "capacity.json"
    status = run_capacity_command([
        "--sizes", "3,6", "--threads", "2", "--txns", "2",
        "--read-lines", "8", "--write-lines", "4",
        "--json-out", str(out),
    ])
    assert status == 0
    assert "FAIL" not in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert document["schema"] == REPORT_SCHEMA == "repro.capacity/v1"
    assert document["ok"] is True
    assert document["problems"] == []
    assert [row["set_size"] for row in document["rows"]] == [3, 6]
    assert json.loads(json.dumps(document)) == document


def test_command_rejects_empty_sizes(capsys):
    with pytest.raises(SystemExit, match="no sizes"):
        run_capacity_command(["--sizes", ","])


def test_legacy_backend_reports_no_fallback_keys():
    # The escalations merge is additive: a backend without the
    # fallback ladder must not grow new keys (bit-identity for the six
    # pre-existing backends).
    from repro.harness.capacity import run_capacity_point

    row = run_capacity_point(3, backend_name="FlexTM", **FAST)
    assert not any(k.startswith("fallback_") for k in row["escalations"])
    assert row["commits_by_path"] == {"htm": 0, "sw": 0, "irrevocable": 0}
    assert row["fallback_rate"] == 0.0


def test_command_rejects_a_non_integer_size():
    with pytest.raises(SystemExit, match="'x'"):
        run_capacity_command(["--sizes", "2,x"])
