"""The verification-matrix engine shared by chaos, degrade and adversary.

* Before==after goldens: ``tests/harness/golden/`` holds the stdout and
  the ``--report`` JSON of four small matrix runs, recorded before the
  three matrices were folded onto one engine.  Each run must reproduce
  both byte for byte.  Together they cover every label the ladder and
  the matrices hand out at these seeds: clean, masked, degraded and
  diagnosed (raised *and* oracle) chaos cells, a failed fault-free
  baseline, recovered and diagnosed degrade cells, and conforms /
  aborts-as-required adversary cells.
  Each golden is checked serially and fanned out over two workers.
* A matrix partition whose worker dies is retried, then fails the run
  with an error naming its backend.
* The ladder order, rung by rung, and the FAIL line of each CLI.
"""

import dataclasses
import os
import pathlib

import pytest

from repro.adversary.conformance import ScheduleCell
from repro.harness import adversary, chaos
from repro.harness.adversary import run_adversary_command
from repro.harness.chaos import CellResult, judge, run_chaos_command
from repro.harness.degrade import run_degrade_command

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: name -> (command, argv, exit status).
CASES = {
    "chaos_seed1": (run_chaos_command, [
        "--backends", "CGL,FlexTM,LogTM-SE", "--profiles", "signature,storm",
        "--seed", "1",
    ], 0),
    "chaos_baseline_seed16": (run_chaos_command, [
        "--backends", "RTM-F", "--profiles", "coherence", "--seed", "16",
    ], 1),
    "degrade_seed1": (run_degrade_command, [
        "--backends", "FlexTM,LogTM-SE", "--profiles", "sched,signature",
        "--seed", "1",
    ], 0),
    "adversary_seed1": (run_adversary_command, [
        "--backends", "FlexTM,TL2",
        "--schedules", "prog-wr-conflict,prog-read-read,zombie-probe",
        "--seed", "1",
    ], 0),
}


@pytest.mark.parametrize("name,jobs", [
    pytest.param(name, jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
    for name in sorted(CASES) for jobs in (1, 2)
])
def test_matrix_output_matches_golden(name, jobs, tmp_path, capsys):
    command, argv, status = CASES[name]
    report = tmp_path / "report.json"
    argv = argv + ["--jobs", str(jobs), "--quiet", "--report", str(report)]
    assert command(argv) == status
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def _crash_on_cgl(backend):
    if backend == "CGL":
        os._exit(3)
    return [backend]


def test_crashed_partition_fails_the_run_naming_its_backend():
    assert chaos.fan_out(_crash_on_cgl, ["FlexTM", "TL2"], jobs=2) == ["FlexTM", "TL2"]
    with pytest.raises(RuntimeError, match=r"^CGL partition failed \(crash\): "
                       r"worker died \(exit code 3\)$"):
        chaos.fan_out(_crash_on_cgl, ["FlexTM", "CGL"], jobs=2)


def test_goldens_cover_the_required_labels():
    text = {path.stem: path.read_text() for path in GOLDEN.glob("*.txt")}
    assert "diagnosed" in text["chaos_seed1"]
    assert "recovered" in text["degrade_seed1"]
    assert "aborts-as-required" in text["adversary_seed1"]


def _run(**overrides):
    run = {
        "commits": 8, "expected": 8, "error": "", "error_kind": "",
        "serializable": True, "violation": "", "opacity": "", "memory_ok": True,
    }
    run.update(overrides)
    return run


def test_ladder_order():
    # Every rung fires on its own ...
    rungs = [
        ("crash", dict(error="KeyError: 7", error_kind="crash")),
        ("diagnosed", dict(error="InvariantViolation: x", error_kind="repro")),
        ("wedged", dict(commits=5)),
        ("diagnosed", dict(serializable=False, violation="SerializabilityViolation: y")),
        ("diagnosed", dict(opacity="opacity: z")),
        ("silent-corruption", dict(memory_ok=False)),
    ]
    for label, fault in rungs:
        assert judge(_run(**fault))[0] == label
    assert judge(_run()) == ("", "")
    # ... and each one outranks every rung below it.
    for index, (label, fault) in enumerate(rungs):
        below = {}
        for _, lower in rungs[index + 1:]:
            below.update(lower)
        assert judge(_run(**{**below, **fault})) == judge(_run(**fault)), label


def test_empty_string_selection_fails_fast():
    with pytest.raises(SystemExit, match="no profiles selected"):
        run_chaos_command(["--profiles", "", "--quiet"])
    with pytest.raises(SystemExit, match="no schedules selected"):
        run_adversary_command(["--schedules", "", "--quiet"])


@pytest.mark.parametrize("cli,cell,fail_line", [
    (chaos.CLI,
     CellResult(backend="CGL", profile="sched", classification="wedged",
                injected={}, detail="3/8 commits at cycle budget"),
     "chaos: FAIL — CGL/sched: wedged\n"),
    (adversary.CLI,
     ScheduleCell(backend="CGL", schedule="zombie-probe", verdict="violates",
                  detail="opacity: torn snapshot"),
     "adversary: FAIL — CGL/zombie-probe: opacity: torn snapshot\n"),
])
def test_fail_line_names_each_failing_cell(cli, cell, fail_line, capsys):
    cli = dataclasses.replace(cli, run=lambda *args, **kwargs: [cell])
    args = cli.parser("", 1).parse_args(["--backend", "CGL", "--quiet"])
    assert cli.main(args, {}) == 1
    out = capsys.readouterr().out
    assert "<-- FAIL" in out
    assert out.endswith(fail_line)
