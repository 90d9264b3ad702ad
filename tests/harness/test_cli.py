"""The `python -m repro.harness` command-line interface."""

import pytest

from repro.harness.__main__ import main


def test_table2_cli(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Merom" in out and "Niagara-2" in out


def test_table4_cli(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "BC-BO" in out and "Discover" in out


def test_figure4_cli_with_small_budget(capsys):
    assert main(["figure4", "--cycles", "20000", "--threads", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "HashTable" in out and "Vacation-High" in out


def test_bad_artifact_rejected():
    with pytest.raises(SystemExit):
        main(["figure9"])


def test_thread_list_parsing():
    from repro.harness.__main__ import _thread_list

    assert _thread_list("1,4,16") == (1, 4, 16)


def test_sweep_cli_parallel_csv_and_bench(tmp_path, capsys):
    import json

    from repro.harness.sweep import ROW_FIELDS
    from repro.harness.benchgate import validate_bench_payload

    csv_path = tmp_path / "sweep.csv"
    bench_path = tmp_path / "BENCH_sweep.json"
    code = main(
        [
            "sweep",
            "--workloads", "hashtable",
            "--systems", "flextm,cgl",
            "--threads", "1,2",
            "--cycles", "10000",
            "--jobs", "2",
            "--quiet",
            "--csv-out", str(csv_path),
            "--bench-out", str(bench_path),
            "--trace-out", str(tmp_path / "traces"),
            "--metrics-out", str(tmp_path / "metrics"),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(ROW_FIELDS)
    assert len(lines) == 5  # header + 4 points
    assert all(",ok," in line for line in lines[1:])
    document = json.loads(bench_path.read_text())
    assert validate_bench_payload(document) is None
    assert document["num_points"] == 4
    # Both observers armed on every point: one trace and one metrics
    # artifact per point, under the same name.
    traces = sorted(path.name for path in (tmp_path / "traces").iterdir())
    assert len(traces) == 4
    assert traces == sorted(path.name for path in (tmp_path / "metrics").iterdir())


def test_sweep_cli_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["sweep", "--workloads", "nope"])


@pytest.mark.parametrize("flag", ["--threads", "--seeds"])
def test_sweep_cli_rejects_a_non_integer_list_entry(flag):
    with pytest.raises(SystemExit, match=f"'x' in {flag}"):
        main(["sweep", "--workloads", "HashTable", flag, "2,x"])


@pytest.mark.parametrize("flag", ["--threads", "--seeds"])
def test_sweep_cli_rejects_an_empty_integer_list(flag):
    # An empty list must not run a zero-point sweep that "passes".
    with pytest.raises(SystemExit, match=f"no {flag[2:]} selected"):
        main(["sweep", "--workloads", "HashTable", flag, ""])


def test_artifact_jobs_flag(capsys):
    assert main(["conflicts", "--cycles", "10000", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "Conflicting transactions" in out
