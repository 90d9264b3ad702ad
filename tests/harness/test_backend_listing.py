"""Backend discovery and fail-fast selection across the matrix CLIs.

Every matrix CLI (chaos, degrade, adversary) exposes the same
``--list-backends`` discovery listing and rejects unknown or empty
backend selections up front instead of silently running an empty
matrix.
"""

import pytest

from repro.harness.adversary import run_adversary_command
from repro.harness.chaos import (
    render_backend_list,
    resolve_backends,
    run_chaos_command,
)
from repro.harness.degrade import run_degrade_command
from repro.harness.runner import BACKEND_SUMMARIES, SYSTEMS

ALL_BACKENDS = (
    "CGL", "FlexTM", "RTM-F", "RSTM", "TL2", "LogTM-SE", "HTM-BE",
)


def test_summaries_cover_every_backend():
    assert set(BACKEND_SUMMARIES) == set(SYSTEMS) == set(ALL_BACKENDS)


def test_listing_names_every_backend():
    text = render_backend_list()
    for name in ALL_BACKENDS:
        assert name in text
    assert "fallback" in text  # HTM-BE's summary mentions the ladder


@pytest.mark.parametrize(
    "command", [run_chaos_command, run_degrade_command, run_adversary_command]
)
def test_list_backends_flag(command, capsys):
    assert command(["--list-backends"]) == 0
    stdout = capsys.readouterr().out
    for name in ALL_BACKENDS:
        assert name in stdout


#: (command, selection flag, a selection ending in junk, what it selects).
#: Backend cases keep the bare command as their id.
SELECTIONS = [
    pytest.param(command, "--backends", "HTM-BE,NoSuchTM", "backend",
                 id=command.__name__)
    for command in (run_chaos_command, run_degrade_command, run_adversary_command)
] + [
    pytest.param(run_chaos_command, "--profiles", "storm,earthquake", "profile",
                 id="run_chaos_command-profiles"),
    pytest.param(run_degrade_command, "--profiles", "storm,earthquake", "profile",
                 id="run_degrade_command-profiles"),
    pytest.param(run_adversary_command, "--schedules", "commit-duel,warp-duel",
                 "schedule", id="run_adversary_command-schedules"),
]


@pytest.mark.parametrize("command,flag,selection,what", SELECTIONS)
def test_unknown_backend_fails_fast(command, flag, selection, what):
    with pytest.raises(SystemExit, match=f"unknown {what}"):
        command([flag, selection, "--quiet"])


@pytest.mark.parametrize("command,flag,selection,what", SELECTIONS)
def test_empty_backend_selection_fails_fast(command, flag, selection, what):
    with pytest.raises(SystemExit, match=f"no {what}s selected"):
        command([flag, ",", "--quiet"])


def test_resolver_reports_the_valid_set():
    with pytest.raises(SystemExit, match="HTM-BE"):
        resolve_backends([])
