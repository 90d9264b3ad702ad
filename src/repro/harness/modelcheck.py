"""The ``modelcheck`` subcommand: exhaustive TMESI/CST exploration.

Examples::

    python -m repro.harness modelcheck --caches 3
    python -m repro.harness modelcheck --caches 2 --format json
    python -m repro.harness modelcheck --export-schedules /tmp/cex
    python -m repro.harness modelcheck --format sarif --out mc.sarif

Explores every reachable interleaving of the protocol tables in
``repro.coherence.spec`` for one line across N caches, checks the
SIM-M401..407 invariant catalog, reports dead spec cells, and — when a
violation is found — lowers its minimal counterexample onto the real
simulator through the adversary bridge so the finding is classified
``confirmed`` (the implementation shares the hole) or ``spec-only``.
Exit status is 1 on any violation or dead cell, 0 otherwise.  See
docs/ANALYSIS.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.engine import AnalysisReport
from repro.analysis.modelcheck import check, findings_from, iter_model_rules
from repro.analysis.output import render_sarif
from repro.harness.analyze import _find_root, add_output_arguments, emit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness modelcheck",
        description="Exhaustively model-check the TMESI/CST protocol spec.",
    )
    parser.add_argument(
        "--caches",
        type=int,
        default=3,
        metavar="N",
        help="abstract caches sharing the line (default: 3)",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="D",
        help="bound exploration depth (default: exhaustive)",
    )
    parser.add_argument(
        "--strategy",
        choices=["bfs", "dfs"],
        default="bfs",
        help="bfs guarantees minimal counterexamples (default)",
    )
    add_output_arguments(parser)
    parser.add_argument(
        "--export-schedules",
        default=None,
        metavar="DIR",
        help="write each counterexample + its ScheduleScript into DIR "
        "as mc-sim-mNNN.json",
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="skip replaying counterexamples on the real simulator",
    )
    parser.add_argument(
        "--replay-backend",
        default="FlexTM",
        metavar="NAME",
        help="backend counterexamples replay on (default: FlexTM)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-run summary line (text format)",
    )
    return parser


def run_modelcheck_command(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = check(
            caches=args.caches, depth=args.depth, strategy=args.strategy
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    replays: List[Dict[str, object]] = []
    if result.violations and not args.no_replay:
        from repro.adversary.bridge import replay_violation

        for violation in result.violations:
            replays.append(
                replay_violation(violation, backend=args.replay_backend)
            )

    if args.export_schedules and result.violations:
        from repro.adversary.bridge import export_counterexample

        out_dir = Path(args.export_schedules)
        out_dir.mkdir(parents=True, exist_ok=True)
        for violation in result.violations:
            export_counterexample(
                violation, out_dir / f"mc-{violation.rule.lower()}.json"
            )

    root = _find_root(Path.cwd().resolve())
    if args.format == "json":
        doc = result.to_json()
        doc["replays"] = replays
        rendered = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif args.format == "sarif":
        report = AnalysisReport(findings=findings_from(result, root))
        rendered = render_sarif(report, list(iter_model_rules()))
    else:
        rendered = _render_text(result, replays, quiet=args.quiet)

    emit(args, rendered, f"modelcheck: wrote {args.format} report to {args.out} "
         f"({len(result.violations)} violation(s), {len(result.dead_cells)} dead cell(s))")

    return 0 if result.ok else 1


def _render_text(result, replays: List[Dict[str, object]], quiet: bool) -> str:
    lines: List[str] = []
    if not quiet:
        lines.append(
            f"modelcheck: caches={result.caches} strategy={result.strategy} "
            f"states={result.states} transitions={result.transitions} "
            f"depth={result.depth}"
            + (" (truncated)" if result.truncated else "")
        )
    by_rule = {replay["rule"]: replay for replay in replays}
    for violation in result.violations:
        lines.append(f"{violation.rule}: {violation.message}")
        if violation.trace:
            lines.append(f"  trace: {violation.render_trace()}")
        replay = by_rule.get(violation.rule)
        if replay is not None:
            detail = f" ({replay['detail']})" if replay["detail"] else ""
            lines.append(
                f"  replay[{replay['backend']}]: {replay['classification']}"
                f" — verdict {replay['verdict']}{detail}"
            )
    for cell in result.dead_cells:
        lines.append(f"dead cell: {cell} is unreachable from init")
    if result.ok and not quiet:
        lines.append(
            "modelcheck: all invariants hold, every spec cell reachable"
        )
    return "\n".join(lines) + "\n"
