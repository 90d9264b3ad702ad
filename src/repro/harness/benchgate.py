"""The ``BENCH_sweep.json`` wall-time document and its CI regression gate.

:func:`write_bench_json` renders a sweep's executor outcomes (per-point
wall time, totals, speedup vs. a serial estimate, host metadata) as the
``repro.bench_sweep/v1`` document; :func:`main` gates on it.

Usage::

    python -m repro.harness.benchgate BENCH_sweep.json \
        --baseline benchmarks/baselines/BENCH_sweep_baseline.json \
        --max-regression 2.0

Exit status is non-zero when

* the document fails the ``repro.bench_sweep/v1`` schema check,
* any point errored (``num_errors > 0``), or
* ``total_wall_time_s`` exceeds ``--max-regression`` times the
  baseline's total.

The baseline is a committed BENCH_sweep.json from a known-good run of
the same fixed sweep.  Wall-clock comparisons across heterogeneous
hosts are inherently noisy, which is why the gate only fails on a
coarse (default 2x) blow-up — it catches "the sweep got pathologically
slower", not single-digit-percent drift.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, Optional, Sequence

from repro.harness.parallel import Outcome

#: Schema identifier stamped into every BENCH_sweep.json document.
BENCH_SCHEMA = "repro.bench_sweep/v1"

#: Keys every BENCH_sweep.json document must carry.
BENCH_REQUIRED_KEYS = (
    "schema",
    "jobs",
    "num_points",
    "num_errors",
    "total_wall_time_s",
    "serial_estimate_s",
    "speedup_vs_serial_estimate",
    "points",
    "host",
)

#: Keys every per-point entry in BENCH_sweep.json must carry.
BENCH_POINT_KEYS = ("label", "ok", "status", "attempts", "wall_time_s")


def host_metadata() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def bench_payload(
    outcomes: Sequence[Outcome],
    jobs: int,
    total_wall_time: float,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Render outcomes as the ``BENCH_sweep.json`` document.

    ``serial_estimate_s`` sums per-point wall times — what the sweep
    would have cost on one core — so ``speedup_vs_serial_estimate``
    tracks the fan-out's real win on this host.
    """
    serial_estimate = sum(outcome.wall_time for outcome in outcomes)
    errors = [outcome for outcome in outcomes if not outcome.ok]
    document: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "jobs": jobs,
        "num_points": len(outcomes),
        "num_errors": len(errors),
        "total_wall_time_s": round(total_wall_time, 6),
        "serial_estimate_s": round(serial_estimate, 6),
        "speedup_vs_serial_estimate": round(
            serial_estimate / total_wall_time, 4
        ) if total_wall_time > 0 else 0.0,
        "points": [
            {
                "label": outcome.label,
                "ok": outcome.ok,
                "status": outcome.status,
                "attempts": outcome.attempts,
                "wall_time_s": round(outcome.wall_time, 6),
                **({"error": outcome.error} if outcome.error else {}),
            }
            for outcome in outcomes
        ],
        "host": host_metadata(),
    }
    if extra:
        document["sweep"] = extra
    return document


def write_bench_json(
    path: str,
    outcomes: Sequence[Outcome],
    jobs: int,
    total_wall_time: float,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            bench_payload(outcomes, jobs, total_wall_time, extra=extra),
            handle,
            indent=2,
            sort_keys=False,
        )
        handle.write("\n")


def validate_bench_payload(document: object) -> Optional[str]:
    """Schema check for BENCH_sweep.json; returns an error or None."""
    if not isinstance(document, dict):
        return "document is not a JSON object"
    if document.get("schema") != BENCH_SCHEMA:
        return f"schema is {document.get('schema')!r}, expected {BENCH_SCHEMA!r}"
    for key in BENCH_REQUIRED_KEYS:
        if key not in document:
            return f"missing key {key!r}"
    points = document["points"]
    if not isinstance(points, list):
        return "points is not a list"
    if len(points) != document["num_points"]:
        return "num_points does not match len(points)"
    for position, point in enumerate(points):
        if not isinstance(point, dict):
            return f"points[{position}] is not an object"
        for key in BENCH_POINT_KEYS:
            if key not in point:
                return f"points[{position}] missing key {key!r}"
    errors = sum(1 for point in points if not point["ok"])
    if errors != document["num_errors"]:
        return "num_errors does not match error points"
    return None


def _load(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"benchgate: cannot read {path}: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.benchgate",
        description="Fail CI when a BENCH_sweep.json shows errors or a "
        "wall-time regression against a committed baseline.",
    )
    parser.add_argument("bench", help="BENCH_sweep.json produced by this run")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline BENCH_sweep.json to compare totals against",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail when total wall time exceeds baseline * this factor "
        "(default 2.0)",
    )
    args = parser.parse_args(argv)

    document = _load(args.bench)
    error = validate_bench_payload(document)
    if error is not None:
        print(f"benchgate: FAIL — schema: {error}")
        return 1

    failures = []
    if document["num_errors"]:
        bad = [point for point in document["points"] if not point["ok"]]
        for point in bad:
            print(
                f"benchgate: errored point {point['label'] or '?'}: "
                f"{point['status']} {point.get('error', '')}".rstrip()
            )
        failures.append(f"{document['num_errors']} errored point(s)")

    total = document["total_wall_time_s"]
    if args.baseline:
        baseline = _load(args.baseline)
        baseline_error = validate_bench_payload(baseline)
        if baseline_error is not None:
            print(f"benchgate: FAIL — baseline schema: {baseline_error}")
            return 1
        budget = baseline["total_wall_time_s"] * args.max_regression
        print(
            f"benchgate: total {total:.2f}s vs baseline "
            f"{baseline['total_wall_time_s']:.2f}s "
            f"(budget {budget:.2f}s at {args.max_regression:g}x)"
        )
        if total > budget:
            failures.append(
                f"wall time {total:.2f}s exceeds {args.max_regression:g}x "
                f"baseline ({budget:.2f}s)"
            )

    if failures:
        print(f"benchgate: FAIL — {'; '.join(failures)}")
        return 1
    print(
        f"benchgate: OK — {document['num_points']} points, 0 errors, "
        f"{total:.2f}s total, speedup "
        f"{document['speedup_vs_serial_estimate']:.2f}x vs serial estimate"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
