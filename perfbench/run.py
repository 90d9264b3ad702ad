"""FlexTM simulator benchmark: host speed per workload, per-layer host time.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-16t --seed 1 --seconds 20 --trace 0

One run executes one workload's batch of simulation points (see
``batches.py``) serially in this process, pass after pass, until
``--seconds`` have elapsed.  Every pass must reproduce the first pass's
fingerprints exactly.  A calibration probe (``calibration.py``) runs
before the first pass and after each pass; every host time is rescaled
by the mean of the two probes around it to the reference host.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it spends a third of the time on untraced passes and the
rest on traced passes (``spans.py``), and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
are a readable summary and one ``detail`` JSON line.  Exit status: 0 when
every output is correct, 1 when a check failed, 2 when the simulator
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import batches
import calibration
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Share of a traced run's time spent on untraced passes (the rest is traced).
UNTRACED_SHARE = 1 / 3
IMPORT_SAMPLES = 5

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro.harness.runner, repro.harness.chaos\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Median time to import the simulator in a fresh interpreter, each
    sample rescaled to the reference host by the probes around it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = calibration.probe()
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=str(HERE.parent),
            capture_output=True, text=True, check=True, timeout=120,
        )
        after = calibration.probe()
        seconds = float(done.stdout.strip().splitlines()[-1])
        samples.append(seconds * calibration.REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def tail(samples: List[float]) -> Tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, or the
    median when there are fewer than 20 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 20:
        return f"p{100 * (n - 10) // n}", ordered[n - 11]
    return "p50", statistics.median(ordered)


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Measurement:
    """Everything one run saw; turns it into metrics.

    Each pass carries ``scale``: reference kernel time over this host's
    kernel time around the pass.  Host seconds times ``scale`` are
    reference-host seconds.
    """

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.reference = None
        self.untraced: List = []
        self.traced: List = []
        self.probes: List[float] = []
        #: Span name -> calls / self_ns / inclusive_ns; times rescaled.
        self.layer_totals: Dict[str, Dict[str, float]] = {}
        self.span_counts: Dict[str, int] = {}
        self.outside_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, result) -> None:
        """Count the pass's cells and fail every cell whose fingerprint
        differs from the first pass's or whose checks failed."""
        self.attempted += result.cells
        self.failed += result.failed
        self.problems.extend(result.problems)
        if self.reference is None:
            self.reference = result
            return
        mismatched = [
            index for index, (a, b) in enumerate(zip(self.reference.fingerprints,
                                                    result.fingerprints))
            if a != b
        ]
        mismatched += range(len(result.fingerprints), len(self.reference.fingerprints))
        self.failed += len(mismatched)
        for index in mismatched[:3]:
            self.problems.append(f"fingerprint changed at cell {index}")

    def _pass(self, log=None):
        result = batches.run_pass(self.workload, self.seed, self.tiny, log=log)
        self.probes.append(calibration.probe())
        result.scale = calibration.REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)
        self.check(result)
        return result

    def run(self, seconds: float, trace: bool) -> None:
        self.probes.append(calibration.probe())
        budget = seconds * UNTRACED_SHARE if trace else seconds
        begin = time.perf_counter()
        while not self.untraced or time.perf_counter() - begin < budget:
            self.untraced.append(self._pass())
        if not trace:
            return
        log = None
        while not self.traced or time.perf_counter() - begin < seconds:
            log = spans.SpanLog()
            result = self._pass(log)
            self.traced.append(result)
            for name, totals in log.layer_totals().items():
                into = self.layer_totals.setdefault(name, dict.fromkeys(totals, 0))
                into["calls"] += totals["calls"]
                into["self_ns"] += totals["self_ns"] * result.scale
                into["inclusive_ns"] += totals["inclusive_ns"] * result.scale
            for key, value in log.counts.items():
                self.span_counts[key] = self.span_counts.get(key, 0) + value
            self.outside_s += (result.wall_s - log.root_ns() / 1e9) * result.scale
        OUT.mkdir(exist_ok=True)
        log.write(str(OUT / f"{self.workload}.spans.jsonl.gz"))

    # ------------------------------------------------------------ end to end

    def end_to_end(self, import_s: float) -> Dict[str, Dict[str, object]]:
        median = statistics.median
        passes = self.untraced
        return {
            "sim_kcycles_per_s": _metric(
                median(p.processor_cycles / (p.wall_s * p.scale) / 1e3 for p in passes),
                "kcycles/s"),
            "mem_ops_per_s": _metric(
                median(p.mem_ops / (p.wall_s * p.scale) for p in passes), "ops/s"),
            "cells_per_s": _metric(
                median(p.cells / (p.wall_s * p.scale) for p in passes), "cells/s"),
            "wall_s": _metric(median(p.wall_s * p.scale for p in passes), "s"),
            "setup_s": _metric(import_s + median(p.setup_s * p.scale for p in passes), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    # ------------------------------------------------------------- per layer

    def _layer(self, layer: str, key: str = "self_ns") -> float:
        """Per traced pass: ``key`` summed over the layer's span names."""
        return sum(t[key] for name, t in self.layer_totals.items()
                   if name.split("/")[0] == layer) / len(self.traced)

    def _self_s(self, layer: str) -> float:
        return self._layer(layer) / 1e9

    def _calls(self, name: str) -> float:
        return self.layer_totals.get(name, {}).get("calls", 0) / len(self.traced)

    def _count(self, key: str) -> float:
        return self.span_counts.get(key, 0) / len(self.traced)

    def cell_seconds(self) -> List[float]:
        """Per point or matrix cell, from the untraced passes."""
        return [s * p.scale for p in self.untraced for s in p.cell_seconds]

    def per_layer(self) -> Dict[str, Dict[str, object]]:
        ref = self.reference
        stats = ref.stats
        metrics: Dict[str, Dict[str, object]] = {}

        def put(name: str, value: float, unit: str) -> None:
            metrics[name] = _metric(value, unit)

        sched_self = self._self_s("runtime.scheduler")
        steps = self._count("runtime.scheduler.steps")
        put("runtime.scheduler.self_s", sched_self, "s")
        put("runtime.scheduler.steps", steps, "count")
        put("runtime.scheduler.ns_per_step", _ratio(sched_self * 1e9, steps), "ns")
        for layer in ("runtime.txthread", "workloads", "runtime.flextm", "stm"):
            put(f"{layer}.self_s", self._self_s(layer), "s")
        put("tx.commits", ref.commits, "count")
        put("tx.aborts", ref.aborts, "count")
        put("tx.commit_ratio", _ratio(ref.commits, ref.commits + ref.aborts), "ratio")

        ops = self._layer("core.machine", "calls")
        put("core.machine.self_s", self._self_s("core.machine"), "s")
        put("core.machine.ops", ops, "count")
        put("core.machine.ns_per_op",
            _ratio(self._layer("core.machine", "inclusive_ns"), ops), "ns")

        put("coherence.l1.self_s", self._self_s("coherence.l1"), "s")
        put("coherence.l1.accesses", self._calls("coherence.l1/access"), "count")
        put("coherence.l1.hit_ratio",
            1 - _ratio(stats.get("l1.misses", 0), ref.mem_ops), "ratio")

        put("coherence.directory.self_s", self._self_s("coherence.directory"), "s")
        put("coherence.directory.requests", self._calls("coherence.directory/request"), "count")
        put("coherence.directory.forwards",
            self._calls("coherence.directory/handle_forwarded"), "count")

        swept = self._count("memory.cache.flash_lines_swept")
        put("memory.cache.self_s", self._self_s("memory.cache"), "s")
        put("memory.cache.flash_sweeps", self._count("memory.cache.flash_sweeps"), "count")
        put("memory.cache.flash_lines_swept", swept, "count")
        put("memory.cache.flash_useful_ratio",
            _ratio(self._count("memory.cache.flash_lines_changed"), swept), "ratio")

        probes = self._calls("signatures/member")
        put("signatures.self_s", self._self_s("signatures"), "s")
        put("signatures.inserts", self._calls("signatures/insert"), "count")
        put("signatures.probes", probes, "count")
        put("signatures.probe_hit_ratio",
            _ratio(self._count("signatures.probe_hits"), probes), "ratio")

        put("core.virt.self_s", self._self_s("core.virt"), "s")
        for key in ("ctxsw.switches", "summary.traps", "ot.spills"):
            put(key, stats.get(key, 0), "count")

        for layer in ("chaos.invariants", "chaos.watchdog", "obs.metrics", "verify.oracle",
                      "verify.recorder"):
            put(f"{layer}.self_s", self._self_s(layer), "s")
        put("harness.self_s",
            self.outside_s / len(self.traced) + self._self_s("harness.cell"), "s")
        cells = self.cell_seconds()
        put("harness.cell_s.median", statistics.median(cells), "s")
        put("harness.cell_s.tail", tail(cells)[1], "s")
        put("trace.overhead_ratio",
            statistics.median(p.wall_s * p.scale for p in self.traced)
            / statistics.median(p.wall_s * p.scale for p in self.untraced), "ratio")
        return metrics


def render(m: Measurement, metrics, loc: int, trace: bool) -> str:
    """The readable summary and the detail JSON line."""
    walls = [p.wall_s * p.scale for p in m.untraced]
    wall_label, wall_tail = tail(walls)
    cell_label, _ = tail(m.cell_seconds())
    lines = [f"perfbench {m.workload} seed={m.seed} trace={int(trace)}"]
    for label, counts in (m.traced[-1].point_counts if m.traced else {}).items():
        lines.append(f"  point {label}: "
                     f"flash_sweeps={counts.get('memory.cache.flash_sweeps', 0)} "
                     f"lines_swept={counts.get('memory.cache.flash_lines_swept', 0)}")
    lines.append(f"  fingerprint sha256:{m.reference.digest}  ({m.reference.cells} cells)")
    lines.append(f"  wall_s median {statistics.median(walls):.4f} s over {len(walls)} passes,"
                 f" {wall_label} {wall_tail:.4f} s (reference-host seconds)")
    for name, entry in metrics.items():
        lines.append(f"  {name:<36} {entry['value']:.6g} {entry['unit']}")
    fail_ratio = m.failed / m.attempted
    lines.append(f"  fail_ratio {fail_ratio:.4g} ({m.failed}/{m.attempted})")
    for problem in m.problems[:10]:
        lines.append(f"  FAIL {problem}")
    detail = {
        "workload": m.workload,
        "seed": m.seed,
        "fingerprint_sha256": m.reference.digest,
        "passes": {"untraced": len(m.untraced), "traced": len(m.traced)},
        "wall_s": {"median": statistics.median(walls), "samples": len(walls),
                   wall_label: wall_tail,
                   "raw_median": statistics.median(p.wall_s for p in m.untraced)},
        "cell_s": {"samples": len(m.cell_seconds()), "tail_percentile": cell_label},
        "fail_ratio": fail_ratio,
        "calibration_ms": statistics.median(m.probes) * 1e3,
        "src_lines": loc,
    }
    lines.append("detail " + json.dumps(detail, sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=batches.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    loc = src_lines()
    import_s = import_seconds()
    measurement = Measurement(args.workload, args.seed)
    measurement.run(args.seconds, bool(args.trace))
    metrics = measurement.per_layer() if args.trace else measurement.end_to_end(import_s)
    print(render(measurement, metrics, loc, bool(args.trace)))
    print(json.dumps({
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }))
    return 0 if measurement.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
