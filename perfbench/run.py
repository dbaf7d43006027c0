#!/usr/bin/env python3
"""The plactic benchmark.

    python3 perfbench/run.py --workload verify|export|queries|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every process is a fresh child started one
at a time (see child.py); this process only starts them and reports.

With --trace 0 it prints every end-to-end metric named in BENCHMARK.json:
set-up time (median over several fresh children that import `plactic.cli`
and build the inputs), then the figures of one untraced child that runs the
workload's cycles for S seconds.  With --trace 1 it runs a third of S
untraced, then the same cycles traced, and prints every per-layer metric.

Times are in nominal seconds (see probe.py); the wall-clock figure follows
each one.  The last line of output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it give each metric's
sample count, the workload's figures by command, the Python version, `nproc`
and the seed.  A results file with the same content goes to .perfbench_out/.

--workload all runs the three workloads in turn and reports their figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import probe_once, speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify", "export", "queries")
SETUPS = 5  # fresh children timed for setup_s
LIMIT_S = 170  # whole-run limit per workload


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn(mode, workload, seed, seconds, cycles, outdir, deadline):
    """Run one child to completion.

    Returns (set-up wall seconds, set-up nominal seconds, result or None).
    The machine's speed for the set-up comes from probes taken just before
    the child starts.
    """
    rate = speed([probe_once() for _ in range(10)])
    argv = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
            str(seconds), str(cycles), str(outdir)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} child for {workload} ran past the time limit")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or "ready" not in lines[0]:
        raise BenchError(f"{mode} child for {workload} failed with exit code {proc.returncode}")
    setup = lines[0]["ready"] - t0
    if mode == "setup":
        return setup, setup * rate, None
    if len(lines) < 2:
        raise BenchError(f"{mode} child for {workload} printed no result")
    return setup, setup * rate, lines[1]


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, setups, result):
    """BENCHMARK.json metrics and per-command figures of an untraced run, each as
    (nominal value, unit, samples, wall-clock value or None)."""
    records = result["records"]  # [cycle, kind, wall s, nominal s, bytes, error]
    cycles = result["cycles"]  # [wall s, nominal s]
    n = len(cycles)

    def entry(values, unit, pick, scale=1):
        """Pick from (wall, nominal) pairs."""
        return (scale * pick([v[1] for v in values]), unit, len(values),
                scale * pick([v[0] for v in values]))

    med = statistics.median
    p90 = lambda v: quantile(v, 0.9)  # noqa: E731
    cmds = [r[2:4] for r in records]
    metrics = {
        "setup_s": entry(setups, "s", med),
        "cycle_s": entry(cycles, "s", med),
        "p50_ms": entry(cmds, "ms", med, 1000),
        "p90_ms": entry(cmds, "ms", p90, 1000),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1, None),
        "output_bytes": (sum(r[4] for r in records) / n, "bytes", n, None),
    }

    def per_cycle(kind):
        sums = {}
        for r in records:
            if r[1] == kind:
                wall, nominal = sums.get(r[0], (0.0, 0.0))
                sums[r[0]] = (wall + r[2], nominal + r[3])
        return list(sums.values())

    figures = {"failed_ratio": (sum(1 for r in records if r[5]) / len(records), "ratio", len(records), None)}
    if workload == "verify":
        figures["verify_s"] = metrics["cycle_s"]
    elif workload == "export":
        figures["export_machines_s"] = entry(per_cycle("machines"), "s", med)
        figures["export_gsb_s"] = entry(per_cycle("gsb"), "s", med)
        figures["export_bytes"] = metrics["output_bytes"]
    else:
        for kind in ("tableau", "normalize", "multiply"):
            lat = [r[2:4] for r in records if r[1] == kind]
            figures[f"{kind}_p50_ms"] = entry(lat, "ms", med, 1000)
            figures[f"{kind}_p90_ms"] = entry(lat, "ms", p90, 1000)
        figures["queries_per_s"] = (len(records) / sum(c[1] for c in cycles), "1/s", len(records),
                                    len(records) / sum(c[0] for c in cycles))
    figures["setup_s"] = metrics["setup_s"]
    figures["peak_rss_mb"] = metrics["peak_rss_mb"]
    return metrics, figures


def run_workload(workload, seed, seconds, trace, units, outdir, deadline):
    """Returns (report lines, commands attempted, failures, metrics, figures)."""
    lines = []
    if not trace:
        setups = [spawn("setup", workload, seed, seconds, 0, outdir, deadline)[:2]
                  for _ in range(SETUPS - 1)]
        wall, nominal, result = spawn("run", workload, seed, seconds, 0, outdir, deadline)
        setups.append((wall, nominal))
        metrics, figures = end_to_end(workload, setups, result)
    else:
        _, _, plain = spawn("run", workload, seed, seconds / 3, 0, outdir, deadline)
        _, _, result = spawn("trace", workload, seed, seconds, len(plain["cycles"]), outdir, deadline)
        if result["idle"]:
            raise BenchError(f"traced {workload} run saw no calls in: {result['idle']}")
        traced = sum(c[1] for c in result["cycles"])
        overhead = traced / sum(c[1] for c in plain["cycles"]) - 1
        per_layer = {**result["per_layer"], "trace.overhead_ratio": overhead}
        n = len(result["cycles"])
        metrics = {k: (v, units.get(k), n, None) for k, v in per_layer.items()}
        figures = {}
        lines.append(f"# traced cycles: {n}, benchmark bookkeeping {result['bookkeeping_s']:.3f} s "
                     f"(probes and state counts, excluded from spans)")
        result["records"] += plain["records"]

    records = result["records"]
    failures = [r[5] for r in records if r[5]]
    lines.append(f"# workload {workload}: {len(records)} commands, {len(failures)} failed, "
                 f"{result['probes']} speed probes")
    for name, (value, unit, samples, wall) in {**metrics, **figures}.items():
        at_wall = "" if wall is None else f", wall clock {wall:.6g}"
        lines.append(f"# {name} = {value:.6g} {unit} (n={samples}{at_wall})")
    for problem in failures[:10]:
        lines.append(f"# FAILED: {problem}")
    return lines, len(records), failures, metrics, figures


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + LIMIT_S * len(workloads)

    root = Path.cwd()
    if not (root / "src" / "plactic" / "cli.py").is_file():
        raise BenchError("no src/plactic/cli.py under the current directory")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)

    header = (f"# python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed}, "
              f"seconds {args.seconds:g}, trace {args.trace}")
    print(header)
    attempted = failed = 0
    out_metrics = {}
    for wl in workloads:
        lines, n, failures, metrics, figures = run_workload(
            wl, args.seed, args.seconds, args.trace, units, outdir, deadline)
        print("\n".join(lines))
        attempted += n
        failed += len(failures)
        if args.workload == "all":
            out_metrics.update({f"{wl}.{k}": {"value": v[0], "unit": v[1]} for k, v in figures.items()})
            continue
        if set(metrics) != set(units):
            raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
        out_metrics = {k: {"value": v[0], "unit": units[k]} for k, v in metrics.items()}
        (outdir / f"result-{wl}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
            "python": platform.python_version(), "nproc": os.cpu_count(), "seed": args.seed,
            "workload": wl, "seconds": args.seconds, "trace": args.trace, "metrics": out_metrics,
            "figures": {k: {"value": v[0], "unit": v[1], "samples": v[2], "wall": v[3]}
                        for k, v in figures.items()},
            "failures": failures, "lines": lines,
        }, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
