"""One benchmark process: set up a workload, then optionally measure it.

Usage: child.py MODE WORKLOAD SEED SECONDS CYCLES OUTDIR

MODE is `setup` (import and input generation only), `run` (untraced cycles
for SECONDS, at least one) or `trace` (exactly CYCLES traced cycles).  The
process prints one JSON line when set-up is done and one with its results,
and nothing else: command output is captured in memory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

from probe import Probe

ROOT = Path(__file__).resolve().parent.parent


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_command(cli, cmd):
    """One CLI invocation; returns (start, end, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising command counts as failed; keep measuring
        code = None
        error = "raised " + "".join(traceback.format_exception_only(exc)).strip()
    t1 = time.perf_counter()
    if code != 0 and error is None:
        error = f"exit code {code}: {err.getvalue().strip()[:200]}"
    return t0, t1, out.getvalue(), error


def main():
    mode, workload, seed, seconds, cycles, outdir = sys.argv[1:7]
    seed, seconds, cycles = int(seed), float(seconds), int(cycles)
    sys.path.insert(0, str(ROOT / "src"))
    import plactic.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"plactic imported from {cli.__file__}, not from this checkout")
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=outdir) as workdir:
        wl = WORKLOADS[workload](seed, Path(workdir))
        emit({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)})
        if mode == "setup":
            return

        tracer = on_probe = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer(f"{workload}-seed{seed}")
            tracer.install()
            on_probe = tracer.exclude

        records = []  # [cycle, kind, start, end, bytes written, error]
        pending = []  # (record index, command, stdout) awaiting the check
        cycles_at = []  # (start, end) of each cycle
        with Probe(on_probe) as probe:
            begin = time.perf_counter()
            i = 0
            while mode != "trace" or i < cycles:
                if mode == "run" and i:
                    last = cycles_at[-1][1] - cycles_at[-1][0]
                    if time.perf_counter() - begin + 0.5 * last > seconds:
                        break
                gc.collect()
                cmds = wl.cycle(i)
                c0 = time.perf_counter()
                with tracer.span("bench.cycle") if tracer else contextlib.nullcontext():
                    for cmd in cmds:
                        t0, t1, stdout, error = run_command(cli, cmd)
                        written = len(stdout.encode()) + sum(
                            f.stat().st_size if f.is_file() else sum(p.stat().st_size for p in f.iterdir())
                            for f in cmd.files if f.exists()
                        )
                        records.append([i, cmd.kind, t0, t1, written, error])
                        if error is None:
                            pending.append((len(records) - 1, cmd, stdout))
                cycles_at.append((c0, time.perf_counter()))
                i += 1

            for index, cmd, stdout in pending:
                records[index][5] = wl.check(cmd, stdout)

        result = {
            # per cycle and per command: [wall seconds, nominal seconds]
            "cycles": [[b - a, probe.normalized(a, b)] for a, b in cycles_at],
            "records": [[c, kind, b - a, probe.normalized(a, b), n, err]
                        for c, kind, a, b, n, err in records],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "probes": len(probe.costs),
        }
        if tracer:
            wall = sum(w - probe.spent(a, b) for (a, b), (w, _) in zip(cycles_at, result["cycles"]))
            nominal = sum(n for _, n in result["cycles"])
            result["per_layer"] = tracer.per_layer(len(cycles_at), nominal / wall)
            result["idle"] = tracer.idle(wl.layers, wl.counted)
            result["bookkeeping_s"] = tracer.counts["bookkeeping_s"]
            tracer.write(Path(outdir) / f"trace-{workload}-seed{seed}.jsonl")
        emit(result)


if __name__ == "__main__":
    main()
