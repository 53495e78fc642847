#!/usr/bin/env python3
"""Build and run the repository benchmark (see coinbench/README.md).

One workload, one run; the last stdout line is the JSON result:

    python3 coinbench/run.py --workload mint_wide --seed 1 --seconds 20 --trace 0

Every workload, end-to-end and per-layer, over several seeds, printed as a
table of medians and quartiles with host facts and gate results (exits
nonzero if any run fails a correctness gate):

    python3 coinbench/run.py --report [--seeds 3] [--seconds 20]

The benchmark is compiled from the checkout's sources into
.bench_build/coinbench on first use; later runs only re-check the build.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "coinbench"
BUILD = ROOT / ".bench_build" / "coinbench"
BINARY = BUILD / "coinbench"
WORKLOADS = ["mint_wide", "draw_stream", "tcp_mint"]
RUN_TIMEOUT_S = 170


def build():
    """Configure and build; build output goes to stderr."""
    if not (ROOT / "src" / "net" / "cluster.h").is_file():
        sys.exit(f"coinbench: no library sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=840)
        if done.returncode != 0:
            sys.exit(f"coinbench: build step failed: {' '.join(cmd)}")


def run_binary(workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, [f"# coinbench: timed out after {RUN_TIMEOUT_S} s"]
    return done.returncode, done.stdout.splitlines()


def report(seeds, seconds):
    ok = True
    host = None
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            values = {}
            units = {}
            counts = []
            for seed in range(1, seeds + 1):
                code, lines = run_binary(workload, seed, seconds, trace)
                for line in lines:
                    if line.startswith("# host") and host is None:
                        host = line[2:]
                    if line.startswith("# gate FAIL") or line.startswith(
                            "# error:"):
                        print(f"{workload} trace={trace} seed={seed}: "
                              f"{line[2:]}")
                result = json.loads(lines[-1]) if lines and lines[
                    -1].startswith("{") else None
                if code != 0 or result is None or not result["correct"]:
                    ok = False
                    print(f"{workload} trace={trace} seed={seed}: FAILED "
                          f"(exit {code})")
                    continue
                counts.append((result["attempted"], result["failed"]))
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            for name, vals in values.items():
                rows.append((workload, trace, name, units[name], vals, counts))
    print(f"# {host}")
    print(f"# {seeds} seed(s) per row, {seconds} s per run; "
          "median [q1, q3] over seeds; spread = (q3 - q1) / median")
    print(f"{'workload':12} {'metric':34} {'unit':8} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'ops/run':>9} failed")
    for workload, trace, name, unit, vals, counts in rows:
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else 0.0
        ops = statistics.median(c[0] for c in counts)
        failed = sum(c[1] for c in counts)
        print(f"{workload:12} {name:34} {unit:8} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:7.3f} {ops:9.0f} {failed}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload is required unless --report is given")
    build()
    if args.report:
        return report(args.seeds, args.seconds)
    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if not lines or not lines[-1].startswith("{"):
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
