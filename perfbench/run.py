#!/usr/bin/env python3
"""Builds and runs the stairjoin end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-resident --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form configures and builds perfbench/ (the stairjoin library
from this checkout's src/ plus the sjbench program) into .bench_build/,
runs one workload, and passes sjbench's output through: a details line,
then the result line {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the spans of the traced window are written to
.bench_build/traces/<workload>.spans.jsonl.

--smoke runs every workload of BENCHMARK.json briefly, traced and
untraced, and checks that each run emits exactly the metrics
BENCHMARK.json names, with their units, and that every answer was checked.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR names the build directory when the caller sets it.
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds sjbench; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "api").is_dir():
        log(f"no stairjoin sources next to {HERE.name}/; nothing to build")
        return None
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(out), "--target", "sjbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return out / "sjbench"


def run_sjbench(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(traces / f"{workload}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def smoke(binary):
    """Short runs of every workload; checks the emitted metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_sjbench(binary, w["name"], 1, 2, trace)
            if code != 0 or len(lines) < 2:
                log(f"{w['name']} trace={trace}: exit {code}, no result")
                ok = False
                continue
            details = json.loads(lines[-2])["details"]
            result = json.loads(lines[-1])
            problems = []
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append("answers wrong or operations failed")
            if details["answers_checked"] != details["queries"]:
                problems.append("not every answer was checked")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: v.get("unit") for n, v in result.get("metrics", {}).items()}
            if want != got:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append(f"metrics: missing {missing} extra {extra} unit {wrong}")
            status = "ok" if not problems else "; ".join(problems)
            log(f"{w['name']} trace={trace}: {status} "
                f"({details['answers_checked']} answers checked)")
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check the metrics")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.smoke:
        return 0 if smoke(binary) else 1
    code, lines = run_sjbench(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
