#!/usr/bin/env python3
"""QuGeo end-to-end benchmark: build the program, run one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
QuGeo libraries and the driver (Release) under .bench_build/perfbench;
later runs rebuild incrementally. The training workloads first fill the
corpus cache of their seed (a separate process, not timed). The driver's
stdout is passed through, except its last line, the result object, which
is checked against BENCHMARK.json and completed from it before printing.
Exits nonzero, printing no result, when the build or the run fails, and
nonzero after the result when an output check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cmake" / "qugeo_perfbench"
WORK = BUILD / "work"
WORKLOADS = ("corpus", "train_vqc", "train_cnn", "serve")
NEEDS_CORPUS = ("train_vqc", "train_cnn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The environment without QUGEO_* variables, so no CI leg leaks in."""
    return {k: v for k, v in os.environ.items() if not k.startswith("QUGEO_")}


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no QuGeo sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "cmake" / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD / "cmake"),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD / "cmake"), "-j", jobs()])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed")


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", HERE):
        files += sorted(p for p in base.rglob("*")
                        if p.is_file() and p.suffix in (".h", ".cpp", ".txt"))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def complete(line, trace):
    """The result line checked against BENCHMARK.json, the only list of
    metrics: an untraced run must report every end-to-end metric, a traced
    run any subset of the per-layer ones (the rest, layers the workload does
    not run, read 0). Unknown names and wrong units are errors."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name, metric in got.items():
        if want.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not in BENCHMARK.json")
    missing = sorted(set(want) - set(got))
    if missing and not trace:
        fail(f"end-to-end metrics missing: {missing}")
    result["metrics"] = {name: got.get(name, {"value": 0, "unit": unit})
                         for name, unit in want.items()}
    return result


def run(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    common = [str(BINARY), "--seed", str(args.seed), "--work-dir", str(WORK)]
    if args.workload in NEEDS_CORPUS:
        filled = run(common + ["--fill-corpus"])
        if filled.returncode != 0:
            fail("corpus cache fill failed")
    proc = run(common + [
        "--workload", args.workload, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--git-sha", git_sha(),
        "--source-digest", source_digest()])
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} run failed (exit {proc.returncode})")
    result = complete(lines[-1], bool(args.trace))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
