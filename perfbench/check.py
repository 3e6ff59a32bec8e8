#!/usr/bin/env python3
"""Steadiness and seed checks for the end-to-end benchmark.

    python3 perfbench/check.py spread --seeds 1-10 --sets 2 --out spread.json
    python3 perfbench/check.py seeds --seed 11

`spread` runs every workload once per seed (untraced), all workloads of a
set before the next set, and prints for every end-to-end metric the median
and the quartile distance as a share of the median next to the metric's
bound from BENCHMARK.json; from the second set on, also how much worse the
median got than the first set's. It fails when a shift of the median
exceeds the bound, or a spread does. The spread of setup_s is printed but
not failed, as in the acceptance rule this mirrors: a set-up of
microseconds (corpus: one directory made afresh) reads the file system's
state more than the program's. `--out` keeps every value.
`seeds` is the seed self-check: one seed run twice must reproduce the output
quality (final SSIM/MSE, Q-D-CNN waveform SSIM/MSE) exactly and generate
the same inputs; the next seed must generate other inputs.
Both exit nonzero when their check fails. Run from the checkout root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace=0):
    """(metadata, result) of one run; raises when the run fails."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds",
         str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["metadata"], json.loads(lines[-1])


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    metrics = SPEC["end_to_end"]
    values = [{w: {m["name"]: [] for m in metrics} for w in args.workloads}
              for _ in range(args.sets)]
    for per_set in values:
        for workload, series in per_set.items():
            for seed in seed_list(args.seeds):
                _, result = run(workload, seed)
                for name, vals in series.items():
                    vals.append(result["metrics"][name]["value"])
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))

    ok = True
    for workload in args.workloads:
        print(f"{workload} ({len(seed_list(args.seeds))} seeds per set)")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = statistics.median(values[0][workload][name])
            for k, per_set in enumerate(values):
                vals = per_set[workload][name]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                share = (q3 - q1) / med if med else float("inf")
                worse = (med - first if m["better"] == "lower"
                         else first - med) / first if first else float("inf")
                flag = ""
                if share > bound / 3:
                    flag = "  <-- spread above a third of the bound"
                if (share > bound and name != "setup_s") or worse > bound:
                    ok = False
                    flag = "  <-- ABOVE THE BOUND"
                print(f"  {name:18s} set {k + 1}  median {med:12.6g}  "
                      f"iqr/median {share:7.4f}  worse than set 1 "
                      f"{worse:+7.4f}  bound {bound:.2f}{flag}")
    return ok


def seeds(args):
    ok = True
    for workload in ("corpus", "train_vqc", "train_cnn", "serve"):
        meta_a, a = run(workload, args.seed)
        meta_b, b = run(workload, args.seed)
        meta_c, _ = run(workload, args.seed + 1)
        same = meta_a["quality"] == meta_b["quality"]
        same_inputs = meta_a["input_fingerprint"] == meta_b["input_fingerprint"]
        other = meta_a["input_fingerprint"] != meta_c["input_fingerprint"]
        print(f"{workload:10s} quality {meta_a['quality']} reproduced: {same}  "
              f"inputs reproduced: "
              f"{same_inputs}  next seed differs: {other}")
        ok = ok and same and same_inputs and other
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--out")
    p = sub.add_parser("seeds")
    p.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    sys.exit(0 if (spread if args.cmd == "spread" else seeds)(args) else 1)


if __name__ == "__main__":
    main()
