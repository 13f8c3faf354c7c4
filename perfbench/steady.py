#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on each workload once per seed and
reports, for every metric, the median, the quartiles and the spread
(third minus first quartile, as a share of the median) across seeds.

    python3 perfbench/steady.py --seeds 1-10 --seconds 12 [--workloads a,b] [--trace 0]

Run it from the repository root after building the benchmark once
(`cargo build --release --manifest-path perfbench/Cargo.toml`). The runs
are sequential; each run's output is also appended, with its workload
and seed, as one JSON line to the file given by `--log`, if any.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = ["cargo", "run", "--quiet", "--release", "--offline",
         "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = BENCH + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return out.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=12)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workloads",
                   default="paper_sim,incast_sim,tcp_wide,chaos_fuzz")
    p.add_argument("--log")
    args = p.parse_args()
    summary, prints = {}, {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            stdout = run(workload, seed, args.seconds, args.trace)
            result = json.loads(stdout.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed,
                                          "result": result,
                                          "stdout": stdout}) + "\n")
            assert result["correct"] and result["failed"] == 0, result
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # The figures printed above the result line: "name value unit",
            # and the trace fingerprint.
            for line in stdout.splitlines()[:-1]:
                fields = line.split()
                if fields[:1] == ["fingerprint"]:
                    prints.setdefault(workload, {})[seed] = fields[1]
                elif len(fields) == 3 and fields[0] not in result["metrics"]:
                    values.setdefault(fields[0], []).append(float(fields[1]))
        summary[workload] = {}
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "n": len(xs)}
            print(f"{workload:<11} {name:<36} median {med:<14.6g} "
                  f"q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f}",
                  flush=True)
    for workload, by_seed in prints.items():
        print(workload, "fingerprints", json.dumps(by_seed))
    print(json.dumps({"summary": summary, "fingerprints": prints}))


if __name__ == "__main__":
    main()
