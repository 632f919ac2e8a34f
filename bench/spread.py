"""Run the benchmark over several seeds and check it against its own bounds.

Usage (from the root of a checkout):

    python3 bench/spread.py --workloads low-rank,cli --seeds 1-10 --save bench/out/set1.json
    python3 bench/spread.py --workloads low-rank,cli --seeds 1-10 --compare bench/out/set1.json

For each workload and end-to-end metric it prints the median and the
spread (interquartile distance over the median) of the runs. A metric fails
when its spread exceeds its bound in BENCHMARK.json (``setup_s`` exempt);
with ``--compare`` it also fails when this set's median is worse than the
saved set's by more than the bound. The exit code is 1 on any failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import rerun_check, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(config, workload, seed):
    cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(config["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed: {done.stderr.strip()[-800:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--save", default=None, help="write the values to this JSON file")
    parser.add_argument("--compare", default=None, help="JSON file saved by an earlier set")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in config["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as handle:
            earlier = json.load(handle)

    values = {}
    problems = []
    for workload in workloads:
        runs = [run_once(config, workload, seed) for seed in seeds_of(args.seeds)]
        values[workload] = {name: [run[name] for run in runs] for name in bounds}
        for name, (bound, _) in bounds.items():
            vals = values[workload][name]
            s = spread(vals)
            flag = "" if name == "setup_s" or s <= bound else "  SPREAD OVER BOUND"
            print(f"{workload:10s} {name:15s} median {statistics.median(vals):12.5g} "
                  f"spread {s:6.3f} bound {bound}{flag}", flush=True)
            if flag:
                problems.append(f"{workload} {name}: spread {s:.3f} > {bound}")
        if workload in earlier:
            problems += [f"{workload} {p}" for p in rerun_check(earlier[workload], values[workload], bounds)]
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(values, handle, indent=1)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
