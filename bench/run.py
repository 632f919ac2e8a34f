"""Benchmark of schmidt-lab: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload low-rank --seed 1 --seconds 15 --trace 0

Workloads: low-rank, full-rank, protocols, cli (README.md in this directory
says why each exists). The run imports the library from ``src/``, builds
the workload's instances from the seed, warms up, and replays the fixed
case list in a closed loop (one client, one call at a time) for at least
``--seconds``. Every result is checked against the truth its instance was
built with. With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` half the time runs untraced and half with spans
around the library's public functions, and the last line holds the
per-layer metrics. The line before it is the full record, which is also
written under ``bench/out/`` with the spans of a traced run.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

NPROC = len(os.sched_getaffinity(0))
# the run, its reference kernel and every child it starts share one core, so
# that a slowdown of that core shows in the calls and the reference alike
CPU = max(os.sched_getaffinity(0))
# one BLAS thread: on a small shared host a second thread mostly waits for a
# core another tenant holds, which widens run-to-run spread without speed-up
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed in this process and in this many more fresh processes
SETUP_CHILDREN = 2
# cap probes: the fastest fails after about 3 s at the parent commit and the
# slowest runs for 103 s, so a 1 s budget fails all of them the same way on
# every run; the address-space limit keeps a probe from exhausting memory
PROBE_BUDGET_S = 1.0
PROBE_ADDRESS_SPACE = 3 * 2 ** 30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("low-rank", "full-rank", "protocols", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh process / run one cap probe
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "cpu": CPU,
        "probe_address_space_bytes": PROBE_ADDRESS_SPACE,
        "probe_budget_s": PROBE_BUDGET_S,
    }


class Bench:
    """One run: set-up, timed loop, untimed failing operations, metrics."""

    def __init__(self, args):
        self.args = args
        self.workdir = None
        self.tracer = None
        self.cli = None

    def build(self):
        import workloads

        if self.args.workload != "cli":
            return workloads.BUILDERS[self.args.workload](self.args.seed)
        from harness import CliRunner

        if self.workdir is None:
            os.makedirs(OUT, exist_ok=True)
            self.workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
        self.cli = CliRunner(self.workdir, child_env(), tracer=self.tracer)
        return workloads.cli_workload(self.args.seed, self.workdir, self.cli)

    def set_traced(self, on):
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        if self.cli is not None:
            self.cli.tracer = self.tracer if on else None

    def warm_up(self, workload):
        from workloads import reference

        for case in workload.warmup:
            case.call()
        for _ in range(10):
            reference()

    def setup_in_children(self):
        a = self.args
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--setup-only"]
        samples = []
        for _ in range(SETUP_CHILDREN):
            done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=150)
            if done.returncode != 0:
                raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
            samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        return samples

    def probes(self, workload):
        from harness import run_probe

        results = []
        for index, probe in enumerate(workload.probes):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--seconds", "0", "--probe", probe.name]
            spans_path = None
            if self.tracer is not None:
                spans_path = os.path.join(OUT, f"probe-{os.getpid()}-{index}.json")
                cmd += ["--spans-out", spans_path]
            result = run_probe(cmd, child_env(), PROBE_BUDGET_S)
            result["name"] = probe.name
            results.append(result)
            if self.tracer is not None:
                case = f"probe:{probe.name}"
                if os.path.exists(spans_path):
                    with open(spans_path, encoding="utf-8") as handle:
                        self.tracer.merge(json.load(handle), case)
                    os.remove(spans_path)
                elif result["outcome"] != "ok":
                    self.tracer.add_failure(probe.function, case, result["outcome"], 0.0,
                                            result["seconds"])
        return results

    def run(self):
        from harness import case_costs, closed_loop, end_to_end, loop_summary
        from spans import Tracer
        from stats import layer_metrics
        from workloads import reference

        a = self.args
        workload = self.build()
        self.warm_up(workload)
        setup_s = time.perf_counter() - START
        if a.setup_only:
            return {"setup_s": setup_s}, None

        record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
                  "environment": environment()}
        if a.trace:
            self.tracer = Tracer()
            self.set_traced(True)
            self.tracer.case = "setup"
            workload = self.build()
            self.tracer.case = "warmup"
            self.warm_up(workload)
            self.set_traced(False)
            # alternate untraced and traced cycles, swapping which goes first
            # in every pair, so that neither drift over the run nor the first
            # cycle of a pair running slower reads as tracing overhead
            untraced = loop = None
            start = time.perf_counter()
            pairs = 0
            while pairs < 2 or time.perf_counter() - start < a.seconds:
                for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
                    self.set_traced(traced)
                    if traced:
                        loop = closed_loop(workload.cases, 0, reference, tracer=self.tracer, loop=loop,
                                           max_cycles=1)
                    else:
                        untraced = closed_loop(workload.cases, 0, reference, loop=untraced,
                                               max_cycles=1)
                pairs += 1
            self.set_traced(False)
        else:
            setup_samples = [setup_s] + self.setup_in_children()
            loop = closed_loop(workload.cases, a.seconds, reference, min_calls=workload.min_calls)
        untimed = closed_loop(workload.untimed, 0, max_cycles=1)
        if self.cli is not None:
            peak_rss_mb = self.cli.peak_rss_mb
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        probes = self.probes(workload)
        sweep = {"attempted": 0, "failed": 0, "wrong": [], "errors": []}
        if workload.sweep is not None:
            if self.tracer is not None:
                self.tracer.case = "probe:sweep"
                self.set_traced(True)
            sweep = workload.sweep()
            if self.tracer is not None:
                self.set_traced(False)

        probe_failed = sum(p["outcome"] not in ("ok", "wrong") for p in probes)
        wrong = loop.wrong + untimed.wrong + sweep["wrong"] + [
            f"probe {p['name']}: {p['detail']}" for p in probes if p["outcome"] == "wrong"
        ]
        attempted = loop.attempted + untimed.attempted + len(probes) + sweep["attempted"]
        failed = len(loop.failures) + len(untimed.failures) + probe_failed + sweep["failed"]
        if a.trace:
            metrics = layer_metrics(
                self.tracer.spans, loop.cycles,
                cli_imports=self.cli.import_s if self.cli else (),
                cli_processes=self.cli.process_s if self.cli else (),
            )
            metrics["failed_frac"] = failed / attempted
            metrics["wrong_results"] = float(len(wrong))
            traced_s, untraced_s = (sum(case_costs(lp).values()) for lp in (loop, untraced))
            metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
            spans_file = os.path.join(OUT, f"spans-{a.workload}-{a.seed}.jsonl")
            os.makedirs(OUT, exist_ok=True)
            self.tracer.dump(spans_file)
            record.update(untraced_cycles=untraced.cycles,
                          spans_file=os.path.relpath(spans_file, ROOT))
        else:
            metrics = end_to_end(loop, setup_samples, peak_rss_mb)
            record["setup_samples"] = setup_samples
        record.update(loop_summary(loop, len(workload.cases), metrics.get("latency_p90_ref")))
        record.update({
            "attempted_with_probes": attempted,
            "failed_with_probes": failed,
            "failed_frac": failed / attempted,
            "wrong_results": len(wrong),
            "wrong": wrong[:20],
            "failures": (loop.failures + untimed.failures)[:20],
            "untimed_ms": dict(zip(untimed.names, (1e3 * t for t in untimed.latencies))),
            "probes": probes,
            "sweep": sweep,
            "metrics": metrics,
        })
        final = {
            "correct": not wrong,
            "attempted": loop.attempted + untimed.attempted,
            "failed": len(loop.failures) + len(untimed.failures),
            "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
        }
        return record, final

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def unit_of(name):
    from stats import PER_LAYER_UNITS

    return {"setup_s": "s", "cases_per_kref": "1/kref", "latency_p50_ref": "ref",
            "latency_p90_ref": "ref", "peak_rss_mb": "MB"}.get(name) or PER_LAYER_UNITS[name]


def probe_main(args):
    """Child side of a cap probe: limit memory, build, say ready, call."""
    import workloads

    call, check = workloads.probe_call(args.probe, args.seed)
    tracer = None
    if args.spans_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.case = "probe"
    print("ready", flush=True)
    try:
        problem = check(call())
        result = {"outcome": "wrong" if problem else "ok", "detail": problem or ""}
    except MemoryError:
        result = {"outcome": "MemoryError", "detail": ""}
    if tracer is not None:
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    print(json.dumps(result), flush=True)


def main(argv=None):
    args = parse_args(argv)
    os.sched_setaffinity(0, {CPU})
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "schmidt_lab", "__init__.py")):
        sys.exit(f"bench: library sources not found under {SRC}; run from a full checkout")
    if args.probe:
        resource.setrlimit(resource.RLIMIT_AS, (PROBE_ADDRESS_SPACE, PROBE_ADDRESS_SPACE))
    sys.path.insert(0, SRC)
    import schmidt_lab

    if not os.path.abspath(schmidt_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported schmidt_lab from {schmidt_lab.__file__}, not from {SRC}")
    if args.probe:
        probe_main(args)
        return
    bench = Bench(args)
    try:
        record, final = bench.run()
    finally:
        bench.close()
    if final is None:
        print(json.dumps(record))
        return
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(final))


if __name__ == "__main__":
    main()
