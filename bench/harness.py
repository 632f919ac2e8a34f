"""Closed-loop timing, end-to-end metrics and the child processes the
benchmark starts (cold CLI runs and budget-bounded cap probes).

Only the standard library is imported here, so the arithmetic can be
tested without the library under test.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from stats import percentile


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    # per timed call: the faster of the reference samples just before and
    # just after it
    refs: list = field(default_factory=list)
    names: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    cycles: int = 0
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + len(self.failures)


def closed_loop(cases, seconds, reference=None, tracer=None, clock=time.perf_counter,
                min_calls=0, loop=None, max_cycles=None):
    """One client, one call at a time, whole cycles of the case list.

    A new cycle starts while less than ``seconds`` has passed or fewer than
    ``min_calls`` calls were timed, so every run holds each case equally
    often. ``max_cycles`` stops the run early and ``loop`` continues an
    earlier one, which is how a traced run alternates traced and untraced
    cycles. Only the call itself is timed; the benchmark's check of its
    result runs outside the timed region and, in a traced run, records no
    spans. A call that raises is a failed operation and leaves no latency
    sample. With a ``reference`` function, it is timed before the first call
    and after every call, and each latency is paired with the faster of the
    two reference samples around it.
    """
    def time_reference():
        if reference is None:
            return 1.0
        t = clock()
        reference()
        return clock() - t

    loop = Loop() if loop is None else loop
    first = loop.cycles
    start = clock()
    before = time_reference()
    while loop.cycles == first or clock() - start < seconds or loop.attempted < min_calls:
        if max_cycles is not None and loop.cycles - first >= max_cycles:
            break
        for index, case in enumerate(cases):
            if tracer is not None:
                tracer.case = f"loop:{loop.cycles}:{index}"
            t = clock()
            try:
                result = case.call()
            except Exception as exc:  # a failing call is recorded, not fatal
                loop.failures.append(f"{case.name}: {type(exc).__name__}: {exc}")
                before = time_reference()
                continue
            loop.latencies.append(clock() - t)
            after = time_reference()
            loop.refs.append(min(before, after))
            before = after
            loop.names.append(case.name)
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                problem = case.check(result)
            if problem:
                loop.wrong.append(f"{case.name}: {problem}")
        loop.cycles += 1
    loop.wall += clock() - start
    return loop


def call_costs(loop: Loop) -> list:
    """Each timed call's cost: its latency in units of the paired reference.

    Other tenants of a small shared host slow everything that runs, the
    library and the reference alike, by up to a factor of two and for
    anything from a second to the whole run. The ratio cancels most of that.
    """
    return [latency / ref for latency, ref in zip(loop.latencies, loop.refs)]


def case_costs(loop: Loop) -> dict:
    """Each case's median call cost; the median drops single spikes."""
    per_case = {}
    for name, cost in zip(loop.names, call_costs(loop)):
        per_case.setdefault(name, []).append(cost)
    return {name: statistics.median(costs) for name, costs in per_case.items()}


def end_to_end(loop: Loop, setup_samples, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one run, from its timed loop and set-ups.

    Latencies are percentiles over every timed call's cost; whole cycles
    hold each case equally often. Throughput is the number of cases per
    thousand reference units of one cycle at each case's median cost.
    """
    costs = call_costs(loop)
    cycle = sum(case_costs(loop).values())
    return {
        "setup_s": statistics.median(setup_samples),
        "cases_per_kref": 1e3 * len(set(loop.names)) / cycle,
        "latency_p50_ref": percentile(costs, 50),
        "latency_p90_ref": percentile(costs, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def loop_summary(loop: Loop, cases_per_cycle: int, p90_ref: float | None = None) -> dict:
    per_case = {}
    for name, latency in zip(loop.names, loop.latencies):
        per_case.setdefault(name, []).append(1e3 * latency)
    costs = case_costs(loop)
    summary = {
        "case_cost_ref": costs,
        "case_best_ms": {name: min(v) for name, v in per_case.items()},
        "case_median_ms": {name: statistics.median(v) for name, v in per_case.items()},
        "reference_ms": {"min": 1e3 * min(loop.refs), "median": 1e3 * statistics.median(loop.refs)},
        "cases_per_cycle": cases_per_cycle,
        "cycles": loop.cycles,
        "timed_calls": len(loop.latencies),
        "loop_wall_s": loop.wall,
    }
    if p90_ref is not None:
        summary["calls_beyond_p90"] = sum(1 for c in call_costs(loop) if c > p90_ref)
    return summary


def wait_child(proc, deadline=None):
    """Reap ``proc`` and return (exit code, max RSS in MB, timed out).

    With a ``deadline`` on the ``time.monotonic`` clock the child is killed
    once it passes; either way the child has ended when this returns.
    """
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, 0 if deadline is None else os.WNOHANG)
        if pid:
            break
        if time.monotonic() >= deadline:
            proc.send_signal(signal.SIGKILL)
            timed_out = True
            deadline = None
            continue
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, timed_out


class CliRunner:
    """Runs one cold ``python -m schmidt_lab.cli`` process per call.

    In a traced run the process runs ``cli_traced.py`` instead, which
    records spans around the same library calls and reports its import
    time; the spans join the parent's tracer under the current case id.
    """

    def __init__(self, workdir, env, tracer=None, timeout_s=120.0):
        self.workdir = workdir
        self.env = env
        self.tracer = tracer
        self.timeout_s = timeout_s
        self.peak_rss_mb = 0.0
        self.process_s = []
        self.import_s = []
        self._count = 0

    def __call__(self, argv):
        self._count += 1
        out_path = os.path.join(self.workdir, "stdout.txt")
        spans_path = os.path.join(self.workdir, f"spans-{self._count}.json")
        here = os.path.dirname(os.path.abspath(__file__))
        if self.tracer is None:
            cmd = [sys.executable, "-m", "schmidt_lab.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(here, "cli_traced.py"), spans_path, *argv]
        start = time.perf_counter()
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                                    cwd=self.workdir, env=self.env)
            try:
                code, rss, timed_out = wait_child(proc, time.monotonic() + self.timeout_s)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        elapsed = time.perf_counter() - start
        if timed_out:
            raise TimeoutError(f"CLI call exceeded {self.timeout_s} s")
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        if self.tracer is not None:
            with open(spans_path, encoding="utf-8") as handle:
                record = json.load(handle)
            os.remove(spans_path)
            self.tracer.merge(record["spans"], self.tracer.case)
            self.import_s.append(record["import_s"])
            self.process_s.append(elapsed)
        return code, stdout.decode("utf-8")


def run_probe(cmd, env, budget_s, ready_timeout_s=120.0):
    """Run one cap probe in a child and classify how it ended.

    The child sets its own address-space limit, builds the instance, prints
    ``ready`` and makes the call; the wall-time budget starts at ``ready``.
    Returns a dict with ``outcome`` (``ok``, ``wrong``, ``MemoryError``,
    ``budget`` or ``crashed``), the call's seconds and the child's max RSS.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, text=True)
    try:
        ready = proc.stdout.readline().strip()
        if ready != "ready":
            code, rss, _ = wait_child(proc, time.monotonic() + ready_timeout_s)
            return {"outcome": "crashed", "seconds": 0.0, "rss_mb": rss, "detail": f"exit {code}"}
        start = time.monotonic()
        code, rss, timed_out = wait_child(proc, start + budget_s)
        seconds = time.monotonic() - start
        if timed_out:
            return {"outcome": "budget", "seconds": seconds, "rss_mb": rss, "detail": ""}
        lines = proc.stdout.read().strip().splitlines()
        if code != 0 or not lines:
            return {"outcome": "crashed", "seconds": seconds, "rss_mb": rss, "detail": f"exit {code}"}
        result = json.loads(lines[-1])
        result.update(seconds=seconds, rss_mb=rss)
        return result
    finally:
        if proc.returncode is None:
            proc.kill()
            wait_child(proc)
        proc.stdout.close()
