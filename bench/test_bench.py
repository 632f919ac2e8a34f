"""Tests of the benchmark's own arithmetic and process handling.

Run with ``python3 -m pytest bench``; they need neither numpy nor the
library, apart from the BENCHMARK.json check reading the repository root.
"""

import json
import os
import re
import sys
import types

import pytest

from harness import Loop, case_costs, closed_loop, end_to_end, loop_summary, run_probe
from spans import TRACED, Tracer, self_times
from stats import PER_LAYER, layer_metrics, percentile, rerun_check, spread

HERE = os.path.dirname(os.path.abspath(__file__))


def span(id, name, parent, start, end, case="setup", error=None, **attrs):
    return {"id": id, "name": name, "parent": parent, "case": case,
            "start": start, "end": end, "error": error, **attrs}


# ------------------------------------------------------------ percentiles


def test_percentile_interpolates_like_numpy_default():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([1.0, 2.0], 25) == pytest.approx(1.25)
    assert percentile([7.0], 90) == 7.0


def test_summary_counts_calls_above_the_reported_p90():
    loop = Loop(latencies=[i / 1e3 for i in range(1, 101)], refs=[1e-3] * 100,
                names=["a", "b"] * 50)
    p90 = end_to_end(loop, [0.0], 0.0)["latency_p90_ref"]
    assert p90 == pytest.approx(90.1)
    summary = loop_summary(loop, 2, p90)
    assert summary["calls_beyond_p90"] == 10
    assert summary["timed_calls"] == 100


def test_costs_are_ratios_to_the_paired_reference_and_cases_take_the_median():
    # the third repetition of each case ran on a host twice as slow, and the
    # reference around it took twice as long: its ratio is unchanged
    loop = Loop(latencies=[5.0, 2.0, 1.0, 8.0, 10.0, 4.0], refs=[1.0, 1.0, 1.0, 1.0, 2.0, 2.0],
                names=["a", "b"] * 3, cycles=3)
    assert case_costs(loop) == {"a": 5.0, "b": 2.0}
    metrics = end_to_end(loop, [0.0], 0.0)
    assert metrics["cases_per_kref"] == pytest.approx(1e3 * 2 / 7.0)
    # call costs 5, 2, 1, 8, 5, 2
    assert metrics["latency_p50_ref"] == pytest.approx(3.5)
    assert metrics["latency_p90_ref"] == pytest.approx(6.5)


# ------------------------------------------------------- self-time arithmetic


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 4.0),
        span(2, "b", 0, 3.0, 6.0),  # overlaps a: the union 1..6 is covered once
        span(3, "leaf", 1, 2.0, 3.0),
        span(4, "c", 0, 8.0, 12.0),  # runs past its parent: only 8..10 counts
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)


def test_layer_metrics_count_setup_once_and_average_loop_cycles():
    spans = [
        span(0, "gates.random_controlled_unitary", None, 0.0, 1.0),
        span(1, "factorizations.svd", 0, 0.2, 0.6, bytes_out=100),
        span(2, "control.is_controlled", None, 2.0, 3.0, case="loop:0:0"),
        span(3, "algebra.family_obstruction", 2, 2.1, 2.5, case="loop:0:0", pairs=6),
        span(4, "factorizations.svd", 2, 2.6, 2.8, case="loop:0:0", bytes_out=50),
        span(5, "control.is_controlled", None, 4.0, 5.0, case="loop:1:0"),
        span(6, "algebra.family_obstruction", 5, 4.1, 4.5, case="loop:1:0", pairs=6),
        span(7, "factorizations.svd", 5, 4.6, 4.8, case="loop:1:0", bytes_out=50),
        span(8, "control.is_bcu", None, 6.0, 7.0, case="probe:x", error="MemoryError"),
        span(9, "algebra.commutant_blocks", 8, 6.5, 7.0, case="probe:x", error="MemoryError"),
    ]
    m = layer_metrics(spans, cycles=2)
    assert set(m) == {name for name, _, _ in PER_LAYER} - {
        "failed_frac", "wrong_results", "trace.overhead_frac"}
    assert m["control.is_controlled.calls"] == 1.0
    assert m["control.is_controlled.self_s"] == pytest.approx(0.4)
    assert m["algebra.family_obstruction.pairs"] == 6.0
    assert m["factorizations.svd.calls"] == 2.0
    assert m["factorizations.svd.self_s"] == pytest.approx(0.4 + 0.2)
    assert m["factorizations.svd.bytes_out"] == 150.0
    # the setup svd's parent reads only singular values, the loop's does not
    assert m["factorizations.svd.values_only_frac"] == pytest.approx(0.5)
    assert m["gates.random_controlled_unitary.self_s"] == pytest.approx(0.6)
    # probe spans count only as failures
    assert m["control.is_bcu.calls"] == 0.0
    assert m["control.is_bcu.failed"] == 1.0
    assert m["algebra.commutant_blocks.failed"] == 1.0
    assert m["protocols.teleport_unitary_protocol.self_s"] == 0.0


# ----------------------------------------------------------- closed loop


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def fake_case(clock, name, cost, check_cost=0.0, fail=False):
    def call():
        clock.advance(cost)
        if fail:
            raise RuntimeError("boom")
        return name

    def check(result):
        clock.advance(check_cost)
        return None if result == name else "wrong"

    return types.SimpleNamespace(name=name, call=call, check=check)


def test_closed_loop_times_only_the_calls_in_whole_cycles():
    clock = FakeClock()
    cases = [fake_case(clock, "a", 1.0, check_cost=5.0), fake_case(clock, "b", 3.0)]
    loop = closed_loop(cases, seconds=10.0, clock=clock)
    # the first cycle takes 9 s (checks included), the second starts at 9 s
    assert loop.cycles == 2
    assert loop.latencies == [1.0, 3.0, 1.0, 3.0]
    assert loop.names == ["a", "b", "a", "b"]
    assert loop.wall == pytest.approx(18.0)
    metrics = end_to_end(loop, setup_samples=[2.0, 9.0, 3.0], peak_rss_mb=50.0)
    assert metrics["cases_per_kref"] == pytest.approx(1e3 * 2 / 4.0)
    assert metrics["latency_p50_ref"] == pytest.approx(2.0)
    assert metrics["setup_s"] == 3.0


def test_closed_loop_excludes_setup_and_probe_time():
    clock = FakeClock()
    clock.advance(100.0)  # set-up before the loop
    cases = [fake_case(clock, "a", 2.0)]
    loop = closed_loop(cases, seconds=5.0, clock=clock)
    clock.advance(1000.0)  # probes after the loop
    metrics = end_to_end(loop, setup_samples=[100.0], peak_rss_mb=1.0)
    assert loop.cycles == 3
    assert metrics["cases_per_kref"] == pytest.approx(1e3 / 2.0)
    assert metrics["latency_p90_ref"] == pytest.approx(2.0)


def test_closed_loop_pairs_each_call_with_the_faster_reference_around_it():
    clock = FakeClock()
    ref_costs = iter([2.0, 1.0, 3.0, 4.0, 1.5])

    def reference():
        clock.advance(next(ref_costs))

    cases = [fake_case(clock, "a", 6.0), fake_case(clock, "b", 8.0)]
    loop = closed_loop(cases, seconds=0.0, reference=reference, clock=clock, min_calls=4)
    # reference samples 2 | a | 1 | b | 3 | a | 4 | b | 1.5
    assert loop.latencies == [6.0, 8.0, 6.0, 8.0]
    assert loop.refs == [1.0, 1.0, 3.0, 1.5]
    assert case_costs(loop) == {"a": 4.0, "b": pytest.approx((8.0 + 8.0 / 1.5) / 2)}


def test_closed_loop_keeps_cycling_to_the_call_minimum_and_records_failures():
    clock = FakeClock()
    cases = [fake_case(clock, "ok", 1.0), fake_case(clock, "bad", 1.0, fail=True)]
    loop = closed_loop(cases, seconds=0.0, clock=clock, min_calls=7)
    assert loop.cycles == 4
    assert loop.attempted == 8
    assert len(loop.failures) == 4
    assert loop.latencies == [1.0] * 4


def test_closed_loop_continues_an_earlier_loop_one_cycle_at_a_time():
    clock = FakeClock()
    cases = [fake_case(clock, "a", 1.0)]
    loop = closed_loop(cases, 0.0, clock=clock, max_cycles=1)
    loop = closed_loop(cases, 0.0, clock=clock, loop=loop, max_cycles=1)
    assert isinstance(loop, Loop)
    assert loop.cycles == 2
    assert loop.wall == pytest.approx(2.0)


# -------------------------------------------------------------- rerun check

BOUNDS = {"setup_s": (0.25, "lower"), "cases_per_s": (0.1, "higher"),
          "latency_p50_ms": (0.1, "lower")}


def runs(center, jitter):
    return [center * (1 + jitter * k) for k in (-2, -1, 0, 1, 2, -2, -1, 0, 1, 2)]


def test_rerun_check_accepts_two_agreeing_sets():
    first = {"setup_s": runs(1.0, 0.01), "cases_per_s": runs(50.0, 0.005),
             "latency_p50_ms": runs(4.0, 0.01)}
    second = {"setup_s": runs(1.02, 0.01), "cases_per_s": runs(49.0, 0.005),
              "latency_p50_ms": runs(4.1, 0.01)}
    assert spread(first["latency_p50_ms"]) < 0.1
    assert rerun_check(first, second, BOUNDS) == []


def test_rerun_check_flags_drift_and_spread_but_not_setup_spread():
    first = {"setup_s": runs(1.0, 0.2), "cases_per_s": runs(50.0, 0.005),
             "latency_p50_ms": runs(4.0, 0.01)}
    second = {"setup_s": runs(1.0, 0.2), "cases_per_s": runs(40.0, 0.005),
              "latency_p50_ms": runs(4.0, 0.2)}
    problems = rerun_check(first, second, BOUNDS)
    assert any(p.startswith("cases_per_s: second median worse") for p in problems)
    assert any(p.startswith("latency_p50_ms: second set spread") for p in problems)
    assert not any(p.startswith("setup_s") for p in problems)


# ------------------------------------------------------------ probe child


def probe_cmd(body):
    return [sys.executable, "-c", "import json, time\nprint('ready', flush=True)\n" + body]


def test_probe_over_budget_is_killed_and_reported():
    result = run_probe(probe_cmd("time.sleep(30)"), dict(os.environ), budget_s=0.3)
    assert result["outcome"] == "budget"
    assert 0.3 <= result["seconds"] < 10.0


def test_probe_memory_error_is_reported_as_such():
    body = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
        "try:\n"
        "    block = bytearray(2 ** 31)\n"
        "    print(json.dumps({'outcome': 'ok'}))\n"
        "except MemoryError:\n"
        "    print(json.dumps({'outcome': 'MemoryError'}))\n"
    )
    result = run_probe(probe_cmd(body), dict(os.environ), budget_s=30.0)
    assert result["outcome"] == "MemoryError"


def test_probe_that_dies_before_ready_is_a_crash():
    result = run_probe([sys.executable, "-c", "raise SystemExit(3)"], dict(os.environ), 1.0)
    assert result["outcome"] == "crashed"


# ---------------------------------------------------------------- tracer


def fake_package(monkeypatch):
    pkg = types.ModuleType("fakelab")
    fact = types.ModuleType("fakelab.factorizations")

    def svd(m):
        part = memoryview(bytes(len(m)))
        return (part, part, part)

    fact.svd = svd
    user = types.ModuleType("fakelab.schmidt")
    user.svd = svd  # what ``from .factorizations import svd`` leaves behind

    def schmidt_rank(m):
        return types.SimpleNamespace(rank=len(user.svd(m)[1]))

    user.schmidt_rank = schmidt_rank
    for name, module in (("fakelab", pkg), ("fakelab.factorizations", fact),
                         ("fakelab.schmidt", user)):
        monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setitem(TRACED, "factorizations", ("svd",))
    monkeypatch.setitem(TRACED, "schmidt", ("schmidt_rank",))
    return fact, user, svd


def test_tracer_rebinds_imported_names_and_uninstalls(monkeypatch):
    fact, user, svd = fake_package(monkeypatch)
    tracer = Tracer(clock=iter(range(100)).__next__)
    tracer.install("fakelab")
    assert user.svd is not svd and fact.svd is user.svd
    user.schmidt_rank([1, 2])
    with tracer.paused():
        fact.svd([3])
    tracer.uninstall()
    assert user.svd is svd and fact.svd is svd
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("schmidt.schmidt_rank", None), ("factorizations.svd", 0)]
    assert tracer.spans[0]["rank"] == 2
    assert tracer.spans[1]["bytes_out"] == 6


# ---------------------------------------------------------- BENCHMARK.json

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_format_and_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    assert set(config) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in config["workloads"]] == ["low-rank", "full-rank", "protocols", "cli"]
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    names += [w["name"] for w in config["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in config["workloads"])
    for metric in config["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in config["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == list(PER_LAYER)
    assert 1 <= config["run_seconds"] <= 60
