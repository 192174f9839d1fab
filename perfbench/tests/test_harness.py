"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import os
import sys
import threading
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402
from spans import SpanRecorder, install, subtract  # noqa: E402
from stats import nearest_rank, percentiles  # noqa: E402

from repro.serve.loadtest import DEFAULT_MIX  # noqa: E402

DOMAINS = [f"d{i}.example" for i in range(500)]
IPS = [f"10.0.{i // 256}.{i % 256}" for i in range(300)]


# -- load plan ----------------------------------------------------------------


def test_load_plan_is_a_pure_function_of_the_seed():
    first = serve_load.build_load_plan(7, 2000, DOMAINS, IPS, DEFAULT_MIX)
    again = serve_load.build_load_plan(7, 2000, DOMAINS, IPS, DEFAULT_MIX)
    other = serve_load.build_load_plan(8, 2000, DOMAINS, IPS, DEFAULT_MIX)
    assert first == again
    assert first != other


def test_load_plan_never_repeats_a_probe_target():
    plan = serve_load.build_load_plan(7, 2000, DOMAINS, IPS, DEFAULT_MIX)
    for method in serve_load.PROBE_METHODS:
        targets = [payload["target"] for m, payload in plan if m == method]
        assert targets, method
        assert len(targets) == len(set(targets)), method


def test_load_plan_follows_the_default_mix():
    plan = serve_load.build_load_plan(3, 4000, DOMAINS * 10, IPS, DEFAULT_MIX)
    for method, weight in DEFAULT_MIX:
        share = sum(1 for m, _ in plan if m == method) / len(plan)
        assert abs(share - weight) < 0.03, method


def test_load_plan_refuses_to_reuse_an_exhausted_pool():
    with pytest.raises(ValueError):
        serve_load.build_load_plan(7, 2000, DOMAINS, IPS[:3], DEFAULT_MIX)


# -- percentiles --------------------------------------------------------------


def test_percentiles_report_their_sample_counts():
    summary = percentiles([float(v) for v in range(1, 101)])
    assert summary == {"count": 100, "p50": 50.0, "p99": 99.0}
    assert percentiles([]) == {"count": 0}


def test_nearest_rank_is_exact():
    assert nearest_rank([3.0], 0.99) == 3.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert nearest_rank(list(range(1000)), 0.99) == 989


# -- spans --------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_child_spans_on_a_synthetic_tree():
    tick = FakeClock()
    rec = SpanRecorder(clock=tick, sampled=("leaf",))
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9] > leaf [6, 8]
    for at, action in [
        (0, "root"), (1, "a"), (2, "leaf"), (3, None), (4, None),
        (5, "b"), (6, "leaf"), (8, None), (9, None), (10, None),
    ]:
        tick.now = float(at)
        rec.enter(action) if action else rec.exit()
    spans = rec.snapshot()["spans"]
    assert spans["root"]["self_s"] == 3.0 and spans["root"]["total_s"] == 10.0
    assert spans["a"]["self_s"] == 2.0
    assert spans["b"]["self_s"] == 2.0
    assert spans["leaf"]["self_s"] == 3.0 and spans["leaf"]["count"] == 2
    assert spans["leaf"]["samples"] == [1.0, 2.0]
    assert sum(s["self_s"] for s in spans.values()) == spans["root"]["total_s"]


def test_spans_on_different_threads_do_not_nest():
    tick = FakeClock()
    rec = SpanRecorder(clock=tick)
    rec.enter("outer")
    tick.now = 1.0

    def other():
        rec.enter("inner")
        tick.now = 3.0
        rec.exit()

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    tick.now = 4.0
    rec.exit()
    spans = rec.snapshot()["spans"]
    assert spans["outer"]["self_s"] == 4.0
    assert spans["inner"]["self_s"] == 2.0


def test_subtract_isolates_a_window():
    tick = FakeClock()
    rec = SpanRecorder(clock=tick, sampled=("x",))
    rec.enter("x"); tick.now = 1.0; rec.exit()
    before = rec.snapshot()
    rec.enter("x"); tick.now = 4.0; rec.exit()
    window = subtract(rec.snapshot(), before)["spans"]["x"]
    assert window["count"] == 1 and window["total_s"] == 3.0 and window["samples"] == [3.0]


def test_install_wraps_and_uninstall_restores():
    module = types.ModuleType("_perfbench_fake")

    class Layer:
        def work(self, n):
            return n * 2

    module.Layer = Layer
    sys.modules[module.__name__] = module
    try:
        original = Layer.__dict__["work"]
        rec = SpanRecorder()
        hook = lambda args, result: {"doubled": result}  # noqa: E731
        uninstall = install(rec, ((module.__name__, "Layer.work", "fake.work", hook),))
        assert Layer().work(21) == 42
        snap = rec.snapshot()
        assert snap["spans"]["fake.work"]["count"] == 1
        assert snap["counters"] == {"doubled": 42}
        uninstall()
        assert Layer.__dict__["work"] is original
    finally:
        del sys.modules[module.__name__]


# -- correctness accounting ---------------------------------------------------


def _census_body(target):
    return {"v": 1, "domain": target, "initial_status": "vulnerable"}


def test_a_forced_mismatch_is_a_failed_op():
    phase = serve_load.Phase("closed")
    good = serve_load.response_error("spf_census_row", {"target": "a.example"}, 200, _census_body("a.example"), 1)
    forced = serve_load.response_error("spf_census_row", {"target": "a.example"}, 200, _census_body("b.example"), 1)
    assert good is None and forced is not None
    phase.record(1.0, 200, good)
    phase.record(1.0, 200, forced)
    phase.record(1.0, 429, serve_load.response_error("check_mta", {"target": "x"}, 429, {}, 1))
    assert phase.sent == 3 and phase.failed == 2


def test_a_probe_result_must_round_trip():
    body = {
        "v": 1, "kind": "check_mta", "target": "10.0.0.1", "status": "vulnerable",
        "vulnerable": True,
        "ips": [{"ip": "10.0.0.1", "outcome": "vulnerable", "vulnerable": True,
                 "behaviors": [], "method": None, "queries_observed": 0, "suite": ""}],
    }
    payload = {"target": "10.0.0.1"}
    assert serve_load.response_error("check_mta", payload, 200, body, 1) is None
    assert serve_load.response_error("check_mta", payload, 200, dict(body, extra=1), 1)
    assert serve_load.response_error("check_mta", payload, 200, dict(body, v=2), 1)


def test_units_of_one_world_with_different_digests_all_fail():
    agree = [{"ops": 10, "errors": [], "digest": "aa"}, {"ops": 20, "errors": [], "digest": "aa"}]
    run.check_digests(agree)
    assert run.failed_ops(agree) == 0
    differ = [{"ops": 10, "errors": [], "digest": "aa"}, {"ops": 20, "errors": [], "digest": "bb"}]
    run.check_digests(differ)
    assert run.failed_ops(differ) == 30


def test_batch_units_with_errors_count_every_op_as_failed():
    units = [
        {"ops": 100, "errors": []},
        {"ops": 120, "errors": ["digest mismatch"]},
    ]
    assert run.failed_ops(units) == 120


# -- the declared benchmark ---------------------------------------------------


def test_the_result_line_reports_exactly_the_declared_metrics():
    declared = {"wall_s": "s", "ops_per_s": "1/s"}
    assert metrics.with_units({"wall_s": 1.5, "ops_per_s": 2.0}, declared) == {
        "wall_s": {"value": 1.5, "unit": "s"},
        "ops_per_s": {"value": 2.0, "unit": "1/s"},
    }
    with pytest.raises(ValueError):
        metrics.with_units({"wall_s": 1.5}, declared)
    with pytest.raises(ValueError):
        metrics.with_units({"wall_s": 1.5, "ops_per_s": 2.0, "extra": 0}, declared)


def test_layer_values_cover_every_declared_per_layer_metric():
    values = metrics.layer_values({}, {}, {}, {})
    assert set(values) == set(metrics.PER_LAYER_UNITS)


def test_open_loop_wall_excludes_its_own_schedule():
    class InstantClient:
        def request(self, method, payload):
            return 200, {"v": 1, "domain": payload["target"], "initial_status": "safe"}

        def close(self):
            pass

    plan = [("spf_census_row", {"target": f"d{i}.example"}) for i in range(11)]
    phase = serve_load.drive(InstantClient, plan, serve_load.Phase("open"), 1, rate=50.0)
    assert phase.failed == 0 and phase.sent == 11
    assert phase.schedule_s == pytest.approx(0.2, abs=0.02)
    assert 0.0 <= phase.driven_s < 0.1
    closed = serve_load.drive(InstantClient, plan, serve_load.Phase("closed"), 1)
    assert closed.schedule_s == 0.0 and closed.driven_s == closed.wall_s
