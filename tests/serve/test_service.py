"""Admission and dispatch behavior of :class:`ScanService`.

The contracts under test: a request beyond the admission bound answers
429 immediately (no unbounded backlog), world requests run one at a
time in admission order, a waiter past its timeout answers 504 without
running, a stopped service refuses world requests, per-tenant rate
limiting reuses
:class:`EthicsControls` (second probe of one target inside the
reconnect wait → 429 with Retry-After; a different tenant is
unaffected), unknown methods 404, domain-level refusals are 404s (not
500s), and every completed request lands in the latency accounting.
"""

from __future__ import annotations

import datetime as _dt
import random
import sys
import threading
import time

import pytest

from repro import api
from repro.core.ethics import EthicsControls
from repro.serve import PROBE_METHODS, ScanService, exact_percentile
from repro.serve.service import _LatencyHistogram

SCALE = 0.002
SEED = 5


@pytest.fixture(scope="module")
def handle():
    h = api.open_run(api.RunConfig(scale=SCALE, seed=SEED))
    h.ensure_initial()
    yield h
    h.close()


@pytest.fixture(scope="module")
def domain(handle):
    return handle.simulation.population.table.name_at(0)


def _service(handle, **kwargs):
    return ScanService(handle, **kwargs)


class TestExactPercentile:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert exact_percentile(samples, 0.50) == 50.0
        assert exact_percentile(samples, 0.99) == 99.0
        assert exact_percentile(samples, 1.00) == 100.0
        assert exact_percentile([7.0], 0.99) == 7.0

    def test_empty_raises(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            exact_percentile([], 0.5)


class TestLatencyHistogram:
    def test_quantiles_within_bucket_error(self, handle):
        rng = random.Random(13)
        samples = [rng.lognormvariate(2.0, 1.0) for _ in range(50_000)]
        service = _service(handle)
        for ms in samples:
            service._latency.record(ms)
        latency = service.stats()["latency_ms"]
        assert latency["count"] == len(samples)
        assert latency["max"] == round(max(samples), 3)
        for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            exact = exact_percentile(samples, q)
            assert abs(latency[name] - exact) <= 0.022 * exact, name

    def test_bucket_count_bounded(self):
        rng = random.Random(7)
        histogram = _LatencyHistogram()
        # Twelve decades either side of 1 ms, plus zero: the clamped
        # end buckets absorb everything outside the bucket range.
        for _ in range(10**6):
            histogram.record(10.0 ** rng.uniform(-12.0, 12.0))
        histogram.record(0.0)
        assert histogram.count == 10**6 + 1
        assert len(histogram._buckets) <= _LatencyHistogram.MAX_BUCKETS
        assert _LatencyHistogram.MAX_BUCKETS <= 34 * 32 + 1


class TestAdmission:
    def test_unknown_method_404(self, handle):
        with _service(handle) as service:
            status, body = service.submit("explode", {})
            assert status == 404
            assert "unknown method" in body["error"]

    def test_probe_without_target_400(self, handle):
        with _service(handle) as service:
            for method in PROBE_METHODS:
                status, body = service.submit(method, {})
                assert status == 400

    @pytest.mark.parametrize("since", ["abc", -1, 1.5, True, None])
    def test_bad_since_400_before_queueing(
        self, handle, domain, since, monkeypatch
    ):
        def reached(*args):
            raise AssertionError("a bad since reached the world")

        monkeypatch.setattr(handle, "patch_status_since", reached)
        service = _service(handle, request_timeout=5)
        status, body = service.submit(
            "patch_status_since", {"target": domain, "since": since}
        )
        assert status == 400
        assert body["reason"] == "bad-since"
        assert service.stats()["queued_now"] == 0

    def test_unknown_domain_is_404_not_500(self, handle):
        with _service(handle) as service:
            status, body = service.submit(
                "spf_census_row", {"target": "no-such.invalid"}
            )
            assert status == 404
            assert "unknown domain" in body["error"]

    def test_queue_full_answers_429(self, handle, domain, monkeypatch):
        """queue_depth=1: one running plus one waiting → the next is refused."""
        release = threading.Event()
        entered = threading.Event()
        original = handle.census_row

        def slow_census(name):
            entered.set()
            release.wait(timeout=30)
            return original(name)

        monkeypatch.setattr(handle, "census_row", slow_census)
        service = _service(handle, queue_depth=1)
        service.start()
        try:
            # First request holds the world...
            blocker = threading.Thread(
                target=service.submit,
                args=("spf_census_row", {"target": domain}),
                daemon=True,
            )
            blocker.start()
            assert entered.wait(timeout=10)
            # ...second waits behind it...
            filler = threading.Thread(
                target=service.submit,
                args=("spf_census_row", {"target": domain}),
                daemon=True,
            )
            filler.start()
            deadline = _dt.datetime.now() + _dt.timedelta(seconds=10)
            while service.stats()["queued_now"] < 1:
                assert _dt.datetime.now() < deadline
            # ...third is refused immediately with queue-full.
            status, body = service.submit(
                "spf_census_row", {"target": domain}
            )
            assert status == 429
            assert body["reason"] == "queue-full"
            assert service.stats()["rejected_queue_full"] == 1
        finally:
            release.set()
            blocker.join(timeout=30)
            filler.join(timeout=30)
            service.stop()

    def test_queue_full_probe_releases_rate_limit_slot(
        self, handle, domain, monkeypatch
    ):
        """A probe bounced by the queue must not eat a concurrency slot."""
        release = threading.Event()
        entered = threading.Event()
        original = handle.census_row

        def slow_census(name):
            entered.set()
            release.wait(timeout=30)
            return original(name)

        monkeypatch.setattr(handle, "census_row", slow_census)
        service = _service(
            handle,
            queue_depth=1,
            tenant_limits=lambda: EthicsControls(
                max_concurrent_connections=1,
                min_reconnect_wait=_dt.timedelta(seconds=0),
            ),
        )
        service.start()
        try:
            blocker = threading.Thread(
                target=service.submit,
                args=("spf_census_row", {"target": domain}),
                daemon=True,
            )
            blocker.start()
            assert entered.wait(timeout=10)
            filler = threading.Thread(
                target=service.submit,
                args=("spf_census_row", {"target": domain}),
                daemon=True,
            )
            filler.start()
            deadline = _dt.datetime.now() + _dt.timedelta(seconds=10)
            while service.stats()["queued_now"] < 1:
                assert _dt.datetime.now() < deadline
            status, body = service.submit("probe_domain", {"target": domain})
            assert status == 429 and body["reason"] == "queue-full"
            release.set()
            blocker.join(timeout=30)
            filler.join(timeout=30)
            # The slot was released on the bounce: with the queue drained
            # the same probe is admitted (concurrency cap is 1).
            status, body = service.submit("probe_domain", {"target": domain})
            assert status == 200
        finally:
            release.set()
            service.stop()



def _hold_world(handle, monkeypatch):
    """Make ``census_row`` block until released; return its controls."""
    release, entered, order = threading.Event(), threading.Event(), []
    original = handle.census_row

    def slow_census(name):
        order.append(name)
        entered.set()
        release.wait(timeout=30)
        return original(name)

    monkeypatch.setattr(handle, "census_row", slow_census)
    return release, entered, order


def _wait_queued(service, count):
    deadline = time.monotonic() + 10
    while service.stats()["queued_now"] < count:
        assert time.monotonic() < deadline
        time.sleep(0.001)


class TestWorldLock:
    def test_waiters_run_in_admission_order(self, handle, monkeypatch):
        release, entered, order = _hold_world(handle, monkeypatch)
        table = handle.simulation.population.table
        names = [table.name_at(index) for index in range(5)]
        service = _service(handle)
        threads = []
        try:
            for index, name in enumerate(names):
                threads.append(threading.Thread(
                    target=service.submit,
                    args=("spf_census_row", {"target": name}), daemon=True,
                ))
                threads[-1].start()
                if index == 0:
                    assert entered.wait(timeout=10)
                else:
                    _wait_queued(service, index)
            release.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            release.set()
            service.stop()
        assert order == names
        assert service.stats()["queued_now"] == 0

    def test_waiter_past_timeout_504_and_never_runs(
        self, handle, domain, monkeypatch
    ):
        release, entered, order = _hold_world(handle, monkeypatch)
        service = _service(handle, request_timeout=0.2)
        blocker = threading.Thread(
            target=service.submit,
            args=("spf_census_row", {"target": domain}), daemon=True,
        )
        try:
            blocker.start()
            assert entered.wait(timeout=10)
            status, body = service.submit("spf_census_row", {"target": "late"})
            assert status == 504
            assert "timed out" in body["error"]
            assert service.stats()["queued_now"] == 0
        finally:
            release.set()
            blocker.join(timeout=30)
        assert not blocker.is_alive()
        # The timed-out request left the line: it never ran, and the
        # world is free for the next one.
        assert order == [domain]
        assert service.submit("spf_census_row", {"target": domain})[0] == 200
        service.stop()

    def test_stop_refuses_world_requests_until_restarted(self, handle, domain):
        service = _service(handle)
        service.stop()
        status, body = service.submit("spf_census_row", {"target": domain})
        assert status == 503 and body["reason"] == "stopped"
        assert service.submit("run_status", {})[0] == 200
        service.start()
        assert service.submit("spf_census_row", {"target": domain})[0] == 200
        service.stop()

    def test_concurrent_submits_never_overlap(self, handle, domain, monkeypatch):
        """More threads than cores, a tiny switch interval: requests still
        run one at a time and every one is counted."""
        original = handle.census_row
        inside, peak, runs = [0], [0], [0]

        def census(name):
            inside[0] += 1
            peak[0] = max(peak[0], inside[0])
            runs[0] += 1
            try:
                return original(name)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(handle, "census_row", census)
        service = _service(handle, queue_depth=16)
        statuses = []

        def client():
            for _ in range(50):
                statuses.append(service.submit("spf_census_row", {"target": domain})[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, daemon=True) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            service.stop()
        assert statuses == [200] * 400
        assert (peak[0], runs[0]) == (1, 400)
        stats = service.stats()
        assert stats["requests"] == 400 and stats["queued_now"] == 0

class TestRateLimit:
    def _limited(self, handle, *, wait_seconds=90):
        return _service(
            handle,
            tenant_limits=lambda: EthicsControls(
                min_reconnect_wait=_dt.timedelta(seconds=wait_seconds)
            ),
        )

    def test_reprobe_inside_wait_refused_with_retry_after(
        self, handle, domain
    ):
        with self._limited(handle) as service:
            status, _ = service.submit("probe_domain", {"target": domain})
            assert status == 200
            status, body = service.submit("probe_domain", {"target": domain})
            assert status == 429
            assert body["reason"] == "rate-limit"
            assert 0 < body["retry_after"] <= 90
            assert service.stats()["rejected_rate_limit"] == 1

    def test_limits_are_per_tenant(self, handle, domain):
        with self._limited(handle) as service:
            status, _ = service.submit(
                "probe_domain", {"target": domain}, tenant="alice"
            )
            assert status == 200
            # alice is rate limited on that target; bob is not.
            status, _ = service.submit(
                "probe_domain", {"target": domain}, tenant="alice"
            )
            assert status == 429
            status, _ = service.submit(
                "probe_domain", {"target": domain}, tenant="bob"
            )
            assert status == 200

    def test_reads_never_rate_limited(self, handle, domain):
        with self._limited(handle) as service:
            for _ in range(5):
                status, _ = service.submit(
                    "spf_census_row", {"target": domain}
                )
                assert status == 200


class TestAccounting:
    def test_stats_track_requests_and_latency(self, handle, domain):
        with _service(handle) as service:
            service.submit("spf_census_row", {"target": domain})
            service.submit("run_status", {})
            stats = service.stats()
            assert stats["requests"] == 2
            assert stats["by_method"] == {"run_status": 1, "spf_census_row": 1}
            assert stats["errors"] == 0
            assert stats["latency_ms"]["count"] == 2
            assert stats["latency_ms"]["max"] >= stats["latency_ms"]["p50"]

    def test_run_status_carries_world_and_service(self, handle, domain):
        with _service(handle) as service:
            status, body = service.submit("run_status", {})
            assert status == 200
            assert body["domains"] == len(handle.simulation.population)
            assert body["initial_complete"] is True
            assert "service" in body

    def test_internal_error_is_500_and_counted(self, handle, monkeypatch):
        def boom(name):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(handle, "census_row", boom)
        with _service(handle) as service:
            status, body = service.submit(
                "spf_census_row", {"target": "x.org"}
            )
            assert status == 500
            assert "internal error" in body["error"]
            assert service.stats()["errors"] == 1
