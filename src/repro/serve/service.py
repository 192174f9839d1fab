"""The scan service core: admission, world-lock dispatch, and accounting.

:class:`ScanService` turns a resident :class:`repro.api.RunHandle` into
a request-serving engine.  The design splits into three small pieces:

- **Admission.**  At most ``queue_depth`` requests may wait behind the
  one running; one more is answered ``429 queue-full`` immediately
  rather than building unbounded backlog.  Probe requests additionally
  pass per-tenant rate limiting *before* they wait, reusing
  :class:`repro.core.ethics.EthicsControls` verbatim: each tenant gets
  its own controls instance, so one tenant re-probing a target inside
  the minimum reconnect wait (or exceeding the concurrency cap) is
  refused with ``429`` + ``Retry-After`` without affecting anyone else.
  The ethics machinery that keeps the *campaign* polite toward remote
  servers is exactly the machinery that keeps *tenants* polite toward
  the service.

- **Dispatch.**  The calling thread (one per connection in the daemon)
  runs its world-touching request itself while it holds the service's
  world lock, so requests execute one at a time against the handle.
  Waiters take the lock in admission (FIFO) order: the releasing thread
  hands it to the longest waiter.  Serial execution is a determinism
  decision, not a throughput shortcut — the virtual clock, label
  allocator, and DNS caches must advance in one well-defined order for
  probe results (and their trace events) to stay byte-identical to
  batch runs of the same probes.  A request that waits longer than
  ``request_timeout`` gives up with ``504`` and never runs.
  ``run_status`` bypasses the lock entirely (it only reads counters),
  so health checks stay responsive under load.

- **Accounting.**  Every request records its wall-clock latency and
  outcome.  Latencies go into one fixed log-bucket histogram: O(1) per
  request, bounded memory, quantiles within 2.2% and exact ``count`` /
  ``max``.  They are surfaced through :meth:`stats` / ``run_status`` and
  mirrored into the handle's observation metrics registry when one is
  attached; :mod:`repro.serve.loadtest` measures latency client-side
  for performance-ledger records.
"""

from __future__ import annotations

import datetime as _dt
import math
import threading
import time
import traceback
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..api import ProbeRequest, RunHandle
from ..core.ethics import EthicsControls, EthicsViolation
from ..errors import ReproError, ServeError

#: Methods the service answers; ``run_status`` never waits for the world.
METHODS = (
    "probe_domain",
    "check_mta",
    "spf_census_row",
    "patch_status_since",
    "run_status",
)

#: Methods that contact remote addresses and therefore pass the
#: per-tenant ethics admission gate (reads are bounded by the wait line).
PROBE_METHODS = ("probe_domain", "check_mta")


def _nearest_rank(q: float, count: int) -> int:
    """The 1-based nearest-rank position of the q-quantile of ``count``."""
    return max(1, min(count, int(-(-q * count // 1))))


def exact_percentile(samples: List[float], q: float) -> float:
    """The exact q-quantile (nearest-rank) of a non-empty sample list."""
    if not samples:
        raise ServeError("percentile of an empty sample set")
    return sorted(samples)[_nearest_rank(q, len(samples)) - 1]


class _LatencyHistogram:
    """Latencies (ms) in log-scale buckets; at most MAX_BUCKETS kept.

    A quantile is its nearest-rank bucket's upper bound clamped to the
    exact max: at most ``2 ** (1 / BUCKETS_PER_OCTAVE) - 1`` (≈ 2.2%)
    above the exact value.  Not thread-safe; the service guards it.
    """

    BUCKETS_PER_OCTAVE = 32
    #: ~1 µs to ~4.7 h; a request times out long before the top.
    LOWEST = -10 * BUCKETS_PER_OCTAVE
    HIGHEST = 24 * BUCKETS_PER_OCTAVE
    MAX_BUCKETS = HIGHEST - LOWEST + 1

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.max = 0.0

    def record(self, ms: float) -> None:
        index = (
            math.floor(math.log2(ms) * self.BUCKETS_PER_OCTAVE)
            if ms > 0 else self.LOWEST
        )
        index = min(self.HIGHEST, max(self.LOWEST, index))
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.max = max(self.max, ms)

    def quantile(self, q: float) -> float:
        """The q-quantile of a non-empty histogram (see class docstring)."""
        rank, seen = _nearest_rank(q, self.count), 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                break
        return min(self.max, 2.0 ** ((index + 1) / self.BUCKETS_PER_OCTAVE))


class ScanService:
    """A request-serving front over one resident :class:`RunHandle`."""

    def __init__(
        self,
        handle: RunHandle,
        *,
        queue_depth: int = 64,
        tenant_limits: Optional[Callable[[], EthicsControls]] = None,
        request_timeout: float = 300.0,
    ) -> None:
        self.handle = handle
        self.queue_depth = queue_depth
        self.request_timeout = request_timeout
        #: per-tenant rate limiters, created on first contact.
        self._limits_factory = tenant_limits or EthicsControls
        self._limiters: Dict[str, EthicsControls] = {}
        self._guard = threading.Lock()
        # -- the world lock (guarded by _guard) --
        #: a request holds the world; waiters queue FIFO for their turn.
        self._busy = False
        self._waiters: Deque[threading.Event] = deque()
        self._idle = threading.Condition(self._guard)
        self._closed = False
        # -- accounting (guarded by _guard) --
        self._latency = _LatencyHistogram()
        self._counts: Dict[str, int] = {}
        self._rejected_queue = 0
        self._rejected_ratelimit = 0
        self._errors = 0
        self._started_at = time.time()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ScanService":
        """(Re)open admission; a new service is already open."""
        with self._guard:
            self._closed = False
        return self

    def stop(self) -> None:
        """Refuse new world requests and wait out admitted ones (idempotent)."""
        with self._guard:
            self._closed = True
            self._idle.wait_for(lambda: not self._busy)

    def __enter__(self) -> "ScanService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- admission ------------------------------------------------------------

    def _limiter(self, tenant: str) -> EthicsControls:
        with self._guard:
            limiter = self._limiters.get(tenant)
            if limiter is None:
                limiter = self._limiters[tenant] = self._limits_factory()
            return limiter

    def _admit_probe(
        self, tenant: str, target: str
    ) -> Tuple[Optional[str], Optional[dict]]:
        """Ethics admission for a probe; returns (release_key, refusal)."""
        limiter = self._limiter(tenant)
        now = _dt.datetime.now(tz=_dt.timezone.utc)
        try:
            limiter.connection_opened(target, now)
        except EthicsViolation as violation:
            earliest = limiter.earliest_recontact(target)
            retry_after = 1.0
            if earliest is not None and earliest > now:
                retry_after = (earliest - now).total_seconds()
            return None, {
                "error": f"rate limited: {violation}",
                "reason": "rate-limit",
                "tenant": tenant,
                "retry_after": round(retry_after, 3),
            }
        return target, None

    def _take_world(self) -> Optional[Tuple[int, dict]]:
        """Wait for the world lock; ``None`` once held, else the refusal."""
        with self._guard:
            if self._closed:
                return 503, {"error": "service stopped", "reason": "stopped"}
            if not self._busy:
                self._busy = True
                return None
            if len(self._waiters) >= self.queue_depth:
                self._rejected_queue += 1
                return 429, {
                    "error": f"service overloaded (queue depth {self.queue_depth})",
                    "reason": "queue-full",
                    "retry_after": 1.0,
                }
            turn = threading.Event()
            self._waiters.append(turn)
        if turn.wait(timeout=self.request_timeout):
            return None
        with self._guard:
            if turn.is_set():  # handed over just as the wait timed out
                return None
            self._waiters.remove(turn)
        return 504, {"error": "request timed out waiting for the world"}

    def _release_world(self) -> None:
        """Hand the world lock to the longest waiter, or free it."""
        with self._guard:
            if self._waiters:
                self._waiters.popleft().set()
            else:
                self._busy = False
                self._idle.notify_all()

    def submit(
        self, method: str, payload: dict, tenant: str = "public"
    ) -> Tuple[int, dict]:
        """Admit, execute, and answer one request (blocking).

        Returns ``(http_status, body)``.  The caller's thread runs the
        request itself once it holds the world lock; admission failures
        return immediately.
        """
        started = time.perf_counter()
        if method not in METHODS:
            return 404, {
                "error": f"unknown method {method!r}",
                "methods": list(METHODS),
            }
        if method == "run_status":
            # Pure counter read: never waits, stays responsive under load.
            status, body = 200, self.run_status()
            self._record(method, started, status)
            return status, body

        since = payload.get("since", 0)
        if method == "patch_status_since" and (
            type(since) is not int or since < 0  # not isinstance: rejects bools
        ):
            return 400, {
                "error": f"since must be a non-negative integer, got {since!r}",
                "reason": "bad-since",
            }

        release_key: Optional[str] = None
        if method in PROBE_METHODS:
            target = str(payload.get("target", ""))
            if not target:
                return 400, {"error": "probe request needs a target"}
            release_key, refusal = self._admit_probe(tenant, target)
            if refusal is not None:
                with self._guard:
                    self._rejected_ratelimit += 1
                return 429, refusal

        try:
            refusal = self._take_world()
            if refusal is not None:
                return refusal
            try:
                status, body = self._execute(method, payload, tenant)
            except Exception:
                with self._guard:
                    self._errors += 1
                status, body = 500, {
                    "error": "internal error",
                    "detail": traceback.format_exc(limit=5),
                }
            finally:
                self._release_world()
        finally:
            if release_key is not None:
                self._limiter(tenant).connection_closed()
        self._record(method, started, status)
        return status, body

    # -- execution ------------------------------------------------------------

    def _execute(self, method: str, payload: dict, tenant: str) -> Tuple[int, dict]:
        try:
            if method in PROBE_METHODS:
                request = ProbeRequest(
                    kind=method, target=str(payload["target"]), tenant=tenant
                )
                return 200, self.handle.probe(request).to_dict()
            if method == "spf_census_row":
                return 200, self.handle.census_row(str(payload.get("target", "")))
            # patch_status_since
            return 200, self.handle.patch_status_since(
                str(payload.get("target", "")), payload.get("since", 0)
            )
        except ReproError as error:
            # Domain-level refusals (unknown domain, initial sweep not
            # run yet, ...) are client errors, not service failures.
            return 404, {"error": str(error)}

    # -- accounting -----------------------------------------------------------

    def _record(self, method: str, started: float, status: int) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._guard:
            # (5xx outcomes are counted where they arise, in submit, so
            # a failed request is never double-counted here.)
            self._counts[method] = self._counts.get(method, 0) + 1
            self._latency.record(elapsed_ms)
        observation = self.handle.simulation.observation
        if observation is not None:
            observation.metrics.counter("serve.requests").inc(key=method)
            observation.metrics.histogram("serve.request_ms").observe(elapsed_ms)

    def stats(self) -> dict:
        """Request counters and histogram latency percentiles."""
        with self._guard:
            out = {
                "requests": sum(self._counts.values()),
                "by_method": dict(sorted(self._counts.items())),
                "rejected_queue_full": self._rejected_queue,
                "rejected_rate_limit": self._rejected_ratelimit,
                "errors": self._errors,
                "queue_depth": self.queue_depth,
                "queued_now": len(self._waiters),
                "uptime_seconds": round(time.time() - self._started_at, 3),
            }
            latency = self._latency
            if latency.count:
                out["latency_ms"] = {
                    "count": latency.count,
                    "p50": round(latency.quantile(0.50), 3),
                    "p90": round(latency.quantile(0.90), 3),
                    "p99": round(latency.quantile(0.99), 3),
                    "max": round(latency.max, 3),
                }
        return out

    def run_status(self) -> dict:
        """The handle's run snapshot plus service-side counters."""
        status = self.handle.status()
        status["service"] = self.stats()
        return status
