"""The ``serve`` workload: one fresh daemon per unit, driven by this process.

Each unit spawns ``repro serve --scale 0.02 --warm-rounds 34 --socket …``
through ``serve_launcher.py``, waits for the warm daemon's first answer
(set-up time), then drives the same seeded request plan through two
phases on two keep-alive connections:

1. closed loop — each connection sends its next request when the
   previous answer arrives;
2. open loop — request *i* is due at ``start + i / OPEN_RATE``; it is
   timed from its due time, so a stall also charges the requests queued
   behind it, and the generator's lateness is reported.

The plan follows ``repro.serve.loadtest.DEFAULT_MIX``, but probe targets
are drawn without replacement, so the daemon's 90 s per-tenant recontact
rule never refuses a well-behaved client.  Every answer is checked: HTTP
200 and a round trip through the versioned wire decoders.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SERVE_SCALE = 0.02
WARM_ROUNDS = 34
#: Long enough to average over the host's speed drift (see README.md).
CLOSED_REQUESTS = 8000
OPEN_REQUESTS = 1000
#: Offered open-loop rate (req/s): an absolute number below the slow end
#: of the closed-loop capacity measured when the benchmark was written,
#: 540–1,110 req/s on a 2-core container depending on host load.
OPEN_RATE = 300.0
CONNECTIONS = 2
PROBE_METHODS = ("probe_domain", "check_mta")
SETUP_TIMEOUT_S = 120.0

clock = time.perf_counter
Request = Tuple[str, dict]


def plan_methods(seed: int, count: int, mix: Sequence[Tuple[str, float]]) -> List[str]:
    rng = random.Random(seed)
    names = [name for name, _ in mix]
    weights = [weight for _, weight in mix]
    return rng.choices(names, weights=weights, k=count)


def build_load_plan(
    seed: int,
    count: int,
    domains: Sequence[str],
    ips: Sequence[str],
    mix: Sequence[Tuple[str, float]],
) -> List[Request]:
    """``count`` (method, payload) requests: a pure function of its
    arguments in which no probe target repeats."""
    methods = plan_methods(seed, count, mix)
    rng = random.Random(f"targets:{seed}")
    fresh = {
        "probe_domain": rng.sample(list(domains), len(domains)),
        "check_mta": rng.sample(list(ips), len(ips)),
    }
    plan: List[Request] = []
    for method in methods:
        if method in PROBE_METHODS:
            if not fresh[method]:
                raise ValueError(f"target pool for {method} is exhausted")
            plan.append((method, {"target": fresh[method].pop()}))
        elif method == "run_status":
            plan.append((method, {}))
        elif method == "patch_status_since":
            plan.append((method, {"target": rng.choice(domains), "since": rng.randrange(WARM_ROUNDS)}))
        else:
            plan.append((method, {"target": rng.choice(domains)}))
    return plan


def target_pools(api, world: int, ips_needed: int) -> Tuple[List[str], List[str]]:
    """The world's domain names, and addresses from MX→A resolution of
    seeded domains — the inputs any client of this world could list."""
    handle = api.open_run(api.RunConfig(scale=SERVE_SCALE, seed=world))
    try:
        table = handle.simulation.population.table
        domains = [table.name_at(i) for i in range(len(table))]
        ips: List[str] = []
        seen = set()
        order = random.Random(f"pool:{world}").sample(domains, len(domains))
        for domain in order:
            for ip in handle.campaign.resolve_ips(domain):
                if ip not in seen:
                    seen.add(ip)
                    ips.append(ip)
            if len(ips) >= ips_needed:
                break
    finally:
        handle.close()
    return domains, ips


def load_plan(api, seed: int, world: int, mix) -> List[Request]:
    """The plan for benchmark seed ``seed`` against the world ``world``."""
    count = CLOSED_REQUESTS + OPEN_REQUESTS
    need = plan_methods(seed, count, mix).count("check_mta")
    domains, ips = target_pools(api, world, need)
    return build_load_plan(seed, count, domains, ips, mix)


# -- answer checks ------------------------------------------------------------


def response_error(method: str, payload: dict, status: int, body: dict, world: int) -> Optional[str]:
    """``None`` when the answer from the daemon serving world ``world``
    is a correct 200, else what is wrong."""
    from repro.api import SCHEMA_VERSION, ProbeResult
    from repro.errors import ReproError

    if status != 200:
        return f"HTTP {status}"
    try:
        if method in PROBE_METHODS:
            result = ProbeResult.from_dict(body)
            if result.to_dict() != body:
                return "ProbeResult does not round-trip"
            if result.kind != method or result.target != payload["target"]:
                return "ProbeResult answers a different request"
            if method == "check_mta" and [ip.ip for ip in result.ips] != [payload["target"]]:
                return "check_mta result is not about the probed address"
            return None
        if body.get("v") != SCHEMA_VERSION:
            return f"schema version {body.get('v')!r}"
        if method == "run_status":
            if body["seed"] != world or body["rounds_completed"] != WARM_ROUNDS:
                return "run_status describes another run"
        elif body["domain"] != payload["target"]:
            return "answer is about another domain"
        elif method == "patch_status_since":
            if len(body["rounds"]) != WARM_ROUNDS - payload["since"]:
                return "patch history has the wrong number of rounds"
        elif "initial_status" not in body:
            return "census row lacks the initial status"
    except (KeyError, TypeError, ValueError, ReproError) as error:
        return f"undecodable answer: {error!r}"
    return None


class Phase:
    """What one load phase observed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.latencies_ms: List[float] = []
        self.lateness_ms: List[float] = []
        self.statuses: Dict[int, int] = {}
        self.errors: List[str] = []
        self.transport_errors = 0
        self.probe_outcomes = 0
        self.wall_s = 0.0
        #: Part of ``wall_s`` the open loop's own pacing dictates: from the
        #: phase's start to the last request's due time (0 for closed loop).
        self.schedule_s = 0.0
        self.sent = 0
        self._lock = threading.Lock()

    def record(self, latency_ms, status, error, outcomes=0, lateness_ms=None) -> None:
        with self._lock:
            self.sent += 1
            if status is None:
                self.transport_errors += 1
            else:
                self.statuses[status] = self.statuses.get(status, 0) + 1
                self.latencies_ms.append(latency_ms)
                self.probe_outcomes += outcomes
            if lateness_ms is not None:
                self.lateness_ms.append(lateness_ms)
            if error is not None:
                self.errors.append(error)

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def driven_s(self) -> float:
        """Wall time the daemon, not the schedule, decides."""
        return self.wall_s - self.schedule_s


def drive(
    make_client: Callable,
    plan: Sequence[Request],
    phase: Phase,
    world: int,
    rate: Optional[float] = None,
) -> Phase:
    """Send ``plan`` over ``CONNECTIONS`` connections; closed loop when
    ``rate`` is None, else open loop at ``rate`` req/s."""
    from repro.errors import ServeError

    cursor = iter(range(len(plan)))
    guard = threading.Lock()
    start = clock() + 0.01

    def worker() -> None:
        client = make_client()
        try:
            while True:
                with guard:
                    index = next(cursor, None)
                if index is None:
                    return
                method, payload = plan[index]
                due = None
                if rate is not None:
                    due = start + index / rate
                    delay = due - clock()
                    if delay > 0:
                        time.sleep(delay)
                sent = clock()
                try:
                    status, body = client.request(method, payload)
                except ServeError as error:
                    phase.record(None, None, f"transport: {error}")
                    continue
                done = clock()
                origin = sent if due is None else due
                error = response_error(method, payload, status, body, world)
                outcomes = len(body.get("ips", ())) if method in PROBE_METHODS and error is None else 0
                phase.record(
                    (done - origin) * 1000.0,
                    status,
                    error,
                    outcomes,
                    None if due is None else (sent - due) * 1000.0,
                )
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CONNECTIONS)]
    began = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall_s = clock() - began
    if rate is not None:
        phase.schedule_s = start + (len(plan) - 1) / rate - began
    return phase


# -- daemon lifetime ----------------------------------------------------------


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def run_unit(world: int, plan: Sequence[Request], work: str, trace: bool, here: str) -> dict:
    """One fresh daemon of world ``world``: set-up, closed phase, open
    phase, shutdown."""
    from repro.serve.client import ScanClient
    from repro.errors import ServeError

    tag = f"{os.getpid()}-{int(time.time() * 1000) % 100000}"
    sock = os.path.join(os.path.relpath(work), f"d{tag}.sock")
    out_path = os.path.join(work, f"daemon-{tag}.json")
    log_path = os.path.join(work, f"daemon-{tag}.log")
    command = [
        sys.executable,
        os.path.join(here, "serve_launcher.py"),
        "--out", out_path,
        *(["--trace"] if trace else []),
        "--", "serve",
        "--scale", str(SERVE_SCALE),
        "--seed", str(world),
        "--warm-rounds", str(WARM_ROUNDS),
        "--socket", sock,
    ]
    with open(log_path, "w") as log:
        spawned = clock()
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(here), "src"))
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=env)
    try:
        setup_s = None
        probe = ScanClient(socket_path=sock, timeout=30.0)
        while clock() - spawned < SETUP_TIMEOUT_S:
            if proc.poll() is not None:
                break
            if os.path.exists(sock):
                try:
                    status, _ = probe.request("run_status", {})
                except ServeError:
                    status = None
                if status == 200:
                    setup_s = clock() - spawned
                    break
            time.sleep(0.005)
        probe.close()
        if setup_s is None:
            with open(log_path) as log:
                raise RuntimeError(f"daemon never answered:\n{log.read()[-2000:]}")

        def make_client():
            return ScanClient(socket_path=sock, timeout=60.0)

        closed = drive(make_client, plan[:CLOSED_REQUESTS], Phase("closed"), world)
        opened = drive(make_client, plan[CLOSED_REQUESTS:], Phase("open"), world, rate=OPEN_RATE)
        rss = _vm_hwm_mb(proc.pid)
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60)
        with open(out_path) as handle:
            daemon = json.load(handle)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for path in (sock, out_path, log_path, out_path + ".tmp"):
            if os.path.exists(path):
                os.remove(path)
    if daemon["exit_code"] != 0:
        closed.errors.append(f"daemon exited {daemon['exit_code']}")
    return {"setup_s": setup_s, "closed": closed, "open": opened, "peak_rss_mb": rss, "daemon": daemon}
