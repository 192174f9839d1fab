"""The repository's benchmark: one command, every workload, every layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Workloads: those ``BENCHMARK.json`` registers — ``campaign``, ``serve``
and ``checkpoint_resume`` (see ``perfbench/README.md`` for why each
exists and what it stresses).  A run measures whole units of its workload —
at least ``MIN_UNITS``, more while ``--seconds`` has not elapsed — and
reports medians over them.  Batch units run in fresh interpreters
(``units.py``); ``serve`` units are fresh daemons driven from this
process on two connections.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run measures one untraced and one traced unit and
the last line carries the per-layer metrics, the tracing overhead and
the unattributed share of wall time.  The line before it (``detail``)
holds everything else: the workload's own named metrics, percentiles
with their sample counts, the program's counters, and provenance.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
import traceback

from metrics import (
    END_TO_END_UNITS,
    NAMED_UNITS,
    PER_LAYER_UNITS,
    WORKLOADS,
    layer_values,
    sampled_counts,
    with_units,
)
from spans import subtract
from stats import percentiles
from worlds import world_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_UNITS = {"campaign": 1, "serve": 3, "checkpoint_resume": 1}
#: Never start a unit that could push the run past this many seconds.
RUN_BUDGET_S = 150.0
UNIT_TIMEOUT_S = 170.0

clock = time.perf_counter


def env_info() -> dict:
    """Provenance fields shared with every ``benchmarks/BENCH_*.json``."""
    spec = importlib.util.spec_from_file_location(
        "_bench_conftest", os.path.join(ROOT, "benchmarks", "conftest.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.env_info()


def repeat_units(workload: str, seconds: float, unit) -> list:
    """Run ``unit()`` at least ``MIN_UNITS`` times and while time is left."""
    results, started = [], clock()
    while True:
        begun = clock()
        results.append(unit())
        elapsed, last = clock() - started, clock() - begun
        if len(results) >= MIN_UNITS[workload] and elapsed >= seconds:
            return results
        if elapsed + last > RUN_BUDGET_S:
            return results


# -- batch workloads ----------------------------------------------------------


def batch_unit(workload: str, world: int, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "units.py"), workload,
         "--world", str(world), "--trace", str(int(trace)), "--work", WORK],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=UNIT_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} unit failed:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def batch_detail(workload: str, units: list) -> dict:
    keys = ["wall_s", "probes_per_s", "peak_rss_mb"]
    if workload == "campaign":
        keys.append("report_s")
    if workload == "checkpoint_resume":
        keys += ["checkpointed_run_s", "resume_s", "finish_s", "effective_probes_per_s"]
    named = {"setup_s": statistics.median(s for u in units for s in u["setup_samples_s"])}
    named.update((key, statistics.median(u[key] for u in units)) for key in keys)
    return named


def failed_ops(units: list) -> int:
    """A unit whose correctness check failed fails every op it ran."""
    return sum(u["ops"] for u in units if u["errors"])


def check_digests(units: list) -> None:
    """Units of one world measure the same campaign, traced or not.  When
    their digests differ, no unit can be trusted: each one fails."""
    if len({u["digest"] for u in units}) > 1:
        for unit in units:
            unit["errors"].append("units of the same world gave different digests")


def run_batch(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro import api
    from units import SCALES

    world = world_seed(api, SCALES[workload], seed)
    if trace:
        units = [batch_unit(workload, world, False)]
        traced = batch_unit(workload, world, True)
    else:
        units = repeat_units(workload, seconds, lambda: batch_unit(workload, world, False))
        traced = None
    check_digests(units + ([traced] if traced else []))
    named = batch_detail(workload, units)
    out = {
        "units": len(units),
        "ops": sum(u["ops"] for u in units),
        "failed_ops": failed_ops(units),
        "errors": [e for u in units for e in u["errors"]],
        "named": named,
        "e2e": {
            "setup_s": named["setup_s"],
            "wall_s": named["wall_s"],
            "ops_per_s": named.get("effective_probes_per_s", named["probes_per_s"]),
            "peak_rss_mb": named["peak_rss_mb"],
        },
        "counts": units[-1]["counts"],
        "digests": sorted({u["digest"] for u in units}),
        "world_seed": world,
    }
    if traced is not None:
        out["errors"] += traced["errors"]
        out["ops"] += traced["ops"]
        out["failed_ops"] += failed_ops([traced])
        spans = traced["trace"]
        attributed = sum(agg["self_s"] for agg in spans["spans"].values())
        extra = {
            "trace.overhead_s": traced["wall_s"] - units[0]["wall_s"],
            "trace.unattributed_share": (traced["wall_s"] - attributed) / traced["wall_s"],
        }
        out["layers"] = layer_values(spans["spans"], spans["counters"], traced["counts"], extra)
        out["sample_counts"] = sampled_counts(spans["spans"])
    return out


# -- serve --------------------------------------------------------------------


def run_serve(seed: int, seconds: float, trace: bool) -> dict:
    from repro import api
    from repro.serve.loadtest import DEFAULT_MIX
    import serve_load

    world = world_seed(api, serve_load.SERVE_SCALE, seed)
    plan = serve_load.load_plan(api, seed, world, DEFAULT_MIX)
    unit = lambda traced: serve_load.run_unit(world, plan, WORK, traced, HERE)  # noqa: E731
    if trace:
        units = [unit(False)]
        traced = unit(True)
    else:
        units = repeat_units("serve", seconds, lambda: unit(False))
        traced = None

    closed = [u["closed"] for u in units]
    opened = [u["open"] for u in units]
    closed_ms = percentiles([ms for p in closed for ms in p.latencies_ms])
    open_ms = percentiles([ms for p in opened for ms in p.latencies_ms])
    lateness = percentiles([ms for p in opened for ms in p.lateness_ms])
    req_per_s = statistics.median(len(p.latencies_ms) / p.wall_s for p in closed)
    named = {
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "wall_s": statistics.median(c.driven_s + o.driven_s for c, o in zip(closed, opened)),
        "req_per_s": req_per_s,
        "p50_ms": closed_ms.get("p50"),
        "p99_ms": closed_ms.get("p99"),
        "open_p50_ms": open_ms.get("p50"),
        "open_p99_ms": open_ms.get("p99"),
        "probes_per_s": statistics.median(p.probe_outcomes / p.wall_s for p in closed),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }
    phases = closed + opened
    attempted = serve_load.CLOSED_REQUESTS * len(closed) + serve_load.OPEN_REQUESTS * len(opened)
    answered_ok = sum(p.sent - p.failed for p in phases)
    out = {
        "units": len(units),
        "ops": attempted,
        "failed_ops": attempted - answered_ok,
        "errors": sorted({e for p in phases for e in p.errors}),
        "named": named,
        "e2e": {
            "setup_s": named["setup_s"],
            "wall_s": named["wall_s"],
            "ops_per_s": req_per_s,
            "peak_rss_mb": named["peak_rss_mb"],
        },
        "percentiles": {"closed_ms": closed_ms, "open_ms": open_ms, "open_lateness_ms": lateness},
        "open_loop": {
            "offered_rate_per_s": serve_load.OPEN_RATE,
            "lateness_ms": lateness,
            "lateness_max_ms": max((ms for p in opened for ms in p.lateness_ms), default=0.0),
        },
        "statuses": _merge_statuses(phases),
        "counts": request_counts(units[-1]["daemon"]),
        "world_seed": world,
    }
    if traced is not None:
        phases_t = [traced["closed"], traced["open"]]
        out["ops"] += sum(p.sent for p in phases_t)
        out["failed_ops"] += sum(p.failed for p in phases_t)
        out["errors"] = sorted(set(out["errors"]) | {e for p in phases_t for e in p.errors})
        daemon = traced["daemon"]
        # Layers of the request phases only: the daemon's initial sweep and
        # warm-up rounds, before its listener started, are set-up.
        window = subtract(daemon["trace"], daemon["trace_warm"])
        spans = window["spans"]
        counts = request_counts(daemon)
        warm_touch = daemon["trace_warm"]["spans"].get("internet.first_touch", {})
        submit_s = spans.get("serve.submit", {"samples": []})["samples"]
        # Open-loop latencies run from the due time; take the lateness
        # back out to get the time each request spent on the wire.
        client_s = (
            sum(ms for p in phases_t for ms in p.latencies_ms)
            - sum(traced["open"].lateness_ms)
        ) / 1000.0
        untraced_wall = units[0]["closed"].driven_s + units[0]["open"].driven_s
        traced_wall = traced["closed"].driven_s + traced["open"].driven_s
        extra = {
            "internet.warmup_first_touch_s": warm_touch.get("self_s", 0.0),
            "serve.overhead_ms_p50": statistics.median(traced["closed"].latencies_ms)
            - statistics.median(submit_s) * 1000.0,
            "serve.rejected_429": sum(p.statuses.get(429, 0) for p in phases_t),
            "serve.errors_5xx": sum(n for p in phases_t for s, n in p.statuses.items() if s >= 500),
            "serve.transport_errors": sum(p.transport_errors for p in phases_t),
            "trace.overhead_s": traced_wall - untraced_wall,
            # Share of client-observed request time outside the daemon's
            # handler span (HTTP, sockets, JSON, the client itself).
            "trace.unattributed_share": 1.0 - sum(submit_s) / client_s,
        }
        out["layers"] = layer_values(spans, window["counters"], counts, extra)
        out["sample_counts"] = sampled_counts(spans)
    return out


def request_counts(daemon: dict) -> dict:
    """The daemon's program counters over its request phases alone."""
    warm = daemon["counts_warm"]
    return {key: value - warm.get(key, 0) for key, value in daemon["counts"].items()}


def _merge_statuses(phases) -> dict:
    merged = {}
    for phase in phases:
        for status, count in phase.statuses.items():
            merged[str(status)] = merged.get(str(status), 0) + count
    return merged


# -- output -------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    sys.path.insert(0, SRC)
    started = clock()
    try:
        if args.workload == "serve":
            result = run_serve(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
        provenance = env_info()
    except Exception:
        traceback.print_exc()
        return 1
    provenance.update(workload=args.workload, seed=args.seed, trace=args.trace)
    if "open_loop" in result:
        provenance["open_loop"] = result["open_loop"]
    correct = not result["errors"] and result["failed_ops"] == 0

    named = {
        name: {"value": value, "unit": NAMED_UNITS[name]} for name, value in result["named"].items()
    }
    if args.trace:
        metrics = with_units(result["layers"], PER_LAYER_UNITS)
    else:
        metrics = with_units(result["e2e"], END_TO_END_UNITS)

    print(f"workload {args.workload} · seed {args.seed} · {result['units']} unit(s) · "
          f"{clock() - started:.1f}s")
    for name, metric in {**named, **(metrics if args.trace else {})}.items():
        print(f"  {name:<34} {_fmt(metric['value']):>14} {metric['unit']}")
    print(f"  ops {result['ops']} · failed_ops {result['failed_ops']} · "
          f"correct {'yes' if correct else 'NO'}")
    for error in result["errors"][:10]:
        print(f"  error: {error}")
    detail = {key: value for key, value in result.items() if key not in ("e2e", "layers")}
    detail["named"] = named
    detail["provenance"] = provenance
    print("detail " + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": result["ops"],
        "failed": result["failed_ops"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
