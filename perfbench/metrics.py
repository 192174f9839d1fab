"""The benchmark's metric names, units, and per-layer derivations.

The gated end-to-end metrics, the per-layer metrics, the workloads and
their units are read from ``BENCHMARK.json``, the single place they are
declared.  Every workload reports every name: a layer a workload never
enters reads 0, which is itself the prediction "this workload does not
exercise that layer".
"""

from __future__ import annotations

import json
import os
from typing import Dict

from spans import API_METHODS, REPORT_BUILDERS
from stats import percentiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _declared:
    BENCHMARK = json.load(_declared)

WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Units of each workload's own named metrics (the ``detail`` line).
NAMED_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "report_s": "s",
    "checkpointed_run_s": "s",
    "resume_s": "s",
    "finish_s": "s",
    "probes_per_s": "1/s",
    "effective_probes_per_s": "1/s",
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "open_p50_ms": "ms",
    "open_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans: dict, counters: dict, counts: dict, extra: dict) -> Dict[str, float]:
    """Every per-layer value from a span snapshot, the program's own
    counters (``counts``), and workload-level figures (``extra``)."""

    def span(name: str) -> dict:
        return spans.get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "samples": []})

    def ms(name: str, key: str) -> float:
        summary = percentiles(span(name)["samples"])
        return summary.get(key, 0.0) * 1000.0

    stages = span("exec.run_stage")
    detect = span("core.detect")
    out = {
        "internet.unit_materializations": counts.get("fleet.unit_materializations", 0),
        "internet.row_regens": counts.get("population.row_regens", 0),
        "internet.servers_materialized": counts.get("network.servers_materialized", 0),
        "internet.first_touch_self_s": span("internet.first_touch")["self_s"],
        "dns.resolver_queries": counts.get("dns.resolver.queries", 0),
        "dns.resolver_hit_ratio": _ratio(
            counts.get("dns.resolver.cache_hits", 0), counts.get("dns.resolver.queries", 0)
        ),
        "dns.query_self_s": span("dns.query")["self_s"],
        "dns.responder_queries": span("dns.responder")["count"],
        "dns.resolve_ips_s": span("dns.resolve_ips")["total_s"],
        "smtp.probes": span("smtp.probe")["count"],
        "smtp.probe_self_s": span("smtp.probe")["self_s"],
        "smtp.connect_ratio": _ratio(
            counts.get("network.connections_established", 0),
            counts.get("network.connection_attempts", 0),
        ),
        "spf.check_host_calls": span("spf.check_host")["count"],
        "spf.check_host_self_s": span("spf.check_host")["self_s"],
        "spf.macro_expand_calls": span("spf.macro_expand")["count"],
        "spf.macro_expand_self_s": span("spf.macro_expand")["self_s"],
        "libspf2.expand_calls": span("libspf2.expand")["count"],
        "libspf2.expand_self_s": span("libspf2.expand")["self_s"],
        "core.detect_calls": detect["count"],
        "core.detect_self_s": detect["self_s"],
        "core.spf_measured_ratio": _ratio(counters.get("core.spf_measured", 0), detect["count"]),
        "core.retries": counts.get("exec.retried", 0),
        "exec.stages": stages["count"],
        "exec.tasks": counters.get("exec.tasks", 0),
        "exec.run_stage_self_s": stages["self_s"],
        "exec.stage_overhead_us": _ratio(stages["self_s"], stages["count"]) * 1e6,
        "store.checkpoints": counts.get("store.checkpoints", 0),
        "store.chain_bytes": counts.get("store.chain_bytes", 0),
        "store.write_s": span("store.write")["total_s"],
        "store.load_s": span("store.load")["total_s"],
        "store.restore_s": span("store.restore")["total_s"],
        "analysis.generate_report_s": span("analysis.generate_report")["total_s"],
        "analysis.scorecard_s": span("analysis.scorecard")["self_s"],
    }
    for builder in REPORT_BUILDERS:
        out[f"analysis.{builder}_s"] = span(f"analysis.{builder}")["self_s"]
    for method in API_METHODS:
        out[f"api.{method}_ms_p50"] = ms(f"api.{method}", "p50")
        out[f"api.{method}_ms_p99"] = ms(f"api.{method}", "p99")
    out["serve.stats_ms_p99"] = ms("serve.stats", "p99")
    for key in (
        "internet.warmup_first_touch_s",
        "serve.overhead_ms_p50",
        "serve.rejected_429",
        "serve.errors_5xx",
        "serve.transport_errors",
        "trace.overhead_s",
        "trace.unattributed_share",
    ):
        out[key] = extra.get(key, 0)
    return out


def sampled_counts(spans: dict) -> Dict[str, int]:
    """Sample counts behind every percentile reported from spans."""
    return {
        name: len(agg["samples"]) for name, agg in sorted(spans.items()) if agg["samples"]
    }


def with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every name in ``values``, which
    must be exactly the names ``units`` declares."""
    if set(values) != set(units):
        raise ValueError(f"reported {sorted(values)} but declared {sorted(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

