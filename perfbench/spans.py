"""Spans around the public entry points of each layer, and the per-layer
metrics derived from them.

The benchmark never edits the program: :func:`install` replaces public
methods and functions (module attributes, looked up again at every
call site) with thin wrappers that open and close a span on a
:class:`SpanRecorder`.  Spans are reduced to per-name aggregates when
they close — count, total duration, self time, and for a few request
spans the raw durations — held in memory and written out when the
benchmark ends.  A span's self time is its duration minus the durations
of the spans it directly encloses, so self times of nested layers never
double count and ``sum(self) == sum(durations of root spans)``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (module, owner.attribute, span name[, counter hook]).  A hook receives
# the call's positional arguments and its result and returns counter
# increments, so ratios are counted where the work happens.


def _stage_tasks(args, result) -> Dict[str, int]:
    return {"exec.tasks": len(args[2])}


def _spf_measured(args, result) -> Dict[str, int]:
    return {"core.spf_measured": int(bool(result.outcome.spf_measured))}


#: The report's table and figure builders (``build_<name>``).
REPORT_BUILDERS = tuple(
    f"table{n}" for n in range(1, 8)
) + tuple(f"figure{n}" for n in range(2, 9))
#: ``RunHandle`` read and probe methods the daemon serves.
API_METHODS = ("census_row", "patch_status_since", "status", "probe_domain", "check_mta")

LAYER_SPANS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.smtp.transport", "Network.server_at", "internet.first_touch", None),
    ("repro.internet.mta_fleet", "MtaFleet.unit_at", "internet.first_touch", None),
    ("repro.dns.resolver", "CachingResolver.query", "dns.query", None),
    ("repro.dns.server", "SpfTestResponder.query", "dns.responder", None),
    ("repro.core.campaign", "MeasurementCampaign.resolve_ips", "dns.resolve_ips", None),
    ("repro.core.campaign", "MeasurementCampaign.resolve_domain_ips", "dns.resolve_ips", None),
    ("repro.smtp.client", "SmtpClient.probe", "smtp.probe", None),
    ("repro.spf.evaluator", "SpfEvaluator.check_host", "spf.check_host", None),
    (
        "repro.spf.implementations.base",
        "MacroExpansionBehavior.expand_domain_spec",
        "spf.macro_expand",
        None,
    ),
    ("repro.libspf2.expand", "LibSpf2Expander.expand", "libspf2.expand", None),
    ("repro.core.detector", "VulnerabilityDetector.detect", "core.detect", _spf_measured),
    ("repro.exec.engine", "SerialExecutor.run_stage", "exec.run_stage", _stage_tasks),
    ("repro.exec.engine", "ShardedExecutor.run_stage", "exec.run_stage", _stage_tasks),
    (
        "repro.exec.engine",
        "ProcessShardedExecutor.run_stage",
        "exec.run_stage",
        _stage_tasks,
    ),
    ("repro.store.runstore", "CheckpointWriter.after_initial", "store.write", None),
    ("repro.store.runstore", "CheckpointWriter.after_round", "store.write", None),
    ("repro.store.runstore", "RunStore.load_latest", "store.load", None),
    ("repro.store", "restore_simulation", "store.restore", None),
    ("repro.analysis.report", "generate_report", "analysis.generate_report", None),
    ("repro.analysis.report", "evaluate_targets", "analysis.scorecard", None),
) + tuple(
    ("repro.analysis.report", f"build_{name}", f"analysis.{name}", None)
    for name in REPORT_BUILDERS
) + tuple(
    ("repro.api", f"RunHandle.{method}", f"api.{method}", None) for method in API_METHODS
) + (
    ("repro.serve.service", "ScanService.stats", "serve.stats", None),
    ("repro.serve.service", "ScanService.submit", "serve.submit", None),
)

#: Spans whose individual durations are kept, for percentiles.
SAMPLED = frozenset(
    [f"api.{m}" for m in API_METHODS] + ["serve.stats", "serve.submit"]
)


class _Aggregate:
    __slots__ = ("count", "total_s", "self_s", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.samples: List[float] = []


class SpanRecorder:
    """Per-thread span stacks reduced to per-name aggregates on close."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sampled: Iterable[str] = SAMPLED,
    ) -> None:
        self.clock = clock
        self.sampled = frozenset(sampled)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[dict, dict]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._threads.append(state[1:])
        return state

    def enter(self, name: str) -> None:
        self._state()[0].append([name, self.clock(), 0.0])

    def exit(self) -> None:
        stack, table, _ = self._state()
        name, start, children = stack.pop()
        duration = self.clock() - start
        if stack:
            stack[-1][2] += duration
        agg = table.get(name)
        if agg is None:
            agg = table[name] = _Aggregate()
        agg.count += 1
        agg.total_s += duration
        agg.self_s += duration - children
        if name in self.sampled:
            agg.samples.append(duration)

    def count(self, increments: Dict[str, int]) -> None:
        counters = self._state()[2]
        for key, value in increments.items():
            counters[key] = counters.get(key, 0) + value

    def snapshot(self) -> dict:
        """``{"spans": {name: {...}}, "counters": {...}}`` over all threads."""
        spans: Dict[str, dict] = {}
        counters: Dict[str, int] = {}
        with self._lock:
            threads = list(self._threads)
        for table, thread_counters in threads:
            for name, agg in list(table.items()):
                out = spans.setdefault(
                    name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "samples": []}
                )
                out["count"] += agg.count
                out["total_s"] += agg.total_s
                out["self_s"] += agg.self_s
                out["samples"].extend(agg.samples)
            for key, value in list(thread_counters.items()):
                counters[key] = counters.get(key, 0) + value
        return {"spans": spans, "counters": counters}


def _wrap(original: Callable, name: str, recorder: SpanRecorder, hook) -> Callable:
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            result = original(*args, **kwargs)
        finally:
            exit_()
        if hook is not None:
            recorder.count(hook(args, result))
        return result

    return wrapper


def install(recorder: SpanRecorder, table=LAYER_SPANS) -> Callable[[], None]:
    """Wrap every entry point in ``table``; returns the undo function."""
    undo = []
    for module_name, path, name, hook in table:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, _wrap(original, name, recorder, hook))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def subtract(after: dict, before: dict) -> dict:
    """The spans and counters recorded between two snapshots."""
    spans = {}
    for name, agg in after["spans"].items():
        base = before["spans"].get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "samples": []})
        spans[name] = {
            "count": agg["count"] - base["count"],
            "total_s": agg["total_s"] - base["total_s"],
            "self_s": agg["self_s"] - base["self_s"],
            "samples": agg["samples"][len(base["samples"]):],
        }
    counters = {
        key: value - before["counters"].get(key, 0)
        for key, value in after["counters"].items()
    }
    return {"spans": spans, "counters": counters}
