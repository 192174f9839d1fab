"""One measured unit of a batch workload, run in a fresh interpreter.

``python3 perfbench/units.py WORKLOAD --world SEED --trace 0|1 --work DIR``
runs one unit of ``campaign`` or ``checkpoint_resume`` through the public
API and prints one JSON object.
Every unit starts cold (no memo cache, pool or world left over from an
earlier unit), so units are independent samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

from spans import SpanRecorder, install, subtract

CAMPAIGN_SCALE = 0.1
CHECKPOINT_SCALE = 0.005
SCALES = {"campaign": CAMPAIGN_SCALE, "checkpoint_resume": CHECKPOINT_SCALE}
CROSSCHECK_SCALE = 0.005
ABORT_AFTER_ROUND = 17
SETUP_REPEATS = 21

clock = time.perf_counter


def digest(result) -> str:
    """sha256 over per-IP initial outcomes, per-round results and the
    final snapshot — the campaign's measured content, executor-independent."""
    h = hashlib.sha256()
    initial = result.initial
    for ip in sorted(initial.ip_records):
        record = initial.ip_records[ip]
        method = record.result.successful_method
        h.update(
            f"{ip}|{record.outcome.value}|{','.join(sorted(b.value for b in record.behaviors))}"
            f"|{method.value if method else '-'}\n".encode()
        )
    for rnd in result.rounds:
        h.update(f"round {rnd.date.isoformat()}\n".encode())
        for ip in sorted(rnd.results):
            h.update(f"{ip}|{rnd.results[ip].value}\n".encode())
    for name in sorted(result.snapshot_status):
        h.update(f"{name}|{result.snapshot_status[name].value}\n".encode())
    return h.hexdigest()


def invariant_errors(handle, result) -> list:
    """Structural checks any correct campaign result satisfies."""
    campaign = handle.campaign
    errors = []
    initial = result.initial
    resolved = {ip for ips in initial.domain_ips.values() for ip in ips}
    if set(initial.ip_records) != resolved:
        errors.append("initial sweep did not probe exactly the resolved addresses")
    if len(result.rounds) != len(campaign.round_dates()):
        errors.append(f"{len(result.rounds)} rounds, expected {len(campaign.round_dates())}")
    tracked = set(campaign.tracked_ips())
    for rnd in result.rounds:
        if set(rnd.results) != tracked:
            errors.append(f"round {rnd.date.date()} does not cover the tracked addresses")
            break
    if not initial.ip_records:
        errors.append("initial sweep probed nothing")
    return errors


def program_counts(handle) -> dict:
    """The program's own always-on counters (free, so reported untraced too)."""
    sim = handle.simulation
    campaign = sim.campaign
    counts = {}
    for source in (sim.fleet, sim.population, campaign.resolver, campaign.network):
        counts.update(source.perf_counters())
    total = campaign.executor.metrics.total()
    counts["exec.retried"] = total.retried
    counts["exec.stages"] = len(campaign.executor.metrics.stages)
    counts["exec.tasks"] = total.tasks
    return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_open_runs(api, config):
    """``api.open_run`` several times; returns (every duration, last handle)."""
    times, handle = [], None
    for _ in range(SETUP_REPEATS):
        if handle is not None:
            handle.close()
        started = clock()
        handle = api.open_run(config)
        times.append(clock() - started)
    return times, handle


def run_campaign(api, seed: int, recorder) -> dict:
    from repro.analysis import report as report_module

    config = api.RunConfig(scale=CAMPAIGN_SCALE, seed=seed)
    setup_samples, handle = timed_open_runs(api, config)
    before = recorder.snapshot()
    try:
        started = clock()
        result = handle.run()
        run_s = clock() - started
        started = clock()
        text = report_module.generate_report(handle.simulation)
        report_s = clock() - started
        trace = subtract(recorder.snapshot(), before)
        errors = invariant_errors(handle, result)
        if "## Paper-target scorecard" not in text:
            errors.append("report lacks the paper-target scorecard")
        counts = program_counts(handle)
        probe_wall = handle.campaign.executor.metrics.total().wall_seconds
    finally:
        handle.close()
    rss = peak_rss_mb()
    errors += crosscheck_executors(api, seed)
    return {
        "setup_samples_s": setup_samples,
        "wall_s": run_s + report_s,
        "run_s": run_s,
        "report_s": report_s,
        "probe_tasks": counts["exec.tasks"],
        "probe_wall_s": probe_wall,
        "probes_per_s": counts["exec.tasks"] / probe_wall,
        "peak_rss_mb": rss,
        "ops": counts["exec.tasks"],
        "digest": digest(result),
        "errors": errors,
        "counts": counts,
        "trace": trace,
    }


def crosscheck_executors(api, seed: int) -> list:
    """The serial and 2-worker process executors must agree on a small
    campaign of the same seed."""
    digests = {}
    for executor, workers in (("serial", 1), ("process", 2)):
        handle = api.open_run(
            api.RunConfig(scale=CROSSCHECK_SCALE, seed=seed, executor=executor, workers=workers)
        )
        try:
            digests[executor] = digest(handle.run())
        finally:
            handle.close()
    if digests["serial"] != digests["process"]:
        return [f"serial and process executors disagree at scale {CROSSCHECK_SCALE}"]
    return []


def run_checkpoint_resume(api, seed: int, work: str, recorder) -> dict:
    store_dir = os.path.join(work, f"store-{os.getpid()}")
    try:
        return _checkpoint_resume(api, seed, store_dir, recorder)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def _checkpoint_resume(api, seed: int, store_dir: str, recorder) -> dict:
    from repro.errors import CampaignAborted
    from repro.store import RunStore

    config = api.RunConfig(scale=CHECKPOINT_SCALE, seed=seed)
    setup_samples, handle = timed_open_runs(api, config)
    errors = []
    store = RunStore(store_dir)
    store.abort_after_round = ABORT_AFTER_ROUND
    before = recorder.snapshot()
    started = clock()
    try:
        handle.run(store=store)
        errors.append(f"run was not aborted after round {ABORT_AFTER_ROUND}")
    except CampaignAborted:
        pass
    finally:
        handle.close()
    checkpointed_s = clock() - started
    checkpointed = handle.campaign.executor.metrics.total()

    started = clock()
    resumed = api.resume(store_dir)
    resume_s = clock() - started
    try:
        started = clock()
        result = resumed.run(store=RunStore(store_dir))
        finish_s = clock() - started
        trace = subtract(recorder.snapshot(), before)
        counts = program_counts(resumed)
        finished = resumed.campaign.executor.metrics.total()
    finally:
        resumed.close()
    rss = peak_rss_mb()
    tasks = checkpointed.tasks + finished.tasks
    probe_wall = checkpointed.wall_seconds + finished.wall_seconds
    manifest_path = os.path.join(RunStore(store_dir).run_dir(config), "manifest.json")
    with open(manifest_path) as handle_:
        entries = json.load(handle_)["checkpoints"]
    counts["store.checkpoints"] = len(entries)
    counts["store.chain_bytes"] = sum(entry["size"] for entry in entries)

    reference = api.open_run(config)
    try:
        expected = digest(reference.run())
    finally:
        reference.close()
    value = digest(result)
    if value != expected:
        errors.append("resumed result differs from an uninterrupted run")
    errors += invariant_errors(resumed, result)
    wall = checkpointed_s + resume_s + finish_s
    return {
        "setup_samples_s": setup_samples,
        "wall_s": wall,
        "checkpointed_run_s": checkpointed_s,
        "resume_s": resume_s,
        "finish_s": finish_s,
        "probe_tasks": tasks,
        "probe_wall_s": probe_wall,
        "probes_per_s": tasks / probe_wall,
        # What a checkpointed campaign delivers: probes per second of the
        # whole interrupted timeline, store work included.
        "effective_probes_per_s": tasks / wall,
        "peak_rss_mb": rss,
        "ops": tasks,
        "digest": value,
        "errors": errors,
        "counts": counts,
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=tuple(SCALES))
    parser.add_argument("--world", type=int, required=True, help="the world's RunConfig seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    recorder = SpanRecorder()
    if args.trace:
        install(recorder)
    from repro import api

    if args.workload == "checkpoint_resume":
        out = run_checkpoint_resume(api, args.world, args.work, recorder)
    else:
        out = run_campaign(api, args.world, recorder)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
