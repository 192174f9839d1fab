"""Checkpoint capture and restore for longitudinal campaigns.

A checkpoint must let a *fresh* process reproduce the exact state of a
campaign that has completed ``k`` rounds, down to every RNG stream,
greylist timestamp, and DNS cache entry — because the acceptance bar for
resume is byte-identical traces and CSVs, not "close enough".

The split of labor is deliberate:

- **Rebuilt, not snapshotted** — everything :meth:`Simulation.build`
  derives deterministically from the :class:`~repro.api.RunConfig`:
  population, fleet, geography, patch plans, notification RNG.  Under
  the lazy world, patch and move *effects* are not scheduled events at
  all — each server folds them in as pure functions of the clock on
  first touch (see "Lazy world construction" in ``DESIGN.md``) — so
  re-running the build and fast-forwarding the clock to the checkpoint
  instant (replaying the notification at the recorded clock reading)
  reproduces all of it without crossing the pickle boundary.

- **Snapshotted** — the mutable state those events and ``k`` rounds of
  probing left behind: per-server session counters, greylist/blacklist
  memory and banner-noise RNG, network/ethics counters, label
  allocations, the resolver cache (cache warmth changes observed query
  counts), preferred probe methods, and the executor's world-event
  history (how a process-executor worker respawned mid-timeline catches
  up).

Each checkpoint file holds a :class:`CheckpointDelta`: only what changed
since the previous file — the new rounds, the appended executor history
and stage metrics, the world entries that differ, and the trace and
query-log events emitted since.  The first file's delta is taken against
:meth:`Checkpoint.empty`, so it is the full base.  Folding the deltas in
chain order (:meth:`Checkpoint.fold`) yields the full :class:`Checkpoint`;
the writer keeps that fold as its mirror of what the chain holds, so
each file costs one round's changes, not the whole past.
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.campaign import InitialMeasurement, MeasurementRound
    from ..simulation import Simulation

#: bump when the checkpoint payload shape changes incompatibly.
CHECKPOINT_VERSION = 2

#: The world-state tables besides ``servers``, each mapping a key to an
#: immutable value.
_TABLES = (
    "counters", "last_contact", "next_id", "ip_for_label", "cache",
    "preferred", "ip_domain",
)
#: Tables whose changes are found by identity rather than equality: the
#: resolver always stores a fresh ``_CacheEntry`` and never mutates one.
_BY_IDENTITY = ("cache",)

_ABSENT = object()
_UNTOUCHED = {"sessions_accepted": 0}


@dataclass
class Checkpoint:
    """A campaign's full persisted state: the fold of a chain's deltas.

    Every ``world`` table maps a key to its value (``servers`` maps an
    address to its snapshot, see :func:`capture_world_state`).
    """

    kind: str  # "initial" | "round"
    clock_now: Optional[_dt.datetime]
    notified: bool
    notified_clock: Optional[_dt.datetime]
    initial: Optional["InitialMeasurement"]
    rounds: List["MeasurementRound"]
    world: Dict[str, dict]
    #: process-executor world-event history (stage assignments +
    #: notifications); empty for the serial/sharded strategies.
    executor_history: List[object]
    executor_stages_run: int
    #: per-stage executor metrics accumulated so far (provenance only).
    executor_stage_metrics: List[object]
    #: cumulative :meth:`MetricsRegistry.snapshot` (None when unobserved).
    metrics_snapshot: Optional[dict]
    #: stage ordinals consumed so far (re-seeds the resumed tracer).
    stages_begun: int

    @classmethod
    def empty(cls) -> "Checkpoint":
        """The state before the first checkpoint (what file 0 diffs against)."""
        return cls(
            kind="", clock_now=None, notified=False, notified_clock=None,
            initial=None, rounds=[],
            world={name: {} for name in ("servers", *_TABLES)},
            executor_history=[], executor_stages_run=0,
            executor_stage_metrics=[], metrics_snapshot=None, stages_begun=0,
        )

    def copy(self) -> "Checkpoint":
        """A copy whose containers a later :meth:`fold` may mutate."""
        return dataclasses.replace(
            self,
            rounds=list(self.rounds),
            world={name: dict(table) for name, table in self.world.items()},
            executor_history=list(self.executor_history),
            executor_stage_metrics=list(self.executor_stage_metrics),
        )

    def fold(self, delta: "CheckpointDelta") -> None:
        """Apply the next file of the chain to this state, in place."""
        self.kind = delta.kind
        self.clock_now = delta.clock_now
        self.notified = delta.notified
        self.notified_clock = delta.notified_clock
        if delta.initial is not None:
            self.initial = delta.initial
        self.rounds.extend(delta.rounds)
        for name, (changed, removed) in delta.world.items():
            table = self.world[name]
            for key in removed:
                del table[key]
            table.update(changed)
        self.executor_history.extend(delta.executor_history)
        self.executor_stages_run = delta.executor_stages_run
        self.executor_stage_metrics.extend(delta.executor_stage_metrics)
        self.metrics_snapshot = delta.metrics_snapshot
        self.stages_begun = delta.stages_begun


@dataclass
class CheckpointDelta:
    """One checkpoint file: what changed since the previous file (picklable)."""

    kind: str  # "initial" | "round"
    clock_now: _dt.datetime
    notified: bool
    notified_clock: Optional[_dt.datetime]
    #: set in the first file only.
    initial: Optional["InitialMeasurement"]
    #: rounds completed since the previous file.
    rounds: List["MeasurementRound"]
    #: per world table: (entries added or changed, keys removed).
    world: Dict[str, Tuple[dict, list]]
    #: executor history events and stage metrics appended since.
    executor_history: List[object]
    executor_stages_run: int
    executor_stage_metrics: List[object]
    metrics_snapshot: Optional[dict]
    #: trace events emitted since the previous file.
    trace_segment: List[object]
    #: query-log entries recorded since the previous file.
    querylog_segment: List[object]
    stages_begun: int
    version: int = CHECKPOINT_VERSION


@dataclass
class ResumeState:
    """Restored progress handed to :meth:`MeasurementCampaign.resume_run`."""

    rounds: List["MeasurementRound"]
    notified: bool
    notification_report: Optional[object]


@dataclass
class RunProvenance:
    """Where a resumed simulation came from (for reports/debugging)."""

    run_id: str
    config_hash: str
    checkpoint_kind: str
    rounds_completed: int
    clock_now: _dt.datetime


# -- capture ------------------------------------------------------------------


def _server_state(server) -> dict:
    return {
        "sessions_accepted": server.sessions_accepted,
        "crash_count": server.crash_count,
        "blacklisted": server._blacklisted,
        "greylist": dict(server._greylist_first_seen),
        "inbox": list(server.inbox),
        "noise_state": server._noise.getstate(),
        "stub_next_id": (
            server.resolver._next_id if server.resolver is not None else None
        ),
    }


def capture_world_state(sim: "Simulation", held: Dict[str, dict]) -> dict:
    """The mutable world state the rebuild cannot reproduce, as a delta
    against ``held`` (the world tables the chain already holds).

    A server is captured when its ``sessions_accepted`` moved: every
    server-side mutation (inbox, greylist, blacklist, crash count,
    banner-noise draws, stub query ids) happens inside a session, so an
    unchanged counter means an unchanged server, and a server that never
    accepted one is already in its rebuilt state.  Under the process
    executor the parent's servers never accept sessions at all (probing
    happens in the shard replicas, which rebuild from the event
    history), which keeps the server table empty.  The other tables are
    compared key by key (see ``_BY_IDENTITY``).
    """
    campaign = sim.campaign
    network, ethics, labels, resolver = (
        campaign.network, campaign.ethics, campaign.labels, campaign.resolver
    )
    held_servers = held["servers"]
    servers = {
        ip: _server_state(server)
        for ip, server in network._servers.items()
        if server.sessions_accepted
        != held_servers.get(ip, _UNTOUCHED)["sessions_accepted"]
    }
    live = {
        "counters": {
            "connection_attempts": network.connection_attempts,
            "connections_established": network.connections_established,
            "ethics_active": ethics._active,
            "peak_concurrency": ethics.peak_concurrency,
            "connections_opened": ethics.connections_opened,
            "next_suite": labels._next_suite,
            "query_count": resolver.query_count,
            "cache_hits": resolver.cache_hits,
            "stub_next_id": campaign._stub._next_id,
        },
        "last_contact": ethics._last_contact,
        "next_id": labels._next_id,
        "ip_for_label": labels._ip_for_label,
        "cache": resolver._cache,
        "preferred": campaign._preferred,
        "ip_domain": campaign._ip_domain,
    }
    delta = {"servers": (servers, [])}
    for name in _TABLES:
        old, new = held[name], live[name]
        if name in _BY_IDENTITY:
            changed = {k: v for k, v in new.items() if old.get(k, _ABSENT) is not v}
        else:
            changed = {k: v for k, v in new.items() if old.get(k, _ABSENT) != v}
        delta[name] = (changed, [key for key in old if key not in new])
    return delta


def capture_checkpoint(
    sim: "Simulation",
    held: Checkpoint,
    *,
    kind: str,
    rounds: List["MeasurementRound"],
    notified: bool,
    trace_mark: int,
    qlog_mark: int,
) -> CheckpointDelta:
    """The next checkpoint file: the campaign's current state as a delta
    against ``held``, the state the chain written so far folds to.

    ``trace_mark``/``qlog_mark`` are the positions up to which previous
    checkpoints already persisted evidence; only the delta is stored.
    """
    campaign = sim.campaign
    executor = campaign.executor
    obs = sim.observation
    tracing = obs is not None and obs.tracer.enabled
    history = getattr(executor, "_history", ())
    return CheckpointDelta(
        kind=kind,
        clock_now=campaign.clock.now,
        notified=notified,
        notified_clock=campaign._notified_clock,
        initial=campaign._require_initial() if held.initial is None else None,
        rounds=list(rounds[len(held.rounds):]),
        world=capture_world_state(sim, held.world),
        executor_history=list(history[len(held.executor_history):]),
        executor_stages_run=getattr(executor, "_stages_run", 0),
        executor_stage_metrics=list(
            executor.metrics.stages[len(held.executor_stage_metrics):]
        ),
        metrics_snapshot=obs.metrics.snapshot() if obs is not None else None,
        trace_segment=obs.tracer.events_since(trace_mark) if tracing else [],
        querylog_segment=campaign.responder.log.entries_since(qlog_mark),
        stages_begun=obs.tracer.open_stage_ordinal() if obs is not None else 0,
    )


# -- restore ------------------------------------------------------------------


def install_world_state(sim: "Simulation", world: Dict[str, dict]) -> None:
    """Overwrite the rebuilt world's mutable state with a full world state."""
    campaign = sim.campaign
    for ip, snap in world["servers"].items():
        server = campaign.network.server_at(ip)
        server.sessions_accepted = snap["sessions_accepted"]
        server.crash_count = snap["crash_count"]
        server._blacklisted = snap["blacklisted"]
        server._greylist_first_seen = dict(snap["greylist"])
        server.inbox = list(snap["inbox"])
        server._noise.setstate(snap["noise_state"])
        if snap["stub_next_id"] is not None and server.resolver is not None:
            server.resolver._next_id = snap["stub_next_id"]
    counters = world["counters"]
    network = campaign.network
    network.connection_attempts = counters["connection_attempts"]
    network.connections_established = counters["connections_established"]
    ethics = campaign.ethics
    ethics._last_contact = dict(world["last_contact"])
    ethics._active = counters["ethics_active"]
    ethics.peak_concurrency = counters["peak_concurrency"]
    ethics.connections_opened = counters["connections_opened"]
    labels = campaign.labels
    labels._next_suite = counters["next_suite"]
    labels._next_id = dict(world["next_id"])
    labels._ip_for_label = dict(world["ip_for_label"])
    resolver = campaign.resolver
    resolver._cache = dict(world["cache"])
    resolver.query_count = counters["query_count"]
    resolver.cache_hits = counters["cache_hits"]
    campaign._stub._next_id = counters["stub_next_id"]
    campaign._preferred = dict(world["preferred"])
    campaign._ip_domain = dict(world["ip_domain"])


def restore_simulation(sim: "Simulation", state) -> None:
    """Bring a freshly built simulation to a checkpoint's exact state.

    ``state`` is a :class:`repro.store.RunState`.  The order matters:

    1. **Replay the notification** (if the checkpoint is past it) at the
       recorded clock reading — this consumes the same notification-RNG
       draws and schedules the same email-open callbacks the original
       run scheduled.
    2. **Fast-forward the clock** to the checkpoint instant, looping
       until quiescent: callbacks scheduled *during* an advance (an
       open that triggers a patch-plan override) land after the
       due-list was computed, so a single ``advance_to`` can leave
       strictly-due work pending.  Every RNG-consuming callback fires
       in chronological order in both runs; patch and move *effects*
       need no replay — they are pure functions of the clock, folded
       into each server on touch.
    3. **Install the mutable snapshot** over the rebuilt world.
    4. **Restore the executor's event history** so process workers can
       respawn mid-timeline by replaying it (``_sent`` stays empty: the
       next stage ships the full history to each fresh worker).
    5. **Stitch the evidence**: merge the cumulative metrics snapshot,
       ingest the trace and query-log delta segments in checkpoint
       order, and re-seed stage numbering.
    """
    checkpoint = state.checkpoint
    campaign = sim.campaign
    clock = campaign.clock

    if checkpoint.notified:
        clock.advance_to(max(clock.now, checkpoint.notified_clock))
        notification_report = sim.notification.send_notifications(
            checkpoint.initial.vulnerable_domains(),
            campaign.config.notification_date,
        )
        # The executor's restored history already contains this
        # notification's NotifyEvent; record_notification must NOT run
        # again here or replicas would replay it twice.
    else:
        notification_report = None

    clock.advance_to(max(clock.now, checkpoint.clock_now))
    while clock.next_scheduled(until=clock.now) is not None:
        clock.advance_to(clock.now)

    install_world_state(sim, checkpoint.world)
    campaign.initial = checkpoint.initial
    campaign._notified_clock = checkpoint.notified_clock

    executor = campaign.executor
    if hasattr(executor, "_history"):
        executor._history = list(checkpoint.executor_history)
        executor._stages_run = checkpoint.executor_stages_run
    executor.metrics.stages = list(checkpoint.executor_stage_metrics)

    obs = sim.observation
    if obs is not None:
        if checkpoint.metrics_snapshot is not None:
            obs.metrics.merge(checkpoint.metrics_snapshot)
        if obs.tracer.enabled:
            obs.tracer.stitch(
                state.trace_segments, stages_begun=checkpoint.stages_begun
            )
    campaign.responder.log.ingest(
        entry for segment in state.querylog_segments for entry in segment
    )

    sim._resume = ResumeState(
        rounds=list(checkpoint.rounds),
        notified=checkpoint.notified,
        notification_report=notification_report,
    )
    # A store writer attached to this simulation continues the same
    # chain: it keeps the valid manifest prefix it resumed from and diffs
    # against the state that prefix folds to.
    sim._store_chain = (state.entries, checkpoint)
    sim.provenance = RunProvenance(
        run_id=state.run_id,
        config_hash=state.config.content_hash(),
        checkpoint_kind=checkpoint.kind,
        rounds_completed=len(checkpoint.rounds),
        clock_now=checkpoint.clock_now,
    )
