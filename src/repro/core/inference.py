"""Inference rules for rounds with missing results (paper Section 7.6).

Not every tracked address answers every round (blacklisting, moves,
outages).  The paper bridges the gaps with two rules, both resting on the
assumption that MTAs do not regress after patching:

1. an address measured **vulnerable** at time *t* is inferred vulnerable
   for every time before *t* (back to the start of measurements);
2. an address measured **patched** at time *t* is inferred patched for
   every time after *t*.

Rounds where neither measurement nor inference applies are inconclusive.
Domain-level status aggregates over the domain's initially vulnerable
addresses: vulnerable while any is vulnerable, patched when all are.

Lookups are O(1): each timeline indexes its observations by date, and
the engine memoizes every (domain, date) status it aggregates, so the
per-round series behind Figures 5-8 only sum cached statuses.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .campaign import InitialMeasurement, MeasurementRound
from .detector import DetectionOutcome


class InferredStatus(enum.Enum):
    VULNERABLE = "vulnerable"
    PATCHED = "patched"
    INCONCLUSIVE = "inconclusive"


class Provenance(enum.Enum):
    MEASURED = "measured"
    INFERRED = "inferred"
    NONE = "none"


_Status = Tuple[InferredStatus, Provenance]


@dataclass
class IpTimeline:
    """One address's observations, indexed by date, and inference bounds.

    When two observations share a date the first one is the measurement
    for that date; every observation still moves the inference bounds.
    """

    ip: str
    observations: Dict[_dt.datetime, DetectionOutcome] = field(default_factory=dict)
    last_vulnerable: Optional[_dt.datetime] = None
    first_patched: Optional[_dt.datetime] = None

    def observe(self, date: _dt.datetime, outcome: DetectionOutcome) -> None:
        self.observations.setdefault(date, outcome)
        if outcome == DetectionOutcome.VULNERABLE:
            if self.last_vulnerable is None or date > self.last_vulnerable:
                self.last_vulnerable = date
        elif outcome.spf_measured:  # compliant or erroneous-non-vulnerable
            if self.first_patched is None or date < self.first_patched:
                self.first_patched = date

    def status_at(self, date: _dt.datetime) -> Tuple[InferredStatus, Provenance]:
        """Status and how we know it, at one instant."""
        measured = self.observations.get(date)
        if measured is not None and measured.spf_measured:
            status = (
                InferredStatus.VULNERABLE
                if measured == DetectionOutcome.VULNERABLE
                else InferredStatus.PATCHED
            )
            return status, Provenance.MEASURED
        if self.last_vulnerable is not None and date <= self.last_vulnerable:
            return InferredStatus.VULNERABLE, Provenance.INFERRED
        if self.first_patched is not None and date >= self.first_patched:
            return InferredStatus.PATCHED, Provenance.INFERRED
        return InferredStatus.INCONCLUSIVE, Provenance.NONE


@dataclass
class RoundSummary:
    """Aggregated counts for one round date (Figures 5-8 series)."""

    date: _dt.datetime
    total: int
    measured: int
    inferred: int
    inconclusive: int
    vulnerable: int
    patched: int

    @property
    def conclusive(self) -> int:
        return self.measured + self.inferred

    @property
    def vulnerable_fraction(self) -> float:
        """Vulnerable share among status-determinable items."""
        determinable = self.vulnerable + self.patched
        return self.vulnerable / determinable if determinable else 0.0


class InferenceEngine:
    """Builds timelines from campaign output and answers status queries."""

    def __init__(
        self,
        initial: InitialMeasurement,
        rounds: Sequence[MeasurementRound],
    ) -> None:
        self.initial = initial
        self.rounds = list(rounds)
        self.timelines: Dict[str, IpTimeline] = {}

        for ip in initial.vulnerable_ips():
            timeline = IpTimeline(ip=ip)
            timeline.observe(initial.date, DetectionOutcome.VULNERABLE)
            self.timelines[ip] = timeline

        for round_ in self.rounds:
            for ip, outcome in round_.results.items():
                if ip in self.timelines:
                    self.timelines[ip].observe(round_.date, outcome)

        #: initially vulnerable domains → their initially vulnerable IPs.
        self.domain_vulnerable_ips: Dict[str, List[str]] = {}
        vulnerable_ip_set = set(self.timelines)
        for name in initial.vulnerable_domains():
            self.domain_vulnerable_ips[name] = [
                ip for ip in initial.domain_ips.get(name, []) if ip in vulnerable_ip_set
            ]
        #: name → date → memoized :meth:`domain_status`.
        self._domain_statuses: Dict[str, Dict[_dt.datetime, _Status]] = {}

    # -- status queries ---------------------------------------------------------

    def ip_status(self, ip: str, date: _dt.datetime) -> Tuple[InferredStatus, Provenance]:
        timeline = self.timelines.get(ip)
        if timeline is None:
            return InferredStatus.INCONCLUSIVE, Provenance.NONE
        return timeline.status_at(date)

    def domain_status(self, name: str, date: _dt.datetime) -> Tuple[InferredStatus, Provenance]:
        """Vulnerable while any initially vulnerable IP is; patched when
        all are; inconclusive otherwise.  Computed once per (name, date)."""
        ips = self.domain_vulnerable_ips.get(name)
        if not ips:
            return InferredStatus.INCONCLUSIVE, Provenance.NONE
        by_date = self._domain_statuses.setdefault(name, {})
        status = by_date.get(date)
        if status is None:
            status = by_date[date] = self._aggregate(ips, date)
        return status

    def _aggregate(self, ips: List[str], date: _dt.datetime) -> _Status:
        statuses = [self.ip_status(ip, date) for ip in ips]
        if any(s == InferredStatus.VULNERABLE for s, _ in statuses):
            provenance = (
                Provenance.MEASURED
                if any(
                    s == InferredStatus.VULNERABLE and p == Provenance.MEASURED
                    for s, p in statuses
                )
                else Provenance.INFERRED
            )
            return InferredStatus.VULNERABLE, provenance
        if all(s == InferredStatus.PATCHED for s, _ in statuses):
            provenance = (
                Provenance.MEASURED
                if all(p == Provenance.MEASURED for _, p in statuses)
                else Provenance.INFERRED
            )
            return InferredStatus.PATCHED, provenance
        return InferredStatus.INCONCLUSIVE, Provenance.NONE

    # -- aggregation ----------------------------------------------------------------

    def round_summaries_ips(self) -> List[RoundSummary]:
        return [
            self._summarize(
                round_.date,
                (self.ip_status(ip, round_.date) for ip in self.timelines),
                len(self.timelines),
            )
            for round_ in self.rounds
        ]

    def round_summaries_domains(
        self, names: Optional[Iterable[str]] = None
    ) -> List[RoundSummary]:
        domain_names = list(names) if names is not None else list(self.domain_vulnerable_ips)
        return [
            self._summarize(
                round_.date,
                (self.domain_status(name, round_.date) for name in domain_names),
                len(domain_names),
            )
            for round_ in self.rounds
        ]

    @staticmethod
    def _summarize(
        date: _dt.datetime,
        statuses: Iterable[Tuple[InferredStatus, Provenance]],
        total: int,
    ) -> RoundSummary:
        measured = inferred = inconclusive = vulnerable = patched = 0
        for status, provenance in statuses:
            if provenance == Provenance.MEASURED:
                measured += 1
            elif provenance == Provenance.INFERRED:
                inferred += 1
            else:
                inconclusive += 1
            if status == InferredStatus.VULNERABLE:
                vulnerable += 1
            elif status == InferredStatus.PATCHED:
                patched += 1
        return RoundSummary(
            date=date,
            total=total,
            measured=measured,
            inferred=inferred,
            inconclusive=inconclusive,
            vulnerable=vulnerable,
            patched=patched,
        )
