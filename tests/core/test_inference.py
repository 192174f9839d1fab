"""Tests for the inference rules (paper Section 7.6)."""

import datetime as dt

import pytest

from repro.clock import utc
from repro.core.campaign import (
    DomainStatus,
    InitialMeasurement,
    IpInitialRecord,
    MeasurementRound,
)
from repro.core.detector import DetectionOutcome, DetectionResult
from repro.core.inference import (
    InferenceEngine,
    InferredStatus,
    IpTimeline,
    Provenance,
)
from repro.internet.population import DomainSet

T0 = utc(2021, 10, 11)
R1 = utc(2021, 10, 26)
R2 = utc(2021, 10, 28)
R3 = utc(2021, 10, 30)
R4 = utc(2021, 11, 1)


def make_initial(vulnerable_ips, domain_ips):
    records = {}
    for ips in domain_ips.values():
        for ip in ips:
            outcome = (
                DetectionOutcome.VULNERABLE
                if ip in vulnerable_ips
                else DetectionOutcome.COMPLIANT
            )
            records[ip] = IpInitialRecord(
                ip=ip,
                result=DetectionResult(ip=ip, suite="s", outcome=outcome),
            )
    status = {
        name: (
            DomainStatus.VULNERABLE
            if any(ip in vulnerable_ips for ip in ips)
            else DomainStatus.NOT_VULNERABLE
        )
        for name, ips in domain_ips.items()
    }
    return InitialMeasurement(
        date=T0, domain_ips=domain_ips, ip_records=records, domain_status=status
    )


def rounds(*specs):
    """specs: (date, {ip: outcome})"""
    return [MeasurementRound(date=date, results=dict(res)) for date, res in specs]


class TestIpTimeline:
    def test_rule1_vulnerable_inferred_backwards(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R3, DetectionOutcome.VULNERABLE)
        status, provenance = timeline.status_at(R1)
        assert status == InferredStatus.VULNERABLE
        assert provenance == Provenance.INFERRED

    def test_rule2_patched_inferred_forwards(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R1, DetectionOutcome.COMPLIANT)
        status, provenance = timeline.status_at(R4)
        assert status == InferredStatus.PATCHED
        assert provenance == Provenance.INFERRED

    def test_measured_beats_inferred(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R1, DetectionOutcome.VULNERABLE)
        timeline.observe(R3, DetectionOutcome.VULNERABLE)
        status, provenance = timeline.status_at(R1)
        assert provenance == Provenance.MEASURED

    def test_gap_between_vulnerable_and_patched_inconclusive(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R1, DetectionOutcome.VULNERABLE)
        timeline.observe(R4, DetectionOutcome.COMPLIANT)
        status, provenance = timeline.status_at(R2)
        assert status == InferredStatus.INCONCLUSIVE

    def test_erroneous_counts_as_patched(self):
        # Switching to a different (broken but not vulnerable) SPF library
        # still ends vulnerability.
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R2, DetectionOutcome.ERRONEOUS)
        status, _ = timeline.status_at(R3)
        assert status == InferredStatus.PATCHED

    def test_unmeasured_rounds_with_no_observations(self):
        timeline = IpTimeline("10.0.0.1")
        status, provenance = timeline.status_at(R1)
        assert status == InferredStatus.INCONCLUSIVE
        assert provenance == Provenance.NONE

    def test_first_observation_for_a_date_wins(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R2, DetectionOutcome.VULNERABLE)
        timeline.observe(R2, DetectionOutcome.COMPLIANT)
        assert timeline.status_at(R2) == (
            InferredStatus.VULNERABLE,
            Provenance.MEASURED,
        )
        # The later observation still moves the patched bound.
        assert timeline.first_patched == R2
        assert timeline.status_at(R3) == (InferredStatus.PATCHED, Provenance.INFERRED)

    def test_failed_round_is_not_an_observation(self):
        timeline = IpTimeline("10.0.0.1")
        timeline.observe(R1, DetectionOutcome.VULNERABLE)
        timeline.observe(R2, DetectionOutcome.SMTP_FAILED)
        status, provenance = timeline.status_at(R2)
        # Falls back to rule 1 via the *later*... no later vulnerable here,
        # so only the R1 observation bounds it: R2 is past last_vulnerable.
        assert status == InferredStatus.INCONCLUSIVE


class TestEngineIpLevel:
    def test_initial_measurement_seeds_timelines(self):
        initial = make_initial({"10.0.0.1"}, {"a.com": ["10.0.0.1"]})
        engine = InferenceEngine(initial, [])
        status, _ = engine.ip_status("10.0.0.1", T0)
        assert status == InferredStatus.VULNERABLE

    def test_untracked_ip_inconclusive(self):
        initial = make_initial({"10.0.0.1"}, {"a.com": ["10.0.0.1"]})
        engine = InferenceEngine(initial, [])
        status, _ = engine.ip_status("10.9.9.9", T0)
        assert status == InferredStatus.INCONCLUSIVE

    def test_round_observations_applied(self):
        initial = make_initial({"10.0.0.1"}, {"a.com": ["10.0.0.1"]})
        engine = InferenceEngine(
            initial,
            rounds(
                (R1, {"10.0.0.1": DetectionOutcome.VULNERABLE}),
                (R2, {"10.0.0.1": DetectionOutcome.COMPLIANT}),
            ),
        )
        assert engine.ip_status("10.0.0.1", R1)[0] == InferredStatus.VULNERABLE
        assert engine.ip_status("10.0.0.1", R2)[0] == InferredStatus.PATCHED
        assert engine.ip_status("10.0.0.1", R3)[0] == InferredStatus.PATCHED


class TestEngineDomainLevel:
    def setup_engine(self):
        initial = make_initial(
            {"10.0.0.1", "10.0.0.2"},
            {"a.com": ["10.0.0.1", "10.0.0.2"], "b.com": ["10.0.0.2"]},
        )
        return InferenceEngine(
            initial,
            rounds(
                (R1, {
                    "10.0.0.1": DetectionOutcome.COMPLIANT,
                    "10.0.0.2": DetectionOutcome.VULNERABLE,
                }),
                (R2, {
                    "10.0.0.1": DetectionOutcome.COMPLIANT,
                    "10.0.0.2": DetectionOutcome.COMPLIANT,
                }),
            ),
        )

    def test_domain_vulnerable_while_any_ip_vulnerable(self):
        engine = self.setup_engine()
        assert engine.domain_status("a.com", R1)[0] == InferredStatus.VULNERABLE

    def test_domain_patched_when_all_ips_patched(self):
        engine = self.setup_engine()
        assert engine.domain_status("a.com", R2)[0] == InferredStatus.PATCHED

    def test_domain_with_single_ip_follows_it(self):
        engine = self.setup_engine()
        assert engine.domain_status("b.com", R1)[0] == InferredStatus.VULNERABLE
        assert engine.domain_status("b.com", R2)[0] == InferredStatus.PATCHED

    def test_unknown_domain_inconclusive(self):
        engine = self.setup_engine()
        assert engine.domain_status("zz.com", R1)[0] == InferredStatus.INCONCLUSIVE

    def test_only_initially_vulnerable_ips_considered(self):
        initial = make_initial(
            {"10.0.0.1"}, {"a.com": ["10.0.0.1", "10.0.0.5"]}
        )
        engine = InferenceEngine(initial, [])
        assert engine.domain_vulnerable_ips["a.com"] == ["10.0.0.1"]


class TestSummaries:
    def test_counts_partition(self):
        initial = make_initial(
            {"10.0.0.1", "10.0.0.2", "10.0.0.3"},
            {"a.com": ["10.0.0.1"], "b.com": ["10.0.0.2"], "c.com": ["10.0.0.3"]},
        )
        engine = InferenceEngine(
            initial,
            rounds(
                (R1, {
                    "10.0.0.1": DetectionOutcome.VULNERABLE,
                    "10.0.0.2": DetectionOutcome.SMTP_FAILED,
                }),
                (R2, {
                    "10.0.0.1": DetectionOutcome.COMPLIANT,
                    "10.0.0.3": DetectionOutcome.VULNERABLE,
                }),
            ),
        )
        for summary in engine.round_summaries_ips():
            assert summary.total == 3
            assert summary.measured + summary.inferred + summary.inconclusive == 3
            assert summary.vulnerable + summary.patched <= 3

    def test_rule1_shows_in_first_round(self):
        initial = make_initial({"10.0.0.1"}, {"a.com": ["10.0.0.1"]})
        engine = InferenceEngine(
            initial,
            rounds(
                (R1, {}),  # missed
                (R2, {"10.0.0.1": DetectionOutcome.VULNERABLE}),
            ),
        )
        first, second = engine.round_summaries_ips()
        assert first.inferred == 1  # rule 1 backfills R1
        assert second.measured == 1

    def test_vulnerable_fraction(self):
        initial = make_initial(
            {"10.0.0.1", "10.0.0.2"},
            {"a.com": ["10.0.0.1"], "b.com": ["10.0.0.2"]},
        )
        engine = InferenceEngine(
            initial,
            rounds(
                (R1, {
                    "10.0.0.1": DetectionOutcome.VULNERABLE,
                    "10.0.0.2": DetectionOutcome.COMPLIANT,
                }),
            ),
        )
        summary = engine.round_summaries_ips()[0]
        assert summary.vulnerable_fraction == 0.5

    def test_domain_summaries_filterable(self):
        engine = TestEngineDomainLevel().setup_engine()
        only_b = engine.round_summaries_domains(["b.com"])
        assert all(s.total == 1 for s in only_b)

    def test_domain_status_computed_once_per_round(self):
        engine = TestEngineDomainLevel().setup_engine()
        calls = []
        aggregate = engine._aggregate
        engine._aggregate = lambda ips, date: calls.append(date) or aggregate(ips, date)
        first = engine.round_summaries_domains()
        assert engine.round_summaries_domains() == first
        assert engine.round_summaries_domains(["b.com"]) == engine.round_summaries_domains(
            ["b.com"]
        )
        assert len(calls) == len(engine.domain_vulnerable_ips) * len(engine.rounds)


def _reference_ip_status(observations, date):
    """The linear-scan rules, straight from Section 7.6."""
    measured = next((outcome for d, outcome in observations if d == date), None)
    if measured is not None and measured.spf_measured:
        if measured == DetectionOutcome.VULNERABLE:
            return InferredStatus.VULNERABLE, Provenance.MEASURED
        return InferredStatus.PATCHED, Provenance.MEASURED
    vulnerable = [d for d, o in observations if o == DetectionOutcome.VULNERABLE]
    patched = [
        d for d, o in observations
        if o.spf_measured and o != DetectionOutcome.VULNERABLE
    ]
    if vulnerable and date <= max(vulnerable):
        return InferredStatus.VULNERABLE, Provenance.INFERRED
    if patched and date >= min(patched):
        return InferredStatus.PATCHED, Provenance.INFERRED
    return InferredStatus.INCONCLUSIVE, Provenance.NONE


def _reference_domain_status(ip_statuses):
    if not ip_statuses:
        return InferredStatus.INCONCLUSIVE, Provenance.NONE
    if any(s == InferredStatus.VULNERABLE for s, _ in ip_statuses):
        measured = any(
            s == InferredStatus.VULNERABLE and p == Provenance.MEASURED
            for s, p in ip_statuses
        )
        return InferredStatus.VULNERABLE, (
            Provenance.MEASURED if measured else Provenance.INFERRED
        )
    if all(s == InferredStatus.PATCHED for s, _ in ip_statuses):
        measured = all(p == Provenance.MEASURED for _, p in ip_statuses)
        return InferredStatus.PATCHED, (
            Provenance.MEASURED if measured else Provenance.INFERRED
        )
    return InferredStatus.INCONCLUSIVE, Provenance.NONE


class TestIndexedEngineMatchesReference:
    """The date index and status memo change no answer on a real run."""

    @pytest.fixture(scope="class")
    def reference(self, session_sim):
        result = session_sim.run()
        observations = {
            ip: [(result.initial.date, DetectionOutcome.VULNERABLE)]
            for ip in result.initial.vulnerable_ips()
        }
        for round_ in result.rounds:
            for ip, outcome in round_.results.items():
                if ip in observations:
                    observations[ip].append((round_.date, outcome))
        dates = [round_.date for round_ in result.rounds]
        ip_status = {
            (ip, date): _reference_ip_status(history, date)
            for ip, history in observations.items()
            for date in dates
        }
        domain_status = {}
        for name in result.initial.vulnerable_domains():
            ips = [
                ip for ip in result.initial.domain_ips.get(name, [])
                if ip in observations
            ]
            for date in dates:
                domain_status[name, date] = _reference_domain_status(
                    [ip_status[ip, date] for ip in ips]
                )
        return dates, ip_status, domain_status

    def test_every_tracked_ip_and_round(self, session_sim, reference):
        _, ip_status, _ = reference
        engine = session_sim.inference()
        assert len(engine.timelines) == len({ip for ip, _ in ip_status})
        for (ip, date), expected in ip_status.items():
            assert engine.ip_status(ip, date) == expected, (ip, date)

    def test_every_vulnerable_domain_and_round(self, session_sim, reference):
        _, _, domain_status = reference
        engine = session_sim.inference()
        for (name, date), expected in domain_status.items():
            assert engine.domain_status(name, date) == expected, (name, date)

    @pytest.mark.parametrize(
        "domain_set",
        [None, DomainSet.ALEXA_TOP_LIST, DomainSet.ALEXA_1000, DomainSet.TWO_WEEK_MX,
         DomainSet.TOP_EMAIL_PROVIDERS],
    )
    def test_round_summaries(self, session_sim, reference, domain_set):
        dates, _, domain_status = reference
        names = session_sim.run().initial.vulnerable_domains()
        if domain_set is not None:
            names = [
                n for n in names if n in session_sim.population.set_names(domain_set)
            ]
        expected = [
            InferenceEngine._summarize(
                date, (domain_status[name, date] for name in names), len(names)
            )
            for date in dates
        ]
        engine = session_sim.inference()
        summaries = engine.round_summaries_domains(
            None if domain_set is None else names
        )
        assert summaries == expected
