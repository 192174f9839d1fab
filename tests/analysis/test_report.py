"""Tests for the paper-target scorecard, report, and CSV export."""

import collections
import csv
import io

import pytest

from repro.analysis import report as report_module
from repro.analysis.export import EXPORTERS, export_all
from repro.analysis.paper_targets import PAPER_TARGETS, evaluate_targets
from repro.analysis.report import (
    ARTIFACTS,
    ReportArtifacts,
    generate_report,
    targets_all_within_band,
)
from repro.api import RunConfig
from repro.core.inference import InferenceEngine
from repro.obs.perf import campaign_counters
from repro.simulation import Simulation


def _fresh_sim():
    """A completed run no report or engine has touched yet."""
    sim = Simulation.build(config=RunConfig(scale=0.005, seed=20211011))
    sim.run()
    return sim


def _counter_table(report):
    section = report.split("### World cache efficiency", 1)[1]
    section = section.split("## Regenerated artifacts", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 2 and cells[1].replace(",", "").isdigit():
            rows[cells[0]] = int(cells[1].replace(",", ""))
    return rows


@pytest.fixture()
def build_calls(monkeypatch):
    """Counts calls of every ``report.build_*`` and engine constructions."""
    calls = collections.Counter()
    for name in [n for n in vars(report_module) if n.startswith("build_")]:
        original = getattr(report_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(report_module, name, counted)
    init = InferenceEngine.__init__

    def counted_init(self, *args, **kwargs):
        calls["InferenceEngine"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(InferenceEngine, "__init__", counted_init)
    return calls


class TestPaperTargets:
    def test_every_target_measurable(self, session_sim):
        results = evaluate_targets(session_sim)
        assert len(results) == len(PAPER_TARGETS)
        for item in results:
            assert item.measured is not None, item.target.key

    def test_paper_values_inside_their_own_bands(self):
        for target in PAPER_TARGETS:
            low, high = target.band
            assert low <= target.paper_value <= high, target.key

    def test_all_targets_within_band_on_reference_run(self, session_sim):
        """The acceptance check: the reference seed reproduces every
        encoded claim within tolerance."""
        failing = [
            (r.target.key, r.measured)
            for r in evaluate_targets(session_sim)
            if not r.within_band
        ]
        assert failing == []

    def test_keys_unique(self):
        keys = [t.key for t in PAPER_TARGETS]
        assert len(keys) == len(set(keys))


class TestReport:
    def test_report_contains_scorecard_and_artifacts(self, session_sim):
        report = generate_report(session_sim)
        assert "Paper-target scorecard" in report
        assert "Table 4" in report
        assert "Figure 7" in report
        assert "Run provenance" in report
        # One scorecard row per target.
        assert report.count("| ") >= len(PAPER_TARGETS)

    def test_targets_all_within_band_helper(self, session_sim):
        assert targets_all_within_band(session_sim)

    def test_observability_section_carries_trace_analysis(self):
        from repro.api import RunConfig
        from repro.obs import Observation
        from repro.simulation import Simulation

        observation = Observation(trace=True)
        sim = Simulation.build(
            config=RunConfig(scale=0.002, seed=5), observation=observation
        )
        sim.run()
        report = generate_report(sim)
        assert "## Observability" in report
        assert "### Histogram percentiles" in report
        assert "### Trace analysis" in report
        # the analyzer's stage table and critical path made it in
        assert "| initial |" in report
        assert "Critical path (virtual time):" in report

    def test_observability_section_without_observation(self, session_sim):
        report = generate_report(session_sim)
        assert "Observability disabled for this run" in report


class TestCsvExport:
    def test_every_exporter_produces_parsable_csv(self, session_sim):
        for name, exporter in EXPORTERS.items():
            text = exporter(session_sim)
            rows = list(csv.reader(io.StringIO(text)))
            assert len(rows) >= 1, name
            header = rows[0]
            for row in rows[1:]:
                assert len(row) == len(header), name

    def test_figure5_csv_has_one_row_per_round(self, session_sim, session_result):
        from repro.analysis.export import figure5_csv

        rows = list(csv.reader(io.StringIO(figure5_csv(session_sim))))
        assert len(rows) - 1 == len(session_result.rounds)

    def test_export_all_writes_files(self, session_sim, tmp_path):
        written = export_all(session_sim, tmp_path / "csv")
        assert set(written) == set(EXPORTERS)
        for path in written.values():
            assert path.exists()
            assert path.read_text().strip()


class TestBuildOnce:
    def test_report_builds_each_artifact_and_engine_once(self, build_calls):
        sim = _fresh_sim()
        generate_report(sim)
        expected = {f"build_{name}": 1 for name in ARTIFACTS}
        expected["InferenceEngine"] = 1
        assert dict(build_calls) == expected

    def test_scorecard_alone_builds_only_what_its_targets_read(self, build_calls):
        evaluate_targets(_fresh_sim())
        assert dict(build_calls) == {
            "build_table3": 1,
            "build_table4": 1,
            "build_table7": 1,
            "build_figure2": 1,
            "build_figure7": 1,
            "InferenceEngine": 1,
        }

    def test_standalone_scorecard_matches_report_rows(self, session_sim):
        standalone = evaluate_targets(session_sim)
        assert standalone == evaluate_targets(session_sim, ReportArtifacts(session_sim))
        assert report_module._scorecard(standalone) in generate_report(session_sim)


class TestReportIsAPureFunctionOfTheRun:
    def test_two_reports_byte_identical(self, session_sim):
        assert generate_report(session_sim) == generate_report(session_sim)

    def test_counter_table_is_read_when_the_run_completes(self):
        sim = _fresh_sim()
        after_run = campaign_counters(sim.campaign)
        first = generate_report(sim)
        assert _counter_table(first) == after_run
        # The report's own lookups moved the live counters, not the table.
        assert campaign_counters(sim.campaign) != after_run
        assert generate_report(sim) == first

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "session"])
    def test_csvs_unchanged_by_report(self, session_sim, tmp_path, fresh):
        sim = _fresh_sim() if fresh else session_sim
        before = export_all(sim, tmp_path / "before")
        generate_report(sim)
        after = export_all(sim, tmp_path / "after")
        for name in EXPORTERS:
            assert before[name].read_bytes() == after[name].read_bytes(), name
