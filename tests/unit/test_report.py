"""Unit tests for the self-contained run-report generator (repro.obs.report)."""

import numpy as np

from repro.obs import MetricsRegistry
from repro.obs.quality import ConfusionCounts
from repro.obs.report import (
    ReportData,
    RocSweep,
    confusion_from_counters,
    render_html,
    render_markdown,
    report_from_registry,
    svg_roc,
    svg_sparkline,
    write_report,
)


def full_report_data():
    return ReportData(
        title="test report",
        environment={"python": "3.11", "git_sha": "abc123"},
        ledger_rows=[("run01", "2026-01-01 00:00:00", "population", 0, 1.5)],
        confusions={
            "joint": ConfusionCounts(tp=5, fp=1, fn=2, tn=90),
            "path1": ConfusionCounts(tp=3, fp=0, fn=4, tn=91),
        },
        scorecard_rows=[("sub_000/tv1", "burst", True, 2.5, -0.8)],
        roc=RocSweep(
            parameter="hc_suspicious_threshold",
            points=((0.85, 0.02, 0.9), (0.92, 0.01, 0.7)),
            auc=0.88,
        ),
        trust_trajectories={"attackers": [0.5, 0.3, 0.1], "fair": [0.5, 0.6]},
        drift_warnings=["[mean-drift] tv1 days [0.0, 30.0): ..."],
        counters={"quality.joint.tp": 5.0, "detector.runs": 3.0},
        histogram_rows=[("quality.detection_latency_days", 2, 3.0, 2.5, 5.0)],
        trace_summary="span tree goes here",
        notes=["a note about the scenario"],
    )


class TestHtmlRendering:
    def test_report_is_fully_self_contained(self):
        text = render_html(full_report_data())
        assert "http" not in text
        assert "src=" not in text
        assert "<link" not in text
        assert "<script" not in text

    def test_all_sections_render(self):
        text = render_html(full_report_data())
        for heading in (
            "Environment", "Run ledger", "Detection scorecard",
            "Per-submission detection", "ROC sweep", "Trust trajectories",
            "Assumption drift", "Counters", "Histograms", "Trace summary",
        ):
            assert heading in text

    def test_confusion_table_shows_counts_and_rates(self):
        text = render_html(full_report_data())
        assert "<th>tp</th>" in text
        assert "<td>joint</td>" in text
        # precision of joint = 5/6
        assert "0.833" in text

    def test_roc_curve_and_sparkline_are_inline_svg(self):
        text = render_html(full_report_data())
        assert text.count("<svg") == 3  # one ROC + two trust sparklines
        assert "polyline" in text

    def test_drift_section_always_present(self):
        data = full_report_data()
        data.drift_warnings = ()
        text = render_html(data)
        assert "Assumption drift" in text
        assert "no assumption-drift warnings" in text

    def test_empty_sections_collapse(self):
        text = render_html(ReportData(title="bare"))
        assert "Run ledger" not in text
        assert "ROC sweep" not in text
        assert "Assumption drift" in text  # the one always-on section

    def test_titles_are_escaped(self):
        text = render_html(ReportData(title="<b>bold</b> & co"))
        assert "<b>bold</b>" not in text
        assert "&lt;b&gt;" in text


class TestMarkdownRendering:
    def test_sections_and_tables(self):
        text = render_markdown(full_report_data())
        assert "# test report" in text
        assert "## Detection scorecard" in text
        assert "| joint | 5 | 1 | 2 | 90 |" in text
        assert "## ROC sweep: hc_suspicious_threshold" in text
        assert "AUC: 0.88" in text
        assert "- attackers: 0.5, 0.3, 0.1" in text


class TestConfusionFromCounters:
    def test_round_trip_with_emit(self):
        from repro.obs.quality import emit_scorecards, score_detection
        from repro.detectors.base import PROV_PATH1, DetectionReport
        from repro.types import RatingStream

        stream = RatingStream(
            "p", np.arange(6.0), [4, 4, 4, 1, 1, 1],
            [f"u{i}" for i in range(6)],
            unfair=[False, False, False, True, True, True],
        )
        suspicious = np.array([False, False, False, True, True, False])
        report = DetectionReport(
            product_id="p",
            suspicious=suspicious,
            provenance=np.where(suspicious, PROV_PATH1, 0).astype(np.uint8),
        )
        registry = MetricsRegistry()
        card = score_detection(stream, report)
        emit_scorecards([card], registry)
        rebuilt = confusion_from_counters(
            registry.snapshot()["counters"]
        )
        assert rebuilt["joint"].as_dict() == card.joint.as_dict()
        assert rebuilt["path1"].as_dict() == (
            card.per_detector["path1"].as_dict()
        )

    def test_unrelated_counters_ignored(self):
        rebuilt = confusion_from_counters(
            {"detector.runs": 3, "quality.scorecards": 2,
             "quality.joint.tp": 7, "quality.joint.weird": 9}
        )
        assert rebuilt == {"joint": ConfusionCounts(tp=7)}


class TestReportFromRegistry:
    def test_counters_histograms_and_confusions_carried(self):
        registry = MetricsRegistry()
        registry.inc("quality.joint.tp", 4)
        registry.inc("quality.joint.tn", 10)
        registry.inc("zero.counter", 0)
        registry.observe("span.x.seconds", 0.5)
        data = report_from_registry(registry, title="t")
        assert data.counters["quality.joint.tp"] == 4
        assert "zero.counter" not in data.counters
        assert data.confusions["joint"].tp == 4
        names = [row[0] for row in data.histogram_rows]
        assert "span.x.seconds" in names


class TestSvgHelpers:
    def test_sparkline_degenerate_series(self):
        assert "not enough data" in svg_sparkline([1.0])
        assert "polyline" in svg_sparkline([1.0, 2.0, 1.5])

    def test_roc_drops_non_finite_points(self):
        svg = svg_roc([(0.1, 0.9), (float("nan"), 0.5)])
        assert svg.count("<circle") == 1


class TestWriteReport:
    def test_extension_selects_format(self, tmp_path):
        data = full_report_data()
        html_path = tmp_path / "r.html"
        md_path = tmp_path / "r.md"
        assert write_report(data, html_path) == "html"
        assert write_report(data, md_path) == "markdown"
        assert html_path.read_text().startswith("<!DOCTYPE html>")
        assert md_path.read_text().startswith("# test report")

    def test_unknown_extension_defaults_to_html(self, tmp_path):
        path = tmp_path / "report.out"
        assert write_report(ReportData(), path) == "html"
