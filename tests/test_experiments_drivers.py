"""Tests for the end-to-end campaign drivers (small scale)."""

from __future__ import annotations

import pytest

from repro.capture.webpeg import Webpeg
from repro.errors import CampaignError
from repro.experiments.adblock_campaign import BLOCKER_NAMES, run_adblock_campaign
from repro.experiments.h1h2_campaign import run_h1h2_campaign
from repro.experiments.plt_campaign import run_plt_campaign, run_plt_campaign_streaming
from repro.experiments.validation import run_validation_study
from repro.metrics.plt import METRIC_NAMES


@pytest.fixture(scope="module")
def validation_study():
    return run_validation_study(sites=4, paid_participants=20, trusted_participants=20,
                                loads_per_site=2, seed=11)


@pytest.fixture(scope="module")
def plt_result():
    return run_plt_campaign(sites=8, participants=40, loads_per_site=2, seed=11)


@pytest.fixture(scope="module")
def h1h2_result():
    return run_h1h2_campaign(sites=6, participants=30, loads_per_site=2, seed=11)


@pytest.fixture(scope="module")
def adblock_result():
    return run_adblock_campaign(sites=6, participants=30, loads_per_site=2, seed=11)


def test_validation_study_structure(validation_study):
    rows = validation_study.table1_rows()
    assert len(rows) == 4
    assert {row["type"] for row in rows} == {"timeline", "ab"}
    assert all(row["participants"] == 20 for row in rows)
    paid_rows = [row for row in rows if "paid" in row["campaign"]]
    trusted_rows = [row for row in rows if "trusted" in row["campaign"]]
    assert all(row["cost_usd"] > 0 for row in paid_rows)
    assert all(row["cost_usd"] == 0 for row in trusted_rows)
    assert set(validation_study.behaviour) == {"timeline-paid", "timeline-trusted", "ab-paid", "ab-trusted"}
    assert len(validation_study.timeline_videos) == 4


def test_validation_trusted_recruitment_slower(validation_study):
    assert (
        validation_study.timeline_trusted.recruitment.duration_hours
        > validation_study.timeline_paid.recruitment.duration_hours
    )


def test_plt_campaign_outputs(plt_result):
    assert len(plt_result.videos) == 8
    assert set(plt_result.metrics_by_site) == {v.site_id for v in plt_result.videos}
    assert set(plt_result.comparison.correlations) == set(METRIC_NAMES)
    assert plt_result.uplt_by_site
    assert all(value > 0 for value in plt_result.uplt_by_site.values())
    assert plt_result.helper_effect


def test_plt_onload_correlates_positively(plt_result):
    assert plt_result.comparison.correlations["onload"] > 0.2


def test_h1h2_campaign_outputs(h1h2_result):
    assert h1h2_result.scores_by_site
    assert all(0.0 <= score <= 1.0 for score in h1h2_result.scores_by_site.values())
    assert set(h1h2_result.deltas_by_site)
    for deltas in h1h2_result.deltas_by_site.values():
        assert set(deltas) == set(METRIC_NAMES)
        assert all(value >= 0 for value in deltas.values())
    subset = h1h2_result.scores_for_delta_range("onload", low=0.0)
    assert set(subset) <= set(h1h2_result.scores_by_site)


def test_h1h2_favours_http2_overall(h1h2_result):
    scores = list(h1h2_result.scores_by_site.values())
    assert sum(scores) / len(scores) > 0.5


def test_adblock_campaign_outputs(adblock_result):
    assert set(adblock_result.scores_by_blocker) == set(BLOCKER_NAMES)
    for scores in adblock_result.scores_by_blocker.values():
        assert all(0.0 <= value <= 1.0 for value in scores.values())
    assert adblock_result.blocked_objects_by_blocker["ghostery"] >= adblock_result.blocked_objects_by_blocker["adblock"]


def test_adblock_campaign_requires_enough_sites():
    with pytest.raises(CampaignError):
        run_adblock_campaign(sites=2, participants=10, loads_per_site=1)


@pytest.mark.parametrize("driver", [run_plt_campaign, run_plt_campaign_streaming])
def test_plt_drivers_reject_fewer_than_two_sites_before_capturing(driver, page, monkeypatch):
    def no_capture(self, *args, **kwargs):
        raise AssertionError("a capture ran before the inputs were validated")

    monkeypatch.setattr(Webpeg, "capture", no_capture)
    monkeypatch.setattr(Webpeg, "capture_batch", no_capture)
    with pytest.raises(CampaignError, match="at least two sites"):
        driver(sites=1, participants=10, loads_per_site=2)
    with pytest.raises(CampaignError, match="at least two sites"):
        driver(pages=[page], participants=10, loads_per_site=2)
