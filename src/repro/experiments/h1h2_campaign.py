"""The §5.3 HTTP/1.1 vs HTTP/2 A/B campaign.

Each of 100 HTTP/2-capable sites is captured over both protocols; the two
captures are spliced side-by-side, shown to 1,000 paid participants, and each
site receives a "score" — the fraction of decisive answers that preferred the
HTTP/2 side (Figure 8(b)).  The same data, combined with each machine
metric's Δ between the two captures, produces the agreement-vs-Δ analysis of
Figure 8(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..capture.video import Video
from ..capture.webpeg import CaptureSettings, capture_protocol_pair
from ..core.analysis import (
    agreement_vs_metric_delta,
    no_difference_fraction_per_site,
    score_per_site,
)
from ..core.campaign import CampaignConfig, CampaignResult, CampaignRunner
from ..core.experiment import ABExperiment, build_ab_pairs
from ..metrics.plt import METRIC_NAMES, PLTMetrics, metrics_from_video
from ..obs import resolve_obs
from ..rng import DEFAULT_RNG_SCHEME, SeededRNG
from ..web.corpus import CorpusGenerator
from .plt_campaign import _ingest_and_triage


@dataclass
class H1H2CampaignResult:
    """Artefacts of the HTTP/1.1 vs HTTP/2 campaign.

    Attributes:
        campaign: the campaign result.
        scores_by_site: per-site HTTP/2 score (1.0 = everyone preferred h2).
        no_difference_by_site: per-site fraction of "No Difference" answers.
        metrics_h1: machine metrics of the HTTP/1.1 capture per site.
        metrics_h2: machine metrics of the HTTP/2 capture per site.
        deltas_by_site: per-site, per-metric |Δ| in seconds.
        agreement_vs_delta: Figure 8(a) series per metric.
    """

    campaign: CampaignResult
    scores_by_site: Dict[str, float]
    no_difference_by_site: Dict[str, float]
    metrics_h1: Dict[str, PLTMetrics]
    metrics_h2: Dict[str, PLTMetrics]
    deltas_by_site: Dict[str, Dict[str, float]]
    agreement_vs_delta: Dict[str, List[Tuple[float, float]]]

    def scores_for_delta_range(self, metric: str, low: float | None = None,
                               high: float | None = None) -> Dict[str, float]:
        """Scores restricted to sites whose metric Δ falls in [low, high] seconds.

        Used for the Δ≤100 ms and Δ≥800 ms subsets of Figure 8(b); the paper
        computes the subsets with SpeedIndex.
        """
        subset: Dict[str, float] = {}
        for site, score in self.scores_by_site.items():
            delta = self.deltas_by_site.get(site, {}).get(metric)
            if delta is None:
                continue
            if low is not None and delta < low:
                continue
            if high is not None and delta > high:
                continue
            subset[site] = score
        return subset


def run_h1h2_campaign(
    sites: int = 100,
    participants: int = 1000,
    seed: int = 2016,
    loads_per_site: int = 5,
    network_profile: str = "cable-intl",
    rng_scheme: str = DEFAULT_RNG_SCHEME,
    warehouse=None,
    triage=None,
    obs=None,
) -> H1H2CampaignResult:
    """Run the HTTP/1.1 vs HTTP/2 A/B campaign end to end.

    ``warehouse`` optionally ingests the finished campaign (kind
    ``"h1h2"``, with the HTTP/2 side's machine metrics) into a
    :class:`~repro.warehouse.ResultsWarehouse`; ``triage`` additionally
    stores the quality-triage verdict for the record (None falls back to
    :attr:`repro.config.ReproConfig.auto_triage`).
    """
    obs = resolve_obs(obs)
    corpus = CorpusGenerator(seed=seed)
    pages = corpus.http2_sample(sites)
    settings = CaptureSettings(loads_per_site=loads_per_site, network_profile=network_profile)
    rng = SeededRNG(seed, rng_scheme).fork("h1h2-campaign")

    captures_h1: Dict[str, Video] = {}
    captures_h2: Dict[str, Video] = {}
    metrics_h1: Dict[str, PLTMetrics] = {}
    metrics_h2: Dict[str, PLTMetrics] = {}
    with obs.span("experiment", deterministic=True, kind="h1h2",
                  campaign_id="final-h1h2", sites=len(pages),
                  participants=participants, seed=seed, rng_scheme=rng_scheme,
                  network_profile=network_profile):
        for page in pages:
            pair = capture_protocol_pair(page, settings=settings, seed=seed,
                                         rng_scheme=rng_scheme, obs=obs)
            captures_h1[page.site_id] = pair["h1"].video
            captures_h2[page.site_id] = pair["h2"].video
            metrics_h1[page.site_id] = metrics_from_video(pair["h1"].video)
            metrics_h2[page.site_id] = metrics_from_video(pair["h2"].video)

        pairs = build_ab_pairs(captures_h1, captures_h2, label_a="h1", label_b="h2", rng=rng)
        experiment = ABExperiment(experiment_id="final-h1h2", pairs=pairs)
        config = CampaignConfig(
            campaign_id="final-h1h2",
            participant_count=participants,
            service="crowdflower",
            seed=seed,
            rng_scheme=rng_scheme,
        )
        campaign = CampaignRunner(config, obs=obs).run_ab(experiment)

        deltas_by_site: Dict[str, Dict[str, float]] = {}
        for site in captures_h1:
            deltas_by_site[site] = {
                name: abs(metrics_h1[site].get(name) - metrics_h2[site].get(name)) for name in METRIC_NAMES
            }
        scores = score_per_site(campaign.clean_dataset, treatment_label="h2")
        if warehouse is not None:
            _ingest_and_triage(warehouse, obs, triage, lambda: [
                warehouse.ingest(campaign, kind="h1h2", metrics_by_site=metrics_h2)])
    return H1H2CampaignResult(
        campaign=campaign,
        scores_by_site=scores,
        no_difference_by_site=no_difference_fraction_per_site(campaign.clean_dataset),
        metrics_h1=metrics_h1,
        metrics_h2=metrics_h2,
        deltas_by_site=deltas_by_site,
        agreement_vs_delta=agreement_vs_metric_delta(campaign.clean_dataset, deltas_by_site),
    )
