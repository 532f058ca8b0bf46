"""The §4 validation study: paid vs trusted participants.

The paper validates Eyeorg by running two small campaigns (one timeline, one
HTTP/1.1-vs-HTTP/2 A/B) over 20 videos each, with 100 paid participants from
CrowdFlower and 100 trusted participants recruited by email/social media, and
then comparing the two populations' behaviour and answers (Figures 4-6,
Table 1 top).  :func:`run_validation_study` reproduces that setup end-to-end
on the synthetic substrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..capture.video import Video
from ..capture.webpeg import CaptureSettings, Webpeg, capture_protocol_pair
from ..core.analysis import BehaviourSummary, summarise_behaviour
from ..core.campaign import CampaignConfig, CampaignResult, CampaignRunner
from ..core.experiment import ABExperiment, TimelineExperiment, build_ab_pairs
from ..obs import resolve_obs
from ..rng import DEFAULT_RNG_SCHEME, SeededRNG
from ..web.corpus import CorpusGenerator
from .plt_campaign import _ingest_and_triage


@dataclass
class ValidationStudy:
    """All artefacts of the validation study.

    Attributes:
        timeline_videos: the 20 timeline capture videos.
        timeline_paid: paid timeline campaign result.
        timeline_trusted: trusted timeline campaign result.
        ab_paid: paid A/B (HTTP/1.1 vs HTTP/2) campaign result.
        ab_trusted: trusted A/B campaign result.
        behaviour: behaviour summaries keyed by "<type>-<class>".
    """

    timeline_videos: List[Video]
    timeline_paid: CampaignResult
    timeline_trusted: CampaignResult
    ab_paid: CampaignResult
    ab_trusted: CampaignResult
    behaviour: Dict[str, BehaviourSummary]

    def table1_rows(self) -> List[Dict[str, object]]:
        """The four validation rows of Table 1."""
        rows = []
        for label, result in (
            ("PLT timeline / paid", self.timeline_paid),
            ("PLT timeline / trusted", self.timeline_trusted),
            ("H1-H2 A/B / paid", self.ab_paid),
            ("H1-H2 A/B / trusted", self.ab_trusted),
        ):
            row = dict(result.table1_row)
            row["campaign"] = label
            rows.append(row)
        return rows


def run_validation_study(
    sites: int = 20,
    paid_participants: int = 100,
    trusted_participants: int = 100,
    seed: int = 2016,
    loads_per_site: int = 5,
    network_profile: str = "cable-intl",
    rng_scheme: str = DEFAULT_RNG_SCHEME,
    warehouse=None,
    triage=None,
    obs=None,
) -> ValidationStudy:
    """Run the full validation study.

    Args:
        sites: number of captured sites (paper: 20).
        paid_participants: paid participants per campaign (paper: 100).
        trusted_participants: trusted participants per campaign (paper: 100).
        seed: master seed.
        loads_per_site: capture repetitions per configuration.
        network_profile: emulation profile used for captures.
        warehouse: optional :class:`~repro.warehouse.ResultsWarehouse`
            sink; all four campaigns are ingested (kind ``"validation"``).
        triage: additionally store one quality-triage record covering all
            four campaigns (None falls back to
            :attr:`repro.config.ReproConfig.auto_triage`).

    Returns:
        The :class:`ValidationStudy` with both populations' campaigns.
    """
    obs = resolve_obs(obs)
    corpus = CorpusGenerator(seed=seed)
    pages = corpus.http2_sample(sites)
    settings = CaptureSettings(loads_per_site=loads_per_site, network_profile=network_profile)
    rng = SeededRNG(seed, rng_scheme).fork("validation-study")

    with obs.span("experiment", deterministic=True, kind="validation",
                  campaign_id="validation-study", sites=len(pages),
                  participants=paid_participants + trusted_participants,
                  seed=seed, rng_scheme=rng_scheme,
                  network_profile=network_profile):
        # Timeline captures: the HTTP/2 version of each site (the campaign
        # studies perception, not protocols).
        timeline_tool = Webpeg(settings=settings, seed=seed, rng_scheme=rng_scheme,
                               obs=obs)
        timeline_videos = [timeline_tool.capture(page, configuration="h2").video for page in pages]
        timeline_experiment = TimelineExperiment(experiment_id="validation-timeline", videos=timeline_videos)

        # A/B captures: HTTP/1.1 vs HTTP/2 of the same sites.
        captures_h1: Dict[str, Video] = {}
        captures_h2: Dict[str, Video] = {}
        for page in pages:
            pair = capture_protocol_pair(page, settings=settings, seed=seed,
                                         rng_scheme=rng_scheme, obs=obs)
            captures_h1[page.site_id] = pair["h1"].video
            captures_h2[page.site_id] = pair["h2"].video
        ab_pairs = build_ab_pairs(captures_h1, captures_h2, label_a="h1", label_b="h2", rng=rng)
        ab_experiment = ABExperiment(experiment_id="validation-h1h2", pairs=ab_pairs)

        def run(campaign_id: str, count: int, service: str, experiment, timeline: bool) -> CampaignResult:
            config = CampaignConfig(
                campaign_id=campaign_id, participant_count=count, service=service, seed=seed,
                rng_scheme=rng_scheme,
            )
            runner = CampaignRunner(config, obs=obs)
            return runner.run_timeline(experiment) if timeline else runner.run_ab(experiment)

        timeline_paid = run("validation-timeline-paid", paid_participants, "crowdflower",
                            timeline_experiment, timeline=True)
        timeline_trusted = run("validation-timeline-trusted", trusted_participants, "invited",
                               timeline_experiment, timeline=True)
        ab_paid = run("validation-ab-paid", paid_participants, "crowdflower", ab_experiment, timeline=False)
        ab_trusted = run("validation-ab-trusted", trusted_participants, "invited", ab_experiment, timeline=False)

        if warehouse is not None:
            _ingest_and_triage(warehouse, obs, triage, lambda: [
                warehouse.ingest(result, kind="validation")
                for result in (timeline_paid, timeline_trusted, ab_paid, ab_trusted)
            ])
    behaviour = {
        "timeline-paid": summarise_behaviour(timeline_paid.raw_dataset, timeline_paid.telemetry),
        "timeline-trusted": summarise_behaviour(timeline_trusted.raw_dataset, timeline_trusted.telemetry),
        "ab-paid": summarise_behaviour(ab_paid.raw_dataset, ab_paid.telemetry),
        "ab-trusted": summarise_behaviour(ab_trusted.raw_dataset, ab_trusted.telemetry),
    }
    return ValidationStudy(
        timeline_videos=timeline_videos,
        timeline_paid=timeline_paid,
        timeline_trusted=timeline_trusted,
        ab_paid=ab_paid,
        ab_trusted=ab_trusted,
        behaviour=behaviour,
    )
