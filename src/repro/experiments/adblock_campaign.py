"""The §5.4 ad-blocker A/B campaign.

100 ad-displaying sites (sampled from a 10,000-site ad corpus) are captured
with no extension and with each of AdBlock, Ghostery and uBlock; every
(original, ad-blocked) pair is spliced side-by-side and scored by paid
participants.  The protocol is left on "auto" — Chrome negotiates HTTP/2
when the site supports it — exactly as in the paper.  Figure 8(c) plots the
per-site score CDF for each blocker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..capture.video import Video
from ..capture.webpeg import CaptureSettings, capture_adblock_set
from ..core.analysis import no_difference_fraction_per_site, score_per_site
from ..core.campaign import CampaignConfig, CampaignResult, CampaignRunner
from ..core.experiment import ABExperiment, ABPair, build_ab_pairs
from ..errors import CampaignError
from ..obs import resolve_obs
from ..rng import DEFAULT_RNG_SCHEME, SeededRNG
from ..web.corpus import CorpusGenerator
from .plt_campaign import _ingest_and_triage

#: The three extensions the paper compares.
BLOCKER_NAMES = ("adblock", "ghostery", "ublock")


@dataclass
class AdblockCampaignResult:
    """Artefacts of the ad-blocker campaign.

    Attributes:
        campaign: the campaign result.
        scores_by_blocker: per-blocker, per-site score (1.0 = ad-blocked
            version unanimously faster).
        no_difference_by_site: per-site fraction of "No Difference" answers.
        blocked_objects_by_blocker: per-blocker mean number of blocked
            requests per site (useful for ablation and documentation).
    """

    campaign: CampaignResult
    scores_by_blocker: Dict[str, Dict[str, float]]
    no_difference_by_site: Dict[str, float]
    blocked_objects_by_blocker: Dict[str, float]


def run_adblock_campaign(
    sites: int = 99,
    participants: int = 1000,
    seed: int = 2016,
    loads_per_site: int = 5,
    network_profile: str = "cable-intl",
    corpus_size: int = 10_000,
    rng_scheme: str = DEFAULT_RNG_SCHEME,
    warehouse=None,
    triage=None,
    obs=None,
) -> AdblockCampaignResult:
    """Run the ad-blocker A/B campaign end to end.

    The ``sites`` budget is split evenly across the three blockers (the paper
    serves 100 videos total across the campaign), so ``sites`` should be a
    multiple of three; the default of 99 gives 33 sites per blocker.

    ``warehouse`` optionally ingests the finished campaign (kind
    ``"adblock"``) into a :class:`~repro.warehouse.ResultsWarehouse`;
    ``triage`` additionally stores the quality-triage verdict for the
    record (None falls back to
    :attr:`repro.config.ReproConfig.auto_triage`).

    Raises:
        CampaignError: if ``sites`` is smaller than the number of blockers.
    """
    if sites < len(BLOCKER_NAMES):
        raise CampaignError(f"need at least {len(BLOCKER_NAMES)} sites (one per blocker)")
    obs = resolve_obs(obs)
    corpus = CorpusGenerator(seed=seed)
    pages = corpus.ad_sample(sites, corpus_size=corpus_size)
    settings = CaptureSettings(loads_per_site=loads_per_site, network_profile=network_profile)
    rng = SeededRNG(seed, rng_scheme).fork("adblock-campaign")

    per_blocker = sites // len(BLOCKER_NAMES)
    pairs: List[ABPair] = []
    blocked_counts: Dict[str, List[int]] = {name: [] for name in BLOCKER_NAMES}
    with obs.span("experiment", deterministic=True, kind="adblock",
                  campaign_id="final-ads", sites=len(pages),
                  participants=participants, seed=seed, rng_scheme=rng_scheme,
                  network_profile=network_profile):
        for index, blocker in enumerate(BLOCKER_NAMES):
            assigned = pages[index * per_blocker: (index + 1) * per_blocker]
            originals: Dict[str, Video] = {}
            blocked: Dict[str, Video] = {}
            for page in assigned:
                reports = capture_adblock_set(page, blockers=(blocker,), settings=settings, seed=seed,
                                              rng_scheme=rng_scheme, obs=obs)
                originals[page.site_id] = reports["noextension"].video
                blocked[page.site_id] = reports[blocker].video
                blocked_counts[blocker].append(len(reports[blocker].video.load_result.blocked_object_ids))
            pairs.extend(
                build_ab_pairs(originals, blocked, label_a="withads", label_b=blocker, rng=rng.fork(blocker))
            )

        experiment = ABExperiment(experiment_id="final-ads", pairs=pairs)
        config = CampaignConfig(
            campaign_id="final-ads",
            participant_count=participants,
            service="crowdflower",
            seed=seed,
            rng_scheme=rng_scheme,
        )
        campaign = CampaignRunner(config, obs=obs).run_ab(experiment)

        scores_by_blocker: Dict[str, Dict[str, float]] = {}
        for blocker in BLOCKER_NAMES:
            scores = score_per_site(campaign.clean_dataset, treatment_label=blocker)
            # Only keep the sites that were actually assigned to this blocker
            # (score_per_site returns entries for every site with decisive votes).
            blocker_sites = {pair.site_id for pair in pairs if pair.label_b == blocker}
            scores_by_blocker[blocker] = {site: s for site, s in scores.items() if site in blocker_sites}

        blocked_means = {
            name: (sum(counts) / len(counts) if counts else 0.0) for name, counts in blocked_counts.items()
        }
        if warehouse is not None:
            _ingest_and_triage(warehouse, obs, triage,
                               lambda: [warehouse.ingest(campaign, kind="adblock")])
    return AdblockCampaignResult(
        campaign=campaign,
        scores_by_blocker=scores_by_blocker,
        no_difference_by_site=no_difference_fraction_per_site(campaign.clean_dataset),
        blocked_objects_by_blocker=blocked_means,
    )
