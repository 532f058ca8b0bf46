"""The §5.2 PLT timeline campaign: how well do machine metrics match humans?

The final PLT campaign captures 100 HTTP/2-capable sites, shows the videos to
1,000 paid participants (six each), cleans the responses, and compares the
resulting per-site UserPerceivedPLT with OnLoad, SpeedIndex,
FirstVisualChange and LastVisualChange (Figure 7).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..capture.video import Video
from ..capture.webpeg import CaptureSettings, Webpeg
from ..core.analysis import compare_uplt_with_metrics, mean_uplt_per_site, slider_vs_submitted
from ..core.campaign import CampaignConfig, CampaignResult, CampaignRunner
from ..core.experiment import TimelineExperiment
from ..core.streaming import StreamingCampaignResult
from ..errors import CampaignError, CaptureError
from ..faults import FaultInjector, ResilienceReport
from ..metrics.comparison import MetricComparison, compare_metrics
from ..metrics.plt import PLTMetrics, metrics_from_video
from ..obs import resolve_obs
from ..rng import DEFAULT_RNG_SCHEME, require_same_scheme
from ..web.corpus import CorpusGenerator


def _wire_warehouse_obs(warehouse, obs) -> None:
    """Give a caller-constructed warehouse the driver's observer unless the
    caller already attached an enabled one."""
    if warehouse is not None and obs.enabled and not warehouse.obs.enabled:
        warehouse.obs = obs


def _ingest_and_triage(warehouse, obs, triage: Optional[bool],
                       ingest: Callable[[], Sequence]) -> None:
    """The drivers' warehouse tail: ``ingest()`` lands the result if the run
    has not, and returns the records that get one triage record when
    ``triage`` resolves on (:func:`~repro.warehouse.triage.resolve_auto_triage`)."""
    from ..warehouse.triage import auto_triage_ingested, resolve_auto_triage

    _wire_warehouse_obs(warehouse, obs)
    records = ingest()
    if resolve_auto_triage(triage):
        auto_triage_ingested(warehouse, records)


@dataclass
class PLTCampaignResult:
    """Artefacts of the PLT timeline campaign, batch or streaming.

    Both drivers fill the same fields, and every field they share is
    bit-identical for the same inputs; only ``campaign`` differs in kind.

    Attributes:
        videos: the captured videos (one per site).
        campaign: the batch :class:`~repro.core.campaign.CampaignResult`
            (raw + cleaned responses), or for
            :func:`run_plt_campaign_streaming` the
            :class:`~repro.core.streaming.StreamingCampaignResult`
            (aggregates, no datasets).
        metrics_by_site: machine metrics per site.
        uplt_by_site: mean (cleaned) UserPerceivedPLT per site.
        comparison: correlation / difference analysis vs the metrics.
        helper_effect: per-video slider vs frame-helper vs submitted means.
        resilience: fault-plan survival report (None for fault-free runs).
    """

    videos: List[Video]
    campaign: Union[CampaignResult, StreamingCampaignResult]
    metrics_by_site: Dict[str, PLTMetrics]
    uplt_by_site: Dict[str, float]
    comparison: MetricComparison
    helper_effect: Dict[str, Dict[str, float]]
    resilience: Optional[ResilienceReport] = None


@contextmanager
def _plt_campaign(*, sites, participants, seed, loads_per_site, network_profile,
                  frame_helper_enabled, preload_video, capture_workers, session_workers,
                  rng_scheme, campaign_id, pages, fault_plan, resilience_policy, obs):
    """Shared set-up of the PLT drivers, validated before any capture.

    Checks the inputs, builds the fault injector, opens the ``experiment``
    span, captures the corpus (corpus → videos → metrics, over the sites
    that survive the fault plan's quarantine) and configures the runner.
    Yields ``(runner, experiment, metrics_by_site, injector)`` inside the
    span, so the caller's campaign run is part of the experiment.

    Raises:
        CampaignError: for fewer than two sites or pages (the UPLT-vs-metric
            comparison needs two), or an invalid campaign configuration.
        CaptureError: when the fault plan quarantines every site.
    """
    site_count = len(pages) if pages is not None else sites
    if site_count < 2:
        raise CampaignError(
            f"campaign {campaign_id!r}: the PLT campaign compares UPLT with the "
            f"machine metrics across sites, so it needs at least two sites or "
            f"pages, got {site_count}"
        )
    config = CampaignConfig(
        campaign_id=campaign_id,
        participant_count=participants,
        service="crowdflower",
        seed=seed,
        rng_scheme=rng_scheme,
        frame_helper_enabled=frame_helper_enabled,
        preload_video=preload_video,
        parallel_workers=session_workers,
        network_profile=network_profile,
    )
    injector = None
    if fault_plan is not None:
        require_same_scheme(rng_scheme, fault_plan.rng_scheme,
                            f"fault plan of campaign {campaign_id!r}")
        injector = FaultInjector(fault_plan, resilience_policy, obs=obs)
    with obs.span("experiment", deterministic=True, kind="plt",
                  campaign_id=campaign_id, sites=site_count,
                  participants=participants, seed=seed, rng_scheme=rng_scheme,
                  network_profile=network_profile):
        if pages is None:
            # The corpus is the scheme-independent input dataset: every
            # scheme measures the same synthetic sites, so per-site outputs
            # stay comparable.
            pages = CorpusGenerator(seed=seed).http2_sample(sites)
        settings = CaptureSettings(loads_per_site=loads_per_site, network_profile=network_profile)
        tool = Webpeg(settings=settings, seed=seed, rng_scheme=rng_scheme, injector=injector,
                      obs=obs)
        reports = tool.capture_batch(pages, configuration="h2", max_workers=capture_workers or None)
        # Graceful degradation: under a fault plan, quarantined sites are
        # absent from `reports`; the campaign proceeds over the surviving
        # corpus and the quarantine set rides along as provenance.
        videos = [reports[page.site_id].video for page in pages if page.site_id in reports]
        if not videos:
            raise CaptureError(
                f"campaign {campaign_id!r}: every site was quarantined by the fault "
                f"plan; lower the plan's capture rates or raise the retry budget"
            )
        metrics_by_site = {video.site_id: metrics_from_video(video) for video in videos}
        experiment = TimelineExperiment(experiment_id=campaign_id, videos=videos)
        runner = CampaignRunner(config, injector=injector, obs=obs)
        yield runner, experiment, metrics_by_site, injector


def run_plt_campaign(
    sites: int = 100,
    participants: int = 1000,
    seed: int = 2016,
    loads_per_site: int = 5,
    network_profile: str = "cable-intl",
    frame_helper_enabled: bool = True,
    preload_video: bool = True,
    capture_workers: int = 0,
    session_workers: int = 0,
    rng_scheme: str = DEFAULT_RNG_SCHEME,
    campaign_id: str = "final-plt-timeline",
    pages=None,
    warehouse=None,
    triage: Optional[bool] = None,
    fault_plan=None,
    resilience_policy=None,
    checkpoint_dir=None,
    checkpoint_chunk_size: int = 16,
    stop_after_chunks: Optional[int] = None,
    obs=None,
) -> PLTCampaignResult:
    """Run the PLT timeline campaign end to end.

    Args:
        sites: number of captured sites (paper: 100).
        participants: paid participants to recruit (paper: 1,000).
        seed: master seed.
        loads_per_site: capture repetitions per site (median-onload selection).
        network_profile: capture network emulation profile.
        frame_helper_enabled: toggle for the frame-selection helper (ablation).
        preload_video: toggle for full-video preloading (ablation).
        capture_workers: when > 1, captures fan out over a process pool
            (deterministic; results identical to the serial path).
        session_workers: when > 1, participant sessions fan out over a
            process pool (deterministic; results identical to serial).
        rng_scheme: versioned RNG scheme the whole pipeline runs under (see
            :mod:`repro.rng`); outputs are only comparable within a scheme.
        campaign_id: identifier seeding the campaign-level streams; the
            profile sweep gives each profile its own id.
        pages: optional pre-generated corpus sample (the profile sweep
            generates the corpus once and shares it across profiles); when
            None the corpus is generated from ``seed``.  When given,
            ``sites`` is ignored — the campaign covers exactly ``pages``.
        warehouse: optional :class:`~repro.warehouse.ResultsWarehouse`
            sink; when given, the finished result is ingested (idempotent,
            kind ``"plt"``) so it stays queryable after the process exits.
        triage: run the deterministic quality-triage engine over the record
            just ingested and store the verdict beside it (kind
            ``"triage"``); None falls back to
            :attr:`repro.config.ReproConfig.auto_triage`.  Only meaningful
            with a ``warehouse`` sink.
        fault_plan: optional :class:`~repro.faults.FaultPlan`; when given,
            the whole pipeline runs under deterministic fault injection —
            capture failures/stalls are retried (sites exhausting their
            retries are quarantined and *excluded* rather than aborting the
            campaign), participants drop out, pool workers crash, warehouse
            writes tear — and the result carries a
            :class:`~repro.faults.ResilienceReport`.  The plan's scheme
            must match ``rng_scheme``.
        resilience_policy: optional :class:`~repro.faults.ResiliencePolicy`
            override (retry budget, stage timeout, breaker threshold).
        checkpoint_dir: when given, participant sessions checkpoint in
            chunks to this directory; a re-run resumes from the surviving
            chunks with byte-identical results (including warehouse record
            ids).
        checkpoint_chunk_size: sessions per checkpoint chunk.
        stop_after_chunks: chaos hook — raise
            :class:`~repro.errors.CampaignInterrupted` before the next fresh
            chunk once this many fresh chunks are durable, to simulate a
            mid-run kill.

    Raises:
        CampaignError: for fewer than two sites or pages, before any capture.
    """
    obs = resolve_obs(obs)
    with _plt_campaign(
        sites=sites, participants=participants, seed=seed, loads_per_site=loads_per_site,
        network_profile=network_profile, frame_helper_enabled=frame_helper_enabled,
        preload_video=preload_video, capture_workers=capture_workers,
        session_workers=session_workers, rng_scheme=rng_scheme, campaign_id=campaign_id,
        pages=pages, fault_plan=fault_plan, resilience_policy=resilience_policy, obs=obs,
    ) as (runner, experiment, metrics_by_site, injector):
        campaign = runner.run_timeline(
            experiment,
            checkpoint_dir=checkpoint_dir,
            checkpoint_chunk_size=checkpoint_chunk_size,
            stop_after_chunks=stop_after_chunks,
        )

        uplt_by_site = mean_uplt_per_site(campaign.clean_dataset)
        comparison = compare_uplt_with_metrics(campaign.clean_dataset, metrics_by_site)
        helper_effect = slider_vs_submitted(campaign.clean_dataset)
        result = PLTCampaignResult(
            videos=experiment.videos,
            campaign=campaign,
            metrics_by_site=metrics_by_site,
            uplt_by_site=uplt_by_site,
            comparison=comparison,
            helper_effect=helper_effect,
            resilience=campaign.resilience,
        )
        if warehouse is not None:
            if injector is not None and warehouse.injector is None:
                # Let the plan's torn-write faults reach this ingest too (the
                # caller may also construct the warehouse with its own injector).
                warehouse.injector = injector
            _ingest_and_triage(warehouse, obs, triage, lambda: [warehouse.ingest(result)])
    return result


def run_plt_campaign_streaming(
    sites: int = 100,
    participants: int = 1000,
    seed: int = 2016,
    loads_per_site: int = 5,
    network_profile: str = "cable-intl",
    frame_helper_enabled: bool = True,
    preload_video: bool = True,
    capture_workers: int = 0,
    session_workers: int = 0,
    rng_scheme: str = DEFAULT_RNG_SCHEME,
    campaign_id: str = "final-plt-timeline",
    pages=None,
    warehouse=None,
    triage: Optional[bool] = None,
    fault_plan=None,
    resilience_policy=None,
    chunk_size: int = 256,
    keep_dataset: bool = False,
    checkpoint_dir=None,
    stop_after_chunks: Optional[int] = None,
    obs=None,
) -> PLTCampaignResult:
    """Run the PLT campaign as a bounded-memory streaming pipeline.

    The capture phase is the batch driver's (videos are per-site artefacts,
    not per-participant, so they were never the memory problem); the
    campaign itself runs through
    :func:`repro.core.streaming.run_streaming_campaign` in ``chunk_size``
    participant chunks, with the warehouse record ingested incrementally.
    Every aggregate, and the warehouse record id, is bit-identical to
    :func:`run_plt_campaign`'s — only peak memory changes, from
    O(participants) to O(chunk_size + sites + videos).

    Args beyond :func:`run_plt_campaign`'s shared ones:
        chunk_size: participants per execution chunk.
        keep_dataset: materialise the clean dataset on the result anyway
            (defeats the memory bound; for equivalence testing).
        checkpoint_dir / stop_after_chunks: chunked checkpoint resume and
            the kill-simulation chaos hook (see
            :meth:`~repro.core.campaign.CampaignRunner.run_timeline_streaming`).
    """
    obs = resolve_obs(obs)
    with _plt_campaign(
        sites=sites, participants=participants, seed=seed, loads_per_site=loads_per_site,
        network_profile=network_profile, frame_helper_enabled=frame_helper_enabled,
        preload_video=preload_video, capture_workers=capture_workers,
        session_workers=session_workers, rng_scheme=rng_scheme, campaign_id=campaign_id,
        pages=pages, fault_plan=fault_plan, resilience_policy=resilience_policy, obs=obs,
    ) as (runner, experiment, metrics_by_site, _injector):
        _wire_warehouse_obs(warehouse, obs)
        campaign = runner.run_timeline_streaming(
            experiment,
            chunk_size=chunk_size,
            warehouse=warehouse,
            kind="plt",
            metrics_by_site=metrics_by_site,
            keep_dataset=keep_dataset,
            checkpoint_dir=checkpoint_dir,
            stop_after_chunks=stop_after_chunks,
        )

        if warehouse is not None:
            # The streaming runner landed the record incrementally; triage
            # what this campaign id now holds (idempotent across re-runs).
            _ingest_and_triage(warehouse, obs, triage,
                               lambda: warehouse.query(kind="plt", campaign_id=campaign_id))
        comparison = compare_metrics(campaign.uplt_by_site, metrics_by_site)
    return PLTCampaignResult(
        videos=experiment.videos,
        campaign=campaign,
        metrics_by_site=metrics_by_site,
        uplt_by_site=campaign.uplt_by_site,
        comparison=comparison,
        helper_effect=campaign.helper_effect,
        resilience=campaign.resilience,
    )
