"""Network-profile sweep: the PLT campaign across emulation conditions.

The paper measures web QoE under the network conditions its capture
infrastructure emulates (§3.1); this driver opens that axis as a first-class
experiment: one corpus, one seed, one RNG scheme — and one full PLT timeline
campaign per :mod:`repro.netsim.profiles` entry (FTTH, cable, DSL, 3G, …),
so UserPerceivedPLT, OnLoad and SpeedIndex can be compared across access
links on identical sites.

Design notes:

* the corpus is generated **once** and shared by every profile (it is the
  scheme- and profile-independent input dataset), so per-profile deltas are
  attributable to the network condition alone;
* captures go through the process-wide
  :class:`~repro.capture.webpeg.CaptureCache` — each (page, profile) pair is
  simulated once per process no matter how many sweeps run;
* every per-profile campaign runs under its own campaign id
  (``profile-sweep-{profile}``) and records its profile on
  :class:`~repro.core.campaign.CampaignConfig`, so the resulting
  :class:`~repro.core.campaign.CampaignResult` objects self-describe;
* outputs are pinned by their own golden at small scale
  (``python -m repro.goldens verify --kind sweep``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..netsim.profiles import get_profile, list_profiles
from ..obs import resolve_obs
from ..rng import DEFAULT_RNG_SCHEME
from ..web.corpus import CorpusGenerator
from .plt_campaign import (
    PLTCampaignResult,
    _ingest_and_triage,
    run_plt_campaign,
    run_plt_campaign_streaming,
)


@dataclass
class ProfileSweepResult:
    """Artefacts of one network-profile sweep.

    Attributes:
        profiles: profile names in sweep order.
        sites: number of sites in the shared corpus.
        rng_scheme: the versioned RNG scheme the whole sweep ran under.
        by_profile: one full :class:`PLTCampaignResult` per profile
            (for streaming sweeps its ``campaign`` carries the same
            aggregates and no materialised datasets).
    """

    profiles: List[str]
    sites: int
    rng_scheme: str
    by_profile: Dict[str, PLTCampaignResult]

    def mean_uplt(self, profile: str) -> float:
        """Mean (cleaned) UserPerceivedPLT across sites for one profile."""
        uplt = self.by_profile[profile].uplt_by_site
        return sum(uplt.values()) / len(uplt) if uplt else 0.0

    def mean_onload(self, profile: str) -> float:
        """Mean OnLoad across the profile's captured videos."""
        metrics = self.by_profile[profile].metrics_by_site
        return sum(m.onload for m in metrics.values()) / len(metrics) if metrics else 0.0

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per profile: the sweep's Figure-7-style condition table."""
        rows: List[Dict[str, object]] = []
        for profile in self.profiles:
            result = self.by_profile[profile]
            spec = get_profile(profile)
            campaign = result.campaign
            if campaign.clean_dataset is not None:
                clean = len(campaign.clean_dataset.timeline_responses)
            else:
                # Streaming campaigns drop the materialised dataset but keep
                # the count as a first-class aggregate.
                clean = campaign.clean_response_count
            rows.append({
                "profile": profile,
                "rtt_ms": round(spec.latency.base_rtt * 1000.0, 1),
                "down_mbps": round(spec.bandwidth.downlink_bps / 1e6, 2),
                "mean_uplt_s": round(self.mean_uplt(profile), 3),
                "mean_onload_s": round(self.mean_onload(profile), 3),
                "clean_responses": clean,
            })
        return rows

    def summary_table(self) -> str:
        """Render :meth:`summary_rows` as an aligned text table."""
        from ..core.campaign import format_table1

        return format_table1(self.summary_rows())


def run_profile_sweep_campaign(
    profiles: Optional[Sequence[str]] = None,
    sites: int = 100,
    participants: int = 1000,
    seed: int = 2016,
    loads_per_site: int = 5,
    frame_helper_enabled: bool = True,
    preload_video: bool = True,
    capture_workers: int = 0,
    session_workers: int = 0,
    rng_scheme: str = DEFAULT_RNG_SCHEME,
    warehouse=None,
    triage=None,
    fault_plan=None,
    resilience_policy=None,
    streaming: bool = False,
    chunk_size: int = 256,
    obs=None,
) -> ProfileSweepResult:
    """Run the PLT campaign once per network profile, in one pass.

    Args:
        profiles: profile names to sweep, in order; defaults to the full
            :func:`repro.netsim.profiles.list_profiles` registry.
        sites: sites in the shared corpus sample.
        participants: recruitment target of every per-profile campaign.
        seed: master seed (shared by every profile — only the network
            condition varies).
        loads_per_site: capture repetitions per site.
        frame_helper_enabled / preload_video: campaign ablation toggles.
        capture_workers / session_workers: process-pool widths (0 = serial;
            the parallel paths are bit-identical to serial).
        rng_scheme: versioned RNG scheme for the whole sweep.
        warehouse: optional :class:`~repro.warehouse.ResultsWarehouse`
            sink; the finished sweep is ingested as one record per profile
            (each self-describing via its ``network_profile``).
        triage: additionally store one quality-triage record covering the
            whole sweep's records (None falls back to
            :attr:`repro.config.ReproConfig.auto_triage`).
        fault_plan / resilience_policy: forwarded to every per-profile
            :func:`run_plt_campaign` (each profile run gets a fresh
            injector, so quarantine state never leaks across profiles).
        streaming: run every per-profile campaign through the
            bounded-memory pipeline (:func:`run_plt_campaign_streaming`);
            aggregates, summary rows, and warehouse records are
            bit-identical to the batch sweep's, but no clean datasets are
            materialised and warehouse ingest happens incrementally during
            each campaign rather than at the end of the sweep.
        chunk_size: participants per streaming execution chunk (ignored
            unless ``streaming``).
        obs: optional :class:`~repro.obs.Observer` threaded through every
            per-profile campaign; the whole sweep is wrapped in one
            deterministic ``sweep`` span.

    Returns:
        A :class:`ProfileSweepResult` with one campaign per profile.
    """
    names = list(profiles) if profiles is not None else list_profiles()
    for name in names:
        get_profile(name)  # fail fast on unknown profiles, before any capture

    obs = resolve_obs(obs)
    # One corpus for the whole sweep: the input dataset does not depend on
    # the network condition, so every profile measures the same sites.
    corpus = CorpusGenerator(seed=seed)
    pages = corpus.http2_sample(sites)

    by_profile: Dict[str, PLTCampaignResult] = {}
    with obs.span("sweep", deterministic=True, profiles=list(names),
                  sites=sites, seed=seed, rng_scheme=rng_scheme):
        for name in names:
            shared = dict(
                sites=sites,
                participants=participants,
                seed=seed,
                loads_per_site=loads_per_site,
                network_profile=name,
                frame_helper_enabled=frame_helper_enabled,
                preload_video=preload_video,
                capture_workers=capture_workers,
                session_workers=session_workers,
                rng_scheme=rng_scheme,
                campaign_id=f"profile-sweep-{name}",
                pages=pages,
                fault_plan=fault_plan,
                resilience_policy=resilience_policy,
                obs=obs,
            )
            if streaming:
                # Incremental ingest: the sink stores each campaign's record
                # as it runs (streaming results carry no datasets to ingest
                # at the end); the sweep triages once, below, like a batch
                # sweep.
                by_profile[name] = run_plt_campaign_streaming(
                    warehouse=warehouse, chunk_size=chunk_size, triage=False,
                    **shared)
            else:
                by_profile[name] = run_plt_campaign(**shared)
        sweep = ProfileSweepResult(
            profiles=names,
            sites=sites,
            rng_scheme=rng_scheme,
            by_profile=by_profile,
        )

        def landed():
            # A streaming sweep stored each profile's record as it ran.
            if streaming:
                return [by_profile[name].campaign.warehouse_record for name in names]
            return warehouse.ingest(sweep)

        if warehouse is not None:
            _ingest_and_triage(warehouse, obs, triage, landed)
    return sweep
