"""Bounded-memory probe for the streaming campaign pipeline.

Run as a module::

    PYTHONPATH=src python -m repro.perf.memory --participants 200 --max-mb 5
    PYTHONPATH=src python -m repro.perf.memory --participants 100000 --chunk-size 512

The probe captures a corpus once (untraced — videos are per-site artefacts
shared by both execution modes), then runs the campaign through
:func:`repro.core.streaming.run_streaming_campaign` under :mod:`tracemalloc`
and reports the Python-heap peak.  A small untraced warmup campaign runs
first so one-time lazy imports are never billed to the measurement.  With
``--max-mb`` the exit status enforces the bound, which is what the CI
bounded-memory gate runs: the streaming pipeline's peak must stay flat in
the participant count (O(chunk_size + sites), not O(participants)).
"""

from __future__ import annotations

import argparse
from typing import Dict, Optional

from ..rng import DEFAULT_RNG_SCHEME, RNG_SCHEMES

#: Warmup campaign size: enough to exercise every code path (recruitment,
#: sessions, filtering, wisdom finalise) while staying negligible next to
#: the measured run.
WARMUP_PARTICIPANTS = 64


def measure_streaming_campaign_peak(
    sites: int = 30,
    participants: int = 200,
    loads: int = 3,
    seed: int = 2016,
    chunk_size: int = 256,
    rng_scheme: str = DEFAULT_RNG_SCHEME,
    network_profile: str = "cable-intl",
    warmup: bool = True,
) -> Dict[str, object]:
    """Measure the streaming campaign's Python-heap peak at one scale.

    Returns a dict with the workload parameters, ``peak_bytes`` /
    ``peak_mb`` (tracemalloc peak across the traced campaign run), and the
    process ``ru_maxrss_kb``.  Capture happens before tracing starts: the
    corpus and videos are the shared input dataset, not part of the
    execution pipeline whose memory behaviour this probe certifies.
    """
    import gc
    import resource
    import tracemalloc

    from ..capture.webpeg import CaptureCache, CaptureSettings, Webpeg
    from ..core.campaign import CampaignConfig, CampaignRunner
    from ..core.experiment import TimelineExperiment
    from ..web.corpus import CorpusGenerator

    corpus = CorpusGenerator(seed=seed)
    pages = corpus.http2_sample(sites)
    settings = CaptureSettings(loads_per_site=loads, network_profile=network_profile)
    # A private cache keeps the probe independent of what the process-wide
    # cache already holds.
    tool = Webpeg(settings=settings, seed=seed, rng_scheme=rng_scheme,
                  cache=CaptureCache())
    reports = tool.capture_batch(pages, configuration="h2")
    videos = [reports[page.site_id].video for page in pages]
    experiment = TimelineExperiment(experiment_id="memory-probe", videos=videos)

    def _run(count: int) -> None:
        config = CampaignConfig(
            campaign_id="memory-probe",
            participant_count=count,
            service="crowdflower",
            seed=seed,
            rng_scheme=rng_scheme,
            network_profile=network_profile,
        )
        CampaignRunner(config).run_timeline_streaming(experiment, chunk_size=chunk_size)

    if warmup:
        # One-time lazy imports (the streaming module, tempfile, dataclass
        # machinery) must not land in the measurement; the warmup scale is
        # deliberately tiny so huge probes never pay for the run twice.
        _run(min(participants, WARMUP_PARTICIPANTS))

    gc.collect()
    tracemalloc.start()
    try:
        _run(participants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    return {
        "sites": sites,
        "participants": participants,
        "loads": loads,
        "seed": seed,
        "chunk_size": chunk_size,
        "rng_scheme": rng_scheme,
        "network_profile": network_profile,
        "peak_bytes": peak,
        "peak_mb": round(peak / 1e6, 3),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main(argv=None) -> int:
    """Entry point for ``python -m repro.perf.memory``."""
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, default=30)
    parser.add_argument("--participants", type=int, default=200)
    parser.add_argument("--loads", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--chunk-size", type=int, default=256)
    parser.add_argument("--rng-scheme", choices=RNG_SCHEMES, default=DEFAULT_RNG_SCHEME)
    parser.add_argument("--profile", default="cable-intl",
                        help="capture network-emulation profile (see repro.netsim.profiles)")
    parser.add_argument("--max-mb", type=float, default=None,
                        help="fail (exit 1) when the traced peak exceeds this many MB")
    args = parser.parse_args(argv)

    result = measure_streaming_campaign_peak(
        sites=args.sites,
        participants=args.participants,
        loads=args.loads,
        seed=args.seed,
        chunk_size=args.chunk_size,
        rng_scheme=args.rng_scheme,
        network_profile=args.profile,
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.max_mb is not None and result["peak_mb"] > args.max_mb:
        print(f"FAIL: streaming campaign peak {result['peak_mb']} MB "
              f"exceeds --max-mb {args.max_mb}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
