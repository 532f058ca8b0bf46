#!/usr/bin/env python3
"""Design your own Eyeorg experiment: does HTTP/2 server push help?

The paper's discussion section lists push/priority strategies as a natural
next experiment for the platform.  This example shows how an experimenter
composes the library's pieces directly — capture two *treatments* of the same
sites (baseline HTTP/2 vs HTTP/2 with critical-CSS push), splice them into
A/B pairs, run a crowd campaign, and score the treatment.

Run with:  python examples/custom_experiment.py
"""

from __future__ import annotations

from repro import (
    Browser,
    BrowserPreferences,
    CampaignConfig,
    CampaignRunner,
    CaptureSettings,
    CorpusGenerator,
    SeededRNG,
    Video,
    build_ab_pairs,
    score_per_site,
)
from repro.capture.frames import frames_from_timeline
from repro.core.experiment import ABExperiment
from repro.core.visualization import score_summary
from repro.httpsim import PushConfiguration
from repro.web.objects import ObjectType

SITES = 10
PARTICIPANTS = 100
SEED = 123


def capture_with_push(page, push: bool) -> Video:
    """Capture one page over HTTP/2, optionally pushing its critical CSS."""
    browser = Browser(BrowserPreferences(protocol="h2"), network_profile="cable-intl", seed=SEED)
    configuration = None
    if push:
        critical = tuple(
            obj.object_id for obj in page.iter_objects()
            if obj.object_type is ObjectType.CSS and obj.blocking
        )
        configuration = PushConfiguration(enabled=True, pushed_object_ids=critical)
    result = browser.load_with_fresh_state(page, repeat_index=0, push=configuration)
    frames = frames_from_timeline(result.render_timeline, fps=10, duration=result.fully_loaded + 3.0)
    label = "h2push" if push else "h2"
    return Video(
        video_id=f"{page.site_id}-{label}",
        site_id=page.site_id,
        configuration=label,
        frames=frames,
        load_result=result,
    )


def main() -> None:
    corpus = CorpusGenerator(seed=SEED)
    pages = corpus.http2_sample(SITES)

    baseline = {page.site_id: capture_with_push(page, push=False) for page in pages}
    pushed = {page.site_id: capture_with_push(page, push=True) for page in pages}
    print(f"Captured {SITES} sites twice (baseline HTTP/2 and HTTP/2 + critical-CSS push).")

    pairs = build_ab_pairs(baseline, pushed, label_a="h2", label_b="h2push", rng=SeededRNG(SEED))
    experiment = ABExperiment(experiment_id="push-study", pairs=pairs)
    campaign = CampaignRunner(
        CampaignConfig(campaign_id="push-study", participant_count=PARTICIPANTS, seed=SEED)
    ).run_ab(experiment)

    scores = score_per_site(campaign.clean_dataset, treatment_label="h2push")
    print("\nPer-site score (1.0 = pushed version unanimously felt faster):")
    for site, score in sorted(scores.items()):
        fvc_saving = (
            baseline[site].load_result.first_visual_change
            - pushed[site].load_result.first_visual_change
        )
        print(f"  {site:12s} score={score:4.2f}   first-paint saving={fvc_saving * 1000:+5.0f} ms")
    print()
    print(score_summary(scores, label="HTTP/2 push vs baseline"))
    print("\nExpected: push shaves a round trip off the render-critical path, so most sites score")
    print(">0.5, but the saving is usually only perceptible when the page is latency-bound.")


if __name__ == "__main__":
    main()
