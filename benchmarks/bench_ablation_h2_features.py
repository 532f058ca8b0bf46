"""Ablation — HTTP/2 priority and server push.

Paper §6 points at HTTP/2 push and priority as levers for optimising the
delivery order of what users wait for; this ablation measures their effect on
the machine metrics of the synthetic corpus.
"""

from __future__ import annotations

from conftest import print_header

from repro.browser.browser import Browser
from repro.browser.preferences import BrowserPreferences
from repro.browser.renderer import Renderer
from repro.core.analysis import mean
from repro.httpsim.engine import FetchEngine, PushConfiguration, build_transport
from repro.metrics.plt import PLTMetrics, metrics_from_load, speed_index
from repro.metrics.visual import progress_from_timeline
from repro.netsim.bandwidth import BandwidthModel, SharedLink
from repro.netsim.dns import DNSResolver
from repro.netsim.latency import LatencyModel
from repro.rng import SeededRNG
from repro.web.corpus import CorpusGenerator
from repro.web.objects import ObjectType

SITES = 12


def _load(page, push=None, seed=11):
    browser = Browser(BrowserPreferences(protocol="h2"), "cable-intl", seed=seed)
    return browser.load(page, push=push)


def test_ablation_h2_push_and_priority(benchmark):
    corpus = CorpusGenerator(seed=55)
    pages = corpus.http2_sample(SITES)

    def run():
        results = {"baseline": [], "push": [], "no-priority": []}
        for page in pages:
            baseline = _load(page)
            results["baseline"].append(metrics_from_load(baseline))
            # Push the render-critical CSS of the first-party origin.
            critical = tuple(
                obj.object_id for obj in page.iter_objects()
                if obj.object_type is ObjectType.CSS and obj.blocking
            )
            pushed = _load(page, push=PushConfiguration(enabled=True, pushed_object_ids=critical))
            results["push"].append(metrics_from_load(pushed))

            # Disable stream prioritisation by driving the transport directly.
            latency = LatencyModel(base_rtt=0.1, jitter=0.0).scaled(page.latency_multiplier)
            link = SharedLink(bandwidth=BandwidthModel(downlink_bps=20_000_000, uplink_bps=5_000_000))
            rng = SeededRNG(11).fork(f"noprio:{page.site_id}")
            transport = build_transport("h2", latency, link, DNSResolver(latency, rng), rng,
                                        enable_priority=False)
            schedule = FetchEngine(transport).run(page)
            timeline = Renderer().render(page, schedule.fetches)
            results["no-priority"].append(
                PLTMetrics(
                    onload=schedule.onload,
                    speedindex=speed_index(progress_from_timeline(timeline)),
                    firstvisualchange=timeline.first_visual_change,
                    lastvisualchange=timeline.last_visual_change,
                )
            )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — HTTP/2 server push and stream priority")
    for label, metrics in results.items():
        print(f"  {label:12s} mean SpeedIndex = {mean([m.speedindex for m in metrics]):.2f}s   "
              f"mean FirstVisualChange = {mean([m.firstvisualchange for m in metrics]):.2f}s   "
              f"mean onload = {mean([m.onload for m in metrics]):.2f}s")
    print("Expected: pushing critical CSS trims first paint; disabling prioritisation delays")
    print("render-critical bytes behind bulk image data.")
    assert mean([m.firstvisualchange for m in results["push"]]) <= \
        mean([m.firstvisualchange for m in results["baseline"]]) + 0.05
    assert mean([m.firstvisualchange for m in results["no-priority"]]) >= \
        mean([m.firstvisualchange for m in results["baseline"]]) - 0.05
