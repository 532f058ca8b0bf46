"""Cross-scheme guard tests: mixing versioned RNG schemes is an error.

Every artifact (capture-cache entry, captured video, campaign result)
records the scheme that produced it; these tests pin that combining
artifacts across schemes raises :class:`RNGSchemeMismatchError` with both
scheme names in the message, and that one capture cache serves several
schemes side by side without ever mixing their entries.
"""

from __future__ import annotations

import pytest

from repro.capture.video import Video
from repro.capture.webpeg import DEFAULT_CAPTURE_CACHE, CaptureCache, CaptureSettings, Webpeg
from repro.config import ReproConfig
from repro.core.campaign import CampaignConfig, CampaignRunner
from repro.core.experiment import TimelineExperiment
from repro.errors import (
    CaptureError,
    ConfigurationError,
    RNGSchemeMismatchError,
    VideoError,
)
from repro.rng import SCHEME_SHA256_V1, SCHEME_SPLITMIX64_BATCH_V3, SCHEME_SPLITMIX64_V2
from repro.warehouse import ResultsWarehouse

#: Matches tests/conftest.py's TEST_SEED (not imported: the name `conftest`
#: is ambiguous when tests/ and benchmarks/ are collected together).
TEST_SEED = 77


@pytest.fixture()
def private_cache():
    """A fresh capture cache (never the process-wide one)."""
    return CaptureCache(max_entries=8)


def _tool(scheme, cache, settings):
    return Webpeg(settings=settings, seed=TEST_SEED, cache=cache, rng_scheme=scheme)


def _plt_record_id(root, scheme):
    """Record id of a small PLT campaign captured through the process-wide cache."""
    from repro.experiments.plt_campaign import run_plt_campaign

    warehouse = ResultsWarehouse(root)
    run_plt_campaign(sites=4, participants=20, loads_per_site=2, seed=TEST_SEED,
                     rng_scheme=scheme, warehouse=warehouse, triage=False)
    [record] = warehouse.records()
    return record.record_id


def test_shared_cache_serves_interleaved_schemes(tmp_path):
    """v3 -> v1 -> v3 on one shared cache reproduces fresh-cache record ids."""
    order = [SCHEME_SPLITMIX64_BATCH_V3, SCHEME_SHA256_V1, SCHEME_SPLITMIX64_BATCH_V3]
    DEFAULT_CAPTURE_CACHE.clear()
    try:
        shared = [_plt_record_id(tmp_path / "shared-0", order[0]),
                  _plt_record_id(tmp_path / "shared-1", order[1])]
        hits = DEFAULT_CAPTURE_CACHE.hits
        shared.append(_plt_record_id(tmp_path / "shared-2", order[2]))
        # The second v3 run is served from the entries of the first.
        assert DEFAULT_CAPTURE_CACHE.hits > hits
        fresh = []
        for index, scheme in enumerate(order):
            DEFAULT_CAPTURE_CACHE.clear()
            fresh.append(_plt_record_id(tmp_path / f"fresh-{index}", scheme))
    finally:
        DEFAULT_CAPTURE_CACHE.clear()
    assert shared == fresh
    assert shared[0] == shared[2] != shared[1]


def test_scheme_distinguishes_cache_keys(page, capture_settings):
    tool_v1 = _tool(SCHEME_SHA256_V1, None, capture_settings)
    tool_v2 = _tool(SCHEME_SPLITMIX64_V2, None, capture_settings)
    assert tool_v1._cache_key(page, "h2") != tool_v2._cache_key(page, "h2")


def test_capture_artifacts_record_their_scheme(page, capture_settings, private_cache):
    report = _tool(SCHEME_SPLITMIX64_V2, private_cache, capture_settings).capture(
        page, configuration="h2"
    )
    assert report.rng_scheme == SCHEME_SPLITMIX64_V2
    assert report.video.rng_scheme == SCHEME_SPLITMIX64_V2
    # Cache hits hand out copies that keep the recorded scheme.
    hit = _tool(SCHEME_SPLITMIX64_V2, private_cache, capture_settings).capture(
        page, configuration="h2"
    )
    assert private_cache.hits == 1
    assert hit.video.rng_scheme == SCHEME_SPLITMIX64_V2


def test_campaign_rejects_videos_from_another_scheme(pages, capture_settings):
    videos = [
        _tool(SCHEME_SHA256_V1, None, capture_settings).capture(p, configuration="h2").video
        for p in pages
    ]
    experiment = TimelineExperiment(experiment_id="mixed", videos=videos)
    config = CampaignConfig(
        campaign_id="mixed", participant_count=10, seed=TEST_SEED,
        rng_scheme=SCHEME_SPLITMIX64_V2,
    )
    with pytest.raises(RNGSchemeMismatchError) as excinfo:
        CampaignRunner(config).run_timeline(experiment)
    message = str(excinfo.value)
    assert SCHEME_SHA256_V1 in message and SCHEME_SPLITMIX64_V2 in message


def test_campaign_accepts_videos_from_its_own_scheme(pages, capture_settings):
    videos = [
        _tool(SCHEME_SPLITMIX64_V2, None, capture_settings).capture(p, configuration="h2").video
        for p in pages
    ]
    experiment = TimelineExperiment(experiment_id="v2-only", videos=videos)
    config = CampaignConfig(
        campaign_id="v2-only", participant_count=10, seed=TEST_SEED,
        rng_scheme=SCHEME_SPLITMIX64_V2,
    )
    result = CampaignRunner(config).run_timeline(experiment)
    assert result.rng_scheme == SCHEME_SPLITMIX64_V2
    assert result.config.rng_scheme == SCHEME_SPLITMIX64_V2


def test_spliced_video_rejects_mixed_scheme_sides(video):
    from repro.capture.video import SplicedVideo

    other = Video(
        video_id=video.video_id + "-v2",
        site_id=video.site_id,
        configuration=video.configuration,
        frames=video.frames,
        load_result=video.load_result,
        rng_scheme=SCHEME_SPLITMIX64_V2,
    )
    spliced = SplicedVideo(
        video_id="mixed", left=video, right=other, left_label="a", right_label="b"
    )
    with pytest.raises(VideoError, match="mixes RNG schemes"):
        spliced.rng_scheme


def test_config_objects_validate_schemes():
    with pytest.raises(ConfigurationError):
        ReproConfig(rng_scheme="md5-v0")
    with pytest.raises(ConfigurationError):
        CampaignConfig(campaign_id="x", participant_count=1, rng_scheme="md5-v0")
    with pytest.raises(ConfigurationError):
        Webpeg(rng_scheme="md5-v0")
    assert ReproConfig().rng_scheme == SCHEME_SHA256_V1


def test_cache_constructor_still_validates_entries():
    with pytest.raises(CaptureError):
        CaptureCache(max_entries=0)
