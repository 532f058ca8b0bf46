"""Streaming campaign execution and the edge-case bugfix sweep.

The streaming pipeline (:mod:`repro.core.streaming`) re-executes campaigns
in fixed-size participant chunks under one hard contract: **bit-identical
outputs** — the same clean dataset, Table 1 row, per-site UPLT, helper
effect, and warehouse record bytes as the batch runner, under both RNG
schemes, with and without a checkpointed kill+resume.  These tests pin that
contract, plus the satellite fixes that rode along: the
``bootstrap_mean_ci`` resamples guard, the backoff jitter-after-cap clamp,
8-digit checkpoint chunk names (older checkpoint formats are refused), the
sharded warehouse record layout, and ``ResponseDataset.extend``.

The 100k-participant bounded-memory check is marked ``tier2``:
``PYTHONPATH=src python -m pytest -m tier2 tests/test_streaming.py``.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.capture.webpeg import CaptureCache, CaptureSettings, Webpeg
from repro.core.campaign import CampaignConfig, CampaignRunner
from repro.core.experiment import ABExperiment, TimelineExperiment, build_ab_pairs
from repro.core.responses import ResponseDataset, TimelineResponse
from repro.core.storage import dataset_to_dict
from repro.core.validation import FilterConfig
from repro.errors import (
    AnalysisError,
    CampaignError,
    CampaignInterrupted,
    CheckpointError,
    WarehouseError,
)
from repro.faults import CheckpointStore, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.rng import RNG_SCHEMES, SeededRNG
from repro.warehouse import ResultsWarehouse, bootstrap_mean_ci
from repro.web.corpus import CorpusGenerator

#: Matches tests/conftest.py's TEST_SEED (not imported: the name `conftest`
#: is ambiguous when tests/ and benchmarks/ are collected together).
TEST_SEED = 77

PARTICIPANTS = 40
CHUNK = 16  # deliberately does not divide PARTICIPANTS: last chunk is ragged


# -- shared per-scheme artefacts ------------------------------------------------

_SCHEME_CACHE = {}


def _scheme_artefacts(scheme):
    """Videos + experiments captured under one scheme (built once per run).

    Each scheme gets its own private :class:`CaptureCache`, so these
    captures never depend on what the process-wide cache already holds.
    """
    if scheme not in _SCHEME_CACHE:
        pages = CorpusGenerator(seed=TEST_SEED).http2_sample(5)
        settings = CaptureSettings(loads_per_site=2, network_profile="cable-intl",
                                   record_after_onload=2.0)
        h2tool = Webpeg(settings=settings, seed=TEST_SEED, rng_scheme=scheme,
                        cache=CaptureCache())
        h1tool = Webpeg(settings=settings, seed=TEST_SEED, rng_scheme=scheme,
                        cache=CaptureCache())
        h2 = {p.site_id: h2tool.capture(p, configuration="h2").video for p in pages}
        h1 = {p.site_id: h1tool.capture(p, configuration="h1").video for p in pages}
        timeline = TimelineExperiment(experiment_id="stream-timeline",
                                      videos=list(h2.values()))
        pairs = build_ab_pairs(h1, h2, label_a="h1", label_b="h2",
                               rng=SeededRNG(TEST_SEED, scheme))
        ab = ABExperiment(experiment_id="stream-ab", pairs=pairs)
        _SCHEME_CACHE[scheme] = (timeline, ab)
    return _SCHEME_CACHE[scheme]


def _config(scheme, campaign_id="stream-test", filter_config=None):
    return CampaignConfig(campaign_id=campaign_id, participant_count=PARTICIPANTS,
                          seed=TEST_SEED, rng_scheme=scheme,
                          filter_config=filter_config, network_profile="cable-intl")


def _fsck_clean(report):
    return report.index_ok and not (report.corrupt or report.missing or report.unindexed)


def _assert_streaming_matches_batch(batch, stream):
    """The full aggregate-equality contract between the two runners."""
    assert stream.clean_dataset is not None  # keep_dataset=True in callers
    assert dataset_to_dict(stream.clean_dataset) == dataset_to_dict(batch.clean_dataset)
    assert stream.table1_row == batch.table1_row
    assert stream.videos_served == batch.videos_served


# -- streaming vs batch equivalence ---------------------------------------------

@pytest.mark.parametrize("scheme", RNG_SCHEMES)
def test_timeline_streaming_matches_batch(scheme):
    """Timeline (wisdom on): dataset, Table 1, UPLT and helper means match."""
    from repro.core.analysis import mean_uplt_per_site, slider_vs_submitted

    timeline, _ = _scheme_artefacts(scheme)
    batch = CampaignRunner(_config(scheme)).run_timeline(timeline)
    stream = CampaignRunner(_config(scheme)).run_timeline_streaming(
        timeline, chunk_size=CHUNK, keep_dataset=True)

    _assert_streaming_matches_batch(batch, stream)
    # Key order matters too: downstream serialisation iterates these dicts.
    assert stream.uplt_by_site == mean_uplt_per_site(batch.clean_dataset)
    assert list(stream.uplt_by_site) == list(mean_uplt_per_site(batch.clean_dataset))
    assert stream.helper_effect == slider_vs_submitted(batch.clean_dataset)
    assert stream.chunks_total == -(-PARTICIPANTS // CHUNK)
    assert stream.chunks_executed == stream.chunks_total


@pytest.mark.parametrize("scheme", RNG_SCHEMES)
def test_ab_streaming_matches_batch(scheme):
    """A/B: control injection streams serially, responses stay identical."""
    _, ab = _scheme_artefacts(scheme)
    batch = CampaignRunner(_config(scheme)).run_ab(ab)
    stream = CampaignRunner(_config(scheme)).run_ab_streaming(
        ab, chunk_size=CHUNK, keep_dataset=True)
    _assert_streaming_matches_batch(batch, stream)


def test_timeline_streaming_matches_batch_wisdom_off():
    """With the wisdom filter off, the passthrough path is also identical."""
    scheme = RNG_SCHEMES[0]
    timeline, _ = _scheme_artefacts(scheme)
    cfg = FilterConfig(apply_wisdom=False)
    batch = CampaignRunner(_config(scheme, filter_config=cfg)).run_timeline(timeline)
    stream = CampaignRunner(_config(scheme, filter_config=cfg)).run_timeline_streaming(
        timeline, chunk_size=CHUNK, keep_dataset=True)
    _assert_streaming_matches_batch(batch, stream)


def test_streaming_rejects_invalid_chunk_size():
    scheme = RNG_SCHEMES[0]
    timeline, _ = _scheme_artefacts(scheme)
    with pytest.raises(CampaignError):
        CampaignRunner(_config(scheme)).run_timeline_streaming(timeline, chunk_size=0)


# -- warehouse: streaming ingest + sharded layout -------------------------------

@pytest.mark.parametrize("scheme", RNG_SCHEMES)
def test_streaming_ingest_record_bytes_identical(tmp_path, scheme):
    """The incrementally-streamed record is byte-for-byte the batch record."""
    timeline, _ = _scheme_artefacts(scheme)
    batch_wh = ResultsWarehouse(tmp_path / "batch")
    stream_wh = ResultsWarehouse(tmp_path / "stream")

    batch = CampaignRunner(_config(scheme)).run_timeline(timeline)
    batch_record = batch_wh.ingest(batch)
    stream = CampaignRunner(_config(scheme)).run_timeline_streaming(
        timeline, chunk_size=CHUNK, warehouse=stream_wh)
    stream_record = stream.warehouse_record

    assert stream_record is not None
    assert stream_record.record_id == batch_record.record_id
    assert stream_record.path.read_bytes() == batch_record.path.read_bytes()
    # Both ingest paths write the sharded layout: records/<id[:2]>/<id>.json.
    for record in (batch_record, stream_record):
        assert record.path.parent.name == record.record_id[:2]
    # The streamed store is structurally sound and queryable.
    assert _fsck_clean(stream_wh.fsck())
    assert [r.record_id for r in stream_wh.query(scheme=scheme)] == [stream_record.record_id]


def test_legacy_flat_records_are_reported_missing(tmp_path):
    """A record left flat at records/<id>.json is never read silently."""
    scheme = RNG_SCHEMES[0]
    timeline, _ = _scheme_artefacts(scheme)
    warehouse = ResultsWarehouse(tmp_path / "wh")
    batch = CampaignRunner(_config(scheme)).run_timeline(timeline)
    record = warehouse.ingest(batch)

    # Demote the record to the pre-shard flat layout.
    sharded = record.path
    flat = sharded.parent.parent / sharded.name
    sharded.rename(flat)
    sharded.parent.rmdir()

    fresh = ResultsWarehouse(tmp_path / "wh")
    [found] = fresh.query(scheme=scheme)
    assert found.record_id == record.record_id
    assert found.path == sharded
    with pytest.raises(WarehouseError, match="missing"):
        found.load()
    report = fresh.fsck()
    assert not report.clean
    assert report.missing == [record.record_id]
    assert report.checked == 0 and not report.corrupt


# -- checkpointed kill+resume ---------------------------------------------------

def test_streaming_kill_and_resume_is_bit_identical(tmp_path):
    """A killed-then-resumed streaming campaign reproduces the record bytes."""
    scheme = RNG_SCHEMES[0]
    timeline, _ = _scheme_artefacts(scheme)

    baseline_wh = ResultsWarehouse(tmp_path / "baseline")
    baseline = CampaignRunner(_config(scheme)).run_timeline_streaming(
        timeline, chunk_size=CHUNK, warehouse=baseline_wh, keep_dataset=True)

    ckpt = tmp_path / "ckpt"
    with pytest.raises(CampaignInterrupted) as exc:
        CampaignRunner(_config(scheme)).run_timeline_streaming(
            timeline, chunk_size=CHUNK, checkpoint_dir=ckpt, stop_after_chunks=1)
    assert exc.value.completed_chunks == 1

    resumed_wh = ResultsWarehouse(tmp_path / "resumed")
    resumed = CampaignRunner(_config(scheme)).run_timeline_streaming(
        timeline, chunk_size=CHUNK, checkpoint_dir=ckpt,
        warehouse=resumed_wh, keep_dataset=True)
    assert resumed.chunks_executed < resumed.chunks_total  # chunk 0 came from disk
    assert dataset_to_dict(resumed.clean_dataset) == dataset_to_dict(baseline.clean_dataset)
    assert resumed.table1_row == baseline.table1_row
    assert resumed.warehouse_record.record_id == baseline.warehouse_record.record_id
    assert resumed.warehouse_record.path.read_bytes() == \
        baseline.warehouse_record.path.read_bytes()


def test_checkpoint_chunk_names_are_8_digits_and_v1_manifests_are_refused(tmp_path):
    """Chunk files sort lexicographically past index 99,999; v1 stores are refused."""
    store = CheckpointStore(tmp_path / "ckpt", {"campaign": "x"})
    for index in (0, 99999, 100000):
        store.save_chunk(index, {"pids": [f"p{index}"], "results": [index]})
    names = sorted(p.name for p in (tmp_path / "ckpt").glob("chunk-*.pkl"))
    assert names == ["chunk-00000000.pkl", "chunk-00099999.pkl", "chunk-00100000.pkl"]
    # Lexicographic order == numeric order at the 5→6 digit boundary.
    assert names == [f"chunk-{i:08d}.pkl" for i in (0, 99999, 100000)]

    # A checkpoint directory written in the v1 format is refused, not read.
    old = tmp_path / "v1"
    old.mkdir()
    (old / "manifest.json").write_text(json.dumps(
        {"format": "campaign-checkpoint-v1", "fingerprint": {"campaign": "x"}}))
    with pytest.raises(CheckpointError, match="format"):
        CheckpointStore(old, {"campaign": "x"})


def test_batch_resume_refuses_a_tampered_chunk(tmp_path):
    """A batch chunk whose pids differ from the recomputed slice is refused."""
    scheme = RNG_SCHEMES[0]
    timeline, _ = _scheme_artefacts(scheme)
    ckpt = tmp_path / "ckpt"
    with pytest.raises(CampaignInterrupted):
        CampaignRunner(_config(scheme)).run_timeline(
            timeline, checkpoint_dir=ckpt, checkpoint_chunk_size=CHUNK, stop_after_chunks=1)
    chunk = ckpt / "chunk-00000000.pkl"
    payload = pickle.loads(chunk.read_bytes())
    payload["pids"] = payload["pids"][::-1]
    chunk.write_bytes(pickle.dumps(payload))
    with pytest.raises(CheckpointError, match="does not match"):
        CampaignRunner(_config(scheme)).run_timeline(
            timeline, checkpoint_dir=ckpt, checkpoint_chunk_size=CHUNK)


# -- satellite regressions ------------------------------------------------------

def test_bootstrap_mean_ci_rejects_zero_resamples():
    """resamples=0 must raise, not return a degenerate all-zero interval."""
    with pytest.raises(AnalysisError):
        bootstrap_mean_ci([1.0, 2.0, 3.0], resamples=0)
    with pytest.raises(AnalysisError):
        bootstrap_mean_ci([1.0, 2.0, 3.0], resamples=-5)


def test_backoff_jitter_is_clamped_after_cap():
    """max_delay_seconds bounds the *jittered* delay, not just the base."""
    policy = RetryPolicy(max_attempts=5, base_delay_seconds=1.5, multiplier=2.0,
                         max_delay_seconds=2.0, jitter_fraction=0.5)
    plan = FaultPlan(seed=TEST_SEED)
    jitter_would_exceed = 0
    for label_index in range(20):
        label = f"op:{label_index}"
        for attempt in range(4):
            delay = policy.backoff_delay(plan, label, attempt)
            assert delay <= policy.max_delay_seconds
            raw = min(policy.base_delay_seconds * policy.multiplier ** attempt,
                      policy.max_delay_seconds)
            u = SeededRNG(plan.seed, plan.rng_scheme).fork_random(
                f"backoff:{label}:a{attempt}")
            unclamped = raw * (1.0 + policy.jitter_fraction * (2.0 * u - 1.0))
            if unclamped > policy.max_delay_seconds:
                jitter_would_exceed += 1
                assert delay == policy.max_delay_seconds
    # The clamp must actually have been exercised, or this test proves nothing.
    assert jitter_would_exceed > 0


def test_response_dataset_extend_merges_in_place():
    def response(pid, video_id):
        from repro.crowd.behavior import VideoInteraction

        interaction = VideoInteraction(
            video_transfer_seconds=1.0, watch_seconds=5.0, instruction_seconds=1.0,
            out_of_focus_seconds=0.0, play_actions=1, pause_actions=1,
            seek_actions=0, watched_video=True,
        )
        return TimelineResponse(
            participant_id=pid, video_id=video_id, site_id="site-000",
            slider_time=1.0, helper_time=None, submitted_time=1.5,
            saw_control_frame=False, control_passed=None,
            interaction=interaction,
        )

    base = ResponseDataset(campaign_id="c", experiment_type="timeline")
    base.add_timeline_response(response("p1", "v1"))
    other = ResponseDataset(campaign_id="c", experiment_type="timeline")
    other.add_timeline_response(response("p2", "v2"))

    base.extend(other)
    assert [r.participant_id for r in base.timeline_responses] == ["p1", "p2"]

    mismatched = ResponseDataset(campaign_id="c", experiment_type="ab")
    with pytest.raises(AnalysisError):
        base.extend(mismatched)


# -- bounded memory (tier 2) ----------------------------------------------------

@pytest.mark.tier2
def test_streaming_campaign_memory_stays_flat_at_100k():
    """100k participants must peak within ~2x of 1k (O(chunk), not O(n))."""
    from repro.perf.memory import measure_streaming_campaign_peak

    small = measure_streaming_campaign_peak(
        sites=10, participants=1_000, loads=2, seed=TEST_SEED, chunk_size=512,
        rng_scheme="splitmix64-v2")
    large = measure_streaming_campaign_peak(
        sites=10, participants=100_000, loads=2, seed=TEST_SEED, chunk_size=512,
        rng_scheme="splitmix64-v2")
    assert large["peak_bytes"] <= 2.0 * small["peak_bytes"], (small, large)
