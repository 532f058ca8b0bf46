"""Tests for the webpeg capture substrate: frames, videos, splicing, capture tool."""

from __future__ import annotations

import pytest

from repro.capture.frames import frames_from_timeline
from repro.capture.pixeldiff import control_frame, frames_similar, pixel_difference, rewind_suggestion
from repro.capture.video import control_splice, splice
from repro.capture.webpeg import CaptureSettings, Webpeg, capture_adblock_set, capture_protocol_pair
from repro.errors import CaptureError, VideoError


# -- frames ------------------------------------------------------------------------


def test_frames_sampled_at_fps(load_result):
    frames = frames_from_timeline(load_result.render_timeline, fps=10, duration=5.0)
    assert frames.fps == 10
    assert frames.frame_count >= 50
    assert frames.duration >= 5.0 - 0.2


def test_frame_completeness_monotonic(video):
    previous = -1.0
    for frame in video.frames.frames:
        assert frame.completeness >= previous - 1e-12
        previous = frame.completeness
    assert video.frames.frames[-1].completeness == pytest.approx(1.0)


def test_frame_at_clamps(video):
    assert video.frames.frame_at(-5.0).index == 0
    assert video.frames.frame_at(video.duration + 100).index == video.frames.frame_count - 1


def test_invalid_frame_buffer_settings(load_result):
    with pytest.raises(VideoError):
        frames_from_timeline(load_result.render_timeline, fps=10, duration=0.0)


# -- pixel diff / frame helper -------------------------------------------------------


def test_pixel_difference_zero_for_same_frame(video):
    frame = video.frame_at(video.onload)
    assert pixel_difference(frame, frame, video.frames.viewport_pixels) == 0.0
    assert frames_similar(frame, frame, video.frames.viewport_pixels)


def test_rewind_suggestion_is_earlier_and_similar(video):
    chosen_time = video.onload + 1.0
    suggestion = rewind_suggestion(video.frames, chosen_time)
    chosen = video.frame_at(chosen_time)
    assert suggestion.timestamp <= chosen.timestamp
    assert pixel_difference(chosen, suggestion, video.frames.viewport_pixels) <= 0.011


def test_control_frame_is_drastically_different(video):
    chosen_time = video.onload + 1.0
    control = control_frame(video.frames, chosen_time, minimum_difference=0.5)
    if control is not None:
        chosen = video.frame_at(chosen_time)
        assert pixel_difference(chosen, control, video.frames.viewport_pixels) >= 0.5


def test_control_frame_invalid_threshold(video):
    with pytest.raises(VideoError):
        control_frame(video.frames, 1.0, minimum_difference=0.0)


# -- videos ------------------------------------------------------------------------


def test_video_basic_properties(video):
    assert video.duration > video.onload
    assert video.size_bytes > 100_000
    assert video.configuration == "h2"


def test_video_flagging_bans_after_threshold(video):
    for index in range(4):
        assert not video.flag_broken(f"w{index}", threshold=5)
    assert video.flag_broken("w4", threshold=5)
    assert video.banned


def test_splice_properties(video_pair):
    h1, h2 = video_pair
    site = sorted(h1)[0]
    spliced = splice("s1", h1[site], h2[site], "h1", "h2")
    assert spliced.duration == pytest.approx(max(h1[site].duration, h2[site].duration))
    assert spliced.size_bytes > max(h1[site].size_bytes, h2[site].size_bytes)
    assert not spliced.is_control
    assert spliced.faster_side() in ("left", "right", "tie")


def test_control_splice_delayed_side_loses(video):
    control = control_splice("c1", video, delayed_side="right", delay=3.0)
    assert control.is_control
    assert control.faster_side() == "left"
    assert control.side_onload("right") == pytest.approx(video.onload + 3.0)
    control_left = control_splice("c2", video, delayed_side="left", delay=3.0)
    assert control_left.faster_side() == "right"


def test_control_splice_invalid_side(video):
    with pytest.raises(VideoError):
        control_splice("c3", video, delayed_side="top")


# -- webpeg ------------------------------------------------------------------------


def test_capture_settings_validation():
    with pytest.raises(CaptureError):
        CaptureSettings(loads_per_site=0)
    with pytest.raises(CaptureError):
        CaptureSettings(record_after_onload=-1.0)
    with pytest.raises(CaptureError):
        CaptureSettings(fps=0)


def test_capture_selects_median_onload(page, capture_settings):
    tool = Webpeg(settings=CaptureSettings(loads_per_site=5, network_profile="cable-intl"), seed=7)
    report = tool.capture(page, configuration="h2")
    assert len(report.onload_times) == 5
    ordered = sorted(report.onload_times)
    median = ordered[2]
    assert report.video.onload == pytest.approx(
        min(report.onload_times, key=lambda v: abs(v - median))
    )
    assert report.primer_performed


def test_capture_video_covers_record_after_onload(video, capture_settings):
    assert video.duration >= video.load_result.fully_loaded + capture_settings.record_after_onload - 0.2


def test_capture_batch(pages, capture_settings):
    tool = Webpeg(settings=capture_settings, seed=7)
    reports = tool.capture_batch(pages[:2], configuration="h2")
    assert set(reports) == {p.site_id for p in pages[:2]}
    with pytest.raises(CaptureError):
        tool.capture_batch([], configuration="h2")


def test_capture_protocol_pair_labels(page, capture_settings):
    reports = capture_protocol_pair(page, settings=capture_settings, seed=7)
    assert set(reports) == {"h1", "h2"}
    assert reports["h1"].video.load_result.protocol == "http/1.1"
    assert reports["h2"].video.load_result.protocol == "h2"


def test_capture_adblock_set(corpus, capture_settings):
    ad_page = corpus.generate_page("adsite-00099", displays_ads=True)
    reports = capture_adblock_set(ad_page, blockers=("ghostery",), settings=capture_settings, seed=7)
    assert set(reports) == {"noextension", "ghostery"}
    assert len(reports["ghostery"].video.load_result.blocked_object_ids) > 0
    assert len(reports["noextension"].video.load_result.blocked_object_ids) == 0


def test_pixel_difference_semantics_pinned(video):
    """Regression pin for Frame.pixel_difference (see its docstring).

    The difference is |painted_pixels_a - painted_pixels_b| / viewport when
    the painted object sets differ, and exactly 0.0 when they are equal —
    in particular, frames painting *disjoint* object sets of equal total
    area compare as identical (counts, not sets, are what is measured).
    """
    from repro.capture.frames import Frame

    viewport = 1000
    a = Frame(index=0, timestamp=0.0, painted_objects=frozenset({"x"}),
              painted_pixels=400, completeness=0.4)
    b = Frame(index=1, timestamp=0.1, painted_objects=frozenset({"x", "y"}),
              painted_pixels=650, completeness=0.65)
    assert a.pixel_difference(b, viewport) == pytest.approx(0.25)
    assert b.pixel_difference(a, viewport) == pytest.approx(0.25)

    # Disjoint object sets, equal painted area: measured as identical.
    c = Frame(index=2, timestamp=0.2, painted_objects=frozenset({"z"}),
              painted_pixels=400, completeness=0.4)
    assert a.painted_objects.isdisjoint(c.painted_objects)
    assert a.pixel_difference(c, viewport) == 0.0

    # Identical object sets short-circuit to exactly 0.0.
    d = Frame(index=3, timestamp=0.3, painted_objects=frozenset({"x"}),
              painted_pixels=400, completeness=0.4)
    assert a.pixel_difference(d, viewport) == 0.0

    # Real capture frames: monotone accumulation means adjacent frames never
    # hit the disjoint-equal-area corner.
    frames = video.frames.frames
    for earlier, later in zip(frames, frames[1:]):
        assert earlier.painted_objects <= later.painted_objects


# -- lazy load artefacts -----------------------------------------------------------


_RECORD_FIELDS = ("discovered_at", "queued_at", "started_at", "first_byte_at",
                  "completed_at", "connection_id", "blocked")


def _assert_same_records(left, right):
    assert [r.request.object_id for r in left] == [r.request.object_id for r in right]
    for a, b in zip(left, right):
        for name in _RECORD_FIELDS:
            assert getattr(a, name) == getattr(b, name)


def test_capture_renders_and_builds_har_only_for_the_kept_repeat(page, monkeypatch):
    """Discarded repeats are read for onload only: one render, one HAR."""
    from repro.browser.browser import Browser
    from repro.browser.devtools import DevToolsSession
    from repro.browser.renderer import Renderer

    calls = {"load": 0, "render": 0, "har": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Browser, "load", counting("load", Browser.load))
    monkeypatch.setattr(Renderer, "render", counting("render", Renderer.render))
    monkeypatch.setattr(DevToolsSession, "build_har", counting("har", DevToolsSession.build_har))
    settings = CaptureSettings(loads_per_site=5, network_profile="cable-intl")
    report = Webpeg(settings=settings, seed=7, cache=None).capture(page, configuration="h2")
    assert report.video.load_result.har.entry_count == page.object_count
    assert report.video.load_result.har is report.video.load_result.har  # cached
    assert calls == {"load": 5, "render": 1, "har": 1}


def test_kept_video_artefacts_equal_an_eagerly_built_load(corpus):
    """Lazy frames, HAR and records equal those built eagerly from the same repeat."""
    from repro.browser.browser import Browser
    from repro.browser.devtools import DevToolsSession
    from repro.browser.preferences import BrowserPreferences
    from repro.browser.renderer import Renderer
    from repro.browser.scheduler import blocked_fetch_record

    settings = CaptureSettings(loads_per_site=5, network_profile="cable-intl")
    ad_page = corpus.generate_page("adsite-00099", displays_ads=True)
    for preferences in (BrowserPreferences(protocol="h2"),
                        BrowserPreferences(protocol="auto").with_extension("ghostery")):
        report = Webpeg(preferences=preferences, settings=settings, seed=7,
                        cache=None).capture(ad_page, configuration="lazy")
        kept = report.video.load_result

        # The eager path: build every artefact right after the load, the
        # way every repeat used to.
        fresh = Browser(preferences=preferences, network_profile="cable-intl", seed=7)
        load = fresh.load_with_fresh_state(ad_page, repeat_index=report.selected_repeat)
        records = sorted(load.fetches.values(), key=lambda r: r.completed_at)
        for object_id in load.blocked_object_ids:
            obj = ad_page.objects[object_id]
            parent = load.fetches.get(obj.discovered_by) if obj.discovered_by else None
            records.append(blocked_fetch_record(
                obj,
                parent.completed_at + obj.discovery_delay if parent else obj.discovery_delay,
            ))
        timeline = Renderer().render(load.page, load.fetches)
        har = DevToolsSession(page_url=ad_page.url, protocol=load.protocol).build_har(
            records, load.onload)
        frames = frames_from_timeline(timeline, fps=settings.fps,
                                      duration=load.fully_loaded + settings.record_after_onload)

        assert kept.onload == load.onload
        assert kept.blocked_object_ids == load.blocked_object_ids
        _assert_same_records(kept.fetch_records, records)
        assert kept.render_timeline.events == timeline.events
        assert kept.har.to_dict() == har.to_dict()
        assert report.video.frames == frames
    assert any(r.blocked for r in kept.fetch_records)  # the ghostery load


def test_pooled_capture_batch_equals_serial(pages, capture_settings):
    """Lazy results survive the process pool: pooled reports equal serial ones."""
    serial = Webpeg(settings=capture_settings, seed=7, cache=None).capture_batch(
        pages[:2], configuration="h2")
    pooled = Webpeg(settings=capture_settings, seed=7, cache=None).capture_batch(
        pages[:2], configuration="h2", max_workers=2)
    assert list(pooled) == list(serial)
    for site_id, report in serial.items():
        other = pooled[site_id]
        assert other.onload_times == report.onload_times
        assert other.selected_repeat == report.selected_repeat
        assert other.video.frames == report.video.frames
        left, right = report.video.load_result, other.video.load_result
        _assert_same_records(left.fetch_records, right.fetch_records)
        assert left.har.to_dict() == right.har.to_dict()
        assert left.render_timeline.events == right.render_timeline.events
