"""Tests for browser preferences and the fetch engine's scheduling."""

from __future__ import annotations

import pytest

from repro.browser.browser import blocked_fetch_record
from repro.browser.preferences import BrowserPreferences
from repro.errors import ConfigurationError
from repro.httpsim.engine import ONLOAD_DISPATCH_OVERHEAD, FetchEngine, FetchTransport, build_transport
from repro.netsim.bandwidth import BandwidthModel, SharedLink
from repro.netsim.dns import DNSResolver
from repro.netsim.latency import LatencyModel
from repro.rng import SeededRNG


# -- preferences -------------------------------------------------------------------


def test_default_preferences():
    prefs = BrowserPreferences()
    assert prefs.protocol == "auto"
    assert prefs.kiosk_mode
    assert prefs.disable_local_cache


def test_invalid_protocol_rejected():
    with pytest.raises(ConfigurationError):
        BrowserPreferences(protocol="gopher")


def test_resolve_protocol_auto():
    prefs = BrowserPreferences(protocol="auto")
    assert prefs.resolve_protocol(True) == "h2"
    assert prefs.resolve_protocol(False) == "http/1.1"


def test_resolve_protocol_forced():
    assert BrowserPreferences(protocol="http/1.1").resolve_protocol(True) == "http/1.1"
    assert BrowserPreferences(protocol="h2").resolve_protocol(False) == "h2"


def test_with_protocol_and_extension():
    prefs = BrowserPreferences()
    h1 = prefs.with_protocol("http/1.1")
    assert h1.protocol == "http/1.1"
    with_ghostery = prefs.with_extension("ghostery")
    assert [e.name for e in with_ghostery.extensions] == ["ghostery"]
    without = with_ghostery.with_extension(None)
    assert without.extensions == []


def test_command_line_flags():
    prefs = BrowserPreferences(protocol="http/1.1").with_extension("ublock")
    flags = prefs.command_line_flags()
    assert "--disable-http2" in flags
    assert any("ublock" in flag for flag in flags)
    assert "--kiosk" in flags


def test_invalid_scale_factor():
    with pytest.raises(ConfigurationError):
        BrowserPreferences(device_scale_factor=0)


# -- scheduling --------------------------------------------------------------------


def make_transport(seed: int = 4) -> FetchTransport:
    latency = LatencyModel(base_rtt=0.05, jitter=0.0)
    link = SharedLink(bandwidth=BandwidthModel(downlink_bps=16_000_000, uplink_bps=4_000_000))
    rng = SeededRNG(seed)
    return build_transport("h2", latency, link, DNSResolver(latency, rng), rng)


def test_scheduler_fetches_every_object(simple_page):
    result = FetchEngine(make_transport()).run(simple_page)
    assert set(result.fetches) == set(simple_page.objects)


def test_scheduler_children_after_parents(simple_page):
    result = FetchEngine(make_transport()).run(simple_page)
    for obj in simple_page.iter_objects():
        if obj.discovered_by is None:
            continue
        parent_record = result.fetches[obj.discovered_by]
        child_record = result.fetches[obj.object_id]
        assert child_record.discovered_at >= parent_record.first_byte_at - 1e-9


def test_onload_covers_static_objects(simple_page):
    result = FetchEngine(make_transport()).run(simple_page)
    static_max = max(
        record.completed_at
        for object_id, record in result.fetches.items()
        if not simple_page.objects[object_id].loaded_by_script
    )
    assert result.onload == pytest.approx(static_max + ONLOAD_DISPATCH_OVERHEAD)
    assert result.fully_loaded >= result.onload - 1e-9


def test_script_loaded_objects_may_finish_after_onload(page):
    result = FetchEngine(make_transport()).run(page)
    script_loaded = [
        record.completed_at
        for object_id, record in result.fetches.items()
        if page.objects[object_id].loaded_by_script
    ]
    assert script_loaded
    assert max(script_loaded) == pytest.approx(result.fully_loaded)


def test_extension_overhead_delays_fetches(simple_page):
    fast = FetchEngine(make_transport(seed=9)).run(simple_page)
    slow = FetchEngine(make_transport(seed=9), extension_overhead=0.05).run(simple_page)
    assert slow.onload > fast.onload


def test_blocked_fetch_record_shape(page):
    obj = next(iter(page.objects.values()))
    record = blocked_fetch_record(obj, discovered_at=1.5)
    assert record.blocked
    assert record.response is None
    assert record.completed_at == pytest.approx(1.5)
