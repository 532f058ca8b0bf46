"""Transport behaviour of HTTP/1.1 pools and HTTP/2 multiplexing.

Every test loads a small flat page (a root document plus children on one or
two origins) through ``build_transport`` + ``FetchEngine``, the same path
``Browser.load`` takes.
"""

from __future__ import annotations

from repro.httpsim.engine import (
    MAX_CONNECTIONS_PER_ORIGIN,
    FetchEngine,
    PushConfiguration,
    build_transport,
)
from repro.netsim.bandwidth import BandwidthModel, SharedLink
from repro.netsim.dns import DNSResolver
from repro.netsim.latency import LatencyModel
from repro.rng import SeededRNG
from repro.web.objects import ObjectType, WebObject
from repro.web.page import Page

ORIGIN = "www.example.com"


def make_object(index: int, origin: str = ORIGIN, size: int = 20_000,
                priority: int = 8) -> WebObject:
    return WebObject(
        object_id=f"obj-{origin}-{index}",
        object_type=ObjectType.IMAGE,
        url=f"https://{origin}/img/{index}.jpg",
        origin=origin,
        size_bytes=size,
        discovered_by="root",
        priority=priority,
    )


def make_page(children, origin: str = ORIGIN) -> Page:
    """A root document on ``origin`` referencing every child from its markup."""
    page = Page(url=f"https://{origin}/", site_id="clients")
    page.add_object(WebObject(
        object_id="root", object_type=ObjectType.HTML, url=f"https://{origin}/",
        origin=origin, size_bytes=20_000,
    ))
    for child in children:
        page.add_object(child)
    return page


def load(protocol: str, page: Page, seed: int = 3, **kwargs):
    """Load ``page`` over ``protocol``; returns ``(transport, result)``."""
    latency = LatencyModel(base_rtt=0.05, jitter=0.0)
    rng = SeededRNG(seed)
    link = SharedLink(bandwidth=BandwidthModel(downlink_bps=16_000_000, uplink_bps=4_000_000))
    dns = DNSResolver(latency, rng.fork(protocol))
    transport = build_transport(protocol, latency, link, dns, rng.fork(protocol + "c"), **kwargs)
    return transport, FetchEngine(transport).run(page)


def test_http1_opens_at_most_six_connections_per_origin():
    transport, _ = load("http/1.1", make_page([make_object(i) for i in range(20)]))
    assert 1 < transport.connections_for(ORIGIN) <= MAX_CONNECTIONS_PER_ORIGIN
    assert transport.connection_count <= MAX_CONNECTIONS_PER_ORIGIN


def test_http1_queues_when_connections_busy():
    transport, _ = load("http/1.1", make_page([make_object(i) for i in range(20)]))
    assert transport.total_queue_time > 0.0


def test_http1_records_accumulate():
    transport, result = load("http/1.1", make_page([make_object(i) for i in range(4)]))
    assert len(transport.records) == 5
    assert list(result.fetches.values()) == transport.records
    for record in transport.records:
        assert record.response is not None
        assert record.response.protocol == "http/1.1"
        assert record.completed_at >= record.first_byte_at >= record.started_at


def test_http2_single_connection_per_origin():
    transport, _ = load("h2", make_page([make_object(i) for i in range(19)]))
    assert transport.connection_count == 1
    assert transport.streams_for(ORIGIN) == 20


def test_http2_multiple_origins_multiple_connections():
    transport, _ = load("h2", make_page([make_object(1, origin="b.example")], origin="a.example"))
    assert transport.connection_count == 2


def test_http2_never_queues_behind_busy_connection():
    page = make_page([make_object(0, size=500_000), make_object(1)])
    _, result = load("h2", page)
    first = result.fetches[f"obj-{ORIGIN}-0"]
    second = result.fetches[f"obj-{ORIGIN}-1"]
    # The second request is issued immediately; it does not wait for the
    # first stream's last byte before being sent.
    assert second.started_at < first.completed_at


def test_http2_faster_than_http1_for_many_small_objects():
    page = make_page([make_object(i, size=15_000) for i in range(40)])
    _, h1 = load("http/1.1", page)
    _, h2 = load("h2", page)
    assert h2.fully_loaded < h1.fully_loaded


def test_http2_push_skips_request_round_trip():
    pushed_obj = make_object(0, priority=32)
    page = make_page([pushed_obj])
    _, plain = load("h2", page)
    pushing, pushed = load(
        "h2", page, push=PushConfiguration(enabled=True, pushed_object_ids=(pushed_obj.object_id,)))
    assert pushing.push_count == 1
    assert (pushed.fetches[pushed_obj.object_id].completed_at
            <= plain.fetches[pushed_obj.object_id].completed_at)


def test_http2_protocol_label():
    _, result = load("h2", make_page([make_object(0)]))
    assert {record.response.protocol for record in result.fetches.values()} == {"h2"}
