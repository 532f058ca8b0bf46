"""Edge cases and legacy-reference equivalence for the unified fetch engine.

The engine (``repro.httpsim.engine``) replaced the per-object
``FetchScheduler`` loop and the separate HTTP/1.1 / HTTP/2 clients under a
bit-identical-outputs contract.  This module keeps that contract honest:

* a straight port of the legacy scheduler + clients (built on the public
  ``netsim`` classes) lives here as the *reference implementation*, and the
  engine must reproduce its records float-for-float on real corpus pages,
  for both protocols and both RNG schemes;
* scheduler edge cases: empty pages, pages whose non-root objects are all
  blocked, priority ties between critical streams, and cross-client
  record-count invariants;
* the page's compiled fetch plan: its issue order, its invalidation by
  ``add_object``, and the transport statistics the observer reads.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.browser.browser import Browser
from repro.browser.preferences import BrowserPreferences
from repro.browser.scheduler import FetchScheduler, ONLOAD_DISPATCH_OVERHEAD
from repro.errors import CaptureError, PageModelError
from repro.httpsim.engine import CRITICAL_PRIORITY, FetchEngine, PushConfiguration, build_transport
from repro.httpsim.http1 import HTTP1Client, MAX_CONNECTIONS_PER_ORIGIN
from repro.httpsim.http2 import HTTP2Client
from repro.httpsim.messages import (
    HTTP1_REQUEST_HEADER_BYTES,
    HTTP2_REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    FetchRecord,
    HTTPRequest,
    HTTPResponse,
)
from repro.netsim.bandwidth import BandwidthModel, SharedLink
from repro.netsim.connection import Connection
from repro.netsim.dns import DNSResolver
from repro.netsim.latency import LatencyModel, origin_latency
from repro.netsim.profiles import get_profile
from repro.obs import Observer
from repro.rng import RNG_SCHEMES, SeededRNG
from repro.web.corpus import CorpusGenerator
from repro.web.objects import ObjectType, WebObject
from repro.web.page import Page


# -- the legacy reference implementation -----------------------------------------
#
# A faithful port of the pre-engine HTTP clients and the deque-based
# scheduler.  Kept deliberately naive: its only job is to pin the engine's
# outputs to the original semantics.


class _ReferenceH1:
    protocol_name = "http/1.1"

    def __init__(self, latency, link, dns, rng):
        self._latency = latency
        self._link = link
        self._dns = dns
        self._rng = rng.fork("http1")
        self._pools = {}
        self._dns_done_at = {}
        self.records = []

    def _resolve(self, origin, now):
        if origin not in self._dns_done_at:
            lookup = self._dns.resolve(origin, now=now)
            self._dns_done_at[origin] = now + lookup.duration
        return max(self._dns_done_at[origin], now)

    def _open(self, origin):
        pool = self._pools.setdefault(origin, [])
        connection = Connection(
            origin=origin,
            latency=origin_latency(self._latency, origin, self._rng),
            link=self._link,
            rng=self._rng,
            use_tls=True,
        )
        return pool, connection

    def fetch(self, obj, ready_at):
        request = HTTPRequest.for_object(obj)
        dns_ready = self._resolve(obj.origin, ready_at)
        queued_at = max(ready_at, dns_ready)
        pool = self._pools.setdefault(obj.origin, [])
        idle = [c for c in pool if c[1] <= queued_at]
        if idle:
            entry = min(idle, key=lambda c: c[1])
        elif len(pool) < MAX_CONNECTIONS_PER_ORIGIN:
            _, connection = self._open(obj.origin)
            established = connection.connect(queued_at)
            entry = [connection, established, f"h1-{obj.origin}-{len(pool)}"]
            pool.append(entry)
        else:
            entry = min(pool, key=lambda c: c[1])
        connection, busy_until, connection_id = entry
        start_at = max(queued_at, busy_until)
        size = obj.size_bytes + RESPONSE_HEADER_BYTES + HTTP1_REQUEST_HEADER_BYTES
        timing = connection.transfer(size, start_at, server_think=obj.server_think_time)
        entry[1] = timing.last_byte_at
        response = HTTPResponse(
            request=request, status=200, body_bytes=obj.size_bytes,
            header_bytes=RESPONSE_HEADER_BYTES, protocol=self.protocol_name,
        )
        record = FetchRecord(
            request=request, response=response, discovered_at=ready_at,
            queued_at=queued_at, started_at=timing.request_sent_at,
            first_byte_at=timing.first_byte_at, completed_at=timing.last_byte_at,
            connection_id=connection_id,
        )
        self.records.append(record)
        return record


class _ReferenceH2:
    protocol_name = "h2"

    def __init__(self, latency, link, dns, rng):
        self._latency = latency
        self._link = link
        self._dns = dns
        self._rng = rng.fork("http2")
        self._origins = {}
        self._dns_done_at = {}
        self.records = []

    def fetch(self, obj, ready_at):
        request = HTTPRequest.for_object(obj)
        origin = obj.origin
        if origin not in self._dns_done_at:
            lookup = self._dns.resolve(origin, now=ready_at)
            self._dns_done_at[origin] = ready_at + lookup.duration
        queued_at = max(ready_at, self._dns_done_at[origin])
        state = self._origins.get(origin)
        if state is None:
            connection = Connection(
                origin=origin,
                latency=origin_latency(self._latency, origin, self._rng),
                link=self._link,
                rng=self._rng,
                use_tls=True,
            )
            connection.connect(queued_at)
            state = self._origins[origin] = (connection, f"h2-{origin}")
        connection, connection_id = state
        start_at = max(queued_at, connection.established_at or queued_at)
        size = obj.size_bytes + RESPONSE_HEADER_BYTES + HTTP2_REQUEST_HEADER_BYTES
        timing = connection.transfer(
            size, start_at, server_think=obj.server_think_time,
            preempt=obj.priority >= CRITICAL_PRIORITY,
        )
        response = HTTPResponse(
            request=request, status=200, body_bytes=obj.size_bytes,
            header_bytes=RESPONSE_HEADER_BYTES, protocol=self.protocol_name,
        )
        record = FetchRecord(
            request=request, response=response, discovered_at=ready_at,
            queued_at=queued_at, started_at=start_at,
            first_byte_at=timing.first_byte_at, completed_at=timing.last_byte_at,
            connection_id=connection_id,
        )
        self.records.append(record)
        return record


def _reference_schedule(page: Page, client, extension_overhead: float = 0.0):
    """The original deque-based BFS scheduling loop, verbatim semantics."""
    page.validate()
    root = page.root
    fetches = {}
    fetches[root.object_id] = client.fetch(root, ready_at=extension_overhead)
    queue = deque(page.children_of(root.object_id))
    while queue:
        obj = queue.popleft()
        parent_record = fetches[obj.discovered_by]
        if obj.discovered_by == root.object_id and not obj.loaded_by_script:
            discovered_at = parent_record.first_byte_at + obj.discovery_delay
        else:
            discovered_at = parent_record.completed_at + obj.discovery_delay
        fetches[obj.object_id] = client.fetch(obj, discovered_at + extension_overhead)
        queue.extend(page.children_of(obj.object_id))
    return fetches


def _load_substrate(page: Page, scheme: str, seed: int = 2016, repeat: int = 0,
                    profile: str = "cable-intl"):
    """Latency/link/dns/rng exactly as ``Browser.load_with_fresh_state`` builds them."""
    profile = get_profile(profile)
    rng = SeededRNG(seed, scheme).fork(f"load:{page.url}:repeat:{repeat}")
    latency = profile.latency.scaled(page.latency_multiplier)
    link = SharedLink(bandwidth=profile.bandwidth)
    dns = DNSResolver(latency=latency, rng=rng)
    return latency, link, dns, rng


_RECORD_FIELDS = ("discovered_at", "queued_at", "started_at", "first_byte_at",
                  "completed_at", "connection_id")


@pytest.mark.parametrize("scheme", RNG_SCHEMES)
@pytest.mark.parametrize("protocol", ["h2", "http/1.1"])
def test_engine_reproduces_legacy_reference_bit_for_bit(scheme, protocol):
    """Engine records equal the legacy implementation's, float for float.

    Every capture repeat (0-4) on two network profiles: a jittery
    long-haul link and a mobile one.
    """
    pages = CorpusGenerator(seed=99).http2_sample(3)
    reference_cls = _ReferenceH2 if protocol == "h2" else _ReferenceH1
    for profile in ("cable-intl", "3g"):
        for repeat in range(5):
            for page in pages:
                substrate = _load_substrate(page, scheme, repeat=repeat, profile=profile)
                reference = reference_cls(*substrate)
                reference_fetches = _reference_schedule(page, reference, extension_overhead=0.01)

                transport = build_transport(
                    protocol, *_load_substrate(page, scheme, repeat=repeat, profile=profile))
                result = FetchEngine(transport.fetch, extension_overhead=0.01).run(page)

                where = f"{page.site_id} repeat {repeat} on {profile} under {protocol}/{scheme}"
                assert list(result.fetches) == list(reference_fetches), where
                for object_id, record in result.fetches.items():
                    expected = reference_fetches[object_id]
                    for field in _RECORD_FIELDS:
                        assert getattr(record, field) == getattr(expected, field), (
                            f"{object_id}.{field}: {where}"
                        )


# -- edge cases ------------------------------------------------------------------


def _page_with(objects, url="https://edge.example/"):
    page = Page(url=url, site_id="edge-site")
    for obj in objects:
        page.add_object(obj)
    return page


def _root(object_id="root"):
    return WebObject(
        object_id=object_id, object_type=ObjectType.HTML,
        url="https://edge.example/", origin="edge.example", size_bytes=30_000,
    )


def _child(object_id, parent="root", priority=16, script=False, origin="edge.example"):
    return WebObject(
        object_id=object_id, object_type=ObjectType.IMAGE,
        url=f"https://{origin}/{object_id}", origin=origin, size_bytes=12_000,
        discovered_by=parent, discovery_delay=0.01, priority=priority,
        loaded_by_script=script,
    )


def _engine_for(page, protocol="h2", scheme="sha256-v1"):
    latency, link, dns, rng = _load_substrate(page, scheme)
    transport = build_transport(protocol, latency, link, dns, rng)
    return FetchEngine(transport.fetch), transport


def test_empty_page_rejected_by_engine_and_browser():
    page = Page(url="https://empty.example/", site_id="empty")
    engine, _ = _engine_for(_page_with([_root()]))
    with pytest.raises(PageModelError):
        engine.run(page)  # no root document
    with pytest.raises(CaptureError):
        Browser().load(page)  # browser guards before scheduling


def test_root_only_page_onload_is_root_completion_plus_dispatch():
    """A page whose every non-root object was blocked still fires onload."""
    page = _page_with([_root()])
    engine, _ = _engine_for(page)
    result = engine.run(page)
    assert list(result.fetches) == ["root"]
    root_record = result.fetches["root"]
    assert result.onload == root_record.completed_at + ONLOAD_DISPATCH_OVERHEAD
    assert result.fully_loaded == result.onload


def test_all_blocked_page_matches_unblocked_root_record():
    """Blocking all children (ad-blocker style) must not disturb the root fetch."""
    full = _page_with([_root(), _child("ad-1"), _child("ad-2")])
    blocked = full.without_objects(["ad-1", "ad-2"])
    full_result = _engine_for(full)[0].run(full)
    blocked_result = _engine_for(blocked)[0].run(blocked)
    assert list(blocked_result.fetches) == ["root"]
    # The root stream is independent of the children's existence.
    assert (blocked_result.fetches["root"].completed_at
            == full_result.fetches["root"].completed_at)


def test_script_only_children_leave_onload_at_root():
    """Script-injected resources may finish after onload (paper §1)."""
    page = _page_with([_root(), _child("lazy", script=True)])
    result = _engine_for(page)[0].run(page)
    assert result.onload == result.fetches["root"].completed_at + ONLOAD_DISPATCH_OVERHEAD
    assert result.fully_loaded >= result.fetches["lazy"].completed_at


def test_priority_ties_are_deterministic_and_in_document_order():
    """Equal-priority critical streams issue in document order, repeatably."""
    page = _page_with([
        _root(),
        _child("css-a", priority=CRITICAL_PRIORITY),
        _child("css-b", priority=CRITICAL_PRIORITY),
        _child("img", priority=8),
    ])
    first = _engine_for(page)[0].run(page)
    second = _engine_for(page)[0].run(page)
    assert list(first.fetches) == ["root", "css-a", "css-b", "img"]
    for object_id in first.fetches:
        for field in _RECORD_FIELDS:
            assert (getattr(first.fetches[object_id], field)
                    == getattr(second.fetches[object_id], field))
    # Critical ties preempt independently: neither queues behind the other
    # on the shared link, so both complete before the bulk image.
    assert first.fetches["css-a"].completed_at < first.fetches["img"].completed_at
    assert first.fetches["css-b"].completed_at < first.fetches["img"].completed_at


@pytest.mark.parametrize("scheme", RNG_SCHEMES)
def test_cross_client_record_count_invariants(scheme):
    """h1 and h2 fetch the same object set with protocol-shaped connections."""
    pages = CorpusGenerator(seed=7).http2_sample(2)
    for page in pages:
        results = {}
        transports = {}
        for protocol in ("h2", "http/1.1"):
            engine, transport = _engine_for(page, protocol=protocol, scheme=scheme)
            results[protocol] = engine.run(page)
            transports[protocol] = transport
        h1, h2 = results["http/1.1"], results["h2"]
        assert list(h1.fetches) == list(h2.fetches)  # same objects, same order
        assert len(transports["http/1.1"].records) == len(transports["h2"].records)
        assert not h1.blocked_object_ids and not h2.blocked_object_ids
        origins = set(page.origins())
        # HTTP/2: exactly one connection per contacted origin; HTTP/1.1: a
        # pool of at most six per origin.
        assert transports["h2"].connection_count == len(origins)
        for origin in origins:
            assert transports["http/1.1"].connections_for(origin) <= MAX_CONNECTIONS_PER_ORIGIN
            assert transports["h2"].connections_for(origin) == 1
        assert sum(transports["h2"].streams_for(o) for o in origins) == len(h2.fetches)


def test_scheduler_facade_matches_engine():
    """FetchScheduler(client) and FetchEngine(transport) are the same path."""
    page = CorpusGenerator(seed=13).http2_sample(1)[0]
    latency, link, dns, rng = _load_substrate(page, "sha256-v1")
    client = HTTP2Client(latency=latency, link=link, dns=dns, rng=rng)
    via_scheduler = FetchScheduler(client, SeededRNG(1)).schedule(page)
    latency, link, dns, rng = _load_substrate(page, "sha256-v1")
    transport = build_transport("h2", latency, link, dns, rng)
    via_engine = FetchEngine(transport.fetch).run(page)
    assert via_scheduler.onload == via_engine.onload
    assert via_scheduler.fully_loaded == via_engine.fully_loaded
    for object_id, record in via_engine.fetches.items():
        for field in _RECORD_FIELDS:
            assert getattr(record, field) == getattr(via_scheduler.fetches[object_id], field)


def test_scheduler_respects_fetch_override_in_subclasses():
    """A client subclass overriding fetch() stays in the scheduling loop."""
    calls = []

    class CountingClient(HTTP2Client):
        def fetch(self, obj, ready_at):
            calls.append(obj.object_id)
            return super().fetch(obj, ready_at)

    page = _page_with([_root(), _child("img")])
    latency, link, dns, rng = _load_substrate(page, "sha256-v1")
    client = CountingClient(latency=latency, link=link, dns=dns, rng=rng)
    result = FetchScheduler(client, SeededRNG(1)).schedule(page)
    assert calls == ["root", "img"]
    assert list(result.fetches) == calls

    # Instance-level wrappers (the monkeypatch idiom) stay in the loop too.
    instance_calls = []
    latency, link, dns, rng = _load_substrate(page, "sha256-v1")
    patched = HTTP2Client(latency=latency, link=link, dns=dns, rng=rng)
    stock = patched.fetch
    patched.fetch = lambda obj, ready_at: (instance_calls.append(obj.object_id), stock(obj, ready_at))[1]
    FetchScheduler(patched, SeededRNG(1)).schedule(page)
    assert instance_calls == ["root", "img"]


def test_engine_issue_order_is_reference_level_order():
    """Requests issue in the legacy scheduler's FIFO level order.

    The pages carry nested discovery — fonts discovered by a stylesheet,
    script-injected ads and lazy images discovered by a script — so the
    order is more than document order.
    """
    corpus = CorpusGenerator(seed=21)
    pages = corpus.http2_sample(3) + [corpus.generate_page("adsite-00021", displays_ads=True)]
    nested = [
        (page.objects[obj.discovered_by].object_type, obj.object_type, obj.loaded_by_script)
        for page in pages for obj in page.iter_objects()
        if obj.discovered_by not in (None, page.root.object_id)
    ]
    assert (ObjectType.CSS, ObjectType.FONT, False) in nested
    assert any(parent is ObjectType.JS and script for parent, _, script in nested)
    assert any(kind is ObjectType.AD and script for _, kind, script in nested)

    for page in pages:
        for protocol in ("h2", "http/1.1"):
            reference = _ReferenceH2 if protocol == "h2" else _ReferenceH1
            order = list(_reference_schedule(page, reference(*_load_substrate(page, "sha256-v1"))))
            engine, transport = _engine_for(page, protocol=protocol)
            result = engine.run(page)
            assert list(result.fetches) == order
            assert [r.request.object_id for r in transport.records] == order
            assert list(page.fetch_plan().object_ids) == order
            assert 0.0 <= result.onload <= result.fully_loaded


def test_add_object_after_a_load_invalidates_the_fetch_plan():
    """A cached plan never outlives a mutation of its page."""
    page = _page_with([_root(), _child("css", priority=CRITICAL_PRIORITY)])
    first = _engine_for(page)[0].run(page)
    plan = page.fetch_plan()
    assert page.fetch_plan() is plan  # reused by every later load
    assert plan.object_ids == ("root", "css")

    page.add_object(_child("font", parent="css"))
    replanned = page.fetch_plan()
    assert replanned is not plan
    assert replanned.object_ids == ("root", "css", "font")
    assert replanned.parents == (-1, 0, 1)
    assert replanned.preload == (False, True, False)
    second = _engine_for(page)[0].run(page)
    assert list(second.fetches) == ["root", "css", "font"]
    assert second.fetches["css"].completed_at == first.fetches["css"].completed_at
    # The font is discovered when its stylesheet has fully arrived.
    assert second.fetches["font"].discovered_at == (
        second.fetches["css"].completed_at + page.objects["font"].discovery_delay
    )


def test_transport_push_count_and_queue_time_are_unchanged():
    """The statistics the observer reads keep their pre-plan values.

    The pinned numbers were produced by the discovery-wave engine this
    plan-driven one replaced, on the same page, seed and substrate.
    """
    page = CorpusGenerator(seed=13).http2_sample(1)[0]
    root = page.root
    pushed = tuple(
        obj.object_id for obj in page.iter_objects()
        if obj.origin == root.origin and obj.object_type in (ObjectType.CSS, ObjectType.JS)
    )
    push = PushConfiguration(enabled=True, pushed_object_ids=pushed)
    pinned = {
        "h2": (19, 6.879977179005058, 12.207957480283616),
        "http/1.1": (0, 1158.4341774834888, 12.955711889478511),
    }
    for protocol, (pushes, queue_time, onload) in pinned.items():
        transport = build_transport(
            protocol, *_load_substrate(page, "sha256-v1"),
            push=push if protocol == "h2" else None,
        )
        result = FetchEngine(transport.fetch, extension_overhead=0.01).run(page)
        assert transport.push_count == pushes
        assert transport.total_queue_time == queue_time
        assert result.onload == onload

        observer = Observer()
        browser = Browser(BrowserPreferences(protocol=protocol), network_profile="cable-intl",
                          seed=5, obs=observer)
        browser.load(page, push=push if protocol == "h2" else None)
        assert observer.metrics.counter_value("httpsim.pushes") == pushes
