"""The unified plan-driven fetch/transport core.

This module is the single simulation engine behind every page load.  It
replaces two older call-at-a-time layers that each kept their own
bookkeeping:

* the per-object ``FetchScheduler.schedule`` deque loop (with its
  retry-requeue guard) in :mod:`repro.browser.scheduler`, and
* the duplicated per-origin connection pools in
  :mod:`repro.httpsim.http1` / :mod:`repro.httpsim.http2`.

Both of those modules still exist as thin public facades, but all of the
semantics — per-origin connections, HTTP/1.1 pooling, HTTP/2 stream
multiplexing, priorities, server push, and bandwidth sharing on the access
link — now live here, in two classes:

:class:`FetchTransport`
    Per-page-load transport state for one protocol.  One instance owns the
    per-origin connection table (a pool of up to
    ``max_connections_per_origin`` connections under HTTP/1.1 semantics, a
    single multiplexed connection under HTTP/2 semantics), the DNS
    completion times, and the fetch records.  Its transport loop is the hot
    path of every capture: :meth:`FetchTransport.run_plan` walks a page's
    :class:`~repro.web.page.FetchPlan` in one pass, and for each object
    computes its discovery time, resolves, connects, and models slow start
    and the shared-link FIFO inline (the same fluid closed-form model as
    :class:`repro.netsim.connection.Connection`, kept bit-identical).
    :meth:`FetchTransport.fetch` is a one-entry call into the same loop.

:class:`FetchEngine`
    Drives a :class:`~repro.web.page.Page` through a transport.  The page
    compiles its dependency graph once into a
    :class:`~repro.web.page.FetchPlan` — the breadth-first issue order,
    each object's parent index, its preload-scanner flag and its
    static/script flag — and every load (every capture repeat, every
    protocol) reuses it.  A load is one flat pass over the plan: requests
    issue in the plan's order, which is exactly the FIFO level order of the
    old deque-based scheduler — the property that keeps every RNG draw and
    every shared-link commitment in the same order, and therefore every
    output bit-identical to the pre-engine implementation
    (``python -m repro.goldens verify`` is the contract).

Simulation model and units
--------------------------

* All times are **absolute seconds from navigation start** (floats).
* Sizes are **bytes**; link capacities come from
  :class:`~repro.netsim.bandwidth.BandwidthModel` in bits per second.
* Transfers are *fluid*: a response pays its request RTT, server think
  time, and slow-start rounds in closed form, then commits its bytes to the
  shared :class:`~repro.netsim.bandwidth.SharedLink` FIFO.  Nothing is
  simulated per packet; each request is one closed-form step of the pass.
* Per-origin semantics: the first request to an origin pays a DNS
  resolution and a TCP (+TLS) handshake.  HTTP/1.1 opens up to six
  connections per origin, one outstanding request each; HTTP/2 opens
  exactly one connection per origin and multiplexes every stream on it.

Determinism notes
-----------------

The draw order of every random stream is part of the bit-identical-outputs
contract:

* ``dns.resolve`` is called once per origin, at the first fetch that needs
  the origin, in issue order;
* each connection's RNG is forked from the transport stream with the label
  ``"conn:{origin}"`` (HTTP/1.1 pools therefore carry identically-seeded
  streams per connection, a quirk preserved from the original clients);
* the per-origin latency multiplier (:func:`~repro.netsim.latency.origin_latency`)
  is drawn from a label-derived fork and is cached per origin — the fork is
  a pure function of ``(transport seed, origin)``, so caching cannot change
  any stream;
* ``SharedLink`` bytes are committed in issue order, which the fetch plan
  keeps equal to the old BFS order.

:class:`~repro.httpsim.messages.HTTPRequest`/``HTTPResponse`` objects are
*interned* on the :class:`~repro.web.objects.WebObject` they describe: they
are pure functions of the object (and protocol), so repeated loads of the
same page share one immutable instance instead of rebuilding thousands of
identical dataclasses per capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import PageModelError, ProtocolError
from ..netsim.bandwidth import SharedLink
from ..netsim.connection import INITIAL_CWND_SEGMENTS, MAX_CWND_SEGMENTS, MSS_BYTES
from ..netsim.dns import DNSResolver
from ..netsim.latency import LatencyModel, origin_latency
from ..rng import SeededRNG
from ..web.objects import WebObject
from ..web.page import FetchPlan, Page
from .messages import (
    HTTP1_REQUEST_HEADER_BYTES,
    HTTP2_REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    FetchRecord,
    HTTPRequest,
    HTTPResponse,
)

#: Time between the last statically-discovered byte and the onload event
#: firing (event-loop dispatch, layout flush).  Seconds.
ONLOAD_DISPATCH_OVERHEAD = 0.015

#: Streams at or above this priority are treated as render-critical and,
#: when prioritisation is enabled, preempt queued bulk data on the link.
CRITICAL_PRIORITY = 24


@dataclass(frozen=True)
class PushConfiguration:
    """Server-push settings for an origin (HTTP/2 only).

    Attributes:
        enabled: whether the origin pushes resources.
        pushed_object_ids: ids of objects pushed alongside the root document.
    """

    enabled: bool = False
    pushed_object_ids: tuple[str, ...] = ()


@dataclass
class ScheduleResult:
    """Outcome of scheduling a full page load.

    Attributes:
        fetches: completed fetch records keyed by object id, in issue order.
        blocked_object_ids: objects vetoed by an extension (never fetched).
        onload: onload event time in seconds from navigation start.
        fully_loaded: completion time of the very last resource, including
            script-injected ones.
    """

    fetches: Dict[str, FetchRecord]
    blocked_object_ids: List[str]
    onload: float
    fully_loaded: float


class _Connection:
    """Inline state of one TCP/TLS connection (slow start + shared link).

    Mirrors :class:`repro.netsim.connection.Connection` field for field but
    keeps everything as plain slots so the transport's fetch path touches no
    method calls.  ``base_rtt``/``jitter``/``minimum_rtt`` come from the
    origin-scaled latency model; ``rtt_no_jitter`` pre-applies the minimum
    clamp for the jitter-free case.
    """

    __slots__ = (
        "connection_id", "rng", "gauss", "base_rtt", "jitter", "minimum_rtt",
        "rtt_no_jitter", "bdp_bytes", "established_at", "busy_until",
        "cwnd_segments", "requests_served", "bytes_sent", "transfers",
    )


class _Origin:
    """Per-origin bookkeeping: connection pool and stream counter."""

    __slots__ = ("pool", "streams_opened")

    def __init__(self) -> None:
        self.pool: List[_Connection] = []
        self.streams_opened = 0


class FetchTransport:
    """Per-page-load fetch engine for one protocol.

    Args:
        latency: the page-scaled access-link latency model (per-origin
            latencies are derived from it).
        link: the load's shared bottleneck link.
        dns: resolver used once per origin.
        rng: random source; the transport forks it with ``rng_label``.
        protocol_name: wire protocol recorded on responses ("http/1.1" or
            "h2").
        rng_label: fork label of the transport stream ("http1"/"http2",
            preserved from the original clients for bit-compatibility).
        request_header_bytes: per-request header overhead on the wire.
        max_connections_per_origin: HTTP/1.1 pool size; 1 means a single
            multiplexed connection (HTTP/2 semantics).
        multiplex: whether streams share a connection (HTTP/2) instead of
            queueing behind the in-flight request (HTTP/1.1).
        use_tls: whether connections pay the TLS handshake (HTTP/2 always
            does).
        enable_priority: when False, critical streams stop preempting the
            link queue (HTTP/2 ablation knob).
        push: optional server-push configuration (HTTP/2 only).
    """

    def __init__(
        self,
        latency: LatencyModel,
        link: SharedLink,
        dns: DNSResolver,
        rng: SeededRNG,
        *,
        protocol_name: str,
        rng_label: str,
        request_header_bytes: int,
        max_connections_per_origin: int,
        multiplex: bool,
        use_tls: bool = True,
        enable_priority: bool = True,
        push: Optional[PushConfiguration] = None,
    ) -> None:
        self._latency = latency
        self._link = link
        self._dns = dns
        self._rng = rng.fork(rng_label)
        self.protocol_name = protocol_name
        self._request_header_bytes = request_header_bytes
        self._max_connections = max_connections_per_origin
        self._multiplex = multiplex
        self._use_tls = use_tls
        self._enable_priority = enable_priority
        push = push or _NO_PUSH
        self._push_enabled = push.enabled
        self._push_ids = push.pushed_object_ids
        self._link_rate = link.bandwidth.downlink_bytes_per_second
        self._origins: Dict[str, _Origin] = {}
        self._origin_latency: Dict[str, LatencyModel] = {}
        self._dns_done_at: Dict[str, float] = {}
        #: Interned request/response attribute names (protocol-specific for
        #: responses, shared for requests — a request does not depend on the
        #: protocol).
        self._response_attr = "_webpeg_response_h2" if multiplex else "_webpeg_response_h1"
        self.records: List[FetchRecord] = []

    # -- internals --------------------------------------------------------------

    def _open_connection(self, origin: str, at: float, pool: List[_Connection]) -> _Connection:
        """Open (and handshake) a new connection to ``origin`` at ``at``."""
        scaled = self._origin_latency.get(origin)
        if scaled is None:
            # origin_latency draws only from a label-derived fork, so the
            # result is a pure function of (transport stream, origin) and
            # caching it per origin is draw-for-draw equivalent.
            scaled = origin_latency(self._latency, origin, self._rng)
            self._origin_latency[origin] = scaled
        conn = _Connection.__new__(_Connection)
        rng = self._rng.fork(f"conn:{origin}")
        conn.rng = rng
        conn.gauss = rng.gauss  # bound once; drawn per transfer on the hot path
        base = scaled.base_rtt
        jitter = scaled.jitter
        minimum = scaled.minimum_rtt
        conn.base_rtt = base
        conn.jitter = jitter
        conn.minimum_rtt = minimum
        conn.rtt_no_jitter = base if base > minimum else minimum
        conn.bdp_bytes = self._link_rate * base
        if jitter == 0.0:
            handshake = conn.rtt_no_jitter
            if self._use_tls:
                handshake += 2.0 * conn.rtt_no_jitter
        else:
            handshake = rng.gauss(base, jitter)
            if handshake < minimum:
                handshake = minimum
            if self._use_tls:
                second = rng.gauss(base, jitter)
                if second < minimum:
                    second = minimum
                handshake += 2.0 * second
        conn.established_at = at + handshake
        conn.busy_until = conn.established_at
        conn.cwnd_segments = INITIAL_CWND_SEGMENTS
        conn.requests_served = 0
        conn.bytes_sent = 0
        conn.transfers = 0
        conn.connection_id = (
            f"h2-{origin}" if self._multiplex else f"h1-{origin}-{len(pool)}"
        )
        pool.append(conn)
        return conn

    # -- public API -------------------------------------------------------------

    def fetch(self, obj: WebObject, ready_at: float) -> FetchRecord:
        """Fetch ``obj``, which becomes fetchable at ``ready_at`` seconds.

        A one-entry call into :meth:`run_plan`'s loop; records accumulate on
        :attr:`records`.

        Raises:
            ProtocolError: if ``ready_at`` is negative.
        """
        if ready_at < 0:
            raise ProtocolError("ready_at must be non-negative")
        return self._issue((obj,), _ONE_ENTRY_PARENTS, _ONE_ENTRY_PRELOAD, ready_at, 0.0)[0]

    def run_plan(self, plan: FetchPlan, extension_overhead: float = 0.0) -> List[FetchRecord]:
        """Fetch every object of ``plan`` in issue order; records in that order.

        Each object becomes fetchable at its discovery time (its parent's
        first byte for preload-scanned children of the root, its parent's
        last byte otherwise, plus the object's ``discovery_delay``) plus
        ``extension_overhead``; the root at ``extension_overhead``.
        """
        return self._issue(plan.objects, plan.parents, plan.preload, 0.0, extension_overhead)

    def _issue(self, objects: Sequence[WebObject], parents: Sequence[int],
               preload: Sequence[bool], start: float, overhead: float) -> List[FetchRecord]:
        """The transport loop: fetch ``objects`` in order, one pass.

        This is the whole per-object pipeline: discovery time, DNS,
        connection selection (pool pick or stream multiplex), request RTT,
        server think time, slow start, shared-link FIFO, and (for HTTP/2)
        priority preemption and server push.  An object whose parent index
        is negative becomes fetchable at ``start + overhead``.
        """
        issued: List[FetchRecord] = []
        append = issued.append
        link = self._link
        link_rate = self._link_rate
        multiplex = self._multiplex
        max_connections = self._max_connections
        enable_priority = self._enable_priority
        push_enabled = self._push_enabled
        push_ids = self._push_ids
        request_header_bytes = self._request_header_bytes
        response_attr = self._response_attr
        dns_done_at = self._dns_done_at
        origins = self._origins
        open_connection = self._open_connection

        for obj, parent, early in zip(objects, parents, preload):
            if parent < 0:
                ready_at = start + overhead
            else:
                source = issued[parent]
                ready_at = (
                    (source.first_byte_at if early else source.completed_at)
                    + obj.discovery_delay + overhead
                )
            interned = obj.__dict__
            request = interned.get("_webpeg_request")
            if request is None:
                request = HTTPRequest.for_object(obj)
                interned["_webpeg_request"] = request
            origin = obj.origin

            # DNS: resolved once per origin, at the first fetch that needs it.
            done_at = dns_done_at.get(origin)
            if done_at is None:
                lookup = self._dns.resolve(origin, now=ready_at)
                done_at = ready_at + lookup.duration
                dns_done_at[origin] = done_at
            queued_at = done_at if done_at > ready_at else ready_at

            state = origins.get(origin)
            if state is None:
                state = origins[origin] = _Origin()
            pool = state.pool

            if multiplex:
                # HTTP/2: one connection per origin, streams never queue.
                conn = pool[0] if pool else open_connection(origin, queued_at, pool)
                established = conn.established_at
                start_at = queued_at if queued_at > established else established
                pushed = push_enabled and obj.object_id in push_ids
                if pushed:
                    size = obj.size_bytes + RESPONSE_HEADER_BYTES
                    think = 0.0
                else:
                    size = obj.size_bytes + RESPONSE_HEADER_BYTES + request_header_bytes
                    think = obj.server_think_time
                preempt = enable_priority and obj.priority >= CRITICAL_PRIORITY
            else:
                # HTTP/1.1: pick the pooled connection that can start
                # earliest, opening a new one while under the per-origin limit.
                conn = None
                for candidate in pool:
                    if candidate.busy_until <= queued_at and (
                        conn is None or candidate.busy_until < conn.busy_until
                    ):
                        conn = candidate
                if conn is None:
                    if len(pool) < max_connections:
                        conn = open_connection(origin, queued_at, pool)
                    else:
                        conn = pool[0]
                        for candidate in pool:
                            if candidate.busy_until < conn.busy_until:
                                conn = candidate
                busy = conn.busy_until
                start_at = queued_at if queued_at > busy else busy
                size = obj.size_bytes + RESPONSE_HEADER_BYTES + request_header_bytes
                think = obj.server_think_time
                pushed = False
                preempt = False

            # -- fluid transfer (inline Connection.transfer, bit-identical) ---
            jitter = conn.jitter
            if jitter == 0.0:
                rtt = conn.rtt_no_jitter
            else:
                rtt = conn.gauss(conn.base_rtt, jitter)
                minimum = conn.minimum_rtt
                if rtt < minimum:
                    rtt = minimum
            first_byte_at = start_at + rtt + think

            window = conn.cwnd_segments * MSS_BYTES
            delivered = window if window < size else size
            rounds = 0
            bdp = conn.bdp_bytes
            while delivered < size and window < bdp:
                window += window
                delivered += window
                if delivered > size:
                    delivered = size
                rounds += 1
            data_ready_at = first_byte_at + rounds * conn.base_rtt

            duration = size / link_rate
            available = link.available_at
            if preempt:
                last_byte_at = data_ready_at + duration
                link.available_at = (
                    available if available > data_ready_at else data_ready_at
                ) + duration
            else:
                service_start = data_ready_at if data_ready_at > available else available
                last_byte_at = service_start + duration
                link.available_at = last_byte_at
            link.bytes_delivered += size

            doubled = conn.cwnd_segments * 2
            conn.cwnd_segments = doubled if doubled < MAX_CWND_SEGMENTS else MAX_CWND_SEGMENTS
            conn.bytes_sent += size
            conn.transfers += 1

            if multiplex:
                state.streams_opened += 1
                if pushed:
                    # Pushed responses skip the request round trip: the first
                    # byte can arrive one RTT earlier (but never before the
                    # connection).  The saving uses the page-level base RTT,
                    # as in the original client.
                    saved = self._latency.base_rtt
                    first_byte_at -= saved
                    if first_byte_at < start_at:
                        first_byte_at = start_at
                    last_byte_at -= saved
                    if last_byte_at < first_byte_at:
                        last_byte_at = first_byte_at
            else:
                conn.busy_until = last_byte_at
                conn.requests_served += 1

            response = interned.get(response_attr)
            if response is None:
                response = HTTPResponse(
                    request=request,
                    status=200,
                    body_bytes=obj.size_bytes,
                    header_bytes=RESPONSE_HEADER_BYTES,
                    protocol=self.protocol_name,
                )
                interned[response_attr] = response
            # Positional construction (request, response, discovered_at,
            # queued_at, started_at, first_byte_at, completed_at,
            # connection_id).
            append(FetchRecord(
                request, response, ready_at, queued_at, start_at,
                first_byte_at, last_byte_at, conn.connection_id,
            ))
        self.records.extend(issued)
        return issued

    # -- statistics -------------------------------------------------------------

    @property
    def connection_count(self) -> int:
        """Total connections opened across all origins."""
        return sum(len(state.pool) for state in self._origins.values())

    def connections_for(self, origin: str) -> int:
        """Connections opened to one origin."""
        state = self._origins.get(origin)
        return len(state.pool) if state else 0

    def streams_for(self, origin: str) -> int:
        """Streams opened on the connection(s) to ``origin``."""
        state = self._origins.get(origin)
        return state.streams_opened if state else 0

    @property
    def total_queue_time(self) -> float:
        """Aggregate time requests spent queued before leaving the client."""
        return sum(record.queue_time for record in self.records)

    @property
    def push_count(self) -> int:
        """Objects served via server push during this transport's lifetime."""
        if not self._push_enabled:
            return 0
        pushed = set(self._push_ids)
        return sum(1 for record in self.records
                   if record.request.object_id in pushed)

    def origin_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-origin connection/stream/byte totals (read-only, post-run).

        A pure accessor over state the fetch hot path already maintains, so
        observability exports never touch :meth:`fetch` itself.
        """
        return {
            origin: {
                "connections": len(state.pool),
                "streams": state.streams_opened,
                "bytes_sent": sum(conn.bytes_sent for conn in state.pool),
            }
            for origin, state in sorted(self._origins.items())
        }


_NO_PUSH = PushConfiguration()

#: Plan columns of :meth:`FetchTransport.fetch`'s one-entry call: a single
#: parentless object, fetchable at the caller's ``ready_at``.
_ONE_ENTRY_PARENTS = (-1,)
_ONE_ENTRY_PRELOAD = (False,)

#: The stock transport fetch.  :class:`FetchEngine` hands a plan to
#: :meth:`FetchTransport.run_plan` only when it was given this exact bound
#: method; a subclass override or a patched class keeps its ``fetch`` in the
#: loop.
_STOCK_FETCH = FetchTransport.fetch


def build_transport(
    protocol: str,
    latency: LatencyModel,
    link: SharedLink,
    dns: DNSResolver,
    rng: SeededRNG,
    use_tls: bool = True,
    enable_priority: bool = True,
    push: Optional[PushConfiguration] = None,
) -> FetchTransport:
    """Build the transport for a resolved protocol name.

    Args:
        protocol: "h2" or "http/1.1" (the values
            :meth:`repro.browser.preferences.BrowserPreferences.resolve_protocol`
            returns).
        latency, link, dns, rng: the load's substrate (see
            :class:`FetchTransport`).
        use_tls: HTTP/1.1 TLS toggle (HTTP/2 is always over TLS).
        enable_priority: HTTP/2 prioritisation toggle.
        push: HTTP/2 server-push configuration.
    """
    if protocol == "h2":
        return FetchTransport(
            latency, link, dns, rng,
            protocol_name="h2",
            rng_label="http2",
            request_header_bytes=HTTP2_REQUEST_HEADER_BYTES,
            max_connections_per_origin=1,
            multiplex=True,
            use_tls=True,
            enable_priority=enable_priority,
            push=push,
        )
    from .http1 import MAX_CONNECTIONS_PER_ORIGIN  # facade owns the constant

    return FetchTransport(
        latency, link, dns, rng,
        protocol_name="http/1.1",
        rng_label="http1",
        request_header_bytes=HTTP1_REQUEST_HEADER_BYTES,
        max_connections_per_origin=MAX_CONNECTIONS_PER_ORIGIN,
        multiplex=False,
        use_tls=use_tls,
    )




class FetchEngine:
    """Plan-driven page-load driver.

    Discovery follows Chrome's behaviour closely enough for the paper's
    purposes:

    * the root document is requested at navigation start;
    * resources referenced from the document markup (children of the root)
      are discovered by the *preload scanner* shortly after the document's
      first bytes arrive — even while the parser is blocked on a stylesheet
      or script — at ``root.first_byte + discovery_delay``;
    * resources referenced from another resource (a font inside a
      stylesheet, an image injected by a script) are discovered only once
      that parent has fully arrived, at ``parent.completed +
      discovery_delay``;
    * ad-blocking extensions veto requests before they are issued and add a
      small per-request inspection overhead to the ones they let through
      (``extension_overhead``).

    A load is one flat pass over the page's cached
    :class:`~repro.web.page.FetchPlan`: requests issue in the plan's FIFO
    level order, each at its discovery time.  This is exactly the order the
    legacy deque scheduler produced, so the engine is draw-for-draw and
    byte-for-byte compatible with it.  Given a stock transport's ``fetch``,
    the pass runs inside :meth:`FetchTransport.run_plan`; any other fetch
    callable is called once per object.

    The onload event fires when every *statically discovered* resource
    (i.e. not ``loaded_by_script``) has finished, plus a small
    event-dispatch overhead.  Script-injected resources (ads, lazy images)
    may complete afterwards, which is exactly why OnLoad can both over- and
    under-estimate what users perceive (paper §1).

    Args:
        fetch: the transport's fetch callable (``(obj, ready_at) ->
            FetchRecord``); any object satisfying the legacy
            ``ProtocolClient`` protocol works via its bound ``fetch``.
        extension_overhead: per-request latency added by enabled extensions
            inspecting the request.
    """

    def __init__(self, fetch: Callable[[WebObject, float], FetchRecord],
                 extension_overhead: float = 0.0) -> None:
        self._fetch = fetch
        self._extension_overhead = max(extension_overhead, 0.0)
        owner = getattr(fetch, "__self__", None)
        self._transport: Optional[FetchTransport] = (
            owner
            if isinstance(owner, FetchTransport)
            and getattr(fetch, "__func__", None) is _STOCK_FETCH
            else None
        )

    def run(self, page: Page) -> ScheduleResult:
        """Load every reachable object of ``page`` in dependency order.

        Raises:
            PageModelError: if the page graph is invalid or has no
                statically discovered resources.
        """
        plan = page.fetch_plan()
        overhead = self._extension_overhead
        if self._transport is not None:
            records = self._transport.run_plan(plan, overhead)
        else:
            fetch = self._fetch
            records = []
            for obj, parent, early in zip(plan.objects, plan.parents, plan.preload):
                if parent < 0:
                    discovered_at = 0.0
                else:
                    source = records[parent]
                    discovered_at = (
                        source.first_byte_at if early else source.completed_at
                    ) + obj.discovery_delay
                records.append(fetch(obj, discovered_at + overhead))

        static_last = None
        fully_loaded = 0.0
        for record, static in zip(records, plan.static):
            completed = record.completed_at
            if completed > fully_loaded:
                fully_loaded = completed
            if static and (static_last is None or completed > static_last):
                static_last = completed
        if static_last is None:
            raise PageModelError(f"page {page.url} has no statically discovered resources")
        onload = static_last + ONLOAD_DISPATCH_OVERHEAD
        return ScheduleResult(
            fetches=dict(zip(plan.object_ids, records)),
            blocked_object_ids=[],
            onload=onload,
            fully_loaded=max(fully_loaded, onload),
        )
