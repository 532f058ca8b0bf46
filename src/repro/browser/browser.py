"""The browser façade: load a page under controlled conditions.

:class:`Browser` wires the substrates together the same way webpeg wires
Chrome, the network emulator and the debugging protocol: given a page, a
network profile and a preference set it

1. applies any enabled ad-blocking extension to the request stream,
2. resolves + connects + fetches every surviving object over the selected
   protocol (HTTP/1.1 pool or HTTP/2 multiplexing),
3. derives the onload time,
4. exposes the whole thing as a :class:`LoadResult` (fetches, onload, and —
   built on first access — paints, HAR and devtools trace) for the capture
   tool and the metrics to consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Dict, List, Optional

from ..adblock.blockers import AdBlocker
from ..errors import CaptureError
from ..httpsim.engine import FetchEngine, PushConfiguration, build_transport
from ..httpsim.har import HARArchive
from ..httpsim.messages import FetchRecord
from ..netsim.bandwidth import SharedLink
from ..netsim.dns import DNSResolver
from ..netsim.profiles import NetworkProfile, get_profile
from ..obs import resolve_obs
from ..rng import DEFAULT_RNG_SCHEME, SeededRNG
from ..web.page import Page
from .devtools import DevToolsSession, TraceEvent
from .preferences import BrowserPreferences
from .renderer import Renderer, RenderTimeline
from .scheduler import blocked_fetch_record

_completed_at = attrgetter("completed_at")


@dataclass
class LoadResult:
    """Everything webpeg needs to know about one page load.

    webpeg loads every site several times but keeps only the median-onload
    repeat, and reads nothing but ``onload`` from the others.  The load's
    derived artefacts — the completion-ordered fetch records, the render
    timeline, the HAR and the devtools trace — are therefore built on first
    access and then cached in the instance dictionary, so only the kept
    repeat pays for them and later reads are plain attribute reads.  The
    cached state is plain data (no closures), so results pickle across
    process pools either way.

    Attributes:
        page: the (possibly ad-filtered) page that was loaded.
        original_page: the page before extension filtering.
        protocol: protocol used for the first-party origin.
        network_profile: name of the emulation profile.
        fetches: fetch records of the fetched objects keyed by object id, in
            issue order.
        blocked_object_ids: objects vetoed by the enabled extension.
        onload: onload event time (seconds from navigation start).
        fully_loaded: completion time of the last resource.
        devtools: the instrumentation session that builds the HAR and the
            trace.
    """

    page: Page
    original_page: Page
    protocol: str
    network_profile: str
    fetches: Dict[str, FetchRecord]
    blocked_object_ids: List[str]
    onload: float
    fully_loaded: float
    devtools: DevToolsSession = field(repr=False, compare=False)

    @cached_property
    def fetch_records(self) -> List[FetchRecord]:
        """Per-object fetch records by completion time, then the blocked ones.

        Blocked objects still show up (status 0 in the HAR), discovered at
        the time their parent would have revealed them.
        """
        records = sorted(self.fetches.values(), key=_completed_at)
        for object_id in self.blocked_object_ids:
            obj = self.original_page.objects[object_id]
            parent = obj.discovered_by
            parent_record = self.fetches.get(parent) if parent else None
            discovered_at = (
                parent_record.completed_at + obj.discovery_delay
                if parent_record else obj.discovery_delay
            )
            records.append(blocked_fetch_record(obj, discovered_at))
        return records

    @cached_property
    def render_timeline(self) -> RenderTimeline:
        """Paint events and visual-progress queries."""
        return Renderer().render(self.page, self.fetches)

    @cached_property
    def har(self) -> HARArchive:
        """The HAR archive of the load."""
        return self.devtools.build_har(self.fetch_records, self.onload)

    @cached_property
    def trace(self) -> List[TraceEvent]:
        """Devtools-style event trace."""
        return self.devtools.build_trace(
            self.fetch_records, self.render_timeline.events, self.onload
        )

    @property
    def first_visual_change(self) -> float:
        """Time of the first paint."""
        return self.render_timeline.first_visual_change

    @property
    def last_visual_change(self) -> float:
        """Time of the last paint."""
        return self.render_timeline.last_visual_change

    @property
    def total_transfer_bytes(self) -> int:
        """Bytes actually transferred (blocked requests excluded)."""
        return sum(
            record.response.transfer_bytes
            for record in self.fetch_records
            if record.response is not None and not record.blocked
        )

    def completion_time(self, object_id: str) -> Optional[float]:
        """Completion time of a specific object, if it was fetched."""
        for record in self.fetch_records:
            if record.request.object_id == object_id and not record.blocked:
                return record.completed_at
        return None


class Browser:
    """A controlled, instrumented page-load engine.

    Args:
        preferences: protocol / extension / appearance configuration.
        network_profile: emulation profile name or object (default "cable").
        seed: seed for every stochastic component of the load.
        rng_scheme: versioned RNG scheme every load stream is derived under.
        obs: optional observer; per-load transport facts are recorded as
            non-deterministic execution spans/metrics (they only exist for
            live, uncached loads).
    """

    def __init__(
        self,
        preferences: Optional[BrowserPreferences] = None,
        network_profile: str | NetworkProfile = "cable",
        seed: int = 2016,
        rng_scheme: str = DEFAULT_RNG_SCHEME,
        obs=None,
    ) -> None:
        self.preferences = preferences or BrowserPreferences()
        if isinstance(network_profile, str):
            self.network_profile = get_profile(network_profile)
        else:
            self.network_profile = network_profile
        self.seed = seed
        self.rng_scheme = rng_scheme
        self.obs = resolve_obs(obs)

    # -- public API -------------------------------------------------------------

    def load(self, page: Page, load_rng: Optional[SeededRNG] = None,
             push: Optional[PushConfiguration] = None) -> LoadResult:
        """Load ``page`` and return the full instrumentation record.

        Args:
            page: the page to load.
            load_rng: random source for this specific load; defaults to a
                stream derived from the browser seed and the page URL, so
                repeated loads of the same page differ (as real repeats do)
                only if the caller supplies per-repeat streams.
            push: optional HTTP/2 server-push configuration.

        Raises:
            CaptureError: if the page has no objects.
        """
        if page.object_count == 0:
            raise CaptureError(f"page {page.url} has no objects to load")
        rng = load_rng or SeededRNG(self.seed, self.rng_scheme).fork(f"load:{page.url}")
        protocol = self.preferences.resolve_protocol(page.supports_http2)

        # Extension filtering happens before any request leaves the browser.
        original_page = page
        blocked_ids: List[str] = []
        extension_overhead = 0.0
        for extension in self.preferences.extensions:
            page, newly_blocked = extension.apply(page, rng.fork(f"blocker:{extension.name}"))
            blocked_ids.extend(newly_blocked)
            extension_overhead += extension.per_request_overhead

        # The page's servers may be closer or further than the profile's
        # nominal RTT; a single per-site multiplier keeps first paint, onload
        # and perceived load time consistently fast or slow for a given site.
        latency = self.network_profile.latency.scaled(page.latency_multiplier)
        link = SharedLink(bandwidth=self.network_profile.bandwidth)
        # Addresses are never consulted during a load; synthesising them
        # draws only from label-derived forks, so opting out is stream-safe.
        dns = DNSResolver(latency=latency, rng=rng, synthesize_addresses=False)
        transport = build_transport(protocol, latency, link, dns, rng, push=push)
        engine = FetchEngine(transport.fetch, extension_overhead=extension_overhead)
        schedule = engine.run(page)

        if self.obs.enabled:
            # Live-transport facts depend on cache warmth and execution mode,
            # so they are execution spans/metrics, never digest material.
            stats = transport.origin_stats()
            self.obs.record(
                "browser.load", deterministic=False, url=page.url,
                protocol=protocol, origins=len(stats),
                connections=sum(s["connections"] for s in stats.values()),
                streams=sum(s["streams"] for s in stats.values()),
                bytes_sent=sum(s["bytes_sent"] for s in stats.values()),
            )
            self.obs.counter_add("httpsim.loads")
            self.obs.counter_add(
                "httpsim.connections",
                sum(s["connections"] for s in stats.values()))
            self.obs.counter_add(
                "httpsim.streams", sum(s["streams"] for s in stats.values()))
            self.obs.counter_add(
                "httpsim.bytes_sent",
                sum(s["bytes_sent"] for s in stats.values()))
            self.obs.counter_add("httpsim.pushes", transport.push_count)

        return LoadResult(
            page=page,
            original_page=original_page,
            protocol=protocol,
            network_profile=self.network_profile.name,
            fetches=schedule.fetches,
            blocked_object_ids=blocked_ids,
            onload=schedule.onload,
            fully_loaded=schedule.fully_loaded,
            devtools=DevToolsSession(page_url=page.url, protocol=protocol),
        )

    def load_with_fresh_state(self, page: Page, repeat_index: int,
                              push: Optional[PushConfiguration] = None) -> LoadResult:
        """Load with a per-repeat random stream (webpeg clears state between loads)."""
        rng = SeededRNG(self.seed, self.rng_scheme).fork(f"load:{page.url}:repeat:{repeat_index}")
        return self.load(page, load_rng=rng, push=push)
