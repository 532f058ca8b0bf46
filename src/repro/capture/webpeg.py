"""webpeg: the page-load video capture tool.

This is the synthetic counterpart of the tool described in paper §3.1:

* the experimenter supplies a list of sites, how many loads to perform per
  site and how many seconds to record after onload;
* before the first real trial of a site, a *primer* load warms the DNS
  resolver (local caches stay disabled and requests carry
  ``Cache-Control: no-cache``);
* each configuration is loaded ``loads_per_site`` times with fresh browser
  state, and the video whose onload time is the median of the repeats is
  kept (paper §3.2);
* the output of a capture is a :class:`~repro.capture.video.Video` — frames,
  HAR, onload — ready to be served to participants.

Performance notes
-----------------

Capture dominates every campaign reproduction (it is roughly two thirds of a
PLT campaign run), so this module carries three optimisations:

* the repeats of a capture share their page's compiled fetch plan (built
  once per page, see :meth:`repro.web.page.Page.fetch_plan`), and each
  :class:`~repro.browser.browser.LoadResult` builds its render timeline,
  HAR and sorted records only when first read.  Only ``onload`` is read
  from the repeats that are not kept, so only the kept repeat pays for the
  renderer and the HAR;
* a :class:`CaptureCache` memoises finished :class:`CaptureReport` objects
  keyed by (page fingerprint, configuration, preferences, settings, seed,
  RNG scheme), so one cache serves every scheme without mixing them.
  Ablation reruns — preload on/off, frame-helper on/off, HTTP/1.1 vs HTTP/2
  campaigns over the same corpus — previously re-simulated byte-identical
  loads; with the (process-wide, LRU-bounded) cache they are free.
* :meth:`Webpeg.capture_batch` accepts ``max_workers`` to fan independent
  site captures out over a process pool.  Each capture derives all of its
  randomness from ``(seed, page.url, repeat)``, so the parallel path is
  deterministic and reports are merged in input order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from ..browser.browser import Browser, LoadResult
from ..browser.preferences import BrowserPreferences
from ..config import DEFAULT_CAPTURE_FPS, LOADS_PER_SITE
from ..errors import CaptureError, CircuitOpenError, RetryExhaustedError
from ..netsim.profiles import NetworkProfile
from ..obs import resolve_obs
from ..rng import DEFAULT_RNG_SCHEME, SeededRNG, validate_scheme
from ..web.page import Page
from .frames import frames_from_timeline
from .video import Video


@dataclass(frozen=True)
class CaptureSettings:
    """Settings of a capture batch.

    Attributes:
        loads_per_site: repetitions per site configuration (median kept).
        record_after_onload: seconds to keep recording after onload fires.
        fps: capture frame rate.
        network_profile: emulation profile name.
    """

    loads_per_site: int = LOADS_PER_SITE
    record_after_onload: float = 3.0
    fps: int = DEFAULT_CAPTURE_FPS
    network_profile: str = "cable"

    def __post_init__(self) -> None:
        if self.loads_per_site <= 0:
            raise CaptureError("loads_per_site must be positive")
        if self.record_after_onload < 0:
            raise CaptureError("record_after_onload must be non-negative")
        if self.fps <= 0:
            raise CaptureError("fps must be positive")


@dataclass
class CaptureReport:
    """Summary of one capture (all repeats of one site configuration).

    Attributes:
        video: the selected (median-onload) video.
        onload_times: onload of every repeat, in repeat order.
        selected_repeat: index of the repeat whose video was kept.
        primer_performed: whether the capture protocol included the primer
            step before the measured repeats.
        rng_scheme: the versioned RNG scheme the capture ran under.
    """

    video: Video
    onload_times: List[float]
    selected_repeat: int
    primer_performed: bool
    rng_scheme: str = DEFAULT_RNG_SCHEME


def _page_fingerprint(page: Page) -> Tuple:
    """A structural fingerprint of a page for capture-cache keying.

    Two pages with the same fingerprint produce byte-identical captures under
    the same settings and seed: the load is a deterministic function of the
    object graph, the viewport, and the per-site knobs below.
    """
    viewport = page.viewport
    return (
        page.url,
        page.site_id,
        page.supports_http2,
        page.displays_ads,
        page.latency_multiplier,
        viewport.total_pixels,
        # Layout regions drive paint pixel counts and primary/auxiliary
        # classification, so identical object graphs with different
        # allocations must not collide.
        tuple(
            (region.object_id, region.pixels, region.is_primary_content)
            for region in viewport.regions.values()
        ),
        tuple(
            (o.object_id, o.object_type.value, o.url, o.origin, o.size_bytes,
             o.discovered_by, o.discovery_delay, o.above_fold_pixels, o.render_delay,
             o.blocking, o.loaded_by_script, o.third_party, o.server_think_time,
             o.priority, o.execution_time)
            for o in page.iter_objects()
        ),
    )


def _extension_key(extension) -> Tuple:
    """Hashable identity of one ad-blocking extension's full configuration.

    The name alone is not enough: two same-named blockers with different
    filter lists or allow fractions block different objects and must not
    share cached captures.
    """
    return (
        extension.name,
        extension.allow_fraction,
        extension.per_request_overhead,
        tuple(
            (filter_list.name,
             tuple((rule.pattern, rule.categories) for rule in filter_list.rules))
            for filter_list in extension.filter_lists
        ),
    )


def _preferences_key(preferences: BrowserPreferences) -> Tuple:
    """Hashable identity of a preference set for cache keying."""
    return (
        preferences.protocol,
        tuple(_extension_key(extension) for extension in preferences.extensions),
        preferences.kiosk_mode,
        preferences.disable_notifications,
        preferences.disable_local_cache,
        preferences.device_scale_factor,
        preferences.user_agent,
    )


def _fresh_report(report: CaptureReport) -> CaptureReport:
    """Copy a report for hand-out: share the immutable capture artefacts
    (frame buffer, load result) but give the video fresh mutable state
    (broken-video flags), so one campaign's flags never leak into another."""
    video = report.video
    return CaptureReport(
        video=Video(
            video_id=video.video_id,
            site_id=video.site_id,
            configuration=video.configuration,
            frames=video.frames,
            load_result=video.load_result,
            record_after_onload=video.record_after_onload,
            rng_scheme=video.rng_scheme,
        ),
        onload_times=list(report.onload_times),
        selected_repeat=report.selected_repeat,
        primer_performed=report.primer_performed,
        rng_scheme=report.rng_scheme,
    )


class CaptureCache:
    """LRU cache of finished capture reports.

    Keyed by ``(page fingerprint, configuration, preferences, settings,
    seed, rng scheme)`` — everything a capture's output is a deterministic
    function of — so entries of different RNG schemes live side by side and
    never serve each other.  The stored pristine report is never handed out
    directly; hits (and the miss that populates an entry) return
    :func:`_fresh_report` copies.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries <= 0:
            raise CaptureError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple, CaptureReport]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Tuple) -> Optional[CaptureReport]:
        """Return a fresh report for ``key``, or None on a miss."""
        report = self._entries.get(key)
        if report is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return _fresh_report(report)

    def put(self, key: Tuple, report: CaptureReport) -> None:
        """Store ``report`` under ``key``, evicting the oldest entry if full."""
        self._entries[key] = report
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide default cache shared by every :class:`Webpeg` instance, so
#: ablation reruns of the same corpus hit it across tool instances.
DEFAULT_CAPTURE_CACHE = CaptureCache()


class Webpeg:
    """Capture page-load videos under controlled conditions.

    Args:
        preferences: browser configuration for every load.
        settings: capture batch settings.
        seed: master seed for every stochastic component.
        cache: capture cache to consult (pass None to disable caching).
        rng_scheme: versioned RNG scheme every capture stream is derived
            under; recorded on every report/video and part of the cache key.
        injector: optional :class:`repro.faults.FaultInjector`.  When given,
            every capture runs under the injector's fault plan (transient
            failures and stalls, retried with deterministic backoff; sites
            that exhaust their retries are quarantined by the circuit
            breaker).  The injector wraps the capture *outside* the cache,
            so fault decisions do not depend on cache warmth — a resumed run
            with a warm cache injects exactly the faults of a cold one.
        obs: optional observer.  Every finished capture emits one
            deterministic ``capture.page`` span whose attributes derive only
            from the report contents, so the trace digest is identical
            whether the report came from the cache, the serial loop, or the
            process pool; the cache outcome itself is a non-deterministic
            annotation.
    """

    def __init__(
        self,
        preferences: Optional[BrowserPreferences] = None,
        settings: Optional[CaptureSettings] = None,
        seed: int = 2016,
        cache: Optional[CaptureCache] = DEFAULT_CAPTURE_CACHE,
        rng_scheme: str = DEFAULT_RNG_SCHEME,
        injector=None,
        obs=None,
    ) -> None:
        self.preferences = preferences or BrowserPreferences()
        self.settings = settings or CaptureSettings()
        self.seed = seed
        self.cache = cache
        self.rng_scheme = validate_scheme(rng_scheme)
        self.injector = injector
        self.obs = resolve_obs(obs)

    # -- single-site capture ----------------------------------------------------

    def _cache_key(self, page: Page, configuration: str) -> Tuple:
        return (
            _page_fingerprint(page),
            configuration,
            _preferences_key(self.preferences),
            self.settings,
            self.seed,
            self.rng_scheme,
        )

    def capture(self, page: Page, configuration: str) -> CaptureReport:
        """Capture ``page`` under the tool's preferences.

        Args:
            page: the page to capture.
            configuration: label recorded on the video (e.g. "h1", "h2",
                "ghostery", "noextension").

        Returns:
            A :class:`CaptureReport` with the median-onload video.

        Raises:
            RetryExhaustedError: an injected fault (with an injector set)
                survived every retry attempt for this site.
            CircuitOpenError: the site is quarantined by the injector's
                circuit breaker.
        """
        watch_cache = self.obs.enabled and self.cache is not None
        hits_before = self.cache.hits if watch_cache else 0
        if self.injector is not None:
            report = self.injector.run_capture(
                page.site_id, lambda: self._capture_uninjected(page, configuration)
            )
        else:
            report = self._capture_uninjected(page, configuration)
        cache_hit = (self.cache.hits > hits_before) if watch_cache else None
        self._emit_capture_span(report, cache_hit=cache_hit)
        return report

    def _emit_capture_span(self, report: CaptureReport,
                           cache_hit: Optional[bool] = None) -> None:
        """Emit the deterministic per-capture span (+ cache-outcome facts).

        Attributes come only from the report — identical for cached, serial
        and pooled captures — so the span is safe digest material; whether
        the cache served it is an execution fact and stays an annotation.
        """
        obs = self.obs
        if not obs.enabled:
            return
        video = report.video
        span = obs.record(
            "capture.page",
            site_id=video.site_id,
            configuration=video.configuration,
            loads=len(report.onload_times),
            selected_repeat=report.selected_repeat,
            onload=report.onload_times[report.selected_repeat],
            transfer_bytes=video.load_result.total_transfer_bytes,
        )
        obs.counter_add("capture.pages", deterministic=True)
        if cache_hit is not None:
            span.annotate(cache_hit=cache_hit)
            obs.counter_add(
                "capture.cache.hits" if cache_hit else "capture.cache.misses"
            )

    def _capture_uninjected(self, page: Page, configuration: str) -> CaptureReport:
        """The actual capture, cache consultation included (no fault plan)."""
        key: Optional[Tuple] = None
        if self.cache is not None:
            key = self._cache_key(page, configuration)
            cached = self.cache.get(key)
            if cached is not None:
                return cached

        browser = Browser(
            preferences=self.preferences,
            network_profile=self.settings.network_profile,
            seed=self.seed,
            rng_scheme=self.rng_scheme,
            obs=self.obs,
        )
        # The capture protocol performs a primer load before the measured
        # repeats so the first trial does not pay cold DNS lookups.  In the
        # synthetic substrate every load builds its resolver, link and
        # connection pool from scratch (webpeg clears browser state between
        # repeats), so no state survives from the primer into the measured
        # loads and simulating it would only burn CPU: its random streams are
        # derived from repeat index -1 and are never observed.  It is
        # therefore accounted for (``primer_performed``) but not simulated.
        results: List[LoadResult] = []
        for repeat in range(self.settings.loads_per_site):
            results.append(browser.load_with_fresh_state(page, repeat_index=repeat))

        onloads = [result.onload for result in results]
        target = median(onloads)
        selected = min(range(len(results)), key=lambda i: (abs(onloads[i] - target), i))
        chosen = results[selected]

        duration = chosen.fully_loaded + self.settings.record_after_onload
        frames = frames_from_timeline(chosen.render_timeline, fps=self.settings.fps, duration=duration)
        video = Video(
            video_id=f"{page.site_id}-{configuration}-{selected}",
            site_id=page.site_id,
            configuration=configuration,
            frames=frames,
            load_result=chosen,
            record_after_onload=self.settings.record_after_onload,
            rng_scheme=self.rng_scheme,
        )
        report = CaptureReport(
            video=video,
            onload_times=onloads,
            selected_repeat=selected,
            primer_performed=True,
            rng_scheme=self.rng_scheme,
        )
        if self.cache is not None and key is not None:
            self.cache.put(key, report)
            # Hand the caller the same flag-isolated copy a cache hit gets,
            # keeping the stored entry pristine.
            return _fresh_report(report)
        return report

    # -- batch capture ----------------------------------------------------------

    def capture_batch(self, pages: Sequence[Page], configuration: str,
                      max_workers: Optional[int] = None) -> Dict[str, CaptureReport]:
        """Capture a list of pages; returns reports keyed by site id.

        Args:
            pages: pages to capture.
            configuration: label recorded on every video.
            max_workers: when > 1, captures run on a process pool.  Every
                capture is an independent deterministic function of
                ``(seed, page)``, so the result is bit-identical to the
                serial path; reports are merged in input order.  Ignored
                when an injector is set (see below).

        With an injector, captures run serially (the breaker's quarantine
        state is mutable and lives in this process) and the batch *degrades
        gracefully*: a site whose retries are exhausted — or that is already
        quarantined — is simply absent from the returned mapping, recorded
        in the injector's counters/quarantine provenance instead of
        aborting the whole batch.
        """
        if not pages:
            raise CaptureError("capture_batch needs at least one page")
        reports: Dict[str, CaptureReport] = {}
        if self.injector is not None:
            for page in pages:
                try:
                    reports[page.site_id] = self.capture(page, configuration)
                except (RetryExhaustedError, CircuitOpenError):
                    continue
            return reports
        if max_workers is not None and max_workers > 1 and len(pages) > 1:
            from concurrent.futures import ProcessPoolExecutor

            # Serve cache hits locally; only misses go to the pool, so a warm
            # batch stays as cheap in parallel mode as in serial mode.
            cache_served = set()
            misses = []  # (page, precomputed cache key or None)
            for page in pages:
                key = None
                if self.cache is not None:
                    key = self._cache_key(page, configuration)
                    cached = self.cache.get(key)
                    if cached is not None:
                        reports[page.site_id] = cached
                        cache_served.add(page.site_id)
                        continue
                misses.append((page, key))
            if misses:
                with ProcessPoolExecutor(max_workers=min(max_workers, len(misses))) as pool:
                    for (page, key), report in zip(
                        misses,
                        pool.map(
                            _capture_one,
                            [(self.preferences, self.settings, self.seed, page, configuration,
                              self.rng_scheme)
                             for page, _key in misses],
                        ),
                    ):
                        if self.cache is not None and key is not None:
                            self.cache.put(key, report)
                            report = _fresh_report(report)
                        reports[page.site_id] = report
            # Hits resolve during the scan and misses when the pool drains,
            # so spans are emitted here, in input order from the merged
            # reports — the same deterministic sequence the serial loop
            # produces.
            if self.obs.enabled:
                for page in pages:
                    self._emit_capture_span(
                        reports[page.site_id],
                        cache_hit=page.site_id in cache_served,
                    )
                self.obs.counter_add("capture.pool_tasks", len(misses))
            # Preserve input order in the returned mapping.
            return {page.site_id: reports[page.site_id] for page in pages}
        for page in pages:
            reports[page.site_id] = self.capture(page, configuration)
        return reports


def _capture_one(args: Tuple) -> CaptureReport:
    """Process-pool entry point: capture one page with a fresh tool.

    Workers run without a shared cache (each report is shipped back to the
    parent, which populates its own cache).
    """
    preferences, settings, seed, page, configuration, rng_scheme = args
    tool = Webpeg(preferences=preferences, settings=settings, seed=seed, cache=None,
                  rng_scheme=rng_scheme)
    return tool.capture(page, configuration)


def capture_protocol_pair(page: Page, settings: Optional[CaptureSettings] = None,
                          seed: int = 2016,
                          rng_scheme: str = DEFAULT_RNG_SCHEME,
                          obs=None) -> Dict[str, CaptureReport]:
    """Capture the HTTP/1.1 and HTTP/2 versions of one page.

    Convenience used by the HTTP/1.1-vs-HTTP/2 A/B campaign: same page, same
    network profile, only the protocol changes.
    """
    settings = settings or CaptureSettings()
    reports: Dict[str, CaptureReport] = {}
    for label, protocol in (("h1", "http/1.1"), ("h2", "h2")):
        tool = Webpeg(
            preferences=BrowserPreferences(protocol=protocol),
            settings=settings,
            seed=seed,
            rng_scheme=rng_scheme,
            obs=obs,
        )
        reports[label] = tool.capture(page, configuration=label)
    return reports


def capture_adblock_set(page: Page, blockers: Sequence[str] = ("adblock", "ghostery", "ublock"),
                        settings: Optional[CaptureSettings] = None, seed: int = 2016,
                        rng_scheme: str = DEFAULT_RNG_SCHEME,
                        obs=None) -> Dict[str, CaptureReport]:
    """Capture a page with no extension and with each ad blocker.

    The protocol is left on "auto" (Chrome defaults to HTTP/2 when the site
    supports it), matching the ad-blocker campaign's configuration.
    """
    settings = settings or CaptureSettings()
    reports: Dict[str, CaptureReport] = {}
    base = Webpeg(preferences=BrowserPreferences(protocol="auto"), settings=settings, seed=seed,
                  rng_scheme=rng_scheme, obs=obs)
    reports["noextension"] = base.capture(page, configuration="noextension")
    for name in blockers:
        tool = Webpeg(
            preferences=BrowserPreferences(protocol="auto").with_extension(name),
            settings=settings,
            seed=seed,
            rng_scheme=rng_scheme,
            obs=obs,
        )
        reports[name] = tool.capture(page, configuration=name)
    return reports
