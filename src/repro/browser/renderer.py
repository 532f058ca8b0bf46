"""Rendering model: fetch completions → paint events → visual progress.

The metrics the paper evaluates (SpeedIndex, First/LastVisualChange) and the
synthetic video frames webpeg produces are all derived from *when pixels of
the first viewport change*.  The renderer maps each visible object's fetch
completion to a :class:`PaintEvent`:

* nothing paints before every parser-blocking stylesheet/script of the
  document head has arrived (render-blocking behaviour);
* the root document's own paint represents the initial text/layout render;
* every other visible object paints ``render_delay`` after both its bytes and
  the render-blocking set are available.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import PageModelError
from ..httpsim.messages import FetchRecord
from ..web.objects import ObjectType, WebObject
from ..web.page import Page


@dataclass(frozen=True, slots=True)
class PaintEvent:
    """One visual change in the first viewport.

    Attributes:
        time: seconds from navigation start.
        object_id: object whose pixels appeared.
        pixels: area painted.
        is_primary_content: False for ads/widgets (auxiliary content).
    """

    time: float
    object_id: str
    pixels: int
    is_primary_content: bool


@dataclass
class RenderTimeline:
    """The ordered list of paint events for a load.

    Attributes:
        events: paint events sorted by time.
        viewport_pixels: total above-the-fold pixel budget.
    """

    events: List[PaintEvent]
    viewport_pixels: int

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda e: e.time)
        if self.viewport_pixels <= 0:
            raise PageModelError("viewport_pixels must be positive")
        # Lazily-built prefix-sum indexes; the timeline is queried once per
        # participant interaction (readiness thresholds, completeness curves)
        # so repeated linear re-sums over the event list add up fast.  Events
        # are never mutated after construction.
        self._times: Optional[List[float]] = None
        self._pixel_prefix: List[int] = []
        self._primary_events: List[PaintEvent] = []
        self._primary_times: List[float] = []
        self._primary_prefix: List[int] = []
        self._primary_ratios: List[float] = []

    def _build_indexes(self) -> None:
        times: List[float] = []
        prefix: List[int] = []
        painted = 0
        primary_events: List[PaintEvent] = []
        primary_times: List[float] = []
        primary_prefix: List[int] = []
        primary_painted = 0
        for event in self.events:
            times.append(event.time)
            painted += event.pixels
            prefix.append(painted)
            if event.is_primary_content:
                primary_events.append(event)
                primary_times.append(event.time)
                primary_painted += event.pixels
                primary_prefix.append(primary_painted)
        self._pixel_prefix = prefix
        self._primary_events = primary_events
        self._primary_times = primary_times
        self._primary_prefix = primary_prefix
        total_primary = primary_prefix[-1] if primary_prefix else 0
        self._primary_ratios = (
            [painted / total_primary for painted in primary_prefix] if total_primary else []
        )
        self._times = times

    @property
    def first_visual_change(self) -> float:
        """Time of the first paint (0 when nothing ever paints)."""
        return self.events[0].time if self.events else 0.0

    @property
    def last_visual_change(self) -> float:
        """Time of the last paint."""
        return self.events[-1].time if self.events else 0.0

    @property
    def painted_pixels(self) -> int:
        """Total pixels painted across all events."""
        if self._times is None:
            self._build_indexes()
        return self._pixel_prefix[-1] if self._pixel_prefix else 0

    def completeness_at(self, time: float) -> float:
        """Visual completeness (0..1) at ``time``: painted / finally-painted pixels."""
        if self._times is None:
            self._build_indexes()
        total = self._pixel_prefix[-1] if self._pixel_prefix else 0
        if total == 0:
            return 1.0
        index = bisect_right(self._times, time)
        painted = self._pixel_prefix[index - 1] if index else 0
        return painted / total

    def primary_completeness_at(self, time: float) -> float:
        """Completeness counting only primary (non-ad) content."""
        if self._times is None:
            self._build_indexes()
        total = self._primary_prefix[-1] if self._primary_prefix else 0
        if total == 0:
            return 1.0
        index = bisect_right(self._primary_times, time)
        painted = self._primary_prefix[index - 1] if index else 0
        return painted / total

    def primary_threshold_time(self, threshold: float) -> float:
        """Earliest time primary-content completeness reaches ``threshold``.

        Used by the perception model for the "early" and "primary" readiness
        personas; bisects the cached cumulative primary-completeness ratios.
        Falls back to the last visual change when the page paints no primary
        content, and to the last primary paint when the threshold is never
        reached.
        """
        if self._times is None:
            self._build_indexes()
        if not self._primary_ratios:
            return self.last_visual_change
        index = bisect_left(self._primary_ratios, threshold)
        if index < len(self._primary_events):
            return self._primary_events[index].time
        return self._primary_events[-1].time

    def primary_complete_time(self) -> float:
        """Time at which the last primary-content pixels appear."""
        if self._times is None:
            self._build_indexes()
        return self._primary_times[-1] if self._primary_times else 0.0

    def auxiliary_complete_time(self) -> float:
        """Time at which the last auxiliary-content pixels appear."""
        auxiliary = [e.time for e in self.events if not e.is_primary_content]
        return max(auxiliary) if auxiliary else self.primary_complete_time()

    def progress_curve(self, resolution: float = 0.1, horizon: float = 0.0) -> List[tuple[float, float]]:
        """Sampled (time, completeness) curve used by SpeedIndex and the video."""
        end = max(self.last_visual_change, horizon)
        if end <= 0:
            return [(0.0, 1.0)]
        samples: List[tuple[float, float]] = []
        steps = int(end / resolution) + 1
        for index in range(steps + 1):
            t = index * resolution
            samples.append((t, self.completeness_at(t)))
        return samples


class Renderer:
    """Turns fetch records into a paint timeline for a page."""

    def render(self, page: Page, fetches: Dict[str, FetchRecord]) -> RenderTimeline:
        """Compute paint events for ``page`` given its fetch records.

        Objects that were blocked (ad blocker) or never fetched simply do not
        paint; the completeness curve is normalised by what actually painted.
        """
        root = page.root
        render_blockers = [
            fetches[obj.object_id].completed_at + obj.execution_time
            for obj in page.iter_objects()
            if obj.blocking and obj.object_id in fetches and not fetches[obj.object_id].blocked
        ]
        root_record = fetches.get(root.object_id)
        if root_record is None:
            raise PageModelError(f"page {page.url} was rendered without fetching its root document")
        blocking_done = max(render_blockers) if render_blockers else root_record.completed_at

        events: List[PaintEvent] = []
        regions = page.viewport.regions
        for obj in page.iter_objects():
            record = fetches.get(obj.object_id)
            if record is None or record.blocked or not obj.is_visible:
                continue
            region = regions.get(obj.object_id)
            pixels = region.pixels if region is not None else obj.above_fold_pixels
            if pixels <= 0:
                continue
            ready = max(record.completed_at, blocking_done)
            events.append(
                PaintEvent(
                    time=ready + obj.render_delay,
                    object_id=obj.object_id,
                    pixels=pixels,
                    is_primary_content=region.is_primary_content if region else not obj.is_auxiliary,
                )
            )
        return RenderTimeline(events=events, viewport_pixels=page.viewport.total_pixels)
