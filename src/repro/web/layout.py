"""Above-the-fold layout model.

SpeedIndex and the human perception model both reason about *which pixels of
the first viewport* each resource paints.  The :class:`Viewport` tracks the
pixel budget and hands out regions to objects; a :class:`LayoutRegion` is the
rectangle (represented only by its area, position is irrelevant for the
metrics) a given object fills.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import PageModelError

#: Default capture viewport used by webpeg (a 1366x768 desktop window minus
#: browser chrome), in pixels.
DEFAULT_VIEWPORT_WIDTH = 1366
DEFAULT_VIEWPORT_HEIGHT = 680


@dataclass(frozen=True)
class LayoutRegion:
    """Area of the first viewport painted by one object.

    Attributes:
        object_id: the painting object.
        pixels: area in pixels.
        is_primary_content: True for main content (text, hero images),
            False for auxiliary content (ads, widgets).
    """

    object_id: str
    pixels: int
    is_primary_content: bool = True


@dataclass
class Viewport:
    """The above-the-fold pixel budget of a capture.

    Attributes:
        width: viewport width in pixels.
        height: viewport height in pixels.
    """

    width: int = DEFAULT_VIEWPORT_WIDTH
    height: int = DEFAULT_VIEWPORT_HEIGHT
    _regions: Dict[str, LayoutRegion] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise PageModelError("viewport dimensions must be positive")
        # Running total of granted pixels, kept by allocate() so it never
        # re-sums every region.
        self._allocated = sum(region.pixels for region in self._regions.values())

    @property
    def total_pixels(self) -> int:
        """Total above-the-fold pixel area."""
        return self.width * self.height

    @property
    def allocated_pixels(self) -> int:
        """Pixels already assigned to objects."""
        return self._allocated

    @property
    def free_pixels(self) -> int:
        """Pixels not yet assigned to any object."""
        return self.total_pixels - self.allocated_pixels

    @property
    def regions(self) -> Dict[str, LayoutRegion]:
        """Mapping of object id to its region (read-only view by convention)."""
        return dict(self._regions)

    def allocate(self, object_id: str, pixels: int, is_primary_content: bool = True) -> LayoutRegion:
        """Assign ``pixels`` of the viewport to ``object_id``.

        Over-allocation is clamped to the remaining free area — real pages
        overlap elements, but the visual-progress metrics treat the viewport
        as a partition, so the layout model does too.

        Raises:
            PageModelError: if the object already has a region or pixels < 0.
        """
        if object_id in self._regions:
            raise PageModelError(f"object {object_id} already has a layout region")
        if pixels < 0:
            raise PageModelError("cannot allocate a negative pixel area")
        granted = min(pixels, self.free_pixels)
        region = LayoutRegion(object_id=object_id, pixels=granted, is_primary_content=is_primary_content)
        self._regions[object_id] = region
        self._allocated += granted
        return region

    def primary_pixels(self) -> int:
        """Pixels belonging to primary (non-auxiliary) content."""
        return sum(r.pixels for r in self._regions.values() if r.is_primary_content)

    def auxiliary_pixels(self) -> int:
        """Pixels belonging to auxiliary content (ads, widgets)."""
        return sum(r.pixels for r in self._regions.values() if not r.is_primary_content)

    def coverage(self) -> float:
        """Fraction of the viewport covered by allocated regions."""
        return self.allocated_pixels / self.total_pixels
