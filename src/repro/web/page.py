"""Page model: a dependency graph of web objects plus an above-the-fold layout.

The :class:`Page` is the unit the browser substrate loads and webpeg records.
It owns the object set, validates the discovery graph (no cycles, no dangling
parents, exactly one root document), and exposes the structural queries the
rest of the library needs (origins for DNS priming, auxiliary content share,
per-object layout regions).

Structural queries are backed by indexes (children-by-parent, root, ordered
origins, objects-by-type, running byte total) that are built once and
maintained incrementally by :meth:`Page.add_object`.  The fetch scheduler
alone asks for ``children_of`` once per object of every load, so the previous
whole-dict scans made scheduling quadratic in page size; with the indexes
every query is O(result).  Successful validation is also cached so repeated
loads of the same page (webpeg performs several per capture) only pay the
graph walk once.

The page also compiles its discovery graph into a :class:`FetchPlan` — the
breadth-first issue order the fetch engine walks — once, on first use, and
hands the same plan to every later load (every repeat and every protocol of
a capture).  Like the validation cache, :meth:`Page.add_object` drops it.

Invariant: mutate the object set only through :meth:`Page.add_object` (or by
building a new page, as :meth:`Page.without_objects` does).  Writing to
``page.objects`` directly bypasses the indexes and leaves queries — and
anything keyed on them, such as the capture cache — silently stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import PageModelError
from .layout import Viewport
from .objects import ObjectType, WebObject


@dataclass(frozen=True)
class FetchPlan:
    """A page's discovery graph compiled into the order its requests issue.

    Entry ``i`` of every tuple describes the ``i``-th request of a load.  The
    order is the FIFO level order of the discovery graph: the root document
    first, then its children in document order, then each of their children
    in turn.  Issuing in this order keeps every random draw and every
    shared-link commitment of a load in a fixed sequence.

    Attributes:
        objects: the page's objects in issue order (root first).
        object_ids: their ids, in the same order.
        parents: index into ``objects`` of each object's discovering parent
            (-1 for the root).
        preload: whether the preload scanner reveals the object at its
            parent's first byte (a statically referenced child of the root
            document) instead of at the parent's full arrival.
        static: whether the object gates onload (not ``loaded_by_script``).
    """

    objects: Tuple[WebObject, ...]
    object_ids: Tuple[str, ...]
    parents: Tuple[int, ...]
    preload: Tuple[bool, ...]
    static: Tuple[bool, ...]

    @classmethod
    def compile(cls, root: WebObject,
                children: Dict[Optional[str], List[WebObject]]) -> "FetchPlan":
        """Walk the discovery index breadth-first from ``root``."""
        objects = [root]
        parents = [-1]
        preload = [False]
        index = 0
        while index < len(objects):
            for child in children.get(objects[index].object_id, ()):
                objects.append(child)
                parents.append(index)
                preload.append(index == 0 and not child.loaded_by_script)
            index += 1
        return cls(
            objects=tuple(objects),
            object_ids=tuple(obj.object_id for obj in objects),
            parents=tuple(parents),
            preload=tuple(preload),
            static=tuple(not obj.loaded_by_script for obj in objects),
        )


@dataclass
class Page:
    """A synthetic web page.

    Attributes:
        url: page URL.
        site_id: identifier of the site this page belongs to in the corpus.
        objects: mapping of object id to :class:`WebObject`.
        viewport: the above-the-fold layout.
        supports_http2: whether the first-party origin negotiates HTTP/2.
        displays_ads: whether the page embeds ad content.
        latency_multiplier: how far, network-wise, this site's servers sit
            from the capture vantage point (1.0 = the profile's nominal RTT).
            A single multiplier per site keeps the slowness of the first
            paint, the onload event and the user-perceived load correlated,
            as they are for real sites.
    """

    url: str
    site_id: str
    objects: Dict[str, WebObject] = field(default_factory=dict)
    viewport: Viewport = field(default_factory=Viewport)
    supports_http2: bool = True
    displays_ads: bool = False
    latency_multiplier: float = 1.0

    def __post_init__(self) -> None:
        self._rebuild_indexes()

    # -- indexes ----------------------------------------------------------------

    def _rebuild_indexes(self) -> None:
        """Build every structural index from scratch (insertion order)."""
        self._children: Dict[Optional[str], List[WebObject]] = {}
        self._root: Optional[WebObject] = None
        self._origins: List[str] = []
        self._origin_set: set = set()
        self._by_type: Dict[ObjectType, List[WebObject]] = {}
        self._auxiliary: List[WebObject] = []
        self._total_bytes = 0
        self._validated = False
        self._plan: Optional[FetchPlan] = None
        for obj in self.objects.values():
            self._index_object(obj)

    def _index_object(self, obj: WebObject) -> None:
        """Fold one object into the indexes."""
        self._children.setdefault(obj.discovered_by, []).append(obj)
        if self._root is None and obj.is_root:
            self._root = obj
        if obj.origin not in self._origin_set:
            self._origin_set.add(obj.origin)
            self._origins.append(obj.origin)
        self._by_type.setdefault(obj.object_type, []).append(obj)
        if obj.is_auxiliary:
            self._auxiliary.append(obj)
        self._total_bytes += obj.size_bytes
        self._validated = False
        self._plan = None

    # -- construction -----------------------------------------------------------

    def add_object(self, obj: WebObject) -> None:
        """Add an object, enforcing id uniqueness."""
        if obj.object_id in self.objects:
            raise PageModelError(f"duplicate object id {obj.object_id!r} on page {self.url}")
        self.objects[obj.object_id] = obj
        self._index_object(obj)

    def validate(self) -> None:
        """Check structural invariants of the dependency graph.

        A successful validation is cached; mutating the page through
        :meth:`add_object` invalidates the cache.

        Raises:
            PageModelError: if the page has no root, multiple roots, dangling
                ``discovered_by`` references, or discovery cycles.
        """
        if self._validated:
            return
        roots = [o for o in self.objects.values() if o.is_root]
        if len(roots) != 1:
            raise PageModelError(f"page {self.url} must have exactly one root document, found {len(roots)}")
        for obj in self.objects.values():
            if obj.discovered_by is not None and obj.discovered_by not in self.objects:
                raise PageModelError(
                    f"object {obj.object_id} discovered by unknown object {obj.discovered_by!r}"
                )
        # Cycle detection by walking each object's ancestor chain.
        for obj in self.objects.values():
            seen = {obj.object_id}
            parent = obj.discovered_by
            while parent is not None:
                if parent in seen:
                    raise PageModelError(f"discovery cycle involving object {obj.object_id}")
                seen.add(parent)
                parent = self.objects[parent].discovered_by
        self._validated = True

    # -- structural queries -----------------------------------------------------

    @property
    def root(self) -> WebObject:
        """The root HTML document."""
        if self._root is None:
            raise PageModelError(f"page {self.url} has no root document")
        return self._root

    def children_of(self, object_id: str) -> List[WebObject]:
        """Objects discovered by ``object_id``, in insertion order."""
        return list(self._children.get(object_id, ()))

    def fetch_plan(self) -> FetchPlan:
        """The page's compiled :class:`FetchPlan`, built once and cached.

        Mutating the page through :meth:`add_object` drops the cached plan.

        Raises:
            PageModelError: if the discovery graph is invalid (see
                :meth:`validate`).
        """
        plan = self._plan
        if plan is None:
            self.validate()
            plan = self._plan = FetchPlan.compile(self.root, self._children)
        return plan

    def iter_objects(self) -> Iterator[WebObject]:
        """Iterate over all objects in insertion order."""
        return iter(self.objects.values())

    def origins(self) -> List[str]:
        """Distinct origins referenced by the page (root origin first)."""
        return list(self._origins)

    def objects_of_type(self, *types: ObjectType) -> List[WebObject]:
        """All objects whose type is one of ``types``."""
        if len(types) == 1:
            return list(self._by_type.get(types[0], ()))
        # Multiple types must interleave in global insertion order, so fall
        # back to the ordered scan (rare path; single-type is the hot one).
        wanted = set(types)
        return [o for o in self.objects.values() if o.object_type in wanted]

    @property
    def total_bytes(self) -> int:
        """Total transfer size of the page."""
        return self._total_bytes

    @property
    def object_count(self) -> int:
        """Number of objects on the page."""
        return len(self.objects)

    @property
    def auxiliary_objects(self) -> List[WebObject]:
        """Ads, trackers and widgets on the page."""
        return list(self._auxiliary)

    @property
    def auxiliary_pixel_fraction(self) -> float:
        """Fraction of allocated above-the-fold pixels owned by auxiliary content."""
        allocated = self.viewport.allocated_pixels
        if allocated == 0:
            return 0.0
        return self.viewport.auxiliary_pixels() / allocated

    def without_objects(self, object_ids: Iterable[str]) -> "Page":
        """Return a copy of the page with the given objects removed.

        Used by the ad-blocker substrate: blocking a request removes the
        object (and any object it would have discovered) from the load.
        """
        removed = set(object_ids)
        # Remove descendants of removed objects too (breadth-first over the
        # children index instead of repeated whole-dict sweeps).
        frontier = list(removed)
        while frontier:
            parent_id = frontier.pop()
            for child in self._children.get(parent_id, ()):
                if child.object_id not in removed:
                    removed.add(child.object_id)
                    frontier.append(child.object_id)
        kept = {
            obj.object_id: obj for obj in self.objects.values() if obj.object_id not in removed
        }
        return Page(
            url=self.url,
            site_id=self.site_id,
            objects=kept,
            viewport=self.viewport,
            supports_http2=self.supports_http2,
            displays_ads=self.displays_ads,
            latency_multiplier=self.latency_multiplier,
        )

    def summary(self) -> dict:
        """Structural summary used by corpus statistics and documentation."""
        by_type = {
            object_type.value: len(members) for object_type, members in self._by_type.items()
        }
        return {
            "url": self.url,
            "site_id": self.site_id,
            "objects": self.object_count,
            "bytes": self.total_bytes,
            "origins": len(self._origins),
            "auxiliary_objects": len(self._auxiliary),
            "supports_http2": self.supports_http2,
            "displays_ads": self.displays_ads,
            "by_type": by_type,
        }
