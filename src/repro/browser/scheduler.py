"""Fetch scheduling facade: when does the browser request each object?

The scheduling semantics — preload-scanner discovery, parent-gated
discovery of nested resources, extension veto overhead, and the onload
rule — live in :class:`repro.httpsim.engine.FetchEngine`, the unified
plan-driven fetch/transport core.  This module keeps the original public
surface stable:

* :class:`FetchScheduler` — drives any ``ProtocolClient`` through a page's
  dependency graph (delegating to the engine);
* :class:`ScheduleResult` and :data:`ONLOAD_DISPATCH_OVERHEAD` — re-exported
  from the engine;
* :func:`blocked_fetch_record` — the placeholder record for
  extension-blocked requests.

See the engine module for the discovery model and the determinism contract
(issue order is the FIFO level order of the dependency graph, which keeps
outputs bit-identical across the engine rewrite).
"""

from __future__ import annotations

from typing import List, Protocol

from ..httpsim.engine import (  # noqa: F401  (re-exported public API)
    FetchEngine,
    ONLOAD_DISPATCH_OVERHEAD,
    ScheduleResult,
)
from ..httpsim.messages import FetchRecord, HTTPRequest
from ..rng import SeededRNG
from ..web.objects import WebObject
from ..web.page import Page


class ProtocolClient(Protocol):
    """Structural type both HTTP clients satisfy."""

    protocol_name: str
    records: List[FetchRecord]

    def fetch(self, obj: WebObject, ready_at: float) -> FetchRecord:  # pragma: no cover - protocol
        ...


class FetchScheduler:
    """Drives a protocol client through a page's dependency graph.

    Thin wrapper over :class:`repro.httpsim.engine.FetchEngine`, kept for
    API compatibility with code that composes a client manually.
    """

    def __init__(self, client: ProtocolClient, rng: SeededRNG,
                 extension_overhead: float = 0.0) -> None:
        """Create a scheduler.

        Args:
            client: HTTP/1.1 or HTTP/2 client to issue fetches on.
            rng: random source (reserved for future jitter knobs; the
                engine itself draws nothing).
            extension_overhead: per-request latency added by enabled
                extensions inspecting the request.
        """
        self._client = client
        self._rng = rng
        # Drive the transport directly when the client is one of our stock
        # facades with an un-overridden ``fetch`` (one less delegation per
        # object on the hot path).  A subclass or wrapper that customises
        # ``fetch`` keeps its override in the loop.
        from ..httpsim.http1 import HTTP1Client
        from ..httpsim.http2 import HTTP2Client

        transport = getattr(client, "transport", None)
        stock_fetch = (
            "fetch" not in getattr(client, "__dict__", {})  # no instance override
            and type(client).fetch in (HTTP1Client.fetch, HTTP2Client.fetch)
        )
        fetch = transport.fetch if (transport is not None and stock_fetch) else client.fetch
        self._engine = FetchEngine(fetch, extension_overhead=extension_overhead)

    def schedule(self, page: Page) -> ScheduleResult:
        """Fetch every object of ``page`` in dependency order.

        Raises:
            PageModelError: if the dependency graph cannot be scheduled
                (which :meth:`Page.validate` should have caught earlier).
        """
        return self._engine.run(page)


def blocked_fetch_record(obj: WebObject, discovered_at: float) -> FetchRecord:
    """Build the placeholder record for an extension-blocked request.

    Blocked requests never reach the network; Chrome still reports them in
    the HAR with a zero body, which the visualisation and the HAR export
    mirror.
    """
    request = HTTPRequest.for_object(obj)
    return FetchRecord(
        request=request,
        response=None,
        discovered_at=discovered_at,
        queued_at=discovered_at,
        started_at=discovered_at,
        first_byte_at=discovered_at,
        completed_at=discovered_at,
        connection_id="",
        blocked=True,
    )
