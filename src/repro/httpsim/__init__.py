"""HTTP substrate: the plan-driven fetch/transport engine and its data model.

Simulation model (shared by every module here):

* **Times** are absolute seconds from navigation start; **sizes** are bytes
  on the wire (body + header overhead).
* :mod:`~repro.httpsim.engine` is the single fetch/transport core: it owns
  per-origin connection bookkeeping (HTTP/1.1 pools of up to six
  connections, one multiplexed HTTP/2 connection), stream priorities,
  server push, and the shared-bottleneck bandwidth model, and drives each
  page load as one flat pass over the page's cached
  :class:`~repro.web.page.FetchPlan` (its breadth-first issue order):
  :func:`~repro.httpsim.engine.build_transport` configures a
  :class:`~repro.httpsim.engine.FetchTransport` for one protocol, and
  :class:`~repro.httpsim.engine.FetchEngine` drives a page through it.
* :mod:`~repro.httpsim.messages` is the request/response/record model;
  :mod:`~repro.httpsim.har` exports loads as HAR archives;
  :mod:`~repro.httpsim.cache` models the (disabled-during-capture) browser
  cache.
"""

from .cache import BrowserCache, CacheEntry
from .engine import (
    CRITICAL_PRIORITY,
    FetchEngine,
    FetchTransport,
    MAX_CONNECTIONS_PER_ORIGIN,
    ONLOAD_DISPATCH_OVERHEAD,
    PushConfiguration,
    ScheduleResult,
    build_transport,
)
from .har import HARArchive
from .messages import (
    HTTP1_REQUEST_HEADER_BYTES,
    HTTP2_REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    FetchRecord,
    HTTPRequest,
    HTTPResponse,
)

__all__ = [
    "BrowserCache",
    "CacheEntry",
    "CRITICAL_PRIORITY",
    "FetchEngine",
    "FetchTransport",
    "MAX_CONNECTIONS_PER_ORIGIN",
    "ONLOAD_DISPATCH_OVERHEAD",
    "PushConfiguration",
    "ScheduleResult",
    "build_transport",
    "HARArchive",
    "HTTP1_REQUEST_HEADER_BYTES",
    "HTTP2_REQUEST_HEADER_BYTES",
    "RESPONSE_HEADER_BYTES",
    "FetchRecord",
    "HTTPRequest",
    "HTTPResponse",
]
