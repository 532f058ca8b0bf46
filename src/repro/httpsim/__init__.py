"""HTTP substrate: the plan-driven fetch/transport engine and its facades.

Simulation model (shared by every module here):

* **Times** are absolute seconds from navigation start; **sizes** are bytes
  on the wire (body + header overhead).
* :mod:`~repro.httpsim.engine` is the single fetch/transport core: it owns
  per-origin connection bookkeeping (HTTP/1.1 pools of up to six
  connections, one multiplexed HTTP/2 connection), stream priorities,
  server push, and the shared-bottleneck bandwidth model, and drives each
  page load as one flat pass over the page's cached
  :class:`~repro.web.page.FetchPlan` (its breadth-first issue order).
* :mod:`~repro.httpsim.http1` / :mod:`~repro.httpsim.http2` are thin
  protocol facades over the engine, kept for direct composition;
  :mod:`~repro.httpsim.messages` is the request/response/record model;
  :mod:`~repro.httpsim.har` exports loads as HAR archives;
  :mod:`~repro.httpsim.cache` models the (disabled-during-capture) browser
  cache.
"""

from .cache import BrowserCache, CacheEntry
from .engine import (
    CRITICAL_PRIORITY,
    FetchEngine,
    FetchTransport,
    ONLOAD_DISPATCH_OVERHEAD,
    PushConfiguration,
    ScheduleResult,
    build_transport,
)
from .har import HARArchive
from .http1 import HTTP1Client, MAX_CONNECTIONS_PER_ORIGIN
from .http2 import HTTP2Client
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
    "ONLOAD_DISPATCH_OVERHEAD",
    "PushConfiguration",
    "ScheduleResult",
    "build_transport",
    "HARArchive",
    "HTTP1Client",
    "MAX_CONNECTIONS_PER_ORIGIN",
    "HTTP2Client",
    "HTTP1_REQUEST_HEADER_BYTES",
    "HTTP2_REQUEST_HEADER_BYTES",
    "RESPONSE_HEADER_BYTES",
    "FetchRecord",
    "HTTPRequest",
    "HTTPResponse",
]
