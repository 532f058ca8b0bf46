"""Network substrate: latency/bandwidth, DNS, connections.

This subpackage provides the first-principles network model underneath the
HTTP substrates and the webpeg capture tool (the synthetic counterpart of
the paper's EC2-hosted capture machines with Chrome network emulation; see
``docs/ARCHITECTURE.md`` for the full pipeline).

Simulation model and units — shared by every module here and by
:mod:`repro.httpsim`:

* **Times** are absolute **seconds** from navigation start (floats);
  latency models carry base RTT and jitter in seconds.
* **Sizes** are **bytes** on the wire; link capacities are declared in
  **bits per second** (profiles use an ``_mbps`` helper).
* The model is *fluid*, not packet-level: :class:`~repro.netsim.connection.Connection`
  computes per-response timings in closed form (handshakes, slow-start
  rounds, then rate-limited delivery), and every response body crosses one
  :class:`~repro.netsim.bandwidth.SharedLink` FIFO per load, which
  conserves access-link capacity exactly.
* **Per-origin semantics**: the first request to an origin pays one DNS
  resolution (:mod:`~repro.netsim.dns`, with webpeg's primer-load warm
  cache) and a TCP (+TLS) handshake; per-origin RTTs derive from the
  profile baseline via a stable multiplier
  (:func:`~repro.netsim.latency.origin_latency`).
"""

from .bandwidth import BandwidthModel, SharedLink
from .connection import (
    Connection,
    TransferTiming,
    INITIAL_CWND_SEGMENTS,
    MAX_CWND_SEGMENTS,
    MSS_BYTES,
)
from .dns import DNSLookupResult, DNSRecord, DNSResolver
from .latency import LatencyModel, origin_latency
from .profiles import BUILTIN_PROFILES, NetworkProfile, get_profile, list_profiles

__all__ = [
    "BandwidthModel",
    "SharedLink",
    "Connection",
    "TransferTiming",
    "INITIAL_CWND_SEGMENTS",
    "MAX_CWND_SEGMENTS",
    "MSS_BYTES",
    "DNSLookupResult",
    "DNSRecord",
    "DNSResolver",
    "LatencyModel",
    "origin_latency",
    "BUILTIN_PROFILES",
    "NetworkProfile",
    "get_profile",
    "list_profiles",
]
