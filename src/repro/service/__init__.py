"""Service mode: a long-lived query server over the warm caches.

The package splits along transport-independent seams:

* ``protocol`` — the versioned line-delimited JSON wire format and its
  validation (pure functions, no sockets);
* ``scheduler`` — the deduping compile pool and the sweep coalescer
  (pure threading, no sockets);
* ``server`` — ``ServiceFrontEnd``, the one request front end, and
  ``ReproServer``, its in-process backend (schedulers into the ``wmc``
  auto policy and two-tier circuit cache); ``dispatch`` and ``worker``
  put the same front end over a pool of worker processes;
* ``tenants`` — token authentication and per-tenant quotas (request
  rate windows + cumulative compile budgets);
* ``metrics`` — the Prometheus-style text rendering of ``stats``;
* ``client`` — ``ServiceClient``, the library behind ``repro query``;
* ``smoke`` — ``python -m repro.service.smoke``, the end-to-end check
  CI runs against a real server subprocess.

Start one with ``repro serve``; talk to it with ``repro query`` or
``ServiceClient``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.scheduler import CompilePool, SweepCoalescer
from repro.service.server import ReproServer
from repro.service.tenants import TenantQuota, TenantRegistry

__all__ = [
    "CompilePool",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproServer",
    "ServiceClient",
    "ServiceError",
    "SweepCoalescer",
    "TenantQuota",
    "TenantRegistry",
]
