"""repro.serve — the real-time streaming decision service.

An asyncio layer that turns the offline :class:`~repro.api.Deployment`
pipeline into a live service: packet requests arrive over JSON-lines TCP or
websocket, a :class:`~repro.serve.batcher.MicroBatcher` groups them into the
``run_batch`` fast path under a latency budget, and decisions stream back
out of a bounded :class:`~repro.serve.backlog.Backlog` ring per tenant.
Because decisions are batch-partition invariant, the streamed events are
byte-identical to an offline replay of the same requests —
``python -m repro.serve.smoke`` proves it against a running server.

Start one from the CLI::

    repro serve --tenant main=fence --train 5 --port 8765 --announce serve.json
"""

from repro.serve.backlog import Backlog, BacklogSubscription
from repro.serve.batcher import MicroBatcher
from repro.serve.ingest import (
    PacketRequest,
    replay_events,
    synthesize_packet,
    synthesize_packets,
)
from repro.serve.service import SecureAngleService, ServeConfig, run_service
from repro.serve.tenants import Tenant, TenantConfig, resolve_scenario

__all__ = [
    "Backlog",
    "BacklogSubscription",
    "MicroBatcher",
    "PacketRequest",
    "SecureAngleService",
    "ServeConfig",
    "Tenant",
    "TenantConfig",
    "replay_events",
    "resolve_scenario",
    "run_service",
    "synthesize_packet",
    "synthesize_packets",
]
