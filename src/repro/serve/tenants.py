"""Multi-tenant deployments: named pipelines sharing one event loop.

A *tenant* is one named :class:`~repro.api.deployment.Deployment` wired into
the service: its own ingest FIFO (:class:`~repro.serve.batcher.MicroBatcher`),
its own event ring (:class:`~repro.serve.backlog.Backlog`), its own worker
coroutine — but one shared process.  Tenants compiled from similar scenarios
share the process-global memoized manifold/steering tables (PR 1's kernel
caches key on array geometry, not on the owning deployment), so ten tenants
of the same floor plan cost one table build.

Determinism contract: :meth:`Tenant.submit` assigns each request a
**monotonic per-tenant sequence number at submission time**, the worker
carries it through whatever micro-batches the budget produced, and stamps it
into the event's ``index``.  Streamed events therefore carry exactly the
indices :func:`~repro.serve.ingest.replay_events` assigns offline, making
"byte-identical to ``run_batch``" a checkable equality instead of a slogan.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.api.deployment import Deployment
from repro.api.events import PacketEvent
from repro.api.scenarios import SCENARIOS
from repro.api.spec import ScenarioSpec
from repro.serve.backlog import Backlog
from repro.serve.batcher import MicroBatcher
# The worker synthesizes whole micro-batches; the per-request name stays
# bound here because perfbench's tracer wraps this module's binding of it.
from repro.serve.ingest import PacketRequest, synthesize_packet, synthesize_packets  # noqa: F401

__all__ = ["Tenant", "TenantConfig", "resolve_scenario"]


def resolve_scenario(token: str) -> ScenarioSpec:
    """A scenario from a registry name (``fence``) or a JSON file path.

    Anything containing a path separator or ending in ``.json`` is loaded as
    a :class:`ScenarioSpec` document; everything else goes through the
    :data:`~repro.api.scenarios.SCENARIOS` registry (with its did-you-mean
    errors).
    """
    if token.endswith(".json") or "/" in token or "\\" in token:
        return ScenarioSpec.load_json(Path(token))
    factory = SCENARIOS.get(token)
    spec = factory()  # type: ignore[operator]
    assert isinstance(spec, ScenarioSpec)
    return spec


@dataclass(frozen=True)
class TenantConfig:
    """Everything needed to stand up (or offline-replay) one tenant."""

    name: str
    spec: ScenarioSpec
    #: Client ids whose certified signatures are trained at startup, in
    #: order — part of the deterministic state the offline replay rebuilds.
    train: Tuple[int, ...] = ()
    update_signatures: bool = True
    primary_ap: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name or "=" in self.name:
            raise ValueError(f"invalid tenant name {self.name!r}")

    @classmethod
    def from_cli_arg(cls, text: str, train: Tuple[int, ...] = ()) -> "TenantConfig":
        """Parse the CLI's ``NAME=SCENARIO`` form (scenario name or .json)."""
        name, separator, token = text.partition("=")
        if not separator or not name or not token:
            raise ValueError(
                f"tenant must look like NAME=SCENARIO, got {text!r}")
        return cls(name=name, spec=resolve_scenario(token), train=train)

    def build(self) -> Deployment:
        """Compile the deployment and train the configured signatures.

        The one constructor both the live service and the offline reference
        use — byte identity requires identical starting state.
        """
        deployment = Deployment(self.spec)
        for client_id in self.train:
            deployment.train(deployment.clients[client_id].address, client_id)
        return deployment

    def describe(self) -> Dict[str, Any]:
        """The wire form served by the ``tenants`` op.

        Carries the full scenario document so a client can rebuild the
        identical deployment and verify the stream against its own replay.
        """
        return {
            "name": self.name,
            "scenario": json.loads(self.spec.to_json()),
            "train": list(self.train),
            "update_signatures": self.update_signatures,
            "primary_ap": self.primary_ap,
        }


@dataclass
class TenantStats:
    """Counters the ``stats`` op reports per tenant."""

    submitted: int = 0
    published: int = 0
    batches: int = 0
    #: Rolling submit->publish wall-clock latencies (seconds), newest last.
    recent_latency_s: Deque[float] = field(
        default_factory=lambda: deque(maxlen=4096))

    def snapshot(self) -> Dict[str, Any]:
        latencies = sorted(self.recent_latency_s)
        return {
            "submitted": self.submitted,
            "published": self.published,
            "batches": self.batches,
            "mean_batch": (self.published / self.batches
                           if self.batches else 0.0),
            "p50_latency_s": _percentile(latencies, 0.50),
            "p99_latency_s": _percentile(latencies, 0.99),
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


class Tenant:
    """One live pipeline: ingest FIFO -> micro-batches -> event backlog."""

    def __init__(self, config: TenantConfig, *, max_batch: int = 16,
                 max_delay_s: float = 0.02, max_pending: int = 4096,
                 backlog_capacity: int = 1024) -> None:
        self.config = config
        self.deployment = config.build()
        self.batcher = MicroBatcher(max_batch=max_batch,
                                    max_delay_s=max_delay_s,
                                    max_pending=max_pending)
        self.backlog = Backlog(capacity=backlog_capacity)
        self.stats = TenantStats()
        self._next_seq = 0
        self._worker: Optional["asyncio.Task[None]"] = None

    @property
    def name(self) -> str:
        return self.config.name

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spawn the worker coroutine on the running loop (idempotent)."""
        if self._worker is None:
            self._worker = asyncio.get_running_loop().create_task(
                self._run(), name=f"tenant-{self.name}")

    async def stop(self) -> None:
        """Flush pending requests, close the backlog, and join the worker."""
        self.batcher.close()
        if self._worker is not None:
            await self._worker
            self._worker = None
        elif not self.backlog.closed:
            self.backlog.close()

    # ----------------------------------------------------------------- ingest
    async def submit(self, request: PacketRequest) -> int:
        """Enqueue one request; returns its per-tenant sequence number.

        The sequence number is assigned here, at submission, so the order
        clients observe is the order the offline replay numbers — however
        the micro-batcher later chops the queue.  Blocks only when the
        ingest FIFO is at capacity (backpressure).
        """
        seq = self._next_seq
        self._next_seq += 1
        arrival_s = asyncio.get_running_loop().time()
        await self.batcher.put((seq, request, arrival_s))
        self.stats.submitted += 1
        return seq

    # ----------------------------------------------------------------- worker
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self.batcher.next_batch()
            if not batch:
                break
            # Synthesis + analysis are pure CPU work on the loop thread; a
            # micro-batch is bounded by max_batch, so the stall per pass is
            # bounded too.  Running inline (not in a thread pool) keeps every
            # tenant's rng and kernel-cache access single-threaded, which the
            # determinism contract depends on.
            packets = synthesize_packets(
                self.deployment, [request for _, request, _ in batch])
            events = self.deployment.run_batch(
                packets, primary_ap=self.config.primary_ap,
                update_signatures=self.config.update_signatures)
            done_s = loop.time()
            for (seq, _, arrival_s), event in zip(batch, events):
                self.backlog.publish(replace(event, index=seq))
                self.stats.published += 1
                self.stats.recent_latency_s.append(done_s - arrival_s)
            self.stats.batches += 1
            # One checkpoint per micro-batch keeps slow consumers and new
            # producers responsive even under a saturating ingest stream.
            await asyncio.sleep(0)
        self.backlog.close()
