"""Per-layer spans for the traced benchmark run.

The traced run installs wrappers around the public functions of each layer
(:data:`SPANS`), from the benchmark's own files, only for its own window; the
untraced run never sees them.  A wrapper records one span per call: inclusive
time, self time (inclusive minus the spans it caused) and the number of
packets the call handled.  Everything stays in memory and is reduced to the
``per_layer`` metrics of ``BENCHMARK.json`` by :func:`layer_metrics`.

Scalar synthesis calls (``capture_from_position``, ``propagate``,
``ArrayReceiver.capture``, ``make_packet_waveform``) are recorded under the
name of their batched counterpart as batches of one, so a layer's metric
covers both paths.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.backend import get_backend

#: Counts the packets one call handled, from its arguments and result.
Count = Callable[[Tuple[Any, ...], Any], int]


def _one(args: Tuple[Any, ...], result: Any) -> int:
    return 1


def _len_arg(position: int) -> Count:
    return lambda args, result: len(args[position])


def _len_result(args: Tuple[Any, ...], result: Any) -> int:
    return len(result)


#: (module, class or None, attribute, span name, packet count).  Names bound
#: with ``from x import f`` are wrapped where the caller looks them up.
SPANS: Sequence[Tuple[str, Optional[str], str, str, Count]] = (
    # synthesis
    ("repro.api.deployment", "Deployment", "traffic", "api.traffic", _len_result),
    ("repro.testbed.scenario", "TestbedSimulator", "capture_batch",
     "testbed.capture_batch", _len_arg(1)),
    ("repro.testbed.scenario", "TestbedSimulator", "capture_from_position",
     "testbed.capture_from_position", _one),
    ("repro.testbed.scenario", None, "make_packet_waveforms",
     "phy.make_packet_waveforms", _len_arg(0)),
    ("repro.testbed.scenario", None, "make_packet_waveform",
     "phy.make_packet_waveforms", _one),
    ("repro.channel.channel", "ArrayChannel", "propagate_batch",
     "channel.propagate_batch", _len_arg(1)),
    ("repro.channel.channel", "ArrayChannel", "propagate",
     "channel.propagate_batch", _one),
    ("repro.hardware.receiver", "ArrayReceiver", "capture_batch",
     "hardware.capture_batch", _len_result),
    ("repro.hardware.receiver", "ArrayReceiver", "capture",
     "hardware.capture_batch", _one),
    # AoA
    ("repro.core.access_point", "SecureAngleAP", "analyze", "aoa.analyze", _one),
    ("repro.core.access_point", "SecureAngleAP", "analyze_batch",
     "aoa.analyze_batch", _len_arg(1)),
    # policy
    ("repro.core.access_point", "SecureAngleAP", "check_packet",
     "core.check_packet", _one),
    ("repro.core.access_point", "SecureAngleAP", "decide", "core.decide", _one),
    ("repro.api.deployment", None, "signatures_from_pseudospectra",
     "core.signatures", _len_arg(0)),
    ("repro.core.fence", "VirtualFence", "check_bearings", "core.fence", _one),
    ("repro.core.fence", None, "triangulate_bearings", "core.triangulate", _one),
    ("repro.api.deployment", None, "triangulate_bearings", "core.triangulate", _one),
    # serve
    ("repro.serve.tenants", None, "synthesize_packet", "serve.synthesize", _one),
    ("repro.api.deployment", "Deployment", "run_batch", "serve.run_batch",
     _len_result),
    # campaign
    ("repro.campaign.engine", None, "execute_shard", "campaign.execute_shard", _one),
    ("repro.campaign.store", "ResultStore", "save_record",
     "campaign.store_write", _one),
    ("repro.campaign.store", "ResultStore", "save_progress",
     "campaign.store_write", _one),
    ("repro.campaign.engine", None, "_merge", "campaign.merge", _one),
)

#: Compute-backend kernels, wrapped on the class of the resolved backend.
KERNELS = ("fractional_delay", "phase_walk", "correlation_stack", "eigh",
           "music_projection_power")


class SpanStats:
    """Totals of one span name over the traced window."""

    __slots__ = ("calls", "items", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span recorder; wrappers are live only inside :meth:`installed`."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = defaultdict(SpanStats)
        #: Named samples recorded at layer boundaries (not spans).
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Recording is switched off around untimed work inside the window.
        self.active = False
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _enter(self) -> List[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: List[float], items: int) -> None:
        elapsed = time.perf_counter() - frame[0]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        stats = self.stats[name]
        stats.calls += 1
        stats.items += items
        stats.total_s += elapsed
        stats.self_s += elapsed - frame[1]

    # ------------------------------------------------------------- wrappers
    def _span(self, original: Callable, name: str, count: Count) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            frame = tracer._enter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer._exit(name, frame,
                             0 if result is None else count(args, result))
        return wrapper

    def _process(self, original: Callable) -> Callable:
        """``Deployment.process``: stream mode does its work inside each
        ``next()`` of the returned generator, so the span wraps those."""
        tracer = self

        def stream(events: Any) -> Any:
            while True:
                if not tracer.active:
                    event = next(events, None)
                else:
                    frame = tracer._enter()
                    event = next(events, None)
                    tracer._exit("api.process", frame, 0 if event is None else 1)
                if event is None:
                    return
                yield event

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            if inspect.isgenerator(result):
                return stream(result)
            if not tracer.active:
                return result
            frame = tracer._enter()
            events = list(result)
            tracer._exit("api.process", frame, len(events))
            return iter(events)
        return wrapper

    def _next_batch(self, original: Callable) -> Callable:
        """``MicroBatcher.next_batch``: queue wait and batch size.

        Items are the tenant's ``(seq, request, arrival_s)`` triples, with
        ``arrival_s`` on the event loop's clock.
        """
        tracer = self

        @functools.wraps(original)
        async def wrapper(batcher: Any) -> Any:
            batch = await original(batcher)
            if tracer.active and batch:
                now = asyncio.get_running_loop().time()
                tracer.samples["serve.queue_wait_ms"].extend(
                    (now - arrival_s) * 1e3 for _, _, arrival_s in batch)
                tracer.samples["serve.batch_size"].append(len(batch))
            return batch
        return wrapper

    # --------------------------------------------------------- installation
    def _patch(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Wrap every traced function (idempotent per tracer)."""
        if self._patches:
            return
        for module_name, class_name, attribute, name, count in SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self._patch(owner, attribute,
                        self._span(owner.__dict__[attribute], name, count))
        deployment = importlib.import_module("repro.api.deployment").Deployment
        self._patch(deployment, "process", self._process(deployment.__dict__["process"]))
        batcher = importlib.import_module("repro.serve.batcher").MicroBatcher
        self._patch(batcher, "next_batch",
                    self._next_batch(batcher.__dict__["next_batch"]))
        backend = type(get_backend())
        for kernel in KERNELS:
            self._patch(backend, kernel,
                        self._span(backend.__dict__[kernel], f"kernels.{kernel}", _one))

    def uninstall(self) -> None:
        """Restore every wrapped function, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, *, packets: int, shards: int,
                  window_s: float, untraced_cost_s: float,
                  traced_cost_s: float, gen_late_ms: float,
                  pending_max: int) -> Dict[str, float]:
    """Reduce a traced window to the ``per_layer`` metrics.

    ``packets`` is the number of decisions the window completed and
    ``shards`` the campaign shards it ran; ``*_cost_s`` are the two windows'
    costs that ``trace.overhead_frac`` compares.  A layer the workload never
    reaches reports 0.
    """
    stats = tracer.stats
    per_pkt = max(packets, 1)

    def total_ms(name: str) -> float:
        return stats[name].total_s * 1e3

    def per_call(name: str, value: float) -> float:
        return value / stats[name].calls if stats[name].calls else 0.0

    metrics: Dict[str, float] = {}
    for name in ("testbed.capture_batch", "testbed.capture_from_position",
                 "phy.make_packet_waveforms", "channel.propagate_batch",
                 "hardware.capture_batch", "aoa.analyze", "aoa.analyze_batch",
                 "core.check_packet", "core.signatures", "core.decide",
                 "core.fence", "core.triangulate"):
        metrics[f"{name}.ms_per_pkt"] = total_ms(name) / per_pkt
    synthesis_calls = (stats["testbed.capture_batch"].calls
                       + stats["testbed.capture_from_position"].calls)
    synthesized = (stats["testbed.capture_batch"].items
                   + stats["testbed.capture_from_position"].items)
    metrics["testbed.capture_batch.pkts_per_call"] = (
        synthesized / synthesis_calls if synthesis_calls else 0.0)
    metrics["aoa.analyze_batch.pkts_per_call"] = per_call(
        "aoa.analyze_batch", stats["aoa.analyze_batch"].items)
    for kernel in KERNELS:
        name = f"kernels.{kernel}"
        metrics[f"{name}.ms_per_call"] = per_call(name, total_ms(name))
        metrics[f"{name}.calls_per_pkt"] = stats[name].calls / per_pkt
    for name in ("api.process", "api.traffic"):
        metrics[f"{name}.self_ms_per_pkt"] = stats[name].self_s * 1e3 / per_pkt

    waits = tracer.samples["serve.queue_wait_ms"]
    sizes = tracer.samples["serve.batch_size"]
    metrics["serve.queue_wait_ms.p50"] = _percentile(waits, 50)
    metrics["serve.queue_wait_ms.p99"] = _percentile(waits, 99)
    metrics["serve.batch_size.mean"] = float(np.mean(sizes)) if sizes else 0.0
    metrics["serve.synthesize.ms_per_pkt"] = total_ms("serve.synthesize") / per_pkt
    metrics["serve.run_batch.ms_per_pkt"] = total_ms("serve.run_batch") / per_pkt
    busy_s = stats["serve.synthesize"].total_s + stats["serve.run_batch"].total_s
    metrics["serve.worker_busy_frac"] = busy_s / window_s
    metrics["serve.gen_late_ms.max"] = gen_late_ms
    metrics["serve.pending.max"] = float(pending_max)

    per_shard = max(shards, 1)
    metrics["campaign.execute_shard.ms_per_shard"] = (
        total_ms("campaign.execute_shard") / per_shard if shards else 0.0)
    metrics["campaign.store_write.ms_per_shard"] = (
        total_ms("campaign.store_write") / per_shard if shards else 0.0)
    metrics["campaign.merge.ms"] = per_call("campaign.merge", total_ms("campaign.merge"))

    metrics["trace.overhead_frac"] = traced_cost_s / untraced_cost_s - 1.0
    metrics["trace.coverage_frac"] = (
        sum(span.self_s for span in stats.values()) / window_s)
    return metrics
