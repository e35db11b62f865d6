"""SecureAngle benchmark: one command, four workloads, every metric by name.

    python3 perfbench/run.py --workload burst_spoofing --seed 1 --seconds 10 --trace 0

Runs one workload of ``BENCHMARK.json`` from the root of a source checkout
(the library is imported from ``src/``).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` additionally runs a traced window over the
same inputs and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric with its unit and the
run's provenance (thread pin, BLAS build, backend, precision, seed, length).
"""

import os
import sys

# BLAS and OpenMP read these once, when numpy loads: pin before any import
# that could load numpy.  The channel's tiny GEMMs get slower, not faster,
# when OpenBLAS splits them across threads.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"
# Compile the library in memory: the checkout's bytecode caches stay as found.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
#: Set-up takes 5-250 ms, so one build is too noisy: build this many times
#: before the window and as many after it, and report the median of the
#: builds HostSpeed selects (those the host ran at full speed).
SETUP_SAMPLES = 8


def _import_library() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library sources under {source}\n")
        sys.exit(2)
    sys.path.insert(0, str(source))


_import_library()

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

from repro.kernels.backend import get_backend  # noqa: E402
from repro.testbed.scenario import SimulatorConfig  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, HostSpeed, Window, Workload  # noqa: E402


def openblas_runtime() -> Tuple[Optional[int], Optional[str]]:
    """(threads, config) of the OpenBLAS numpy loaded, when it can be asked."""
    libraries = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for library in libraries:
        handle = ctypes.CDLL(str(library))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if threads is not None:
                threads.restype = ctypes.c_int
                text = None
                if config is not None:
                    config.restype = ctypes.c_char_p
                    text = config().decode()
                return threads(), text
    return None, None


def provenance(args: argparse.Namespace, workload: Workload) -> Dict[str, Any]:
    threads, openblas_config = openblas_runtime()
    pinned = {variable: os.environ.get(variable) for variable in THREAD_VARIABLES}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": pinned,
        "openblas_threads": threads,
        "pin_ok": all(value == "1" for value in pinned.values())
        and threads in (None, 1),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_runtime": openblas_config,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "backend": get_backend().name,
        "precision": SimulatorConfig().precision,
        "inputs": workload.input_digest(),
    }


def harrell_davis(values: List[float], q: float) -> float:
    """The Harrell-Davis estimate of quantile ``q``: a Beta-weighted mean of
    all order statistics.  Unlike a plain percentile it does not jump from
    one group of units to another (client and attacker bursts, say) when
    the quantile falls between them."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def end_to_end(workload: Workload, window: Window, host: HostSpeed,
               setup_s: float) -> Dict[str, float]:
    """Timings over the host-fast units of the window (see HostSpeed)."""
    latencies = window.host_fast_latencies_ms(host)
    metrics = {
        "setup_s": setup_s,
        "throughput_pkt_s": window.host_fast_throughput(host),
        "latency_p50_ms": harrell_davis(latencies, 0.5),
        "latency_tail_ms": harrell_davis(latencies, workload.tail_pct / 100),
        "peak_rss_mb": window.rss_mb,
        "ok_frac": 1.0 - window.failed / window.attempted,
    }
    metrics.update(window.quality.metrics())
    return metrics


def measure(workload: Workload, seconds: float,
            trace: bool) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Any], bool, Window]:
    host = HostSpeed()
    setup_times: List[float] = []
    setup_probes: List[Tuple[float, float]] = []

    def build() -> Any:
        gc.collect()
        with host.bracket(setup_probes):
            start = time.perf_counter()
            system = workload.setup()
            setup_times.append(time.perf_counter() - start)
        return system

    for _ in range(SETUP_SAMPLES):
        system = build()
    window = workload.run(system, host, seconds=seconds)
    del system
    for _ in range(SETUP_SAMPLES):
        build()
    fast_setups = [elapsed for elapsed, keep in
                   zip(setup_times, host.select(setup_probes)) if keep]
    e2e = end_to_end(workload, window, host, statistics.median(fast_setups))
    correct = window.mismatches == 0 and window.verified > 0
    fast_units = window.host_fast_units(host)
    notes: Dict[str, Any] = {
        "latency_samples": len(window.latencies_ms),
        "host_fast_samples": len(window.host_fast_latencies_ms(host)),
        "host_fast_units": sum(fast_units),
        "host_fast_setups": len(fast_setups),
        "probe_ms_threshold": host.threshold_ms(),
        "probe_ms_quartiles": statistics.quantiles(host.samples_ms, n=4),
        "latency_sample": workload.sample,
        "latency_tail_pct": workload.tail_pct,
        "units": window.units,
        "verified": window.verified,
        "mismatches": window.mismatches,
        "gen_late_ms_max": window.gen_late_ms,
        "pending_max": window.pending_max,
        "backlog_grew": window.backlog_grew,
        "setup_samples_s": setup_times,
    }
    layers: Dict[str, float] = {}
    if trace:
        tracer = Tracer()
        system = workload.setup()
        tracer.install()
        try:
            traced = workload.run(system, HostSpeed(), units=window.units,
                                  tracer=tracer, verify=False)
        finally:
            tracer.uninstall()
        identical = traced.digests == window.digests
        notes["traced_identical"] = identical
        correct = correct and identical
        open_loop = workload.name == "serve_bursty"
        layers = layer_metrics(
            tracer, packets=traced.packets, shards=traced.shards,
            window_s=traced.busy_s,
            untraced_cost_s=window.cpu_s if open_loop else window.busy_s,
            traced_cost_s=traced.cpu_s if open_loop else traced.busy_s,
            gen_late_ms=traced.gen_late_ms, pending_max=traced.pending_max)
    return e2e, layers, notes, correct, window


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_units = {section: {entry["name"]: entry["unit"]
                                for entry in declared[section]}
                      for section in ("end_to_end", "per_layer")}
    units = declared_units["per_layer" if args.trace else "end_to_end"]

    work_dir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        e2e, layers, notes, correct, window = measure(workload, args.seconds,
                                                      bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    info = provenance(args, workload)
    info.update(notes)
    if not info["pin_ok"]:
        sys.stderr.write("perfbench: BLAS thread pin did not take: "
                         f"{info['thread_env']} threads={info['openblas_threads']}\n")

    chosen = layers if args.trace else e2e
    missing = sorted(set(units) - set(chosen))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for section, values in (("end_to_end", e2e), ("per_layer", layers)):
        for name, value in values.items():
            print(f"{name:40s} {value:14.6g} {declared_units[section][name]}")
    print("provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(window.attempted),
        "failed": int(window.failed),
        "metrics": {name: {"value": float(chosen[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
