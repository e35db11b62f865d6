"""Kernel-tier benchmark: per-kernel micro timings, precision, tracking.

Three layers of measurement, written together to ``BENCH_kernels.json`` at
the repository root (committed, and uploaded as a CI artifact):

* **micro** — each :class:`repro.kernels.Backend` kernel timed on
  pipeline-shaped inputs, per available backend (numpy always; torch/cupy
  when installed) and per precision;
* **streaming** — the eigh-per-packet streaming path versus the
  :class:`~repro.aoa.subspace.SubspaceTracker`, packets per second and
  accuracy against ground truth on the same capture stream (gated: the
  tracker must be ≥ 1.3x at matched accuracy);
* **precision** — the figure-5-style end-to-end run in float64 versus
  float32 (synthesis + analysis), recording the measured speedup and the
  accuracy delta.

Timing gates compare ratios measured in the same process on the same inputs,
so they are machine-independent; absolute times are informational.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import print_report

from repro.aoa import AoAEstimator, EstimatorConfig
from repro.aoa.subspace import SubspaceTracker
from repro.arrays.geometry import OctagonalArray
from repro.kernels import available_backends, get_backend
from repro.testbed.environment import figure4_environment
from repro.testbed.scenario import SimulatorConfig
from repro.testbed.scenario import TestbedSimulator as Simulator

SEED = 42
STREAM_PACKETS = 120
E2E_PACKETS = 48
OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"

#: Acceptance gates (see ISSUE/ROADMAP): the tracker must beat the
#: eigh-per-packet streaming path by this factor at matched accuracy.
TRACKER_MIN_SPEEDUP = 1.3
TRACKER_MAX_ACCURACY_LOSS_DEG = 0.5
FLOAT32_MAX_ACCURACY_LOSS_DEG = 0.5


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _alternating_rounds(fns, rounds: int = 9) -> list:
    """Time each function once per round, the functions alternating.

    The host's speed drifts in stretches; within one round the functions
    run back to back, so they see the same stretch and the ratio of their
    times in that round compares the code, not the moments each was timed.
    Returns one list of times (one per function) per round.
    """
    times = []
    for _ in range(rounds):
        row = []
        for fn in fns:
            start = time.perf_counter()
            fn()
            row.append(time.perf_counter() - start)
        times.append(row)
    return times


def _circular_error(a: float, b: float) -> float:
    delta = abs(a - b) % 360.0
    return min(delta, 360.0 - delta)


# ---------------------------------------------------------------- micro layer
def _micro_inputs(rng: np.random.Generator, dtype):
    """Pipeline-shaped kernel inputs: 8 antennas, 64-packet batches."""
    cdtype = np.dtype(dtype)
    batch, n, t, angles = 64, 8, 1920, 360
    samples = [(rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))
                ).astype(cdtype) for _ in range(batch)]
    x = (rng.standard_normal((batch, n, n))
         + 1j * rng.standard_normal((batch, n, n))).astype(cdtype)
    hermitian = (x @ x.conj().transpose(0, 2, 1)
                 + n * np.eye(n, dtype=x.real.dtype)).astype(cdtype)
    steering = (rng.standard_normal((n, angles))
                + 1j * rng.standard_normal((n, angles))).astype(cdtype)
    signal = (rng.standard_normal((batch, n, 2))
              + 1j * rng.standard_normal((batch, n, 2))).astype(cdtype)
    waveforms = (rng.standard_normal((batch, 1, t))
                 + 1j * rng.standard_normal((batch, 1, t))).astype(cdtype)
    delays = (rng.random((batch, 3)) * 4).astype(
        np.float32 if cdtype == np.complex64 else np.float64)
    initials = (rng.random(batch * 3) * 2 * np.pi).astype(delays.dtype)
    steps = (rng.standard_normal((batch * 3, t)) * 0.01).astype(delays.dtype)
    spectra = (rng.standard_normal((batch, 64))
               + 1j * rng.standard_normal((batch, 64))).astype(cdtype)
    return {
        "samples": samples, "hermitian": hermitian, "steering": steering,
        "signal": signal, "waveforms": waveforms, "delays": delays,
        "initials": initials, "steps": steps, "spectra": spectra,
        "positions": OctagonalArray().element_positions,
        "wavelength": OctagonalArray().wavelength,
        "out_shape": (batch, 3, t),
    }


def _time_kernels(backend, inputs) -> dict:
    timings = {}
    timings["correlation_stack_ms"] = _best_of(
        lambda: backend.correlation_stack(inputs["samples"])) * 1e3
    timings["eigh_ms"] = _best_of(
        lambda: backend.eigh(inputs["hermitian"])) * 1e3
    timings["music_projection_ms"] = _best_of(
        lambda: backend.music_projection_power(inputs["signal"],
                                               inputs["steering"])) * 1e3
    timings["beamscan_numerator_ms"] = _best_of(
        lambda: backend.beamscan_numerator(inputs["hermitian"],
                                           inputs["steering"])) * 1e3
    timings["steering_stack_ms"] = _best_of(
        lambda: backend.steering_stack(inputs["positions"],
                                       np.linspace(-180, 180, 64),
                                       inputs["wavelength"])) * 1e3
    timings["fractional_delay_ms"] = _best_of(
        lambda: backend.fractional_delay(inputs["waveforms"], inputs["delays"],
                                         inputs["out_shape"])) * 1e3
    timings["phase_walk_ms"] = _best_of(
        lambda: backend.phase_walk(inputs["initials"], inputs["steps"])) * 1e3
    timings["ifft_ms"] = _best_of(lambda: backend.ifft(inputs["spectra"])) * 1e3
    return {name: round(value, 3) for name, value in timings.items()}


# --------------------------------------------------------------- measurements
@pytest.fixture(scope="module")
def kernel_tier_results():
    """Measure everything once, write the JSON, and share with the tests."""
    rng = np.random.default_rng(SEED)
    results = {
        "benchmark": "kernel_tier",
        "seed": SEED,
        "backends_available": available_backends(),
        "numpy": np.__version__,
    }
    with contextlib.suppress(TypeError):  # numpy < 1.25 without mode="dicts"
        build = np.show_config(mode="dicts")
        blas = build.get("Build Dependencies", {}).get("blas", {})
        results["blas"] = {key: blas[key] for key in ("name", "version")
                           if key in blas}

    # Micro kernels, per backend x precision.
    micro = {}
    for name, available in results["backends_available"].items():
        if not available:
            continue
        backend = get_backend(name)
        micro[name] = {
            "float64": _time_kernels(backend, _micro_inputs(rng, np.complex128)),
            "float32": _time_kernels(backend, _micro_inputs(rng, np.complex64)),
        }
    results["micro"] = micro

    # Streaming: eigh-per-packet vs subspace tracking on one capture stream.
    environment = figure4_environment()
    array = OctagonalArray()
    simulator = Simulator(environment, array, rng=SEED)
    captures = simulator.capture_burst_batch(1, STREAM_PACKETS,
                                             inter_packet_gap_s=0.01)
    calibration = simulator.calibration_table()
    truth = simulator.expected_client_bearing(1)

    def stream(config):
        estimator = AoAEstimator(array, config)
        return [estimator.process(capture, calibration=calibration)
                for capture in captures]

    exact_estimates = stream(EstimatorConfig())
    tracked_estimates = stream(EstimatorConfig(subspace_tracking=True))
    rounds = _alternating_rounds(
        [lambda: stream(EstimatorConfig()),
         lambda: stream(EstimatorConfig(subspace_tracking=True))])
    exact_s = min(exact for exact, _ in rounds)
    tracked_s = min(tracked for _, tracked in rounds)
    speedup = float(np.median([exact / tracked for exact, tracked in rounds]))

    def mean_error(estimates):
        return float(np.mean([_circular_error(e.bearing_deg, truth)
                              for e in estimates]))

    results["streaming"] = {
        "packets": STREAM_PACKETS,
        "eigh_per_packet_s": round(exact_s, 4),
        "subspace_tracker_s": round(tracked_s, 4),
        "packets_per_sec": {
            "eigh_per_packet": round(STREAM_PACKETS / exact_s, 1),
            "subspace_tracker": round(STREAM_PACKETS / tracked_s, 1),
        },
        # Median of the per-round ratios of the alternating timings.
        "speedup": round(speedup, 3),
        "mean_bearing_error_deg": {
            "eigh_per_packet": round(mean_error(exact_estimates), 4),
            "subspace_tracker": round(mean_error(tracked_estimates), 4),
        },
    }

    # Precision: float64 vs float32, synthesis + analysis end to end.
    def run_e2e(precision):
        sim = Simulator(environment, OctagonalArray(), rng=SEED,
                        config=SimulatorConfig(precision=precision))
        batch = sim.capture_burst_batch(1, E2E_PACKETS, inter_packet_gap_s=0.01)
        estimator = AoAEstimator(OctagonalArray(),
                                 EstimatorConfig(precision=precision))
        return estimator.process_batch(batch,
                                       calibration=sim.calibration_table())

    estimates64 = run_e2e("float64")
    estimates32 = run_e2e("float32")
    f64_s = _best_of(lambda: run_e2e("float64"))
    f32_s = _best_of(lambda: run_e2e("float32"))
    results["precision"] = {
        "packets": E2E_PACKETS,
        "float64_s": round(f64_s, 4),
        "float32_s": round(f32_s, 4),
        "speedup_float32": round(f64_s / f32_s, 3),
        "mean_bearing_error_deg": {
            "float64": round(mean_error(estimates64), 4),
            "float32": round(mean_error(estimates32), 4),
        },
        "max_bearing_error_deg": {
            "float64": round(max(_circular_error(e.bearing_deg, truth)
                                 for e in estimates64), 4),
            "float32": round(max(_circular_error(e.bearing_deg, truth)
                                 for e in estimates32), 4),
        },
    }

    OUTPUT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print_report(
        "kernel tier",
        "\n".join([
            f"backends available:       {results['backends_available']}",
            f"streaming eigh/packet:    "
            f"{results['streaming']['packets_per_sec']['eigh_per_packet']:8.0f} pkt/s",
            f"streaming tracker:        "
            f"{results['streaming']['packets_per_sec']['subspace_tracker']:8.0f} pkt/s "
            f"({results['streaming']['speedup']:.2f}x)",
            f"float32 e2e speedup:      {results['precision']['speedup_float32']:.2f}x",
            f"tracker mean error:       "
            f"{results['streaming']['mean_bearing_error_deg']['subspace_tracker']:.2f} deg "
            f"(exact {results['streaming']['mean_bearing_error_deg']['eigh_per_packet']:.2f})",
            f"float32 mean error:       "
            f"{results['precision']['mean_bearing_error_deg']['float32']:.2f} deg "
            f"(float64 {results['precision']['mean_bearing_error_deg']['float64']:.2f})",
            f"wrote:                    {OUTPUT_PATH.name}",
        ]))
    return results


# ---------------------------------------------------------------------- gates
def test_bench_micro_kernels_cover_every_backend(kernel_tier_results):
    micro = kernel_tier_results["micro"]
    assert "numpy" in micro
    for name, precisions in micro.items():
        for precision in ("float64", "float32"):
            timings = precisions[precision]
            assert all(value >= 0 for value in timings.values()), (name, precision)
            assert "correlation_stack_ms" in timings
            assert "eigh_ms" in timings


def test_bench_subspace_tracker_speedup_gate(kernel_tier_results):
    streaming = kernel_tier_results["streaming"]
    assert streaming["speedup"] >= TRACKER_MIN_SPEEDUP, (
        f"subspace tracker streaming speedup {streaming['speedup']:.2f}x "
        f"fell below the {TRACKER_MIN_SPEEDUP}x gate")


def test_bench_subspace_tracker_matched_accuracy(kernel_tier_results):
    errors = kernel_tier_results["streaming"]["mean_bearing_error_deg"]
    assert errors["subspace_tracker"] <= (
        errors["eigh_per_packet"] + TRACKER_MAX_ACCURACY_LOSS_DEG)


def test_bench_float32_accuracy_delta_recorded(kernel_tier_results):
    precision = kernel_tier_results["precision"]
    assert precision["speedup_float32"] > 0
    delta = (precision["mean_bearing_error_deg"]["float32"]
             - precision["mean_bearing_error_deg"]["float64"])
    assert delta <= FLOAT32_MAX_ACCURACY_LOSS_DEG, (
        f"float32 mean bearing error degraded by {delta:.2f} deg")


def test_bench_json_artifact_written(kernel_tier_results):
    written = json.loads(OUTPUT_PATH.read_text())
    assert written["benchmark"] == "kernel_tier"
    assert written["streaming"]["speedup"] == \
        kernel_tier_results["streaming"]["speedup"]
