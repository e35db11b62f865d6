"""The batched AoA processing engine.

The per-packet pipeline spends most of its time in fixed Python and LAPACK
call overhead: every capture used to re-derive the angle grid, rebuild the
steering matrix, and run its own eigendecompositions.  The batched engine
amortises all of that across a batch: correlation matrices are stacked into a
(B, N, N) tensor, conditioned (calibration, forward-backward averaging,
diagonal loading) with broadcast operations, eigendecomposed with one stacked
``np.linalg.eigh`` call, and evaluated for all B packets against the array's
cached steering matrix with batched matrix products.  Peak extraction runs
vectorised over the (B, A) value stack.

Two algebraic shortcuts keep the per-packet work flop-bound rather than
overhead-bound:

* Per-chain calibration is a diagonal unitary ``C``, so instead of scaling
  every time sample, the raw correlation matrix is corrected as ``C R C^H``
  — an (N, N) operation instead of an (N, T) one.  (Spatial smoothing breaks
  this commutation, so the smoothing path calibrates samples directly.)
* The eigenvector basis is orthonormal, so the MUSIC noise-subspace power
  ``sum_noise |v_k^H a|^2`` equals ``||a||^2 - sum_signal |v_k^H a|^2``; with
  at most ``max_sources`` signal vectors this projects 1-3 vectors per packet
  instead of N-1.  (Verified safe: simulated pseudospectrum troughs sit many
  orders of magnitude above the float cancellation floor.)

Every item of a batch is computed independently by the underlying BLAS/LAPACK
loops, so ``process_batch([c])`` is bit-for-bit identical to processing ``c``
inside any larger batch — and :class:`~repro.aoa.estimator.AoAEstimator` is a
thin B=1 wrapper over this engine, so the scalar and batched paths cannot
diverge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aoa.estimator import AoAEstimate, Calibrations, EstimatorConfig
from repro.aoa.peaks import find_peaks_batch
from repro.aoa.source_count import estimate_num_sources
from repro.aoa.spectrum import (
    PEAK_MIN_RELATIVE_HEIGHT,
    Pseudospectrum,
    grid_peak_params,
)
from repro.arrays.geometry import AntennaArray, UniformLinearArray
from repro.calibration.table import CalibrationTable
from repro.hardware.capture import Capture
from repro.kernels.backend import complex_dtype, get_backend
from repro.phy.schmidl_cox import SchmidlCoxDetector


class BatchAoAEstimator:
    """Estimate angle-of-arrival pseudospectra for whole batches of captures.

    The engine accepts the same :class:`~repro.aoa.estimator.EstimatorConfig`
    as the scalar facade and honours every knob (method, conditioning, source
    counting, packet detection, calibration policy); it simply evaluates all
    captures of a batch through stacked linear algebra.
    """

    def __init__(self, array: AntennaArray, config: Optional[EstimatorConfig] = None):
        self.array = array
        self.config = config if config is not None else EstimatorConfig()
        self._detector: Optional[SchmidlCoxDetector] = None
        #: Scan arrays for spatially smoothed (shrunken) correlation matrices,
        #: keyed by subarray size, so their steering caches persist.
        self._scan_arrays: Dict[int, AntennaArray] = {}
        self._backend = get_backend(self.config.backend)
        self._cdtype = complex_dtype(self.config.precision)
        #: Reduced-precision casts of the (cached, complex128) steering
        #: matrices, keyed by matrix size, so float32 runs cast once.
        self._steering_casts: Dict[int, np.ndarray] = {}
        self._tracker = None  # lazy SubspaceTracker (subspace_tracking only)

    # ------------------------------------------------------------------ public
    def process(self, capture: Capture,
                calibration: Optional[CalibrationTable] = None) -> AoAEstimate:
        """Process a single capture (a batch of one)."""
        return self.process_batch([capture], calibration=calibration)[0]

    def process_batch(self, captures: Sequence[Capture],
                      calibration: Calibrations = None) -> List[AoAEstimate]:
        """Process a batch of captures into one :class:`AoAEstimate` each.

        Raw captures are calibrated on the fly when ``calibration`` is given:
        one table for the whole batch, or a sequence of one (optional) table
        per capture, so access points that share an array and configuration
        share one call with each capture corrected by its own AP's table.
        Otherwise every capture must already be calibrated (unless the
        configuration disables the check, as the calibration ablation does).
        """
        captures = list(captures)
        if not captures:
            return []
        if calibration is None or isinstance(calibration, CalibrationTable):
            tables = [calibration] * len(captures)
        else:
            tables = list(calibration)
            if len(tables) != len(captures):
                raise ValueError(f"got {len(tables)} calibration tables for "
                                 f"{len(captures)} captures")
        distinct = {id(table): table for table in tables if table is not None}
        factors = {key: table.correction_factors() for key, table in distinct.items()}
        samples_list: List[np.ndarray] = []
        corrections: List[Optional[np.ndarray]] = []
        for capture, table in zip(captures, tables):
            samples, correction = self._validated_samples(
                capture, table, factors.get(id(table)))
            samples_list.append(samples)
            corrections.append(correction)
        packet_starts: List[Optional[int]] = [None] * len(captures)
        if self.config.detect_packet:
            for index, (capture, samples) in enumerate(zip(captures, samples_list)):
                samples_list[index], packet_starts[index] = self._extract_packet(
                    capture, samples)
        if self.config.smoothing_subarray is not None:
            # Smoothing mixes different chain subsets per subarray, which does
            # not commute with a matrix-level correction: calibrate samples.
            samples_list = [
                samples if correction is None
                else samples * correction.astype(samples.dtype, copy=False)[:, None]
                for samples, correction in zip(samples_list, corrections)
            ]
            corrections = [None] * len(captures)
        return self._process_stack(samples_list, corrections, packet_starts)

    def process_samples_batch(self, samples_list: Sequence[np.ndarray]) -> List[AoAEstimate]:
        """Process already-calibrated raw sample matrices, shape (N, T) each.

        Wraps each matrix in a calibrated :class:`Capture`, exactly like the
        scalar ``process_samples``, so validation and the optional packet
        detection behave identically on both paths.
        """
        return self.process_batch([
            Capture(samples=samples, calibrated=True) for samples in samples_list
        ])

    # ------------------------------------------------------------- validation
    def _validated_samples(self, capture: Capture, calibration: Optional[CalibrationTable],
                           factors: Optional[np.ndarray]
                           ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        correction: Optional[np.ndarray] = None
        calibrated = capture.calibrated
        if calibration is not None and not calibrated:
            if capture.num_antennas != calibration.num_chains:
                raise ValueError(
                    f"capture has {capture.num_antennas} antennas but the table "
                    f"covers {calibration.num_chains} chains")
            correction = factors
            calibrated = True
        if self.config.require_calibrated and not calibrated:
            raise ValueError(
                "capture is not calibrated; pass a CalibrationTable or disable "
                "require_calibrated (see the calibration ablation)")
        if capture.num_antennas != self.array.num_elements:
            raise ValueError(
                f"capture has {capture.num_antennas} antennas but the array has "
                f"{self.array.num_elements} elements")
        samples = capture.samples
        if samples.dtype != self._cdtype:
            samples = samples.astype(self._cdtype)
        return samples, correction

    def _extract_packet(self, capture: Capture,
                        samples: np.ndarray) -> Tuple[np.ndarray, Optional[int]]:
        # Chain 0 is the calibration reference (its correction factor is
        # exactly 1), so detection on the raw first row matches detection on
        # calibrated samples.
        if self._detector is None:
            self._detector = SchmidlCoxDetector(sample_rate_hz=capture.sample_rate_hz)
        detection = self._detector.detect_first(samples[0])
        if detection is None:
            return samples, None
        return samples[:, detection.start_index:], detection.start_index

    # ---------------------------------------------------------------- pipeline
    def _process_stack(self, samples_list: List[np.ndarray],
                       corrections: List[Optional[np.ndarray]],
                       packet_starts: List[Optional[int]]) -> List[AoAEstimate]:
        config = self.config
        if config.subspace_tracking:
            return self._process_tracked(samples_list, corrections, packet_starts)
        num_samples = [samples.shape[1] for samples in samples_list]
        matrices = self._conditioned_correlation_stack(samples_list, corrections)
        batch_size, n = matrices.shape[0], matrices.shape[1]

        # One stacked eigendecomposition serves both source counting and the
        # MUSIC subspace split (eigenvalues ascending, per LAPACK convention).
        eigenvalues, eigenvectors = self._backend.eigh(matrices)
        counts = self._source_counts(eigenvalues, num_samples, n)

        scan_array = self._scan_array(n)
        grid = scan_array.angle_grid(config.resolution_deg)
        steering = self._cast_steering(
            scan_array.steering_matrix(resolution_deg=config.resolution_deg), n)
        values, metadata = self._spectra(matrices, eigenvectors, counts, steering, n)
        # Peak extraction and Pseudospectrum stay float64 regardless of the
        # estimation precision.
        # Spectra are pinned to float64 by contract regardless of the
        # precision mode (peak finding and Pseudospectrum compare across
        # precisions); this is the documented cast point, not a leak.
        values = values.astype(np.float64, copy=False)  # repro-lint: disable=precision-discipline

        # Vectorised peak extraction over the whole (B, A) stack, mirroring
        # Pseudospectrum.peak_bearings' defaults.
        wrap, min_separation = grid_peak_params(grid)
        peak_indices = find_peaks_batch(values, wrap=wrap,
                                        min_relative_height=PEAK_MIN_RELATIVE_HEIGHT,
                                        min_separation=min_separation)

        estimates: List[AoAEstimate] = []
        for index in range(batch_size):
            row = values[index]
            spectrum = Pseudospectrum.from_validated(grid, row, metadata[index])
            peaks = [float(grid[i]) for i in peak_indices[index][:config.max_sources]]
            bearing = peaks[0] if peaks else float(grid[int(np.argmax(row))])
            estimates.append(AoAEstimate(
                pseudospectrum=spectrum,
                bearing_deg=bearing,
                peak_bearings_deg=peaks,
                num_sources=counts[index],
                packet_start=packet_starts[index],
            ))
        return estimates

    # ------------------------------------------------------------- correlation
    def _conditioned_correlation_stack(self, samples_list: List[np.ndarray],
                                       corrections: List[Optional[np.ndarray]]) -> np.ndarray:
        config = self.config
        if config.smoothing_subarray is not None:
            if not isinstance(self.array, UniformLinearArray):
                raise ValueError("spatial smoothing requires a uniform linear array")
            matrices = self._smoothed_stack(samples_list, config.smoothing_subarray)
        else:
            matrices = self._backend.correlation_stack(samples_list)
            matrices = self._calibrate_matrices(matrices, corrections)
        if config.forward_backward and isinstance(self.array, UniformLinearArray):
            # J R* J flips a matrix along both axes; batched over the stack.
            matrices = 0.5 * (matrices + matrices[:, ::-1, ::-1].conj())
        if config.loading_factor > 0:
            matrices = self._diagonal_loading(matrices, config.loading_factor)
        return matrices

    @staticmethod
    def _diagonal_loading(matrices: np.ndarray, loading_factor: float) -> np.ndarray:
        """Batched :func:`repro.aoa.covariance.diagonal_loading` over a stack."""
        n = matrices.shape[1]
        # Batched trace (diagonal gather, not a GEMM): no backend kernel
        # applies, and the O(B*N) sum is negligible next to the eigh.
        power = np.einsum("bii->b", matrices).real / n  # repro-lint: disable=seam-bypass
        load = loading_factor * np.maximum(power, np.finfo(power.dtype).tiny)
        return matrices + load[:, None, None] * np.eye(n, dtype=power.dtype)

    @staticmethod
    def _calibrate_matrices(matrices: np.ndarray,
                            corrections: List[Optional[np.ndarray]]) -> np.ndarray:
        """Apply per-chain corrections as ``C R C^H`` on the matrix stack."""
        if all(correction is None for correction in corrections):
            return matrices
        n = matrices.shape[1]
        factors = np.ones((len(corrections), n), dtype=matrices.dtype)
        for index, correction in enumerate(corrections):
            if correction is not None:
                factors[index] = correction
        return factors[:, :, None] * matrices * factors.conj()[:, None, :]

    def _smoothed_stack(self, samples_list: List[np.ndarray], subarray_size: int) -> np.ndarray:
        num_antennas = self.array.num_elements
        if subarray_size > num_antennas:
            raise ValueError(
                f"subarray_size {subarray_size} exceeds the number of antennas {num_antennas}")
        num_subarrays = num_antennas - subarray_size + 1
        matrices = np.zeros((len(samples_list), subarray_size, subarray_size),
                            dtype=self._cdtype)
        for index, samples in enumerate(samples_list):
            for start in range(num_subarrays):
                block = samples[start:start + subarray_size]
                # Spatial smoothing accumulates tiny per-subarray outer
                # products in place; a per-block backend round trip would
                # cost more than the GEMM. The smoothed stack still hits the
                # seam for its eigendecomposition.
                matrices[index] += block @ block.conj().T  # repro-lint: disable=seam-bypass
            matrices[index] /= samples.shape[1] * num_subarrays
        return matrices

    # ----------------------------------------------------------- model order
    def _source_counts(self, eigenvalues: np.ndarray, num_samples: List[int],
                       n: int) -> List[int]:
        config = self.config
        batch_size = eigenvalues.shape[0]
        if config.num_sources is not None:
            return [min(config.num_sources, n - 1)] * batch_size
        max_sources = min(config.max_sources, n - 1)
        if config.source_count_method == "gap":
            # The eigenvalue-gap heuristic vectorises over the stack: count
            # eigenvalues above 5 % of the per-item maximum (ascending order,
            # so the maximum is the last column).
            largest = eigenvalues[:, -1]
            counts = np.sum(eigenvalues > 0.05 * largest[:, None], axis=1)
            counts = np.clip(counts, 1, n - 1)
            counts[largest <= 0] = 1
            return [int(count) for count in np.minimum(counts, max_sources)]
        return [
            estimate_num_sources(eigenvalues[index], num_samples[index],
                                 method=config.source_count_method,
                                 max_sources=max_sources)
            for index in range(batch_size)
        ]

    # --------------------------------------------------------------- spectra
    def _spectra(self, matrices: np.ndarray, eigenvectors: np.ndarray,
                 counts: List[int], steering: np.ndarray,
                 n: int) -> Tuple[np.ndarray, List[dict]]:
        config = self.config
        batch_size = matrices.shape[0]
        if config.method == "music":
            values = self._music_values(eigenvectors, counts, steering, n)
            metadata = [{"estimator": "music", "num_sources": int(count), "num_antennas": n}
                        for count in counts]
            return values, metadata
        if n != self.array.num_elements:
            raise ValueError(
                f"{config.method} does not support spatially smoothed matrices")
        if config.method == "capon":
            # Capon applies its own, heavier diagonal loading before inversion
            # (matching the scalar capon_pseudospectrum default).
            loaded = self._diagonal_loading(matrices, 1e-3)
            inverses = self._backend.inv(loaded)
            denominator = self._backend.beamscan_numerator(inverses, steering)
            values = 1.0 / np.maximum(denominator, 1e-15)
            metadata = [{"estimator": "capon"} for _ in range(batch_size)]
            return values, metadata
        numerator = self._backend.beamscan_numerator(matrices, steering)
        normaliser = np.sum(np.abs(steering) ** 2, axis=0)
        values = np.maximum(numerator / np.maximum(normaliser, 1e-15), 0.0)
        metadata = [{"estimator": "bartlett"} for _ in range(batch_size)]
        return values, metadata

    def _music_values(self, eigenvectors: np.ndarray, counts: List[int],
                      steering: np.ndarray, n: int) -> np.ndarray:
        """Batched MUSIC via the signal-subspace complement.

        Since the eigenvector basis is orthonormal, the noise-subspace power
        is ``||a||^2`` minus the signal-subspace power; projecting the (few)
        signal eigenvectors is much cheaper than projecting the noise
        subspace.  Items are grouped by model order so each group is one
        batched matrix product.
        """
        counts = np.asarray(counts, dtype=int)
        total = np.sum(np.abs(steering) ** 2, axis=0)  # ||a(theta)||^2, shape (A,)
        denominator = np.empty((counts.size, steering.shape[1]),
                               dtype=total.dtype)
        for order in np.unique(counts):
            items = np.nonzero(counts == order)[0]
            # Ascending eigenvalue order: the signal subspace is the trailing
            # `order` eigenvectors.
            signal = eigenvectors[items, :, n - order:]
            denominator[items] = total[None, :] - self._backend.music_projection_power(
                signal, steering)
        return 1.0 / np.maximum(denominator, 1e-15)

    def _cast_steering(self, steering: np.ndarray, n: int) -> np.ndarray:
        """The steering matrix in estimation precision (cast once, cached)."""
        if steering.dtype == self._cdtype:
            return steering
        cached = self._steering_casts.get(n)
        if cached is None or cached.shape != steering.shape:
            cached = steering.astype(self._cdtype)
            self._steering_casts[n] = cached
        return cached

    # ---------------------------------------------------------- streaming path
    def _process_tracked(self, samples_list: List[np.ndarray],
                         corrections: List[Optional[np.ndarray]],
                         packet_starts: List[Optional[int]]) -> List[AoAEstimate]:
        """Sequential streaming path: one tracker update per capture.

        Captures are folded into the tracker's running correlation in order
        (streaming semantics), so unlike the stacked path the results depend
        on everything processed since the tracker was created.
        """
        from dataclasses import replace

        # Imported here to break the batch <-> subspace module cycle.
        from repro.aoa.subspace import SubspaceTracker

        if self._tracker is None:
            self._tracker = SubspaceTracker(self.array, self.config)
        estimates = []
        for samples, correction, start in zip(samples_list, corrections, packet_starts):
            estimate = self._tracker.update(samples, correction)
            estimates.append(replace(estimate, packet_start=start))
        return estimates

    # ------------------------------------------------------------ scan arrays
    def _scan_array(self, matrix_size: int) -> AntennaArray:
        """The array whose manifold matches the (possibly smoothed) matrices.

        Spatial smoothing shrinks the effective aperture; scanning uses a
        matching sub-aperture with the same geometry (a shorter ULA), whose
        steering cache is kept across batches.
        """
        if matrix_size == self.array.num_elements:
            return self.array
        scan = self._scan_arrays.get(matrix_size)
        if scan is None:
            assert isinstance(self.array, UniformLinearArray)
            scan = UniformLinearArray(
                num_elements=matrix_size, spacing_m=self.array.spacing,
                carrier_frequency_hz=self.array.carrier_frequency_hz,
                name=f"{self.array.name}-smoothed")
            self._scan_arrays[matrix_size] = scan
        return scan
