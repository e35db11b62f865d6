"""Signature similarity metrics.

The spoofing-prevention application hinges on "a significant difference
between the certified signature and an attacker's signature so that they can
be discriminated from each other" (Section 2.3.2).  These metrics quantify
that difference:

* ``spectral_correlation`` / ``cosine_similarity`` — shape similarity of the
  two pseudospectra over the whole angle grid.
* ``peak_set_distance_deg`` — how far apart the two signatures' peak sets are,
  in degrees (a greedy matching of peaks).
* ``signature_similarity`` — the combined score the detector thresholds: the
  spectral correlation, discounted when the direct-path peaks disagree.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.signature import AoASignature
from repro.utils.angles import angular_difference


#: Floor (dB below the peak) of the curves signatures are compared on.
SIMILARITY_FLOOR_DB = -30.0


def reference_db(signature: AoASignature) -> np.ndarray:
    """A signature's pseudospectrum in dB below its peak, floored at
    :data:`SIMILARITY_FLOOR_DB` — the curve :func:`spectral_correlation`
    compares."""
    return signature.spectrum.to_db(floor_db=SIMILARITY_FLOOR_DB)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two non-negative vectors, in [0, 1]."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"vectors must have the same shape, got {a.shape} and {b.shape}")
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm == 0:
        return 0.0
    return float(np.clip(np.dot(a, b) / norm, 0.0, 1.0))


def spectral_correlation(a: AoASignature, b: AoASignature,
                         a_db: Optional[np.ndarray] = None) -> float:
    """Cosine similarity of two signatures' pseudospectra on a common grid.

    Pseudospectra are compared in the dB domain (relative to their own peaks,
    floored) so that secondary multipath peaks — tens of dB below the direct
    path — still contribute to the comparison instead of being swamped by the
    dominant peak.  ``a`` is the reference (stored) side: ``b`` is resampled
    onto ``a``'s grid, and ``a_db`` is ``reference_db(a)`` when the caller
    keeps it (the spoofing detector does, per stored signature).
    """
    grid = a.spectrum.angles_deg
    spectrum_b = b.spectrum
    # np.interp at a grid's own points returns the values exactly, and the
    # wrap-around shift of `resampled` is the identity on a grid starting at
    # 0 (every circular-array grid), so equal grids skip the resampling.
    if not (np.array_equal(spectrum_b.angles_deg, grid)
            and (grid[0] == 0.0 or not spectrum_b.wraps_around)):
        spectrum_b = spectrum_b.resampled(grid)
    b_db = spectrum_b.to_db(floor_db=SIMILARITY_FLOOR_DB)
    if a_db is None:
        a_db = reference_db(a)
    # Shift so the floor maps to zero; correlation then emphasises peak shape.
    return cosine_similarity(a_db - SIMILARITY_FLOOR_DB, b_db - SIMILARITY_FLOOR_DB)


def peak_set_distance_deg(peaks_a: Sequence[float], peaks_b: Sequence[float]) -> float:
    """Mean angular distance (degrees) between two peak sets under greedy matching.

    Each peak of the smaller set is matched to the closest unmatched peak of
    the larger set; unmatched extra peaks do not contribute.  Returns 180 (the
    maximum possible bearing error) when either set is empty.
    """
    peaks_a = [float(p) for p in peaks_a]
    peaks_b = [float(p) for p in peaks_b]
    if not peaks_a or not peaks_b:
        return 180.0
    if len(peaks_a) > len(peaks_b):
        peaks_a, peaks_b = peaks_b, peaks_a
    remaining = list(peaks_b)
    distances = []
    for peak in peaks_a:
        best_index = int(np.argmin([angular_difference(peak, other) for other in remaining]))
        distances.append(float(angular_difference(peak, remaining[best_index])))
        remaining.pop(best_index)
    return float(np.mean(distances))


def direct_path_distance_deg(a: AoASignature, b: AoASignature) -> float:
    """Angular distance between two signatures' direct-path (strongest) peaks."""
    return float(angular_difference(a.direct_path_bearing_deg, b.direct_path_bearing_deg))


def signature_similarity(a: AoASignature, b: AoASignature,
                         direct_path_scale_deg: float = 10.0,
                         a_db: Optional[np.ndarray] = None) -> float:
    """Combined similarity score in [0, 1] used by the spoofing detector.

    The spectral correlation is multiplied by a factor that decays with the
    direct-path bearing disagreement (scale ``direct_path_scale_deg``): two
    signatures whose whole-spectrum shapes happen to correlate but whose
    direct paths point in different directions are *not* the same client,
    because the direct path is the stable, hard-to-forge component
    (Section 3.1–3.2).  ``a_db`` is passed on to :func:`spectral_correlation`.
    """
    if direct_path_scale_deg <= 0:
        raise ValueError("direct_path_scale_deg must be positive")
    correlation = spectral_correlation(a, b, a_db)
    direct_error = direct_path_distance_deg(a, b)
    direct_factor = float(np.exp(-direct_error / direct_path_scale_deg))
    return float(np.clip(correlation * direct_factor, 0.0, 1.0))
