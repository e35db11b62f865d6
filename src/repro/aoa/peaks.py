"""Peak finding on pseudospectra.

A small, dependency-light peak finder: local maxima above a relative height
threshold, separated by a minimum distance, optionally treating the grid as
circular (for full-360-degree pseudospectra).  Returned indices are sorted by
descending peak value so callers can take "the strongest peak" (the paper's
bearing estimate) or "all significant peaks" (the multipath signature).

Candidate detection is vectorised with numpy and shared between the scalar
:func:`find_peaks` and the batched :func:`find_peaks_batch`, so the per-packet
and per-batch paths cannot diverge.
"""

from __future__ import annotations

from typing import List

import numpy as np


def _candidate_masks(values: np.ndarray, wrap: bool,
                     min_relative_height: float) -> np.ndarray:
    """Boolean (B, A) mask of local maxima above the per-row threshold.

    ``values`` is a (B, A) stack of pseudospectrum rows.  A sample is a
    candidate when it is at least as large as its left neighbour, strictly
    larger than its right neighbour, and at least ``min_relative_height``
    times the row maximum.  On a non-wrapping grid the two end samples count
    as peaks when they dominate their single neighbour, which keeps bearings
    near +/-90 degrees on linear arrays from being silently dropped.
    """
    maxima = np.max(values, axis=-1)
    thresholds = maxima * min_relative_height
    mask = values >= thresholds[:, None]
    # Neighbour comparisons on shifted views (no rolled copies); the end
    # samples compare across the wrap only on a circular grid.
    mask[:, 1:] &= values[:, 1:] >= values[:, :-1]
    mask[:, :-1] &= values[:, :-1] > values[:, 1:]
    if wrap:
        mask[:, 0] &= values[:, 0] >= values[:, -1]
        mask[:, -1] &= values[:, -1] > values[:, 0]
    else:
        mask[:, -1] = (values[:, -1] >= thresholds) & (values[:, -1] > values[:, -2])
    # Rows whose maximum is not positive have no meaningful peaks.
    mask[maxima <= 0, :] = False
    return mask


def _select_separated(values: np.ndarray, candidates: np.ndarray, wrap: bool,
                      min_separation: int) -> List[int]:
    """Enforce minimum separation on candidate indices, keeping stronger peaks.

    ``values`` is one row; ``candidates`` its candidate indices in ascending
    order.  The stable descending-value sort keeps the original tie-breaking
    (lower index wins on equal values).
    """
    if candidates.size == 0:
        return []
    n = values.size
    order = np.argsort(-values[candidates], kind="stable")
    selected: List[int] = []
    for index in candidates[order]:
        index = int(index)
        too_close = False
        for kept in selected:
            distance = abs(index - kept)
            if wrap:
                distance = min(distance, n - distance)
            if distance < min_separation:
                too_close = True
                break
        if not too_close:
            selected.append(index)
    return selected


def _validate(min_relative_height: float, min_separation: int) -> None:
    if not 0.0 <= min_relative_height <= 1.0:
        raise ValueError("min_relative_height must be in [0, 1]")
    if min_separation < 1:
        raise ValueError("min_separation must be at least 1")


def find_peaks(values: np.ndarray, wrap: bool = False,
               min_relative_height: float = 0.05,
               min_separation: int = 3) -> List[int]:
    """Indices of significant local maxima in ``values``, strongest first.

    Parameters
    ----------
    values:
        1-D non-negative array.
    wrap:
        Treat the array as circular (last sample adjacent to the first).
    min_relative_height:
        Peaks smaller than this fraction of the global maximum are ignored.
    min_separation:
        Minimum index separation between reported peaks; of two close peaks,
        only the stronger is kept.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 3:
        return []
    _validate(min_relative_height, min_separation)
    mask = _candidate_masks(values[None, :], wrap, min_relative_height)[0]
    return _select_separated(values, np.nonzero(mask)[0], wrap, min_separation)


def find_peaks_batch(values: np.ndarray, wrap: bool = False,
                     min_relative_height: float = 0.05,
                     min_separation: int = 3) -> List[List[int]]:
    """Batched :func:`find_peaks` over a (B, A) stack of pseudospectrum rows.

    Candidate detection runs vectorised over the whole stack; only the
    separation enforcement (which operates on the handful of candidates per
    row) remains per-row.  Each returned list matches what :func:`find_peaks`
    returns for the corresponding row.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be a (batch, num_angles) array, got {values.shape}")
    if values.shape[1] < 3:
        return [[] for _ in range(values.shape[0])]
    _validate(min_relative_height, min_separation)
    masks = _candidate_masks(values, wrap, min_relative_height)
    return [
        _select_separated(row, np.nonzero(mask)[0], wrap, min_separation)
        for row, mask in zip(values, masks)
    ]
