"""Adaptive threshold selection ("elbow theory", Algorithm 4).

After the wavelet transform the sorted grid densities fall into three roughly
linear pieces (Fig. 6 of the paper): a steep "signal" segment of dense cluster
cells, a "middle" segment of boundary cells, and an almost horizontal "noise"
segment.  The best filtering threshold sits where the middle segment meets the
noise segment.

Two detectors are implemented:

``elbow_threshold_angle``
    The paper's Algorithm 4: walk the sorted density curve, measure the
    turning angle between consecutive difference vectors, remember the
    sharpest turn seen so far, and stop at the first point where the curve
    has straightened back out to a third of that sharpest turn.  The curve is
    normalised to the unit square first so the angles are scale free.

``elbow_threshold_segments``
    The description of Fig. 6 taken literally: fit the sorted curve with
    three line segments by least squares over all breakpoint pairs and return
    the density at the junction of the middle and noise segments.  This is
    the default because it is the most faithful to the stated criterion ("the
    position where the 'middle line' and the 'noise line' intersects is
    generally the best threshold") and markedly more robust than the raw
    per-point angle scan on large grids.  The breakpoint pairs are scored in
    blocks of rows over the feasible triangle only (middle segment of at
    least two points), with small reused temporaries; it returns exactly
    what the one-pass broadcast search in :mod:`repro.engine.reference`
    returns, bit for bit.

``elbow_threshold_distance``
    A robust fallback (the classic "knee" rule): the point of the sorted
    curve with maximum distance to the chord joining its endpoints.

``adaptive_threshold`` applies the three-segment rule and falls back to the
chord rule when the segment fit is degenerate (fewer than a handful of
distinct densities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ThresholdDiagnostics:
    """Details of how the threshold was chosen (used by the ablation bench).

    Attributes
    ----------
    threshold:
        Selected density threshold; cells with density strictly above it
        survive the filtering step.
    index:
        Index into the descending sorted density curve where the elbow was
        detected.
    method:
        ``"angle"`` when Algorithm 4 triggered, ``"distance"`` for the chord
        fallback, ``"degenerate"`` when there were too few distinct densities
        to detect anything.
    sorted_densities:
        The descending density curve the decision was made on.
    """

    threshold: float
    index: int
    method: str
    sorted_densities: np.ndarray
    breakpoints: Optional[tuple] = None


def _normalized_curve(sorted_densities: np.ndarray) -> np.ndarray:
    """Map the sorted curve into the unit square so angles are scale free."""
    n = len(sorted_densities)
    x = np.linspace(0.0, 1.0, n)
    span = sorted_densities[0] - sorted_densities[-1]
    if span <= 0:
        y = np.zeros(n)
    else:
        y = (sorted_densities - sorted_densities[-1]) / span
    return np.column_stack([x, y])


def elbow_threshold_angle(densities, angle_divisor: float = 3.0) -> Optional[ThresholdDiagnostics]:
    """Algorithm 4: turning-angle detection of the middle / noise intersection.

    Parameters
    ----------
    densities:
        Grid densities (any order); the routine sorts them in descending
        order internally.
    angle_divisor:
        The paper stops at the first point whose turning angle is at most the
        sharpest turn seen so far divided by 3; this parameter exposes that
        constant for the ablation study.

    Returns
    -------
    ThresholdDiagnostics or None
        ``None`` when the criterion never triggers (caller should fall back).
    """
    values = np.sort(np.asarray(densities, dtype=np.float64))[::-1]
    if len(values) < 3 or values[0] == values[-1]:
        return None
    if angle_divisor <= 1.0:
        raise ValueError(f"angle_divisor must be > 1; got {angle_divisor}.")

    curve = _normalized_curve(values)
    # Forward difference vectors along the descending curve.
    segments = curve[:-1] - curve[1:]
    norms = np.linalg.norm(segments, axis=1)

    sharpest_turn = 0.0
    seen_turn = False
    for i in range(1, len(segments)):
        if norms[i - 1] < 1e-15 or norms[i] < 1e-15:
            continue
        cosine = np.clip(
            np.dot(segments[i - 1], segments[i]) / (norms[i - 1] * norms[i]), -1.0, 1.0
        )
        turning_angle = float(np.arccos(cosine))
        if turning_angle > sharpest_turn:
            sharpest_turn = turning_angle
            seen_turn = sharpest_turn > 1e-3
            continue
        if seen_turn and turning_angle <= sharpest_turn / angle_divisor:
            return ThresholdDiagnostics(
                threshold=float(values[i]),
                index=i,
                method="angle",
                sorted_densities=values,
            )
    return None


def elbow_threshold_distance(densities) -> ThresholdDiagnostics:
    """Chord rule: elbow = point of maximum distance to the endpoint chord."""
    values = np.sort(np.asarray(densities, dtype=np.float64))[::-1]
    if len(values) == 0:
        raise ValueError("cannot choose a threshold from an empty density set.")
    if len(values) < 3 or values[0] == values[-1]:
        return ThresholdDiagnostics(
            threshold=float(values[-1]) if len(values) else 0.0,
            index=len(values) - 1 if len(values) else 0,
            method="degenerate",
            sorted_densities=values,
        )
    curve = _normalized_curve(values)
    start, end = curve[0], curve[-1]
    chord = end - start
    chord_norm = np.linalg.norm(chord)
    relative = curve - start
    # Perpendicular distance of every curve point to the chord.
    cross = np.abs(relative[:, 0] * chord[1] - relative[:, 1] * chord[0])
    distances = cross / max(chord_norm, 1e-15)
    index = int(np.argmax(distances))
    return ThresholdDiagnostics(
        threshold=float(values[index]),
        index=index,
        method="distance",
        sorted_densities=values,
    )


#: Breakpoint rows scored per block of the three-segment search.  One
#: block's temporaries hold at most ``32 x n_points`` floats, so the search
#: makes a few dozen short numpy passes per block instead of about fifteen
#: full ``n_points x n_points`` temporaries.
_BLOCK_ROWS = 32


def _segment_sse(prefix: dict, starts: slice, ends: slice, scratch: np.ndarray) -> np.ndarray:
    """Least-squares line residual over ``[start, end)`` for every start x end pair.

    ``starts`` and ``ends`` are slices of prefix positions and every pair
    the caller keeps must span at least two points.  The
    ``(len(starts), len(ends))`` result is a view into ``scratch``, a
    ``(7, >= size)`` float array reused across calls.  Each element goes
    through the same operations in the same order as
    :func:`repro.engine.reference.segment_sse_reference`, so the two agree
    bit for bit.
    """
    shape = (len(prefix["n"][starts]), len(prefix["n"][ends]))
    n, sum_x, sum_y, var_x, var_y, cov_xy, sse = (
        scratch[k, : shape[0] * shape[1]].reshape(shape) for k in range(7)
    )
    for key, out in (("n", n), ("x", sum_x), ("y", sum_y), ("xx", var_x),
                     ("yy", var_y), ("xy", cov_xy)):
        np.subtract(prefix[key][ends][None, :], prefix[key][starts][:, None], out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        var_x -= np.divide(np.multiply(sum_x, sum_x, out=sse), n, out=sse)
        var_y -= np.divide(np.multiply(sum_y, sum_y, out=sse), n, out=sse)
        cov_xy -= np.divide(np.multiply(sum_x, sum_y, out=sse), n, out=sse)
        np.divide(np.multiply(cov_xy, cov_xy, out=sse), var_x, out=sse)
        np.subtract(var_y, sse, out=sse)
    np.maximum(sse, 0.0, out=sse)
    np.copyto(sse, np.maximum(var_y, 0.0, out=var_y), where=var_x <= 1e-18)
    return sse


def _block_totals(x: np.ndarray, y: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Three-segment errors of the breakpoint pairs, one row block at a time.

    Breakpoints ``i < j`` split the curve into ``[0, i)``, ``[i, j)`` and
    ``[j, n)``, each of at least two points.  Rows ``i`` come in blocks of
    :data:`_BLOCK_ROWS`, each over the columns ``j >= i0 + 2`` only, so the
    search touches little more than the feasible triangle.  Yields
    ``(i0, total)`` with ``total[r, c]`` the error head + middle + tail of
    the pair ``(i0 + r, i0 + 2 + c)``, infinite where the middle segment is
    too short.  ``total`` is scratch that the next block overwrites.
    """
    n_points = len(x)
    prefix = {
        "n": np.arange(n_points + 1, dtype=np.float64),
        "x": np.concatenate([[0.0], np.cumsum(x)]),
        "y": np.concatenate([[0.0], np.cumsum(y)]),
        "xx": np.concatenate([[0.0], np.cumsum(x * x)]),
        "yy": np.concatenate([[0.0], np.cumsum(y * y)]),
        "xy": np.concatenate([[0.0], np.cumsum(x * y)]),
    }
    scratch = np.empty((7, _BLOCK_ROWS * n_points))
    last_i = n_points - 4
    head = _segment_sse(prefix, slice(0, 1), slice(2, last_i + 1), scratch)[0].copy()
    tail = _segment_sse(prefix, slice(4, n_points - 1), slice(n_points, None), scratch)[:, 0].copy()
    for i0 in range(2, last_i + 1, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, last_i + 1)
        total = _segment_sse(prefix, slice(i0, i1), slice(i0 + 2, n_points - 1), scratch)
        total += head[i0 - 2 : i1 - 2, None]
        total += tail[None, i0 - 2 :]
        total[np.tril_indices(i1 - i0, -1, total.shape[1])] = np.inf
        yield i0, total


def _best_breakpoints(x: np.ndarray, y: np.ndarray) -> Tuple[int, int]:
    """Breakpoints ``(i, j)`` minimising the three-segment squared error.

    The first minimum in row-major ``(i, j)`` order: a later block wins
    only on a strictly smaller total.
    """
    best_total, best = np.inf, (2, 4)
    for i0, total in _block_totals(x, y):
        flat = int(np.argmin(total))
        if total.flat[flat] < best_total:
            best_total = total.flat[flat]
            best = (i0 + flat // total.shape[1], i0 + 2 + flat % total.shape[1])
    return best


def _three_segment_fit(densities, max_curve_points: int, search) -> ThresholdDiagnostics:
    """Sort, normalise and subsample the curve, then ``search(x, y)`` for breakpoints.

    Shared by :func:`elbow_threshold_segments` and the reference search in
    :mod:`repro.engine.reference`, which differ only in ``search``.
    """
    values = np.sort(np.asarray(densities, dtype=np.float64))[::-1]
    if len(values) == 0:
        raise ValueError("cannot choose a threshold from an empty density set.")
    if len(values) < 6 or values[0] == values[-1]:
        return ThresholdDiagnostics(
            threshold=float(values[-1]),
            index=len(values) - 1,
            method="degenerate",
            sorted_densities=values,
        )

    curve = _normalized_curve(values)
    # Subsample long curves so the O(points^2) breakpoint search stays cheap.
    if len(curve) > max_curve_points:
        sample_index = np.unique(
            np.round(np.linspace(0, len(curve) - 1, max_curve_points)).astype(int)
        )
    else:
        sample_index = np.arange(len(curve))
    head_end, tail_start = search(curve[sample_index, 0], curve[sample_index, 1])

    junction = int(sample_index[tail_start])
    return ThresholdDiagnostics(
        threshold=float(values[junction]),
        index=junction,
        method="segments",
        sorted_densities=values,
        breakpoints=(int(sample_index[head_end]), junction),
    )


def elbow_threshold_segments(densities, max_curve_points: int = 400) -> ThresholdDiagnostics:
    """Three-segment least-squares fit of the sorted density curve (Fig. 6).

    The descending density curve is (sub)sampled to at most
    ``max_curve_points`` positions, every pair of breakpoints is scored by the
    total squared error of fitting one line per segment, and the density at
    the junction between the middle and the noise segments of the best fit is
    returned as the threshold.
    """
    return _three_segment_fit(densities, max_curve_points, _best_breakpoints)


def adaptive_threshold(densities, angle_divisor: float = 3.0) -> ThresholdDiagnostics:
    """Paper rule with robust fallback: three-segment fit guarded by the chord rule.

    The three-segment fit matches Fig. 6 when the curve really has the three
    regimes (signal / middle / noise).  When one regime is missing -- e.g. a
    single dense cluster in sparse noise produces only two regimes -- the fit
    can place the middle/noise junction deep inside the noise tail and return
    a threshold that filters nothing.  The chord (knee) rule is insensitive to
    that failure mode, so the final threshold is whichever of the two is
    larger (filters more noise).

    ``angle_divisor`` is accepted for interface compatibility with the literal
    Algorithm 4 variant; it only matters when the caller explicitly selects
    the angle method.
    """
    values = np.asarray(densities, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot choose a threshold from an empty density set.")
    segments = elbow_threshold_segments(values)
    if segments.method == "segments":
        return segments
    return elbow_threshold_distance(values)
