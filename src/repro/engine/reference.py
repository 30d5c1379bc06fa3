"""Reference (dict-based) implementations of the AdaWave pipeline stages.

These are the straightforward per-cell Python implementations the project
started from: a loop over points for quantization, a loop over occupied lines
for the wavelet pass, hash probing for connected components and a memoised
per-point loop for the final label lookup.  They are kept for three reasons:

* :func:`fit_reference` runs the whole pipeline through them, which is what
  the golden-regression layer and the runtime benchmark compare the
  vectorized engine against (``AdaWave(engine="reference")`` was deprecated
  and has been removed from the estimator constructor);
* the Hypothesis equivalence tests assert stage-by-stage agreement between
  the two engines on random inputs;
* they document the algorithm in its most literal form.

:func:`elbow_threshold_segments_reference` is the one-pass broadcast
breakpoint search that :func:`repro.core.threshold.elbow_threshold_segments`
replaced with a row-blocked one; the Hypothesis suite pins the two to the
same breakpoints and thresholds.

They are deliberately *not* optimised -- the vectorized versions living in
:mod:`repro.grid`, :mod:`repro.core.transform` and :mod:`repro.spatial` are
the production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.grid.connectivity import _connected_components_hash, neighbor_offsets
from repro.grid.lookup import NOISE_LABEL, LookupTable
from repro.grid.quantizer import GridQuantizer, QuantizationResult
from repro.grid.sparse_grid import SparseGrid
from repro.wavelets.dwt import dwt
from repro.wavelets.filters import build_wavelet

Cell = Tuple[int, ...]

_NEGLIGIBLE = 1e-9


def quantize_reference(quantizer: GridQuantizer, X: np.ndarray) -> QuantizationResult:
    """Per-point accumulation into the sparse grid (Algorithm 2, literal)."""
    cell_ids = quantizer.transform(X)
    grid = SparseGrid(quantizer.shape_)
    for cell in map(tuple, cell_ids.tolist()):
        grid.add(cell, 1.0)
    widths = (quantizer.upper_ - quantizer.lower_) / np.asarray(
        quantizer.shape_, dtype=np.float64
    )
    return QuantizationResult(
        grid=grid,
        cell_ids=cell_ids,
        lower=quantizer.lower_.copy(),
        upper=quantizer.upper_.copy(),
        widths=widths,
    )


def _transform_axis_reference(grid: SparseGrid, wavelet, axis: int) -> SparseGrid:
    """Single-level low-pass transform along one axis, one line at a time."""
    new_shape = list(grid.shape)
    new_shape[axis] = (grid.shape[axis] + 1) // 2
    transformed = SparseGrid(new_shape)
    for key, line in grid.lines_along(axis):
        approx, _detail = dwt(line, wavelet, mode="periodization")
        for position, value in enumerate(approx):
            if abs(value) <= _NEGLIGIBLE:
                continue
            cell = key[:axis] + (position,) + key[axis:]
            transformed.add(cell, float(value))
    return transformed


def wavelet_smooth_grid_reference(
    grid: SparseGrid, wavelet: str = "bior2.2", level: int = 1
) -> Tuple[SparseGrid, Tuple[int, ...]]:
    """Per-line wavelet smoothing of the grid (Algorithm 3, literal)."""
    if level < 1:
        raise ValueError(f"level must be >= 1; got {level}.")
    bank = build_wavelet(wavelet)
    current = grid
    for _ in range(level):
        if min(current.shape) < 2:
            break
        for axis in range(current.ndim):
            current = _transform_axis_reference(current, bank, axis)
    return current, current.shape


def connected_components_reference(cells, connectivity: str = "face") -> Dict[Cell, int]:
    """Hash-probing connected components with sorted-cell deterministic labels."""
    cell_list = sorted(set(tuple(int(c) for c in cell) for cell in cells))
    if not cell_list:
        return {}
    ndim = len(cell_list[0])
    if any(len(cell) != ndim for cell in cell_list):
        raise ValueError("all cells must have the same dimensionality.")
    neighbor_offsets(ndim, connectivity)
    return _connected_components_hash(cell_list, connectivity)


def label_points_reference(
    lookup: LookupTable,
    point_cells: np.ndarray,
    transformed_labels: Dict[Cell, int],
) -> np.ndarray:
    """Memoised per-point label lookup (the original ``label_points``)."""
    transformed = lookup.to_transformed_many(point_cells)
    labels = np.full(transformed.shape[0], NOISE_LABEL, dtype=np.int64)
    cache: Dict[Cell, int] = {}
    for index, cell in enumerate(map(tuple, transformed.tolist())):
        if cell not in cache:
            cache[cell] = transformed_labels.get(cell, NOISE_LABEL)
        labels[index] = cache[cell]
    return labels


@dataclass
class ReferenceFitResult:
    """Output of a one-shot :func:`fit_reference` run (pipeline artefacts)."""

    labels: np.ndarray
    n_clusters: int
    threshold: float
    surviving_cells: Dict[Cell, int]
    quantization: QuantizationResult
    transformed_grid: SparseGrid


def fit_reference(
    X: np.ndarray,
    *,
    scale=128,
    wavelet: str = "bior2.2",
    level: int = 1,
    threshold_method: str = "auto",
    connectivity: str = "auto",
    min_cluster_cells: int = 3,
    angle_divisor: float = 3.0,
    bounds=None,
) -> ReferenceFitResult:
    """Run the whole AdaWave pipeline through the reference implementations.

    The literal-engine counterpart of ``AdaWave(...).fit(X)``, with the same
    parameter semantics (threshold selection is shared with the vectorized
    path -- it operates on a plain density vector either way).  This is the
    entry point the golden-regression and engine-equivalence tests compare
    the vectorized estimator against, now that selecting the reference
    engine through the ``AdaWave`` constructor has been removed.
    """
    from repro.core.pipeline import resolve_connectivity, select_threshold

    X = np.asarray(X, dtype=np.float64)
    quantizer = GridQuantizer(scale=scale, bounds=bounds)
    quantizer.fit(X)
    quantization = quantize_reference(quantizer, X)
    transformed, _shape = wavelet_smooth_grid_reference(
        quantization.grid, wavelet=wavelet, level=level
    )
    threshold = select_threshold(transformed, threshold_method, angle_divisor)
    surviving = extract_clusters_reference(
        transformed,
        threshold.threshold,
        resolve_connectivity(connectivity, X.shape[1]),
        min_cluster_cells,
    )
    labels = label_points_reference(
        LookupTable(level=level), quantization.cell_ids, surviving
    )
    return ReferenceFitResult(
        labels=labels,
        n_clusters=len(set(surviving.values())) if surviving else 0,
        threshold=threshold.threshold,
        surviving_cells=surviving,
        quantization=quantization,
        transformed_grid=transformed,
    )


def extract_clusters_reference(
    transformed: SparseGrid,
    threshold: float,
    connectivity: str,
    min_cluster_cells: int,
) -> Dict[Cell, int]:
    """Threshold filter + components + small-component suppression (literal).

    Uses the same tie-stable cut as the vectorized extraction
    (:func:`repro.core.pipeline.snapped_cut`), so reference and vectorized
    survivor sets agree across all transform backends even on exact density
    ties at the threshold.
    """
    from repro.core.pipeline import snapped_cut

    cut = snapped_cut(threshold)
    surviving = [cell for cell, density in transformed.items() if density > cut]
    if not surviving:
        return {}
    labels = connected_components_reference(surviving, connectivity=connectivity)
    if min_cluster_cells > 1:
        sizes: Dict[int, int] = {}
        for label in labels.values():
            sizes[label] = sizes.get(label, 0) + 1
        keep = {label for label, size in sizes.items() if size >= min_cluster_cells}
        relabel = {old: new for new, old in enumerate(sorted(keep))}
        labels = {cell: relabel[label] for cell, label in labels.items() if label in keep}
    return labels


def segment_sse_reference(prefix: dict, start, end) -> np.ndarray:
    """Sum of squared residuals of the least-squares line over ``[start, end)``.

    Uses the precomputed prefix sums of x, y, x^2, y^2 and x*y so each segment
    evaluation is O(1).  ``start``/``end`` may be scalars or broadcastable
    integer arrays; the result follows the broadcast shape.
    """
    start = np.asarray(start)
    end = np.asarray(end)
    n = end - start
    sum_x = prefix["x"][end] - prefix["x"][start]
    sum_y = prefix["y"][end] - prefix["y"][start]
    sum_xx = prefix["xx"][end] - prefix["xx"][start]
    sum_yy = prefix["yy"][end] - prefix["yy"][start]
    sum_xy = prefix["xy"][end] - prefix["xy"][start]
    safe_n = np.where(n < 2, 2, n)
    var_x = sum_xx - sum_x * sum_x / safe_n
    var_y = sum_yy - sum_y * sum_y / safe_n
    cov_xy = sum_xy - sum_x * sum_y / safe_n
    with np.errstate(divide="ignore", invalid="ignore"):
        fitted = var_y - cov_xy * cov_xy / var_x
    sse = np.where(var_x <= 1e-18, np.maximum(var_y, 0.0), np.maximum(fitted, 0.0))
    return np.where(n < 2, 0.0, sse)


def breakpoint_totals_reference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Three-segment error of every breakpoint pair, in one broadcast pass.

    ``total[a, b]`` is head(i) + middle(i, j) + tail(j) for ``i = 2 + a``
    and ``j = 4 + b``, each an O(1) prefix-sum lookup, with the infeasible
    pairs (middle segment shorter than 2 points) set to infinity.
    """
    n_points = len(x)
    prefix = {
        "x": np.concatenate([[0.0], np.cumsum(x)]),
        "y": np.concatenate([[0.0], np.cumsum(y)]),
        "xx": np.concatenate([[0.0], np.cumsum(x * x)]),
        "yy": np.concatenate([[0.0], np.cumsum(y * y)]),
        "xy": np.concatenate([[0.0], np.cumsum(x * y)]),
    }
    i_candidates = np.arange(2, n_points - 3)
    j_candidates = np.arange(4, n_points - 1)
    head = segment_sse_reference(prefix, 0, i_candidates)
    tail = segment_sse_reference(prefix, j_candidates, n_points)
    middle = segment_sse_reference(prefix, i_candidates[:, None], j_candidates[None, :])
    total = head[:, None] + middle + tail[None, :]
    total[j_candidates[None, :] < i_candidates[:, None] + 2] = np.inf
    return total


def breakpoints_reference(x: np.ndarray, y: np.ndarray) -> Tuple[int, int]:
    """The first minimum of :func:`breakpoint_totals_reference` in row-major order."""
    total = breakpoint_totals_reference(x, y)
    flat_best = int(np.argmin(total))
    return 2 + flat_best // total.shape[1], 4 + flat_best % total.shape[1]


def elbow_threshold_segments_reference(densities, max_curve_points: int = 400):
    """:func:`repro.core.threshold.elbow_threshold_segments` with the broadcast search."""
    from repro.core.threshold import _three_segment_fit

    return _three_segment_fit(densities, max_curve_points, breakpoints_reference)
