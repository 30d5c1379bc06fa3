"""Evaluate the clustering pipeline on every grid-pyramid level.

The expensive part of an AdaWave fit is the single pass over the points
(quantization plus the final label lookup); the grid-side stages cost only
``O(occupied cells * scale)``.  The sweep exploits that: given a pyramid
derived from one quantization, it runs transform + threshold + components on
every (resolution, decomposition-level) candidate and collects label-free
diagnostics for the scoring step -- so sweeping ``S`` resolutions costs
about one fit plus ``S`` cheap grid passes, not ``S`` fits.  Each
candidate's partition is expressed over the base grid's occupied cells
through a :class:`BaseCellMap`, built once per distinct combined
(resolution x wavelet-level) factor and shared by every candidate with it.

Candidates are independent, so with ``n_workers > 1`` they fan out over a
thread pool, the same pattern as :func:`repro.serve.parallel_ingest` and
``BatchRunner.run_many``: the hot stages are numpy calls that release the
GIL, so threads scale on multi-core hosts with zero serialization cost.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import GridPipelineResult, run_grid_pipeline
from repro.core.transform import Workspace
from repro.grid.lookup import NOISE_LABEL, CellLabelIndex
from repro.grid.sparse_grid import SparseGrid
from repro.tune.pyramid import GridPyramid, PyramidLevel
from repro.wavelets.thresholding import LevelPolicy

#: Level policies ``threshold="tune"`` sweeps, default (the paper's
#: global-hard pipeline) first so score ties resolve to it.
DEFAULT_THRESHOLD_SWEEP = ("hard", "soft", "per-level-hard", "per-level-soft")


@dataclass
class Candidate:
    """One evaluated (resolution, decomposition level) configuration.

    Attributes
    ----------
    factor:
        Downsampling factor of the pyramid level the candidate ran on.
    scale:
        Interval counts of that level.
    level:
        Wavelet decomposition level the pipeline used.
    n_clusters:
        Number of clusters the candidate produced.
    noise_fraction:
        Fraction of the total point mass that falls in filtered (noise)
        cells.  Computed from cell densities, not labels.
    grid:
        The quantization sketch at this resolution (shared with the
        pyramid).  ``None`` after :meth:`~repro.tune.TuneResult.compact`.
    pipeline:
        The grid-side pipeline output (transformed grid, threshold
        diagnostics, surviving cells and their cluster ids).  ``None``
        after :meth:`~repro.tune.TuneResult.compact`.
    base_cell_labels:
        Cluster id per *base-grid* occupied cell under this candidate's
        clustering (noise = -1), aligned with the base grid's ``coords``.
        This is what lets the scoring step compare two candidates'
        partitions -- mass-weighted over cells -- without touching points.
        ``None`` after :meth:`~repro.tune.TuneResult.compact`.
    wavelet:
        Name of the wavelet basis the candidate ran with (a sweep axis when
        the estimator is given a sequence of bases).
    threshold_method:
        Canonical level-policy name the candidate ran with (a sweep axis
        under ``threshold="tune"``).
    """

    factor: int
    scale: Tuple[int, ...]
    level: int
    n_clusters: int
    noise_fraction: float
    grid: Optional[SparseGrid]
    pipeline: Optional[GridPipelineResult]
    base_cell_labels: Optional[np.ndarray]
    wavelet: str = "bior2.2"
    threshold_method: str = "global-hard"


class BaseCellMap(NamedTuple):
    """The comparison grid's occupied cells seen ``combined`` times coarser.

    ``cells`` are the distinct cells of ``base_coords // combined`` and
    ``inverse`` gives, for every base cell, its row in ``cells``.  A
    candidate's base-cell labels depend on its surviving cells and on
    ``combined`` alone, so candidates sharing ``combined`` share one map and
    each looks up only the few distinct ``cells``.
    """

    cells: np.ndarray
    inverse: np.ndarray

    def labels(self, index: CellLabelIndex) -> np.ndarray:
        """``index.lookup(base_coords // combined)``, one lookup per distinct cell."""
        return index.lookup(self.cells)[self.inverse]


def base_cell_maps(base_grid: SparseGrid, combined: Iterable[int]) -> Dict[int, BaseCellMap]:
    """One :class:`BaseCellMap` per distinct ``combined`` factor.

    The maps are built finest first, each from the previous one: floor
    division composes, so the next map only coarsens and looks up the
    previous map's distinct cells and composes the two inverses.  Each
    factor must divide the next larger one, as powers of two do.
    """
    factors = sorted(set(combined))
    maps: Dict[int, BaseCellMap] = {}
    grid, done = base_grid, 1
    inverse = np.arange(base_grid.n_occupied)
    for factor in factors:
        if factor < 1 or factor % done:
            raise ValueError(
                f"each combined factor must divide the next larger one; got {factors}."
            )
        step = factor // done
        coarse = grid.coarsen(step)
        rows = CellLabelIndex(coarse.coords, np.arange(coarse.n_occupied))
        inverse = rows.lookup(grid.coords // step)[inverse]
        maps[factor] = BaseCellMap(coarse.coords, inverse)
        grid, done = coarse, factor
    return maps


def combined_factor(pyramid_level: PyramidLevel, base_factor: int, level: int) -> int:
    """Factor from a comparison cell to its cell in a candidate's transformed space.

    Coarsen from the comparison resolution to the candidate resolution
    (relative factor), then apply the wavelet downsampling (``2**level``).
    Factors are powers of two and increasing, so the division is exact.
    """
    return (pyramid_level.factor // base_factor) * (2**level)


def evaluate_candidate(
    pyramid_level: PyramidLevel,
    base_map: BaseCellMap,
    base_values: np.ndarray,
    *,
    level: int = 1,
    workspace: Optional[Workspace] = None,
    **pipeline_params,
) -> Candidate:
    """Run the grid pipeline on one pyramid level and derive its diagnostics.

    ``base_map``/``base_values`` describe the occupied cells of the grid
    every candidate is compared over -- the pyramid's *finest materialized*
    level, whose own downsampling factor is ``base_factor`` (1 unless the
    pyramid was built with explicit factors that skip 1).  ``base_map`` is
    the :func:`base_cell_maps` entry for ``combined_factor(pyramid_level,
    base_factor, level)``.  Every candidate's per-cell cluster assignment
    is expressed over those shared cells so candidates at different
    resolutions are directly comparable.
    """
    pipe = run_grid_pipeline(
        pyramid_level.grid, level=level, workspace=workspace, **pipeline_params
    )
    base_cell_labels = base_map.labels(CellLabelIndex(pipe.cell_coords, pipe.cell_labels))
    total_mass = float(base_values.sum())
    if total_mass > 0:
        noise_mass = float(base_values[base_cell_labels == NOISE_LABEL].sum())
        noise_fraction = noise_mass / total_mass
    else:
        noise_fraction = 1.0
    return Candidate(
        factor=pyramid_level.factor,
        scale=pyramid_level.scale,
        level=level,
        n_clusters=pipe.n_clusters,
        noise_fraction=noise_fraction,
        grid=pyramid_level.grid,
        pipeline=pipe,
        base_cell_labels=base_cell_labels,
        wavelet=pipe.wavelet,
        threshold_method=pipe.threshold_policy,
    )


def sweep_pyramid(
    pyramid: GridPyramid,
    *,
    levels: Sequence[int] = (1,),
    n_workers: Optional[int] = None,
    workspace: Optional[Workspace] = None,
    **pipeline_params,
) -> List[Candidate]:
    """Evaluate every (pyramid x decomposition x wavelet x policy) candidate.

    Returns the candidates grouped by (decomposition level, wavelet,
    threshold policy), finest resolution first within each group -- the
    order the scoring step's adjacent-scale comparisons expect.
    ``pipeline_params`` are the grid-side stage parameters; two of them are
    sweep axes rather than scalars: a ``wavelet`` *sequence* sweeps the
    basis family, and ``threshold="tune"`` sweeps the level policies in
    :data:`DEFAULT_THRESHOLD_SWEEP` (default policy first, so score ties
    resolve to the paper's global-hard pipeline).
    """
    levels = [int(lv) for lv in levels]
    if not levels or any(lv < 1 for lv in levels):
        raise ValueError(f"levels must be a non-empty sequence of ints >= 1; got {levels}.")
    wavelet_spec = pipeline_params.pop("wavelet", "bior2.2")
    if isinstance(wavelet_spec, (list, tuple)):
        wavelets = tuple(wavelet_spec)
        if not wavelets:
            raise ValueError("a swept wavelet sequence must not be empty.")
    else:
        wavelets = (wavelet_spec,)
    threshold_spec = pipeline_params.pop("threshold", "hard")
    if isinstance(threshold_spec, str) and threshold_spec == "tune":
        thresholds = DEFAULT_THRESHOLD_SWEEP
    else:
        thresholds = (threshold_spec,)
    for spec in thresholds:
        LevelPolicy.parse(spec)  # fail fast, before any candidate runs
    base = pyramid.levels[0]
    # Every candidate with the same combined factor shares one base-cell
    # map; all of them are built here, before any fan-out.
    maps = base_cell_maps(base.grid, (
        combined_factor(pyramid_level, base.factor, level)
        for level in levels
        for pyramid_level in pyramid.levels
    ))
    jobs = [
        (pyramid_level, level, wavelet, threshold)
        for level in levels
        for wavelet in wavelets
        for threshold in thresholds
        for pyramid_level in pyramid.levels
    ]

    def _run(job, scratch: Optional[Workspace]) -> Candidate:
        pyramid_level, level, wavelet, threshold = job
        return evaluate_candidate(
            pyramid_level,
            maps[combined_factor(pyramid_level, base.factor, level)],
            base.grid.values,
            level=level,
            workspace=scratch,
            wavelet=wavelet,
            threshold=threshold,
            **pipeline_params,
        )

    if n_workers is None or n_workers <= 1 or len(jobs) <= 1:
        return [_run(job, workspace) for job in jobs]
    # Candidates are independent; fan out like BatchRunner.run_many, each
    # worker thread with one private scratch workspace reused across all the
    # jobs it processes.
    thread_state = threading.local()

    def _run_threaded(job) -> Candidate:
        scratch = getattr(thread_state, "workspace", None)
        if scratch is None:
            scratch = thread_state.workspace = Workspace()
        return _run(job, scratch)

    with ThreadPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
        futures = [pool.submit(_run_threaded, job) for job in jobs]
        return [future.result() for future in futures]
