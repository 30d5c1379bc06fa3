"""The sweep's shared base-cell maps against per-candidate lookups.

``sweep_pyramid`` builds one :class:`~repro.tune.BaseCellMap` per distinct
combined factor, before any thread fan-out, and every candidate labels the
base cells through it.  These properties pin that the result equals the
direct per-candidate ``CellLabelIndex(...).lookup(base_coords // combined)``
for 1-D to 3-D grids, decomposition levels 1 and 2, explicit pyramid factors
that skip 1, threaded sweeps, and coordinates whose extent overflows the
index's int64 encoding (its hash-table fallback).
"""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.tune.sweep as sweep_module
from repro.grid.lookup import CellLabelIndex
from repro.grid.quantizer import GridQuantizer
from repro.grid.sparse_grid import SparseGrid
from repro.tune import BaseCellMap, GridPyramid, base_cell_maps, sweep_pyramid

_BASE_SCALE = {1: 64, 2: 32, 3: 16}


@st.composite
def sweeps(draw):
    ndim = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_blob = draw(st.integers(min_value=20, max_value=300))
    centres = rng.uniform(0.2, 0.8, (2, ndim))
    X = np.vstack([
        centres[rng.integers(0, 2, n_blob)] + rng.normal(0.0, 0.03, (n_blob, ndim)),
        rng.uniform(0.0, 1.0, (draw(st.integers(min_value=1, max_value=300)), ndim)),
    ])
    factors = draw(st.sampled_from([None, (2, 4), (2,), (4, 8), (1, 4)]))
    return {
        "X": X,
        "scale": _BASE_SCALE[ndim],
        "factors": factors,
        "levels": draw(st.sampled_from([(1,), (2,), (1, 2)])),
        "threshold": draw(st.sampled_from(["hard", "tune"])),
        "n_workers": draw(st.sampled_from([None, 2])),
    }


class _RecordingMap(BaseCellMap):
    """A BaseCellMap that records the thread building it."""

    built_on = []

    def __new__(cls, *args):
        cls.built_on.append(threading.current_thread())
        return super().__new__(cls, *args)


@given(case=sweeps())
def test_shared_map_labels_equal_per_candidate_lookup(case):
    grid = GridQuantizer(scale=case["scale"]).fit_transform(case["X"]).grid
    pyramid = GridPyramid(grid, factors=case["factors"])
    _RecordingMap.built_on = []
    with mock.patch.object(sweep_module, "BaseCellMap", _RecordingMap):
        candidates = sweep_pyramid(
            pyramid, levels=case["levels"], n_workers=case["n_workers"],
            threshold=case["threshold"],
        )
    base = pyramid.levels[0]
    combined = {(c.factor // base.factor) * 2**c.level for c in candidates}
    # One map per distinct combined factor, all built outside the fan-out.
    assert len(_RecordingMap.built_on) == len(combined)
    assert all(t is threading.main_thread() for t in _RecordingMap.built_on)
    for candidate in candidates:
        factor = (candidate.factor // base.factor) * 2**candidate.level
        index = CellLabelIndex(candidate.pipeline.cell_coords, candidate.pipeline.cell_labels)
        expected = index.lookup(base.grid.coords // factor)
        np.testing.assert_array_equal(candidate.base_cell_labels, expected)


@st.composite
def cell_sets(draw):
    """Occupied cells plus a labelled index, with spans up to 2**40 per axis."""
    ndim = draw(st.integers(min_value=1, max_value=3))
    span = draw(st.sampled_from([16, 1024, 2**40]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    coords = rng.integers(0, span, (draw(st.integers(min_value=1, max_value=200)), ndim))
    grid = SparseGrid.from_coo((span,) * ndim, coords, 1.0)
    factors = draw(st.lists(st.sampled_from([2, 4, 8, 64]), min_size=1, max_size=4))
    return grid, factors, rng


@given(case=cell_sets())
def test_base_cell_maps_equal_direct_lookup(case):
    grid, factors, rng = case
    maps = base_cell_maps(grid, factors)
    assert sorted(maps) == sorted(set(factors))
    for factor, base_map in maps.items():
        queries = grid.coords // factor
        # Label a random subset of the coarse cells plus some cells that
        # no base cell reaches.
        labelled = queries[rng.random(len(queries)) < 0.5]
        labelled = np.unique(np.vstack([labelled, labelled + 3]), axis=0)
        index = CellLabelIndex(labelled, rng.integers(0, 5, len(labelled)))
        np.testing.assert_array_equal(base_map.labels(index), index.lookup(queries))
        assert len(base_map.cells) == len(np.unique(queries, axis=0))


@pytest.mark.parametrize("factors", [[2, 3], [0], [4, 6]])
def test_base_cell_maps_reject_factors_that_do_not_nest(factors):
    grid = SparseGrid.from_coo((16, 16), np.array([[1, 2], [9, 15]]), 1.0)
    with pytest.raises(ValueError, match="divide"):
        base_cell_maps(grid, factors)
