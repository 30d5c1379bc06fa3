"""The row-blocked three-segment breakpoint search against its reference.

:func:`repro.core.threshold.elbow_threshold_segments` scores the Fig. 6
breakpoint pairs in row blocks over the feasible triangle;
:func:`repro.engine.reference.elbow_threshold_segments_reference` is the
one-pass broadcast search it replaced.  The two must return the same
threshold, index, method and breakpoints on every curve, bit for bit.

The curves cover lengths 6-3000 (both sides of the 400-point subsample),
integer-valued curves with many ties, constant runs, and magnitudes and
offsets near 1e6.  On a normalised curve the x spacing is at least 1/399,
so the search's ``var_x <= 1e-18`` branch cannot fire there; the raw-curve
property feeds the two searches x values with constant runs directly, which
does reach it.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.core.threshold import _best_breakpoints, _block_totals, elbow_threshold_segments
from repro.engine.reference import (
    breakpoint_totals_reference,
    breakpoints_reference,
    elbow_threshold_segments_reference,
    segment_sse_reference,
)


@st.composite
def density_curves(draw):
    n = draw(st.integers(min_value=6, max_value=3000))
    kind = draw(st.sampled_from(["uniform", "ties", "runs", "regimes"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "uniform":
        base = rng.uniform(0.0, 1.0, n)
    elif kind == "ties":
        base = rng.integers(0, draw(st.integers(min_value=2, max_value=12)), n).astype(float)
    elif kind == "runs":
        # Piecewise-constant: a few long runs of one value each.
        runs = draw(st.integers(min_value=1, max_value=8))
        base = np.repeat(rng.uniform(0.0, 1.0, runs), rng.multinomial(n, np.ones(runs) / runs))
    else:
        sizes = rng.multinomial(n, [0.05, 0.15, 0.8])
        base = np.concatenate([
            rng.uniform(60.0, 100.0, sizes[0]),
            rng.uniform(12.0, 40.0, sizes[1]),
            rng.uniform(0.0, 6.0, sizes[2]),
        ])
    magnitude = draw(st.sampled_from([1.0, 1e6]))
    offset = draw(st.sampled_from([0.0, 1e6]))
    return offset + magnitude * base


@given(densities=density_curves())
def test_blocked_search_matches_reference(densities):
    fast = elbow_threshold_segments(densities)
    slow = elbow_threshold_segments_reference(densities)
    assert (fast.threshold, fast.index, fast.method, fast.breakpoints) == (
        slow.threshold, slow.index, slow.method, slow.breakpoints
    )
    np.testing.assert_array_equal(fast.sorted_densities, slow.sorted_densities)


@st.composite
def raw_curves(draw):
    """Unnormalised (x, y) with runs of equal x, so segments with zero x variance occur."""
    n = draw(st.integers(min_value=6, max_value=150))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    levels = draw(st.integers(min_value=1, max_value=6))
    x = np.sort(rng.integers(0, levels, n)).astype(float) / levels
    y = rng.integers(0, draw(st.integers(min_value=1, max_value=5)), n).astype(float)
    return x, y


@given(curve=raw_curves())
def test_raw_curve_breakpoints_match_reference(curve):
    x, y = curve
    assert _best_breakpoints(x, y) == breakpoints_reference(x, y)


@given(curve=raw_curves())
def test_block_totals_equal_reference_totals_bit_for_bit(curve):
    # Every scored pair, not only the winner: the per-element operations and
    # their order must match the broadcast search exactly.
    x, y = curve
    reference = breakpoint_totals_reference(x, y)
    rows = 0
    for i0, total in _block_totals(x, y):
        expected = reference[i0 - 2 : i0 - 2 + total.shape[0], i0 - 2 :]
        np.testing.assert_array_equal(
            total.view(np.uint64), np.ascontiguousarray(expected).view(np.uint64)
        )
        rows += total.shape[0]
    assert rows == reference.shape[0]


def test_raw_curves_reach_the_zero_variance_branch():
    # A leading run of x == 0: every segment inside it has var_x == 0.
    x = np.concatenate([np.zeros(5), np.linspace(0.1, 1.0, 20)])
    y = np.concatenate([np.full(5, 1.0), np.linspace(0.9, 0.0, 20)])
    prefix = {key: np.concatenate([[0.0], np.cumsum(v)]) for key, v in
              (("x", x), ("y", y), ("xx", x * x), ("yy", y * y), ("xy", x * y))}
    head = segment_sse_reference(prefix, 0, np.arange(2, 6))
    assert np.all(head == 0.0)
    assert _best_breakpoints(x, y) == breakpoints_reference(x, y)
