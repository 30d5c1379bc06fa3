"""Grid-pyramid auto-tuning: pick scale / level / threshold from one pass.

The paper's one hand-set knob is ``scale``.  This package chooses it from
the data, without ground-truth labels, for the price of a single
quantization:

* :mod:`repro.tune.pyramid` -- the dyadic :class:`GridPyramid`: every
  coarser power-of-two resolution derived exactly from one fine base
  quantization via :meth:`repro.grid.SparseGrid.coarsen` (``O(cells)`` per
  level, no second pass over the points);
* :mod:`repro.tune.sweep` -- run the wavelet + threshold + connectivity
  pipeline on every (resolution, decomposition level) candidate, optionally
  fanned out over threads;
* :mod:`repro.tune.scoring` -- label-free selection criteria: mass-weighted
  partition stability across adjacent scales, a noise-fraction sanity band
  and threshold-diagnostics sharpness;
* :mod:`repro.tune.select` -- :func:`tune_pyramid` ties it together and
  returns a :class:`TuneResult` with the chosen scale / level / threshold
  plus the full per-candidate score table.

End-to-end integration: ``AdaWave(scale="tune")`` resolves through this
package at ``fit`` time; streaming estimators ingest at the fine base
resolution and tune at ``finalize`` time from the accumulated sketch; the
chosen configuration and score table travel with exported
:class:`~repro.serve.ClusterModel` artifacts as tuning provenance.

Typical direct use::

    from repro import AdaWave

    model = AdaWave(scale="tune").fit(X)
    model.tune_result_.scale          # the chosen resolution
    model.tune_result_.table()        # the per-candidate score table
"""

from repro.tune.pyramid import (
    DEFAULT_MIN_SCALE,
    GridPyramid,
    PyramidLevel,
    default_base_scale,
    is_power_of_two,
)
from repro.tune.scoring import CandidateScore, score_candidates, weighted_partition_nmi
from repro.tune.select import TuneResult, select_best, tune_pyramid
from repro.tune.sweep import (
    DEFAULT_THRESHOLD_SWEEP,
    BaseCellMap,
    Candidate,
    base_cell_maps,
    combined_factor,
    evaluate_candidate,
    sweep_pyramid,
)

__all__ = [
    "BaseCellMap",
    "Candidate",
    "CandidateScore",
    "DEFAULT_MIN_SCALE",
    "DEFAULT_THRESHOLD_SWEEP",
    "GridPyramid",
    "PyramidLevel",
    "TuneResult",
    "base_cell_maps",
    "combined_factor",
    "default_base_scale",
    "evaluate_candidate",
    "is_power_of_two",
    "score_candidates",
    "select_best",
    "sweep_pyramid",
    "tune_pyramid",
    "weighted_partition_nmi",
]
