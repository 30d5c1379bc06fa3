"""The offline workloads: ``fit-2d``, ``fit-3d`` and ``tune-2d``.

An untraced run repeats ``AdaWave.fit`` for the requested seconds and
reports fit wall time, throughput at the stated n, clustering quality and
memory.  A traced run alternates that untraced fit with a replay of the
same fit as its public calls (``GridQuantizer.fit`` -> ``quantize`` ->
``run_grid_pipeline`` -> ``build_result``, or ``GridPyramid`` ->
``sweep_pyramid`` -> ``score_candidates``/``select_best`` for a sweep),
timing each call from outside, and checks the replay labels the points
exactly as the fit did.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from bench_common import (
    OUT_DIR, Tracer, cpu_seconds, digest, median, quantile, vm_hwm_mb,
)

#: Points per fit (the Fig. 10 runtime scale) and the noise share.
N_POINTS = 100_000
NOISE_FRACTION = 0.75
#: Lowest AMI against the generator's ground truth a correct fit reaches on
#: these generators (noise counted as its own class); observed AMIs are
#: about 0.67 (2-D) and 0.4 (3-D, where many small noise components survive).
AMI_FLOOR = {"fit-2d": 0.5, "fit-3d": 0.3, "tune-2d": 0.5}
#: Least share of a replayed fit its layer spans must cover (ROADMAP aim 1).
MIN_COVERAGE = 0.95


#: Centres of the 3-D blobs: fixed, like the 2-D generator's layout, so the
#: seed varies the draws but not how far apart the clusters sit.
BLOB_CENTERS_3D = np.array([[0.25, 0.25, 0.25], [0.75, 0.25, 0.5], [0.25, 0.75, 0.75],
                            [0.75, 0.75, 0.25], [0.5, 0.5, 0.6]])


def blobs_3d(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Five Gaussian blobs in the unit cube plus 75% uniform noise."""
    rng = np.random.default_rng(seed)
    n_cluster = int(round(n * (1.0 - NOISE_FRACTION)))
    centers = BLOB_CENTERS_3D
    truth = rng.integers(0, 5, size=n_cluster)
    points = centers[truth] + rng.normal(0.0, 0.03, size=(n_cluster, 3))
    noise = rng.uniform(0.0, 1.0, size=(n - n_cluster, 3))
    points = np.clip(np.vstack([points, noise]), 0.0, 1.0)
    truth = np.concatenate([truth, np.full(n - n_cluster, -1)])
    return points, truth


def make_inputs(workload: str, n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    if workload == "fit-3d":
        return blobs_3d(n, seed)
    from repro.datasets import scaled_runtime_dataset

    data = scaled_runtime_dataset(n, NOISE_FRACTION, seed=seed)
    return data.points, data.labels


def estimator(workload: str):
    from repro import AdaWave

    if workload == "tune-2d":
        return AdaWave(scale="tune", threshold="tune")
    return AdaWave(scale=128)


def _pipeline_params(model) -> Dict[str, object]:
    """The grid-side parameters ``AdaWave`` passes to ``run_grid_pipeline``."""
    return dict(wavelet=model.wavelet, threshold=model.threshold,
                threshold_method=model.threshold_method,
                connectivity=model.connectivity,
                min_cluster_cells=model.min_cluster_cells,
                angle_divisor=model.angle_divisor, backend=model.backend)


def replay_fit(X: np.ndarray, model, tracer: Tracer) -> np.ndarray:
    """``AdaWave(scale=128).fit`` as its public calls, one span per call."""
    from repro.core.adawave import build_result
    from repro.core.pipeline import run_grid_pipeline
    from repro.grid.quantizer import GridQuantizer

    with tracer.span("fit"):
        with tracer.span("grid.bounds"):
            quantizer = GridQuantizer(scale=model.scale, bounds=model.bounds).fit(X)
        with tracer.span("grid.quantize"):
            quantization = quantizer.quantize(X)
        with tracer.span("core.pipeline") as pipeline_span:
            pipe = run_grid_pipeline(quantization.grid, level=model.level,
                                     **_pipeline_params(model))
        tracer.add_children(pipeline_span, {
            f"core.{stage}": seconds for stage, seconds in pipe.stage_seconds.items()})
        with tracer.span("grid.label"):
            labels = build_result(quantization, pipe).labels
    tracer.counts.append({
        "grid.occupied_cells": len(quantization.grid.values),
        "core.transformed_cells": len(pipe.transformed.values),
    })
    return labels


def replay_tune(X: np.ndarray, model, tracer: Tracer) -> np.ndarray:
    """``AdaWave(scale="tune", threshold="tune").fit`` as its public calls."""
    from repro.core.adawave import build_result
    from repro.core.transform import Workspace
    from repro.grid.quantizer import GridQuantizer, QuantizationResult
    from repro.tune import GridPyramid, score_candidates, select_best, sweep_pyramid
    from repro.tune.pyramid import default_base_scale

    params = _pipeline_params(model)
    with tracer.span("fit"):
        with tracer.span("grid.bounds"):
            quantizer = GridQuantizer(scale=default_base_scale(X.shape[1]),
                                      bounds=model.bounds).fit(X)
        with tracer.span("grid.quantize"):
            quantization = quantizer.quantize(X)
        with tracer.span("tune.pyramid"):
            pyramid = GridPyramid(quantization.grid)
        with tracer.span("tune.sweep") as sweep_span:
            candidates = sweep_pyramid(pyramid, levels=(model.level,),
                                       workspace=Workspace(), **params)
        stages: Dict[str, float] = {}
        for candidate in candidates:
            for stage, seconds in candidate.pipeline.stage_seconds.items():
                stages[f"core.{stage}"] = stages.get(f"core.{stage}", 0.0) + seconds
        tracer.add_children(sweep_span, stages)
        with tracer.span("tune.score"):
            scores = score_candidates(candidates, pyramid.levels[0].grid.values)
        with tracer.span("tune.select"):
            best = select_best(scores).candidate
        with tracer.span("grid.label"):
            widths = (quantizer.upper_ - quantizer.lower_) / np.asarray(
                best.scale, dtype=np.float64)
            chosen = QuantizationResult(
                grid=best.grid, cell_ids=quantization.cell_ids // best.factor,
                lower=quantizer.lower_.copy(), upper=quantizer.upper_.copy(),
                widths=widths)
            labels = build_result(chosen, best.pipeline).labels
    tracer.counts.append({
        "grid.occupied_cells": len(quantization.grid.values),
        "core.transformed_cells": len(best.pipeline.transformed.values),
        "tune.candidates": len(candidates),
        "tune.candidate_ms": [1e3 * sum(c.pipeline.stage_seconds.values())
                              for c in candidates],
    })
    tracer.counts[-1].update(_lookup_replay(pyramid, candidates))
    return labels


def _lookup_replay(pyramid, candidates) -> Dict[str, float]:
    """Time the per-candidate ``CellLabelIndex`` pass the sweep makes.

    Re-runs, on each candidate's own output, the lookup that
    ``evaluate_candidate`` performs, and counts the candidates whose
    base-cell labels it does not reproduce.
    """
    from repro.grid.lookup import CellLabelIndex

    base = pyramid.levels[0]
    total = 0.0
    mismatches = 0
    for candidate in candidates:
        start = time.perf_counter()
        index = CellLabelIndex(candidate.pipeline.cell_coords,
                               candidate.pipeline.cell_labels)
        combined = (candidate.factor // base.factor) * (2 ** candidate.level)
        labels = index.lookup(base.grid.coords // combined)
        total += time.perf_counter() - start
        mismatches += not np.array_equal(labels, candidate.base_cell_labels)
    return {"tune.cell_lookup_ms": total * 1e3, "lookup_mismatches": mismatches}


def _timed_fit(workload: str, X: np.ndarray):
    start = time.perf_counter()
    model = estimator(workload).fit(X)
    return time.perf_counter() - start, model


def setup_once(workload: str, seed: int, n: int, report) -> None:
    """Set-up as a cold process does it: inputs, then the first fit, whose
    labels' digest goes to ``report``."""
    X, _ = make_inputs(workload, n, seed)
    report(digest(estimator(workload).fit(X).labels_))


def run(workload: str, seed: int, seconds: float, trace: bool,
        n: int) -> Tuple[bool, int, int, Dict[str, tuple], Dict]:
    from repro.metrics import adjusted_mutual_info

    X, truth = make_inputs(workload, n, seed)
    model = estimator(workload).fit(X)
    reference = model.labels_
    ami = adjusted_mutual_info(truth, reference)
    info = {"backend_": model.backend_, "n_clusters": int(model.n_clusters_),
            "points": int(len(X)), "first_digest": digest(reference)}
    mismatches = 0
    attempted = 0
    fit_times: List[float] = []
    if not trace:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            elapsed, model = _timed_fit(workload, X)
            fit_times.append(elapsed)
            attempted += 1
            mismatches += not np.array_equal(model.labels_, reference)
        p50 = median(fit_times)
        metrics = {
            "peak_rss_mb": (vm_hwm_mb(), "MB"),
            "latency_ms.p50": (p50 * 1e3, "ms"),
            "latency_ms.p75": (quantile(fit_times, 0.75) * 1e3, "ms"),
            "points_per_s": (len(X) / p50, "pts/s"),
            "ami": (ami, "ratio"),
        }
        info["fits"] = len(fit_times)
    else:
        metrics, attempted, mismatches = _traced(workload, X, reference, seconds)
        info["fits_and_replays"] = attempted
    correct = mismatches == 0 and ami >= AMI_FLOOR[workload]
    if trace:
        correct = correct and metrics["obs.layer_coverage"][0] >= MIN_COVERAGE
    info["ami"] = ami
    info["label_mismatches"] = mismatches
    return correct, attempted, mismatches, metrics, info


def _traced(workload: str, X: np.ndarray, reference: np.ndarray, seconds: float):
    tracer = Tracer()
    model = estimator(workload)
    replay = replay_tune if workload == "tune-2d" else replay_fit
    fit_times: List[float] = []
    attempted = mismatches = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < 2:
        elapsed, fitted = _timed_fit(workload, X)
        fit_times.append(elapsed)
        tracer.next_op()
        labels = replay(X, model, tracer)
        attempted += 2
        mismatches += not np.array_equal(fitted.labels_, reference)
        mismatches += not np.array_equal(labels, reference)
        mismatches += tracer.counts[-1].get("lookup_mismatches", 0)
    tracer.dump(OUT_DIR / f"spans-{workload}.jsonl")

    def layer(name: str, self_time: bool = False) -> float:
        values = tracer.per_op(name, self_time=self_time)
        return median(values) * 1e3 if values else 0.0

    fit_ms = median(fit_times) * 1e3
    replay_by_op = tracer.by_op("fit")
    counts = tracer.counts
    occupied = median([c["grid.occupied_cells"] for c in counts])
    transformed = median([c["core.transformed_cells"] for c in counts])
    metrics: Dict[str, tuple] = {
        "grid.bounds_ms": (layer("grid.bounds"), "ms"),
        "grid.quantize_ms": (layer("grid.quantize"), "ms"),
        "grid.label_ms": (layer("grid.label"), "ms"),
        "grid.occupied_cells": (occupied, "count"),
        "core.transform_ms": (layer("core.transform"), "ms"),
        "core.threshold_ms": (layer("core.threshold"), "ms"),
        "core.extract_ms": (layer("core.extract"), "ms"),
        "core.transformed_cells": (transformed, "count"),
        "core.spread_ratio": (transformed / occupied, "ratio"),
    }
    covered = ["grid.bounds", "grid.quantize", "grid.label", "core.transform",
               "core.threshold", "core.extract"]
    if workload == "tune-2d":
        metrics.update({
            "tune.candidates": (median([c["tune.candidates"] for c in counts]), "count"),
            "tune.quantize_ms": (layer("grid.bounds") + layer("grid.quantize"), "ms"),
            "tune.pyramid_ms": (layer("tune.pyramid"), "ms"),
            "tune.candidate_ms.p50": (
                median([v for c in counts for v in c["tune.candidate_ms"]]), "ms"),
            "tune.sweep_self_ms": (layer("tune.sweep", self_time=True), "ms"),
            "tune.cell_lookup_ms": (
                median([c["tune.cell_lookup_ms"] for c in counts]), "ms"),
            "tune.score_ms": (layer("tune.score"), "ms"),
            "tune.select_ms": (layer("tune.select"), "ms"),
        })
        covered += ["tune.pyramid", "tune.sweep", "tune.score", "tune.select"]
    # Per replayed fit: its layer spans (the sweep's self time only, as its
    # pipelines' stages are counted already) over that replay's own span.
    in_layers = [tracer.by_op(name, self_time=name == "tune.sweep") for name in covered]
    coverage = [sum(layer_ms.get(op, 0.0) for layer_ms in in_layers) / seconds
                for op, seconds in replay_by_op.items()]
    metrics["obs.layer_coverage"] = (median(coverage), "ratio")
    metrics["obs.tracing_overhead"] = (median(replay_by_op.values()) * 1e3 / fit_ms,
                                       "ratio")
    metrics["fit_ms.p50"] = (fit_ms, "ms")
    for name, value in cpu_seconds().items():
        metrics[name] = (value, "s")
    return metrics, attempted, mismatches
