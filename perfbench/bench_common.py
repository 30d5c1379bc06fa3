"""Shared helpers of the benchmark: spans, quantiles, provenance, results.

Nothing here imports ``repro`` at module level, so the runner can fail
cleanly (non-zero exit, no result line) in a checkout without ``src/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes (artifact store, span dumps, temp files) lands
#: here, inside the checkout and listed in the root ``.gitignore``.
OUT_DIR = ROOT / ".perfbench"


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile ``q`` in ``[0, 1]`` of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample.")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def digest(labels) -> str:
    """Short content hash of a label array (dtype, shape and values)."""
    h = hashlib.sha256(f"{labels.dtype.str}{labels.shape}".encode())
    h.update(labels.tobytes())
    return h.hexdigest()[:16]


def histogram_quantile(buckets: Sequence[Sequence], q: float) -> float:
    """Quantile of a cumulative ``[[le, count], ..., ["+Inf", n]]`` histogram.

    Linear interpolation inside the bucket the rank falls in, as
    Prometheus' ``histogram_quantile`` does; 0.0 for an empty histogram.
    """
    total = buckets[-1][1]
    if total == 0:
        return 0.0
    rank = q * total
    lower_bound, lower_count = 0.0, 0
    for bound, count in buckets:
        if count >= rank:
            if bound == "+Inf":
                return float(lower_bound)
            if count == lower_count:
                return float(bound)
            share = (rank - lower_count) / (count - lower_count)
            return float(lower_bound + (float(bound) - lower_bound) * share)
        if bound != "+Inf":
            lower_bound, lower_count = float(bound), count
    return float(lower_bound)


class Tracer:
    """In-memory span recorder; spans are written out once, at exit.

    A span has a name, start and end (``perf_counter`` seconds), the id of
    the span that caused it, and the id of the operation (one fit, one
    request) it belongs to.  Self time is a span's duration minus the part
    its children cover.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        #: Per-operation counts read from program outputs (cells, candidates).
        self.counts: List[Dict] = []
        self._stack: List[int] = []
        self.op = 0

    def next_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "op": self.op, "start": time.perf_counter(),
                  "end": None, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add_children(self, parent: Dict, stage_seconds: Dict[str, float]) -> None:
        """Child spans from durations a program call returned.

        The program reports its stages as durations only; they ran one after
        another inside ``parent``, so they are placed end to end from its
        start.
        """
        parent_index = self.spans.index(parent)
        cursor = parent["start"]
        for name, seconds in stage_seconds.items():
            self.spans.append({"name": name, "op": parent["op"], "start": cursor,
                               "end": cursor + seconds, "parent": parent_index})
            cursor += seconds

    def self_seconds(self) -> List[float]:
        child_total = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_total[record["parent"]] += record["end"] - record["start"]
        return [r["end"] - r["start"] - c for r, c in zip(self.spans, child_total)]

    def by_op(self, name: str, *, self_time: bool = False) -> Dict[int, float]:
        """Seconds spent in spans called ``name``, summed per operation id."""
        durations = self.self_seconds() if self_time else [
            r["end"] - r["start"] for r in self.spans]
        totals: Dict[int, float] = {}
        for record, seconds in zip(self.spans, durations):
            if record["name"] == name:
                totals[record["op"]] = totals.get(record["op"], 0.0) + seconds
        return totals

    def per_op(self, name: str, *, self_time: bool = False) -> List[float]:
        """Seconds spent in spans called ``name``, one value per operation."""
        return list(self.by_op(name, self_time=self_time).values())

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_seconds()
        with open(path, "w") as handle:
            for record, self_s in zip(self.spans, selfs):
                handle.write(json.dumps(dict(record, self=self_s)) + "\n")


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of one process in MB (``VmHWM``)."""
    where = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(where) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {where}")


def cpu_seconds() -> Dict[str, float]:
    """User and system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"cpu_user_s": own.ru_utime + kids.ru_utime,
            "cpu_sys_s": own.ru_stime + kids.ru_stime}


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as error:  # numpy builds differ in what they expose
        return f"unknown ({type(error).__name__})"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(seed: int) -> Dict:
    """Host fingerprint, resolved transform backend, commit and seed."""
    import numpy as np

    from repro.wavelets.backends import available_backends, resolve_backend

    registered = list(available_backends())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "backend": resolve_backend("auto", "bior2.2").name,
        "backends": registered,
        "numba_registered": "numba" in registered,
        "commit": _git_commit(),
        "seed": seed,
    }


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple],
         info: Dict) -> None:
    """Print the human-readable report, then the one-line JSON result last."""
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34s} {value:>16.6g} {unit}")
    result = {"correct": bool(correct), "attempted": int(attempted),
              "failed": int(failed),
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    sys.stdout.flush()
    print(json.dumps(result), flush=True)

