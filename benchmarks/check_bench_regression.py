"""Compare a pytest-benchmark JSON run against a stored baseline.

The nightly workflow writes ``artifacts/bench-serve.json`` via
``--benchmark-json`` and then runs::

    python benchmarks/check_bench_regression.py \
        benchmarks/BENCH_serve.json artifacts/bench-serve.json

* When the baseline file does not exist yet, the current run seeds it and
  the check passes (first night).
* Otherwise every benchmark present in **both** files is compared by the
  median of its rounds (``stats.median``); any regression beyond
  ``--threshold`` (default 20%) is reported and the process exits non-zero,
  failing the job.  The median, not the mean: a single slow round among a
  few shifts the mean and leaves the median nearly where it was.
* ``--update`` rewrites the baseline with the current run after a passing
  comparison.  Nightly never passes it: re-baselining after every passing
  night would let repeated sub-threshold slowdowns compound silently.  Run
  it by hand in a change that states why the baseline moves.

Comparing across runner hardware is noisy; the 20% bar is wide on
purpose -- it exists to catch the "tier-1 floor bench got 2x slower"
class of regression, not microsecond drift.  New/removed benchmarks never
fail the check (they have nothing to compare against).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

DEFAULT_THRESHOLD = 0.20


def load_benchmarks(path: Path) -> Dict[str, float]:
    """pytest-benchmark JSON -> ``{fullname: median_seconds}``."""
    document = json.loads(Path(path).read_text())
    out: Dict[str, float] = {}
    for bench in document.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats") or {}
        median = stats.get("median")
        if name and isinstance(median, (int, float)) and median > 0:
            out[str(name)] = float(median)
    return out


def compare(
    baseline: Dict[str, float],
    current: Dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> Tuple[List[str], List[str]]:
    """``(regressions, report_lines)`` for benchmarks present in both runs.

    A benchmark regresses when its current median exceeds the baseline
    median by more than ``threshold`` (0.20 = +20%).
    """
    regressions: List[str] = []
    lines: List[str] = []
    for name in sorted(set(baseline) & set(current)):
        before, after = baseline[name], current[name]
        change = (after - before) / before
        marker = " "
        if change > threshold:
            regressions.append(name)
            marker = "!"
        lines.append(
            f"{marker} {name}: {before:.4f}s -> {after:.4f}s ({change:+.1%})"
        )
    for name in sorted(set(current) - set(baseline)):
        lines.append(f"+ {name}: new benchmark ({current[name]:.4f}s), no baseline")
    for name in sorted(set(baseline) - set(current)):
        lines.append(f"- {name}: missing from current run")
    return regressions, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="stored baseline JSON")
    parser.add_argument("current", type=Path, help="fresh --benchmark-json output")
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="fractional slowdown that fails the check (default 0.20)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline with the current run when the check passes "
             "(by hand only, in a change that states why the baseline moves)",
    )
    args = parser.parse_args(argv)

    current = load_benchmarks(args.current)
    if not current:
        print(f"no benchmarks found in {args.current}; nothing to check.")
        return 1

    if not args.baseline.exists():
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(Path(args.current).read_text())
        print(f"seeded baseline {args.baseline} from {args.current} "
              f"({len(current)} benchmarks).")
        return 0

    baseline = load_benchmarks(args.baseline)
    regressions, lines = compare(baseline, current, args.threshold)
    print(f"benchmark comparison (threshold +{args.threshold:.0%}):")
    for line in lines:
        print(f"  {line}")
    if regressions:
        print(f"FAILED: {len(regressions)} benchmark(s) regressed beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        return 1
    if args.update:
        args.baseline.write_text(Path(args.current).read_text())
        print(f"baseline {args.baseline} refreshed.")
    print("benchmark floors OK.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
