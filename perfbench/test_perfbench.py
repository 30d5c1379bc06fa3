"""Smoke test of the benchmark runner: every workload at toy size.

Runs ``perfbench/run.py`` the way the benchmark is invoked, untraced and
traced, and checks the result line: every metric ``BENCHMARK.json`` names
appears with its unit, the outputs check out, nothing failed, and no
process the run started is still alive once it has exited.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS  # every runnable workload, serve-drift included

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _session_members(session: int) -> list:
    """Live (non-zombie) processes of a session, as ``pid command`` lines."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                name, rest = handle.read().rsplit(")", 1)
        except OSError:  # ended meanwhile
            continue
        fields = rest.split()
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(f"{entry} {name.split('(', 1)[1]}")
    return members


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_and_nothing_failed(workload, trace, tmp_path):
    # Output goes to files, not pipes: a pipe would make the wait last until
    # every process holding it had ended, hiding the ones that outlive the run.
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as stdout_file, open(err, "w") as stderr_file:
        run = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "2", "--trace", str(trace), "--points", "20000"],
            cwd=ROOT, stdout=stdout_file, stderr=stderr_file, start_new_session=True,
        )
        run.wait(timeout=170)
    stdout, stderr = out.read_text(), err.read_text()
    assert run.returncode == 0, stderr[-3000:]
    assert "leaked shared_memory" not in stderr
    assert _session_members(run.pid) == []
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in listed}
    if trace and workload != "serve-drift":
        assert result["metrics"]["obs.layer_coverage"]["value"] >= 0.95
