"""The benchmark's replay (``perfbench/replay.py``) still runs on this API.

The replay calls ``SubspaceIter.patterns``/``iter_pattern``, the sweeps, the
set-up functions and the calls of ``verify`` directly, so a change to any of
them can break the benchmark without failing a CLI test.  Each case runs it
as a subprocess, the way ``perfbench/run.py`` does, and checks the counts,
hierarchies and exact counts against the workload's own reference.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from ghwlab.subspaces import gaussian_binomial

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _replay(name, part):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "replay.py"), "--workload", name,
         "--seed", "0", "--part", part],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name,part", [("brute_80_8", "layers"), ("dual_par_17_8", "cli")])
def test_replay_runs_and_matches_reference(name, part):
    w = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"][name]
    result = _replay(name, part)
    if part == "layers":
        assert result["enumerated"] == {str(r): gaussian_binomial(w.k, r, w.q)
                                        for r in w.r_list}
    else:
        assert result["sweeps"]
    # the layers part sweeps at the other job count only where the CPUs allow
    reference = dict(zip(w.r_list, w.reference))
    for row in result["sweeps"]:
        assert row["d_r"] == reference[row["r"]], row
        assert row["examined"] == gaussian_binomial(w.k, row["r"], w.q), row


def test_replay_verify_runs_and_counts_exactly():
    # the verify workload's cli part draws its bases with
    # vectors_independent, recounts each through count_common_zeros (and so
    # TraceCode.codeword at t = 1) and pickles the code after the run
    w = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]["bigfield_verify_61_1"]
    result = _replay(w.name, "cli")
    assert result["verify"] == {"checked": w.count, "max_abs_err": 0}
    assert result["Q"] == 3 ** 10
    assert result["pickled_bytes"] > 0
    names = {span["name"] for span in result["spans"]}
    assert {"linalg.sample_bases", "hierarchy.character_sum", "oracle.exact_count"} <= names
