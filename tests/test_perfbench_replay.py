"""The benchmark's replay (``perfbench/replay.py``) still runs on this API.

The replay calls ``SubspaceIter.patterns``/``iter_pattern``, the sweeps and
the set-up functions directly, so a change to any of them can break the
benchmark without failing a CLI test.  Each case runs it as a subprocess,
the way ``perfbench/run.py`` does, and checks the counts and hierarchies
against the workload's own reference.
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


@pytest.mark.parametrize("name,part", [("brute_80_8", "layers"), ("dual_par_17_8", "cli")])
def test_replay_runs_and_matches_reference(name, part):
    w = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"][name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "replay.py"), "--workload", name,
         "--seed", "0", "--part", part],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
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
