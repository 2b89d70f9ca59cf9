"""The sweep's folded trailing rows keep every result and witness.

``oracle._sweep_units`` ORs the masks of a pattern's trailing rows into one
list, once per pattern, while it holds at most ``_TAIL_CAP`` masks; the
fold keeps product order, so the best position, and with it the witness,
must not move.  At a cap of 1 no row with a free column is folded.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from ghwlab import oracle
from ghwlab.codes import TraceCode, derive_params
from ghwlab.oracle import ghw_bruteforce, ghw_dual_sweep

from helpers import small_sweeps

CAPS = (1, 16, oracle._TAIL_CAP)


def _sweeps_at_each_cap(code, r, jobs):
    out = []
    for cap in CAPS:
        with mock.patch.object(oracle, "_TAIL_CAP", cap):
            out.append([sweep(code, r, jobs=jobs) for sweep in (ghw_bruteforce, ghw_dual_sweep)])
    return out


@pytest.mark.parametrize("jobs", [1, 2])
@given(small_sweeps())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_tail_fold_keeps_results_random(jobs, sweep):
    code, r = sweep
    unfolded, *folded = _sweeps_at_each_cap(code, r, jobs)
    assert all(f == unfolded for f in folded), (code, r)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("params, r", [
    ((2, 2, 2, 3, 3, 1), 3),  # [15,6] over GF(4): rows of 64, 16 and 4 choices
    ((2, 1, 6, 1, 1, 3), 4),  # [21,6] over GF(2), four rows
])
def test_tail_fold_keeps_results_multi_row(params, r, jobs):
    code = TraceCode(derive_params(*params))
    unfolded, *folded = _sweeps_at_each_cap(code, r, jobs)
    assert all(f == unfolded for f in folded)
