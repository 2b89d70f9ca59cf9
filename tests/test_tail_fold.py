"""The sweep's folded trailing rows keep every result and witness.

``oracle._sweep_units`` ORs the masks of trailing rows into one list while
it holds at most ``_TAIL_CAP`` masks; the fold keeps product order, so the
best position, and with it the witness, must not move.  At a cap of 1 no
row with a free column is folded.
"""

import random
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


@pytest.mark.parametrize("cap", CAPS)
def test_fold_per_pattern_equals_fold_per_unit(cap):
    # the sweep folds a pattern's later rows once, then each unit's slice of
    # the first row onto them: the same lists as folding the unit's rows at once
    rng = random.Random(cap)
    for _ in range(50):
        rows = [[rng.getrandbits(12) for _ in range(rng.choice((1, 2, 3, 4, 8, 16)))]
                for _ in range(rng.randint(1, 5))]
        first, *rest = rows
        lo = rng.randrange(len(first))
        hi = rng.randint(lo + 1, len(first))
        with mock.patch.object(oracle, "_TAIL_CAP", cap):
            at_once = oracle._fold_tail([first[lo:hi], *rest])
            per_pattern = oracle._fold_tail([first[lo:hi], *oracle._fold_tail(rest)])
        assert per_pattern == at_once
