"""A [364, 12] ternary instance: too large for full brute force.

Exhaustive hierarchy verification is out of reach here (already 3.5e10
2-dimensional subspaces), so this exercises what the closed form must
deliver on larger inputs: exact integer branch values, structural sanity,
and per-subspace agreement between the numeric character-sum count and the
direct count on sampled subspaces.
"""

import random

import pytest

from ghwlab.codes import TraceCode, check_closed_form_hypotheses, derive_params
from ghwlab.hierarchy import character_sum_count, closed_form_hierarchy
from ghwlab.linalg import vectors_independent
from ghwlab.oracle import count_common_zeros, count_via_dual


@pytest.fixture(scope="module")
def big():
    # p=3, m=6, e=t=2, a=2: N=4, delta=2, n=364, k=12
    params = derive_params(3, 1, 6, 2, 2, 2, (0, 1))
    return TraceCode(params)


def test_parameters_and_hypotheses(big):
    p = big.params
    assert (p.N, p.delta, p.n, p.k) == (4, 2, 364, 12)
    assert p.assumptions.all_ok
    rep = check_closed_form_hypotheses(p)
    assert rep.all_hold
    assert rep.j == 1


def test_closed_form_structural_sanity(big):
    hierarchy = closed_form_hierarchy(big.params)
    assert hierarchy[0] == 108
    assert hierarchy[-1] == big.n
    for lo, hi in zip(hierarchy, hierarchy[1:]):
        assert lo < hi
    for r, d in enumerate(hierarchy, start=1):
        assert d <= big.n - big.k + r


def _random_basis(code, rng, r):
    basis = []
    while len(basis) < r:
        cand = tuple(rng.randrange(code.params.Q) for _ in range(code.t))
        if any(cand) and vectors_independent(code.field, basis + [cand]):
            basis.append(cand)
    return basis


def test_character_sum_matches_exact_on_samples(big):
    rng = random.Random(99)
    for r in (1, 1, 1, 2, 2):
        basis = _random_basis(big, rng, r)
        numeric = character_sum_count(big, basis)
        exact = count_common_zeros(big, basis)
        assert abs(numeric - exact) < 1e-6


def test_dual_count_integral_on_samples(big):
    # the dual recount has an exact-divisibility check built in; any
    # non-integral value would raise
    rng = random.Random(7)
    for r in (1, 2, 3):
        basis = _random_basis(big, rng, r)
        value = count_via_dual(big, basis)
        assert 0 <= value <= big.n - r
