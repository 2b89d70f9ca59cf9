"""The character sum over the span of the basis images against the
member-by-member reference.

``character_sum_count`` computes each basis vector's argument vector once
and enumerates their GF(q)-span slot by slot in the log domain;
``helpers.member_character_sum_count`` recomputes the arguments of every
member.  The summands and their order
are the same, so the floats must be equal, not merely close.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ghwlab.codes import TraceCode, derive_params
from ghwlab.hierarchy import character_sum_count
from ghwlab.linalg import vectors_independent

import helpers

CODES = {
    "ex1": (7, 1, 2, 2, 2, 6),
    "ex2": (7, 1, 2, 2, 2, 2),
    # q = 9: GF(9) inside GF(81), scalar codes not 0..8
    "q9": (3, 2, 2, 1, 1, 5),
    # q = Q = 9, t = 2, N = 1: each r = 1 slot is one period repeated q - 1
    # times, and the two slots' streams are interleaved
    "q9_t2": (3, 2, 1, 2, 2, 1),
}


@pytest.mark.parametrize("name", sorted(CODES))
def test_image_span_equals_member_sum(name):
    code = TraceCode(derive_params(*CODES[name]))
    rng = random.Random(name)
    for r in range(1, code.k + 1):
        for _ in range(3):
            basis = helpers.random_basis(code, r, rng)
            assert (character_sum_count(code, basis)
                    == helpers.member_character_sum_count(code, basis)), (r, basis)


def test_image_span_equals_member_sum_bigfield():
    # [61,1] over GF(3^10): one basis vector spans all 59,049 field elements
    code = TraceCode(derive_params(3, 10, 1, 1, 1, 968))
    basis = helpers.random_basis(code, 1, random.Random(61))
    assert character_sum_count(code, basis) == helpers.member_character_sum_count(code, basis)


def test_image_span_equals_member_sum_bigfield_two_classes():
    # GF(3^5) inside GF(3^10), N = 2, r = 2: 59,049 members; the second basis
    # vector's multiples are added to every member and the class lookup
    # sees both classes
    code = TraceCode(derive_params(3, 5, 2, 1, 1, 2))
    assert code.params.N == 2
    basis = helpers.random_basis(code, 2, random.Random(35))
    assert character_sum_count(code, basis) == helpers.member_character_sum_count(code, basis)


def test_image_span_equals_member_sum_with_a_zero_slot():
    # ex1 has e = t = 2 and deltas (0, 1), so beta = -1: slot h = 1 of b is
    # gamma^a * (b_0 - b_1) and slot h = 2 is gamma^(2a) * (b_0 + b_1)
    code = TraceCode(derive_params(*CODES["ex1"]))
    field = code.field
    beta = field.exp[(field.Q - 1) // 2]
    x, y = 5, field.neg(3)
    assert field.add(x, field.mul(x, beta)) == 0
    assert field.add(3, field.mul(y, field.mul(beta, beta))) == 0
    for basis in ([(x, x)], [(3, y)], [(x, x), (1, 2)], [(1, 2), (x, x)],
                  [(x, x), (3, y)], [(x, x), (1, 2), (7, 1)]):
        assert vectors_independent(field, basis), basis
        assert (character_sum_count(code, basis)
                == helpers.member_character_sum_count(code, basis)), basis


@given(helpers.small_sweeps(), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_image_span_equals_member_sum_random(sweep, rng):
    code, r = sweep
    basis = helpers.random_basis(code, r, rng)
    assert character_sum_count(code, basis) == helpers.member_character_sum_count(code, basis)
