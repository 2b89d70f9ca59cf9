"""The character sum over the span of the basis images against the
member-by-member reference and the exact count.

``character_sum_count`` computes each basis vector's argument vector once
and counts how often each class occurs among the slot arguments over their
GF(q)-span; ``helpers.member_character_sum_count`` recomputes the argument
of every member and adds its period's trace counts.  Both return exact
integers, so they must be equal, and equal to ``count_common_zeros``."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ghwlab import cli
from ghwlab.codes import TraceCode, count_common_zeros, derive_params
from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.hierarchy import character_sum_count
from ghwlab.linalg import vectors_independent

import helpers

CODES = {
    "ex1": (7, 1, 2, 2, 2, 6),
    "ex2": (7, 1, 2, 2, 2, 2),
    # q = 9: GF(9) inside GF(81), scalar codes not 0..8
    "q9": (3, 2, 2, 1, 1, 5),
    # q = Q = 9, t = 2, N = 1: each r = 1 slot uses one class q - 1 times
    # and the zero argument once, in each of two slots
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


@given(helpers.small_sweeps(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_character_sum_equals_exact_count(sweep, rng):
    code, r = sweep
    basis = helpers.random_basis(code, r, rng)
    value = character_sum_count(code, basis)
    assert type(value) is int
    assert value == count_common_zeros(code, basis)


# verify golden cases on which each mutation below is caught
MUTATION_CASES = {
    "80_8": ["--p", "3", "--m", "4", "--e", "2", "--t", "2", "--a", "1", "--count", "10"],
    "ex1": ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6",
            "--count", "25", "--seed", "1"],
}


def _rows_from_class_1(table, N):
    return table[1:N] + table[:1] + table[N:]


def _zero_row_of_class_1(table, N):
    return table[:N] + (table[1],)


@pytest.mark.parametrize("mutate", [_rows_from_class_1, _zero_row_of_class_1])
@pytest.mark.parametrize("name", sorted(MUTATION_CASES))
def test_verify_exits_3_on_mutated_period_table(name, mutate, capsys, monkeypatch):
    table = CyclotomyCtx.period_table
    monkeypatch.setattr(CyclotomyCtx, "period_table", lambda self: mutate(table(self), self.N))
    assert cli.main(["verify", *MUTATION_CASES[name]]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(MUTATION_CASES))
def test_verify_exits_3_on_doubled_delta_in_scaling(name, capsys, monkeypatch):
    # delta enters character_sum_count only through the scaling
    # N*(T_0 - T_1)/(t*delta*q^r)
    def doubled(code, basis):
        params = code.params
        code.params = params._replace(delta=2 * params.delta)
        try:
            return character_sum_count(code, basis)
        finally:
            code.params = params

    monkeypatch.setattr(cli, "character_sum_count", doubled)
    assert cli.main(["verify", *MUTATION_CASES[name]]) == 3
    capsys.readouterr()
