"""``TraceCode.relabel`` links the direct count to the dual recount.

The dual recount of the relabeled subspace is the direct common-zero count
of the subspace itself, subspace by subspace, not only in the maxima.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ghwlab import linalg
from ghwlab.codes import TraceCode, derive_params
from ghwlab.oracle import count_common_zeros
from ghwlab.subspaces import SubspaceIter

import helpers
from paper_lemmas import count_via_dual

GF4_15_6 = (2, 2, 2, 3, 3, 1)
TERNARY_80_8 = (3, 1, 4, 2, 2, 1)


def _assert_relabel_links_counts(code, basis):
    images = [code.relabel(b) for b in basis]
    assert count_via_dual(code, images) == count_common_zeros(code, basis), basis


def _every_subspace(code, r):
    it = SubspaceIter(code.field, code.k, r)
    for rows in helpers.all_subspaces(it):
        yield [linalg.vector_from_coords(code.field, code.t, row) for row in rows]


@pytest.mark.parametrize("params, dims", [
    ((7, 1, 2, 2, 2, 6), (1, 2, 3)),  # ex1, [8,4] over GF(7)
    (GF4_15_6, (1,)),
    ((7, 1, 2, 2, 2, 2), (1, 2, 3)),  # helpers.code("example2"), [24,4] over GF(7)
    ((2, 1, 6, 1, 1, 3), (1, 2, 3)),  # helpers.code("irreducible21"), [21,6] over GF(2)
    (GF4_15_6, (5,)),
])
def test_relabel_links_counts_on_every_subspace(params, dims):
    code = TraceCode(derive_params(*params))
    for r in dims:
        seen = 0
        for basis in _every_subspace(code, r):
            _assert_relabel_links_counts(code, basis)
            seen += 1
        assert seen == helpers.subspace_count(SubspaceIter(code.field, code.k, r))


@pytest.mark.parametrize("r", [1, 7])
def test_relabel_links_counts_on_sampled_subspaces(r):
    code = TraceCode(derive_params(*TERNARY_80_8))
    rng = random.Random(f"80_8 r={r}")
    for _ in range(500):
        _assert_relabel_links_counts(code, helpers.random_basis(code, r, rng))


@given(helpers.small_sweeps(), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_relabel_links_counts_random(sweep, rng):
    code, r = sweep
    for _ in range(20):
        _assert_relabel_links_counts(code, helpers.random_basis(code, r, rng))


def test_relabel_refuses_a_message_of_the_wrong_length():
    code = TraceCode(derive_params(7, 1, 2, 2, 2, 6))  # t = 2
    for vec in [(1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match=f"message must have 2 components, got {len(vec)}"):
            code.relabel(vec)


def test_relabel_is_the_argument_of_each_slot():
    # ex1: e = t = 2, deltas (0, 1), so beta = -1 and slot h is
    # gamma^(a*h) * (b_0 + (-1)^h * b_1)
    code = TraceCode(derive_params(7, 1, 2, 2, 2, 6))
    field = code.field
    g = field.exp[6]
    for b in [(1, 0), (0, 1), (3, 5), (10, 47)]:
        assert code.relabel(b) == (
            field.mul(g, field.sub(b[0], b[1])),
            field.mul(field.mul(g, g), field.add(b[0], b[1])),
        )
