"""Property-based checks of the algebraic invariants."""

from hypothesis import given, settings, strategies as st

from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.fields import build_field
from ghwlab.hierarchy import (
    FormulaParams,
    enumerate_profiles,
    shift_cross,
    unshift_cross,
)
from ghwlab.linalg import rref, vector_coords, vectors_independent

from helpers import DualContext

F49 = build_field(7, 2)
F64 = build_field(2, 6)
CYC64 = CyclotomyCtx(F64, 3)
FP26 = FormulaParams(2, 6, 3)

elems49 = st.integers(min_value=0, max_value=48)
elems64 = st.integers(min_value=0, max_value=63)
nonzero64 = st.integers(min_value=1, max_value=63)


@given(elems49, elems49, elems49)
@settings(max_examples=60, deadline=None)
def test_ring_axioms_f49(a, b, c):
    assert F49.add(a, b) == F49.add(b, a)
    assert F49.mul(a, F49.mul(b, c)) == F49.mul(F49.mul(a, b), c)
    assert F49.mul(a, F49.add(b, c)) == F49.add(F49.mul(a, b), F49.mul(a, c))


@given(elems49)
@settings(max_examples=30, deadline=None)
def test_inverse_laws_f49(a):
    assert F49.add(a, F49.neg(a)) == 0
    if a:
        assert F49.mul(a, F49.inv(a)) == 1


@given(nonzero64, nonzero64)
@settings(max_examples=60, deadline=None)
def test_log_homomorphism(x, y):
    assert F64.log[F64.mul(x, y)] == (F64.log[x] + F64.log[y]) % 63


@given(elems64, elems64)
@settings(max_examples=60, deadline=None)
def test_frobenius_additive(x, y):
    assert F64.pow(F64.add(x, y), 2) == F64.add(F64.pow(x, 2), F64.pow(y, 2))


@given(elems64, st.sampled_from(F64.subfield_q))
@settings(max_examples=40, deadline=None)
def test_trace_is_fq_linear(x, lam):
    trace_q = F64.trace_table(F64.s)
    assert trace_q[F64.mul(lam, x)] == F64.mul(lam, trace_q[x])


@given(nonzero64, st.integers(min_value=0, max_value=20))
@settings(max_examples=40, deadline=None)
def test_class_membership_stable_under_class0(x, k):
    c = F64.exp[(3 * k) % 63]   # an element of class 0
    assert CYC64.class_index(F64.mul(x, c)) == CYC64.class_index(x)


@given(nonzero64)
@settings(max_examples=30, deadline=None)
def test_period_bounded_by_class_size(arg):
    assert abs(CYC64.gauss_period(arg)) <= CYC64.class_size + 1e-9


@given(st.lists(st.tuples(elems49, elems49), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_double_dual_is_identity(vecs):
    basis = []
    for v in vecs:
        if any(v) and vectors_independent(F49, basis + [list(v)]):
            basis.append(list(v))
    if not basis:
        return
    dual = DualContext(F49, 2)
    ddual = dual.dual_space(dual.dual_space(basis))
    key, _ = rref(F49, [vector_coords(F49, v) for v in basis])
    dkey, _ = rref(F49, [vector_coords(F49, v) for v in ddual])
    assert key == dkey


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=24))
@settings(max_examples=40, deadline=None)
def test_profiles_sorted_and_sum_preserving(t, total):
    total = min(total, t * 6)
    for u in enumerate_profiles(t, total, 6):
        assert sum(u) == total
        assert u == tuple(sorted(u, reverse=True))


@given(st.integers(min_value=4, max_value=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_cross_shift_round_trips(hi, lo):
    u = tuple(sorted((hi, lo), reverse=True))
    shifted = shift_cross(FP26, u, 0, 1)
    assert sum(shifted) == sum(u)
    restored = unshift_cross(FP26, shifted, 0, 1)
    assert restored == u
