"""Property-based checks of the algebraic invariants."""

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from ghwlab.cli import _check_hierarchy_shape
from ghwlab.codes import check_closed_form_hypotheses, derive_params
from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.fields import build_field
from ghwlab.hierarchy import ClosedFormGate, FormulaParams
from ghwlab.linalg import rref, vectors_independent
from ghwlab.oracle import ghw_bruteforce
from ghwlab.subspaces import gaussian_binomial

from helpers import (DualContext, class_index, frobenius, mul_gauss_period, period_value,
                     small_sweeps)
from paper_lemmas import enumerate_profiles, shift_cross, unshift_cross, vector_coords

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
    fx, fy = frobenius(F64, x), frobenius(F64, y)
    assert frobenius(F64, F64.add(x, y)) == F64.add(fx, fy)


@given(elems64, st.sampled_from(F64.subfield_q))
@settings(max_examples=40, deadline=None)
def test_trace_is_fq_linear(x, lam):
    trace_q = F64.trace_table(F64.s)
    assert trace_q[F64.mul(lam, x)] == F64.mul(lam, trace_q[x])


@given(nonzero64, st.integers(min_value=0, max_value=20))
@settings(max_examples=40, deadline=None)
def test_class_membership_stable_under_class0(x, k):
    c = F64.exp[(3 * k) % 63]   # an element of class 0
    assert class_index(CYC64, F64.mul(x, c)) == class_index(CYC64, x)


@given(nonzero64)
@settings(max_examples=30, deadline=None)
def test_period_bounded_by_class_size(arg):
    # the period's trace counts are its class's row and sum to the class
    # size, which bounds |sum_k c_k zeta^k|
    row = mul_gauss_period(CYC64, arg)
    assert row == CYC64.period_table()[class_index(CYC64, arg)]
    assert sum(row.values()) == CYC64.class_size
    assert abs(period_value(row, 2)) <= CYC64.class_size


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


# (p, s, m) with Q = p^(sm) <= 2^10: both parities of m, prime and non-prime q
REGIME_FIELDS = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 6), (2, 1, 10), (2, 2, 2), (2, 2, 3),
                 (2, 3, 2), (3, 1, 2), (3, 1, 4), (3, 1, 5), (3, 1, 6), (3, 2, 2), (5, 1, 2),
                 (5, 1, 4), (7, 1, 2), (7, 1, 3), (11, 1, 2), (13, 1, 2), (31, 1, 2)]


@given(st.sampled_from(REGIME_FIELDS), st.integers(1, 3), st.integers(0, 10**6))
@example((7, 1, 2), 2, 5)   # ex1, a = 6: every hypothesis holds
@example((7, 1, 2), 2, 2)   # a = 3: N = 2
@settings(max_examples=150, deadline=None)
def test_gate_builds_a_regime_exactly_when_assumptions_and_hypotheses_hold(fsm, t, draw):
    p, s, m = fsm
    Q = p ** (s * m)
    if (Q - 1) % t:
        t = 1
    params = derive_params(p, s, m, t, t, 1 + draw % (Q - 2))
    gate = ClosedFormGate.of(params)
    holds = params.assumptions.all_ok and check_closed_form_hypotheses(params).all_hold
    assert bool(gate.failures) != holds
    assert gate.fp == (FormulaParams(params.q, m, params.N) if holds else None)


@given(small_sweeps())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_brute_hierarchies_meet_the_chain_bound(sweep):
    # (q^(r+1) - 1) d_r <= (q^(r+1) - q) d_(r+1): an (r+1)-dim subcode's
    # support coordinate misses exactly one of its r-dim subcodes' supports
    code, r = sweep
    assume(r < code.k and gaussian_binomial(code.k, r + 1, code.q) <= 3000)
    d, d2 = ghw_bruteforce(code, r).d_r, ghw_bruteforce(code, r + 1).d_r
    q = code.q
    assert (q ** (r + 1) - 1) * d <= (q ** (r + 1) - q) * d2, (code, r, d, d2)
    _check_hierarchy_shape([r, r + 1], [d, d2], code.n, code.k, q)


@given(small_sweeps())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_brute_hierarchies_meet_the_griesmer_bound(sweep):
    # d_r >= sum_{i<r} ceil(d_1 / q^i) (Helleseth, Kløve and Ytrehus, 1992)
    code, r = sweep
    d1, d = ghw_bruteforce(code, 1).d_r, ghw_bruteforce(code, r).d_r
    q = code.q
    assert d >= sum(-(-d1 // q**i) for i in range(r)), (code, r, d1, d)
    _check_hierarchy_shape([1, r], [d1, d], code.n, code.k, q)
