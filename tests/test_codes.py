import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ghwlab.codes import (
    AssumptionCheck,
    TraceCode,
    _check_iii,
    check_closed_form_hypotheses,
    count_common_zeros,
    derive_params,
)
from ghwlab.fields import FieldCtx, build_field
from ghwlab.linalg import rref, vector_from_coords

import helpers
from paper_lemmas import generator_poly, is_monic, minimal_poly, parity_check_poly, poly_mul


def test_code_and_cyclotomy_reprs(example1):
    assert repr(example1) == "TraceCode([8,4] over GF(7), N=4)"
    assert repr(example1.cyclotomy) == "CyclotomyCtx(Q=49, N=4)"


def test_example1_derivation(example1_params):
    p = example1_params
    assert p.a_list == (6, 30)
    assert p.delta == 6
    assert p.n == 8
    assert p.N == 4
    assert p.k == 4
    assert p.assumptions.all_ok


def test_example2_derivation(example2_params):
    p = example2_params
    assert p.a_list == (2, 26)
    assert p.delta == 2
    assert p.n == 24
    assert p.N == 4
    assert p.k == 4


def test_simplex_derivation(simplex_params):
    p = simplex_params
    assert p.delta == 1
    assert p.n == 3
    assert p.N == 1


def test_gf_q_scalars_lie_in_class_zero():
    # character_sum_count folds an r = 1 slot as one period repeated q - 1
    # times: N divides (Q-1)/(q-1), so every c in GF(q)^* is a power of
    # gamma^N and c*y lies in the class of y
    checked = 0
    for p, s, m in ((2, 1, 4), (2, 2, 2), (2, 1, 6), (2, 3, 2), (2, 2, 3), (3, 1, 4),
                    (3, 2, 2), (3, 1, 3), (5, 1, 2), (5, 2, 1), (7, 1, 2), (13, 1, 2)):
        Q = p ** (s * m)
        for e in (d for d in (1, 2, 3, 4, 6) if (Q - 1) % d == 0):
            for t in range(1, e + 1):
                for a in range(1, Q + 1):
                    params = derive_params(p, s, m, e, t, a, tuple(range(t)))
                    field, N = params.field, params.N
                    assert ((Q - 1) // (params.q - 1)) % N == 0, (p, s, m, e, t, a)
                    assert all(field.log[c] % N == 0 for c in field.subfield_q[1:]), \
                        (p, s, m, e, t, a)
                    checked += 1
    assert checked > 1000


def test_default_deltas_when_e_equals_t():
    p = derive_params(7, 1, 2, 2, 2, 6)
    assert p.deltas == (0, 1)


def test_derive_hard_errors():
    with pytest.raises(ValueError, match="prime"):
        derive_params(4, 1, 2, 2, 2, 6, (0, 1))
    with pytest.raises(ValueError, match="exceeds e"):
        derive_params(7, 1, 2, 1, 2, 6, (0, 1))
    with pytest.raises(ValueError, match="length"):
        derive_params(7, 1, 2, 2, 2, 6, (0,))
    with pytest.raises(ValueError, match="divide"):
        derive_params(7, 1, 2, 5, 2, 6, (0, 1))
    with pytest.raises(ValueError, match="defaulted"):
        derive_params(7, 1, 2, 4, 2, 6)


def test_assumption_i_failure_reported():
    p = derive_params(7, 1, 2, 2, 2, 48, (0, 1))
    assert not p.assumptions.i.ok
    assert "0 mod" in p.assumptions.i.detail
    with pytest.raises(ValueError, match="assumption"):
        TraceCode(p)


def test_assumption_ii_failure_reported():
    p = derive_params(7, 1, 2, 4, 2, 6, (0, 2))
    assert not p.assumptions.ii.ok
    assert "gcd" in p.assumptions.ii.detail


def test_assumption_iii_failure_degree():
    # a = 5 over GF(2^4): the conjugacy orbit of the exponent has size 2 < m
    p = derive_params(2, 1, 4, 1, 1, 5)
    assert not p.assumptions.iii.ok
    assert "degrees" in p.assumptions.iii.detail


def test_assumption_iii_failure_collision():
    # a = 4 in the worked-example family: the two exponents are conjugate
    p = derive_params(7, 1, 2, 2, 2, 4, (0, 1))
    assert not p.assumptions.iii.ok
    assert "repeated" in p.assumptions.iii.detail


def _check_iii_by_minimal_polys(field, a_list, m):
    """Assumption iii read off the multiplied-out minimal polynomials of the
    roots gamma^(-a_j), each raised by repeated ``mul``, and the code
    dimension as the sum of the distinct ones' degrees."""
    polys = [minimal_poly(field, field.inv(helpers.power(field, field.gamma, ai))) for ai in a_list]
    k = sum({poly.coeffs: poly.degree for poly in polys}.values())
    degs = [poly.degree for poly in polys]
    if any(d != m for d in degs):
        return AssumptionCheck(False, f"minimal polynomial degrees {degs}, expected all {m}"), k
    if len({poly.coeffs for poly in polys}) != len(polys):
        return AssumptionCheck(False, "repeated minimal polynomial among the exponents"), k
    return AssumptionCheck(True, f"all degrees equal {m} and polynomials pairwise distinct"), k


def test_assumption_iii_orbits_match_minimal_polynomials():
    kinds = {"pass": 0, "degrees": 0, "repeated": 0}
    # (2, 2, 5, 3, 3): s > 1 with codes above 255; (3, 10, 1, 2, 2): GF(3^10) at m = 1
    for p, s, m, e, t in ((7, 1, 2, 2, 2), (3, 1, 4, 2, 2), (2, 1, 6, 3, 3),
                          (2, 1, 4, 3, 2), (2, 2, 2, 3, 3), (3, 1, 6, 2, 2),
                          (2, 2, 5, 3, 3), (3, 10, 1, 2, 2)):
        field = build_field(p, s * m, subfield_degree=s)
        group = field.Q - 1
        for a in range(1, 60):
            a_list = tuple((a + group // e * d) % group for d in range(t))
            got, k = _check_iii(field.q, field.Q, a_list, m)
            assert (got, k) == _check_iii_by_minimal_polys(field, a_list, m), (p, s, m, e, t, a)
            kinds["pass" if got.ok else "repeated" if "repeated" in got.detail
                  else "degrees"] += 1
    # the corpus exercises both failure kinds, not only the passing branch
    assert all(kinds.values()), kinds


def _unit_word_rank(params):
    """GF(q) rank of the words of the t*m unit messages, each read by
    ``helpers.fq_codeword``: the code's dimension, found without orbits.
    The stand-in carries what the reference reads, since ``TraceCode``
    refuses a code whose assumption iii fails."""
    field, tm = params.field, params.t * params.m
    code = SimpleNamespace(field=field, n=params.n, params=params)
    words = [helpers.fq_codeword(code, vector_from_coords(
        field, params.t, [1 if i == u else 0 for i in range(tm)])) for u in range(tm)]
    return len(rref(field, words)[0])


@pytest.mark.parametrize("args, k", [
    ((3, 1, 6, 2, 2, 2, (0, 2)), 6),      # a_i = [2, 2]: one orbit twice
    ((7, 1, 2, 2, 2, 4, (0, 1)), 2),      # conjugate exponents
    ((7, 1, 2, 2, 2, 8, (0, 1)), 2),      # both roots in GF(7)
    ((2, 1, 6, 3, 3, 3, (0, 1, 2)), 9),   # degrees 6, 6, 3; the two sextic orbits agree
    ((2, 1, 4, 1, 1, 5, (0,)), 2),        # one root of degree 2 < m
    ((7, 1, 2, 2, 2, 6, (0, 1)), 4),      # assumption iii holds: k = t*m
])
def test_dimension_is_the_rank_of_the_unit_words(args, k):
    params = derive_params(*args)
    assert params.assumptions.iii.ok == (k == params.t * params.m)
    assert params.k == _unit_word_rank(params) == k


def test_dimension_matches_the_rank_wherever_assumption_iii_fails():
    failing = 0
    for p, s, m, e, t in ((2, 1, 4, 3, 2), (2, 1, 6, 3, 3), (2, 2, 2, 3, 3), (7, 1, 2, 2, 2)):
        for a in range(1, 30):
            params = derive_params(p, s, m, e, t, a, range(t))
            if not params.assumptions.iii.ok:
                failing += 1
                assert params.k == _unit_word_rank(params) < t * m, (p, s, m, e, t, a)
    assert failing >= 20


def test_assumption_t1_has_no_delta_condition(irreducible21_params):
    assert irreducible21_params.assumptions.ii.ok
    assert "t=1" in irreducible21_params.assumptions.ii.detail


def test_hypotheses_example1(example1_params):
    rep = check_closed_form_hypotheses(example1_params)
    assert rep.all_hold
    assert rep.j == 1
    assert not rep.irreducible


def test_hypotheses_irreducible21(irreducible21_params):
    rep = check_closed_form_hypotheses(irreducible21_params)
    assert rep.all_hold
    assert rep.j == 1
    assert rep.irreducible


def test_hypotheses_parity_failure():
    # sm/(2j) = 2 is even here, so the closed form must refuse
    p = derive_params(2, 1, 4, 1, 1, 3)
    rep = check_closed_form_hypotheses(p)
    assert p.N == 3
    assert rep.j == 1
    assert not rep.sm_over_2j_odd
    assert not rep.all_hold
    assert "sm_over_2j_odd" in rep.failures()


def test_hypotheses_simplex_never_throws(simplex_params):
    rep = check_closed_form_hypotheses(simplex_params)
    assert not rep.all_hold
    assert not rep.N_in_range


def test_codeword_zero_message(example1):
    assert example1.codeword((0, 0)) == (0,) * 8


def test_codeword_linearity(example1):
    f = example1.field
    x = (3, 17)
    y = (40, 5)
    wx = example1.codeword(x)
    wy = example1.codeword(y)
    both = example1.codeword((f.add(x[0], y[0]), f.add(x[1], y[1])))
    assert both == tuple(f.add(a, b) for a, b in zip(wx, wy))


def test_codeword_wrong_length(example1):
    with pytest.raises(ValueError):
        example1.codeword((1,))


def test_codeword_coordinates_in_subfield(example2):
    sub = set(example2.field.subfield_q)
    for x in ((1, 0), (13, 40), (48, 5)):
        assert set(example2.codeword(x)) <= sub


# (p, s, m, e, t, a, deltas) of codes whose words are checked against the
# F_Q reference: [61,1] over GF(3^10) (q = Q, t = 1), q9_t2 (m = 1, t = 2),
# [80,8] over GF(3), the e != t code e3t1, and an m = 1 code with a_2 = 0
CODEWORD_CASES = {
    "bigfield_61_1": (3, 10, 1, 1, 1, 968, (0,)),
    "q9_t2": (3, 2, 1, 2, 2, 1, (0, 1)),
    "80_8": (3, 1, 4, 2, 2, 1, (0, 1)),
    "e3t1": (2, 1, 4, 3, 1, 1, (0,)),
    "a2_zero": (3, 2, 1, 2, 2, 4, (0, 1)),
}


@pytest.mark.parametrize("name", sorted(CODEWORD_CASES))
def test_codeword_equals_fq_reference(name):
    code = TraceCode(derive_params(*CODEWORD_CASES[name]))
    rng = random.Random(name)
    Q = code.params.Q
    messages = [(0,) * code.t, (1,) * code.t]
    messages += [tuple(rng.randrange(Q) for _ in range(code.t)) for _ in range(6)]
    messages += [tuple(rng.randrange(Q) if j == h else 0 for j in range(code.t))
                 for h in range(code.t)]
    for x in messages:
        assert code.codeword(x) == helpers.fq_codeword(code, x), x


@given(st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_codeword_equals_fq_reference_random(data):
    code, _ = data.draw(helpers.small_sweeps())
    x = data.draw(st.tuples(*[st.integers(0, code.params.Q - 1)] * code.t))
    assert code.codeword(x) == helpers.fq_codeword(code, x)


@pytest.mark.parametrize("name", ["bigfield_61_1", "q9_t2", "80_8"])
def test_codeword_forms_no_fq_product(name, monkeypatch):
    # coordinates are trace reads at exponents, added in GF(q): no mul at
    # all, and at t = 1 no add either
    code = TraceCode(derive_params(*CODEWORD_CASES[name]))
    x = tuple(range(2, 2 + code.t))
    expected = code.codeword(x)
    calls = []
    for op in ("mul", "add"):
        original = getattr(FieldCtx, op)
        monkeypatch.setattr(FieldCtx, op, lambda self, a, b, op=op, original=original:
                            calls.append(op) or original(self, a, b))
    assert code.codeword(x) == expected
    assert "mul" not in calls
    assert calls.count("add") == (code.t - 1) * code.n


@pytest.mark.parametrize("key,expected_min", [("example1", 2), ("example2", 6)])
def test_minimum_weight_full_enumeration(key, expected_min):
    code = helpers.code(key)
    Q = code.params.Q
    words = set()
    min_wt = code.n
    for x0 in range(Q):
        for x1 in range(Q):
            word = code.codeword((x0, x1))
            words.add(word)
            if any(word):
                min_wt = min(min_wt, sum(1 for c in word if c))
    assert min_wt == expected_min
    # injectivity: distinct messages give distinct words
    assert len(words) == Q * Q == code.q ** code.k


def test_cyclic_shift_property(example1):
    # shifting the word corresponds to scaling slot j by gamma^(a_j)
    f = example1.field
    a_list = example1.params.a_list
    for x in ((1, 5), (22, 0), (7, 46)):
        shifted_msg = tuple(f.mul(x[j], f.exp[a_list[j] % (f.Q - 1)]) for j in range(2))
        word = example1.codeword(x)
        assert example1.codeword(shifted_msg) == word[1:] + word[:1]


def test_count_common_zeros_single_vector(example1):
    word = example1.codeword((1, 1))
    count = count_common_zeros(example1, [(1, 1)])
    assert example1.n - count == sum(1 for c in word if c)


def test_count_common_zeros_full_space(example1):
    f = example1.field
    basis = [(1, 0), (f.gamma, 0), (0, 1), (0, f.gamma)]
    assert count_common_zeros(example1, basis) == 0


def test_count_common_zeros_monotone(example1):
    line = count_common_zeros(example1, [(1, 1)])
    plane = count_common_zeros(example1, [(1, 1), (0, 1)])
    assert plane <= line


def test_count_common_zeros_rejects_dependent(example1):
    with pytest.raises(ValueError, match="dependent"):
        count_common_zeros(example1, [(1, 1), (2, 2)])


def test_parity_check_and_generator(example1):
    f = example1.field
    h = parity_check_poly(example1)
    g = generator_poly(example1)
    assert h.degree == example1.k
    assert is_monic(h)
    prod = poly_mul(f, g.coeffs, h.coeffs)
    expected = [0] * (example1.n + 1)
    expected[0] = f.neg(1)
    expected[-1] = 1
    assert list(prod) == expected


def test_derive_params_pure(example1_params):
    again = derive_params(7, 1, 2, 2, 2, 6, (0, 1))
    assert again.to_dict() == example1_params.to_dict()
