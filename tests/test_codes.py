import pytest

from ghwlab.codes import TraceCode, check_closed_form_hypotheses, derive_params
from ghwlab.fields import poly_mul


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


@pytest.mark.parametrize("key,expected_min", [("example1", 2), ("example2", 6)])
def test_minimum_weight_full_enumeration(key, expected_min):
    import helpers
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


def test_support_union_single_vector(example1):
    word = example1.codeword((1, 1))
    supp = example1.support_union([(1, 1)])
    assert supp == frozenset(i for i, c in enumerate(word) if c)


def test_support_union_full_space(example1):
    f = example1.field
    basis = [(1, 0), (f.gamma, 0), (0, 1), (0, f.gamma)]
    assert len(example1.support_union(basis)) == 8


def test_support_union_monotone(example1):
    small = example1.support_union([(1, 1)])
    bigger = example1.support_union([(1, 1), (0, 1)])
    assert small <= bigger


def test_support_union_rejects_dependent(example1):
    with pytest.raises(ValueError, match="dependent"):
        example1.support_union([(1, 1), (2, 2)])


def test_parity_check_and_generator(example1):
    f = example1.field
    h = example1.parity_check_poly()
    g = example1.generator_poly()
    assert h.degree == example1.k
    assert h.is_monic()
    prod = poly_mul(f, g.coeffs, h.coeffs)
    expected = [0] * (example1.n + 1)
    expected[0] = f.neg(1)
    expected[-1] = 1
    assert list(prod) == expected


def test_derive_params_pure(example1_params):
    again = derive_params(7, 1, 2, 2, 2, 6, (0, 1))
    assert again.to_dict() == example1_params.to_dict()
