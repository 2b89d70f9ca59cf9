import pytest

from ghwlab.fields import (
    PolyOverFq,
    build_field,
    is_prime,
    poly_divmod,
    poly_mul,
    prime_factors,
)


def test_build_field_basic(f49):
    assert f49.Q == 49
    assert f49.q == 7
    assert f49.order(f49.gamma) == 48
    assert f49.log[f49.gamma] == 1


def test_prime_field_trivial():
    f2 = build_field(2, 1)
    assert f2.Q == 2
    assert f2.gamma == 1
    assert f2.order(f2.gamma) == 1
    assert f2.add(1, 1) == 0
    assert f2.mul(1, 1) == 1


def test_gamma_order_exhaustive_f64(f64):
    x = 1
    for k in range(1, 63):
        x = f64.mul(x, f64.gamma)
        assert x != 1, f"gamma^{k} = 1"
    assert f64.mul(x, f64.gamma) == 1


def test_build_field_deterministic():
    a = build_field(7, 2)
    b = build_field(7, 2)
    assert a.modulus == b.modulus
    assert a.exp == b.exp


def test_build_field_rejections():
    with pytest.raises(ValueError, match="prime"):
        build_field(4, 2)
    with pytest.raises(ValueError, match="cap"):
        build_field(2, 21)
    with pytest.raises(ValueError, match="divide"):
        build_field(2, 6, subfield_degree=4)


def test_log_table_bijection(f49):
    seen = set()
    for x in range(1, 49):
        k = f49.log[x]
        assert 0 <= k < 48
        assert f49.exp[k] == x
        seen.add(k)
    assert len(seen) == 48


def test_log_multiplicative(f64):
    for x in (3, 17, 40):
        for y in (5, 21, 63):
            assert f64.log[f64.mul(x, y)] == (f64.log[x] + f64.log[y]) % 63


@pytest.mark.parametrize("fixture", ["f4", "f49", "f64", "f9"])
def test_frobenius_additive_exhaustive(fixture, request):
    field = request.getfixturevalue(fixture)
    p = field.p
    for x in range(field.Q):
        for y in range(field.Q):
            assert field.pow(field.add(x, y), p) == field.add(field.pow(x, p), field.pow(y, p))


@pytest.mark.parametrize("p,degree", [(3, 6), (5, 4), (2, 10), (2, 12)])
def test_frobenius_additive_large_fields(p, degree):
    # Exhaustive-equivalent check for fields where all Q^2 pairs are too
    # many: if F(x+c) = F(x) + F(c) for every x and every single-digit c,
    # additivity on all pairs follows by induction on the digits of y.
    import helpers
    field = helpers.field(p, degree)
    digits = [lam * p**i for i in range(degree) for lam in range(1, p)]
    frob = [field.pow(x, p) for x in range(field.Q)]
    for x in range(field.Q):
        fx = frob[x]
        for c in digits:
            assert frob[field.add(x, c)] == field.add(fx, frob[c])


def test_field_axioms_sampled(f49):
    elems = [0, 1, 5, 13, 30, 48]
    for a in elems:
        for b in elems:
            assert f49.add(a, b) == f49.add(b, a)
            assert f49.mul(a, b) == f49.mul(b, a)
            for c in elems:
                assert f49.mul(a, f49.add(b, c)) == f49.add(f49.mul(a, b), f49.mul(a, c))
    for a in elems[1:]:
        assert f49.mul(a, f49.inv(a)) == 1
        assert f49.add(a, f49.neg(a)) == 0


def test_trace_small_values(f4):
    assert f4.trace_table(1)[0] == 0
    # 1 + 1^2 = 0 in characteristic 2
    assert f4.trace_table(1)[1] == 0


def test_trace_balanced_f49(f49):
    # 7 elements per trace value when tracing F_49 onto F_7
    counts = {}
    for x in range(49):
        v = f49.trace_table(1)[x]
        assert v in f49.subfield_q
        counts[v] = counts.get(v, 0) + 1
    assert counts == {v: 7 for v in f49.subfield_q}


def test_trace_fibers_onto_subfield(f64):
    counts = {}
    for x in range(64):
        counts.setdefault(f64.trace_table(f64.s)[x], 0)
        counts[f64.trace_table(f64.s)[x]] += 1
    assert counts == {0: 32, 1: 32}


def test_trace_rejects_bad_degree(f64):
    with pytest.raises(ValueError, match="divide"):
        f64.trace_table(4)


# (p, degree, s, target degrees): p in {2, 3, 5, 7}, target degree 1, a proper
# divisor where one exists, and the whole field; four fields have s > 1.
TRACE_CASES = [
    (2, 2, 1, (1, 2)),
    (2, 6, 1, (1, 2, 3, 6)),
    (2, 4, 2, (1, 2, 4)),
    (3, 4, 2, (1, 2, 4)),
    (3, 6, 3, (1, 2, 3, 6)),
    (5, 2, 1, (1, 2)),
    (5, 4, 1, (1, 2, 4)),
    (7, 2, 1, (1, 2)),
    (7, 4, 2, (1, 2, 4)),
]


@pytest.mark.parametrize("p,degree,s,subs", TRACE_CASES)
def test_trace_table_matches_frobenius_sum(p, degree, s, subs):
    # the table is built by GF(p)-linearity from the basis X^i; compare it
    # with the definitional sum of x^(p^(sub*i)) at every element
    import helpers
    field = helpers.field(p, degree, s)
    for sub in subs:
        table = field.trace_table(sub)
        assert len(table) == field.Q
        for x in range(field.Q):
            assert table[x] == helpers.frobenius_trace(field, x, sub), (sub, x)
        assert set(table) == set(field.subfield(sub))
    for bad in (0, -1, degree + 1) + tuple(d for d in range(2, degree) if degree % d):
        with pytest.raises(ValueError, match="divide"):
            field.trace_table(bad)


def test_subfield_closure(f64):
    sub = f64.subfield(3)
    assert len(sub) == 8
    assert sub[0] == 0 and sub[1] == 1
    as_set = set(sub)
    for a in sub:
        for b in sub:
            assert f64.add(a, b) in as_set
            assert f64.mul(a, b) in as_set


def test_subfield_q_is_frobenius_fixed(f49):
    fixed = {x for x in range(49) if f49.frobenius(x, f49.s) == x}
    assert fixed == set(f49.subfield_q)
    assert len(fixed) == 7


def test_coords_round_trip(f64):
    for x in (0, 1, 9, 33, 62):
        coords = f64.coords_over_q(x)
        assert len(coords) == 6
        assert all(c in (0, 1) for c in coords)
        assert f64.element_from_coords(coords) == x


def test_coords_round_trip_nonprime_subfield():
    # q = 4 inside GF(2^4): coordinates live in the 4-element subfield
    f16 = build_field(2, 4, subfield_degree=2)
    sub = set(f16.subfield_q)
    for x in range(16):
        coords = f16.coords_over_q(x)
        assert len(coords) == 2
        assert set(coords) <= sub
        assert f16.element_from_coords(coords) == x


def test_minimal_poly_subfield_element(f49):
    poly = f49.minimal_poly(3)
    assert poly.degree == 1
    assert poly.is_monic()


def test_minimal_poly_example1_exponents(f49):
    # the two exponents of the first worked example give distinct degree-2
    # minimal polynomials
    h6 = f49.minimal_poly(f49.pow(f49.gamma, -6))
    h30 = f49.minimal_poly(f49.pow(f49.gamma, -30))
    assert h6.degree == 2
    assert h30.degree == 2
    assert h6.coeffs != h30.coeffs
    assert all(c in f49.subfield_q for c in h6.coeffs)


def test_minimal_poly_annihilates_and_divides(f64):
    for x in (f64.gamma, 9, 44):
        poly = f64.minimal_poly(x)
        assert poly.evaluate(x) == 0
        assert f64.m % poly.degree == 0


def test_minimal_poly_divides_xq1_minus_1(f49):
    prod = (1,)
    seen = set()
    for x in (f49.gamma, f49.pow(f49.gamma, 5)):
        poly = f49.minimal_poly(x)
        if poly.coeffs in seen:
            continue
        seen.add(poly.coeffs)
        prod = poly_mul(f49, prod, poly.coeffs)
    xq1 = [0] * 49
    xq1[0] = f49.neg(1)
    xq1[48] = 1
    _, rem = poly_divmod(f49, tuple(xq1), prod)
    assert not any(rem)


def test_minimal_poly_rejects_zero(f49):
    with pytest.raises(ValueError):
        f49.minimal_poly(0)


def test_poly_divmod_round_trip(f49):
    a = (3, 0, 1, 5, 1)
    b = (2, 1, 1)
    quot, rem = poly_divmod(f49, a, b)
    back = list(poly_mul(f49, quot, b))
    while len(back) < len(a):
        back.append(0)
    for i in range(len(a)):
        r = rem[i] if i < len(rem) else 0
        assert f49.add(back[i], r) == a[i]


def test_json_fragment(f49):
    frag = f49.to_json_dict()
    assert frag == {"p": 7, "degree": 2, "modulus_coeffs": [3, 1, 1]}


def test_primality_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(48) == [2, 3]
    assert prime_factors(1) == []
