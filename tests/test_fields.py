import tracemalloc
from itertools import product

import pytest

from ghwlab.fields import (
    FieldCtx,
    _build_tables,
    _digits,
    _primitive_modulus,
    _x_has_full_order,
    _zech_table,
    build_field,
    is_prime,
    prime_factors,
)

import helpers
from helpers import digit_loop_tables, order
from paper_lemmas import coords_over_q, evaluate, is_monic, minimal_poly, poly_divmod, poly_mul


def test_build_field_basic(f49):
    assert f49.Q == 49
    assert f49.q == 7
    assert order(f49, f49.gamma) == 48
    assert f49.log[f49.gamma] == 1


def test_field_equals_no_other_type(f49):
    assert f49.__eq__(49) is NotImplemented
    assert build_field(7, 2) != 49


def test_prime_field_trivial():
    f2 = build_field(2, 1)
    assert f2.Q == 2
    assert f2.gamma == 1
    assert order(f2, f2.gamma) == 1
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


def test_build_field_keeps_one_field_per_triple():
    # the cache is keyed on (p, ext_degree, subfield_degree) whatever form
    # the call takes, so the three calls share one field and its tables
    field = build_field(3, 4)
    assert build_field(3, 4, 1) is field
    assert build_field(3, 4, subfield_degree=1) is field
    assert build_field(p=3, ext_degree=4) is field
    assert build_field(3, 4, 2) is not field


def _first_primitive_unfiltered(p, d):
    """The reference search: every candidate with a nonzero constant term
    goes to the order test, in packed order."""
    for packed in range(p**d):
        if packed % p:
            modulus = _digits(packed, p, d) + [1]
            if _x_has_full_order(p, d, modulus):
                return modulus
    raise AssertionError(f"no primitive polynomial of degree {d} over GF({p})")


def test_primitive_modulus_matches_unfiltered_search():
    # skipping candidates with a root in GF(p) never skips the first
    # primitive one, on every field of at most 2^16 elements (degree 1
    # only for small p: the filter applies from degree 2 on)
    pairs = [(p, d) for p in range(2, 257) if is_prime(p)
             for d in range(1 if p < 100 else 2, 17) if p**d <= 1 << 16]
    assert len(pairs) > 100
    for p, d in pairs:
        assert _primitive_modulus(p, d) == _first_primitive_unfiltered(p, d), (p, d)
    assert build_field(3, 10).modulus == tuple(_first_primitive_unfiltered(3, 10))


def test_ladder_picks_the_modulus_of_the_power_reference():
    # the ladder and square-and-multiply pick the same first modulus on
    # every field of at most 2^16 elements, and agree on every candidate
    # of the fields of at most 2^8 elements
    pairs = [(p, d) for p in range(2, 257) if is_prime(p)
             for d in range(1, 17) if p**d <= 1 << 16]
    for p, d in pairs:
        candidates = (_digits(packed, p, d) + [1] for packed in range(p**d) if packed % p)
        first = next(mod for mod in candidates if helpers.x_has_full_order_by_powers(p, d, mod))
        assert _primitive_modulus(p, d) == first, (p, d)
        if p**d <= 1 << 8:
            for mod in (_digits(packed, p, d) + [1] for packed in range(p**d)):
                assert (_x_has_full_order(p, d, mod)
                        == helpers.x_has_full_order_by_powers(p, d, mod)), (p, d, mod)


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


def test_subfield_rejects_bad_degree(f64):
    for degree in (0, 4):
        with pytest.raises(ValueError, match="does not divide"):
            f64.subfield(degree)


def test_zero_has_no_inverse_and_its_zeroth_power_is_one(f49):
    with pytest.raises(ZeroDivisionError):
        f49.inv(0)
    with pytest.raises(ZeroDivisionError):
        f49.pow(0, -1)
    assert (f49.pow(0, 0), f49.pow(0, 3)) == (1, 0)


def test_element_from_coords_rejects_the_wrong_length(f64):
    for coords in ([1] * 5, [1] * 7):
        with pytest.raises(ValueError, match="expected 6 coordinates"):
            f64.element_from_coords(coords)


# (p, degree, s, {target degree: table form}): p in {2, 3, 5, 7}, target
# degree 1, a proper divisor where one exists, and the whole field; four
# fields have s > 1.  A table is bytes where every code of its subfield is
# below 256 (GF(9) in GF(3^6) tops out at 233), a list where one is not
# (GF(27) in GF(3^6) at 683, GF(49) in GF(7^4) at 2218), range(Q) for the
# whole field.
TRACE_CASES = [
    (2, 2, 1, {1: bytes, 2: range}),
    (2, 6, 1, {1: bytes, 2: bytes, 3: bytes, 6: range}),
    (2, 4, 2, {1: bytes, 2: bytes, 4: range}),
    (3, 4, 2, {1: bytes, 2: bytes, 4: range}),
    (3, 6, 3, {1: bytes, 2: bytes, 3: list, 6: range}),
    (5, 2, 1, {1: bytes, 2: range}),
    (5, 4, 1, {1: bytes, 2: list, 4: range}),
    (7, 2, 1, {1: bytes, 2: range}),
    (7, 4, 2, {1: bytes, 2: list, 4: range}),
]


@pytest.mark.parametrize("p,degree,s,subs", TRACE_CASES)
def test_trace_table_matches_frobenius_sum(p, degree, s, subs):
    # the table is built by GF(p)-linearity from the basis X^i; compare it
    # with the definitional sum of x^(p^(sub*i)) at every element
    import helpers
    field = helpers.field(p, degree, s)
    for sub, form in subs.items():
        table = field.trace_table(sub)
        assert type(table) is form, sub
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
        coords = coords_over_q(f64, x)
        assert len(coords) == 6
        assert all(c in (0, 1) for c in coords)
        assert f64.element_from_coords(coords) == x


def test_coords_round_trip_nonprime_subfield():
    # q = 4 inside GF(2^4): coordinates live in the 4-element subfield
    f16 = build_field(2, 4, subfield_degree=2)
    sub = set(f16.subfield_q)
    for x in range(16):
        coords = coords_over_q(f16, x)
        assert len(coords) == 2
        assert set(coords) <= sub
        assert f16.element_from_coords(coords) == x


@pytest.mark.parametrize("p, degree, s", [
    (2, 4, 2), (2, 6, 1), (2, 6, 3), (3, 4, 2), (3, 6, 3), (5, 4, 2), (7, 2, 1),
    (3, 2, 2),  # m = 1
])
def test_coords_match_brute_force_table(p, degree, s):
    field = build_field(p, degree, subfield_degree=s)
    table = {field.element_from_coords(c): c
             for c in product(field.subfield_q, repeat=field.m)}
    assert len(table) == field.Q
    for x in range(field.Q):
        assert coords_over_q(field, x) == table[x]


def test_minimal_poly_subfield_element(f49):
    poly = minimal_poly(f49, 3)
    assert poly.degree == 1
    assert is_monic(poly)


def test_minimal_poly_example1_exponents(f49):
    # the two exponents of the first worked example give distinct degree-2
    # minimal polynomials
    h6 = minimal_poly(f49, f49.pow(f49.gamma, -6))
    h30 = minimal_poly(f49, f49.pow(f49.gamma, -30))
    assert h6.degree == 2
    assert h30.degree == 2
    assert h6.coeffs != h30.coeffs
    assert all(c in f49.subfield_q for c in h6.coeffs)


def test_minimal_poly_annihilates_and_divides(f64):
    for x in (f64.gamma, 9, 44):
        poly = minimal_poly(f64, x)
        assert evaluate(poly, x) == 0
        assert f64.m % poly.degree == 0


def test_minimal_poly_divides_xq1_minus_1(f49):
    prod = (1,)
    seen = set()
    for x in (f49.gamma, f49.pow(f49.gamma, 5)):
        poly = minimal_poly(f49, x)
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
        minimal_poly(f49, 0)


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


# -- addition by Zech logarithms against the digit loop ---------------------

ZECH_EXHAUSTIVE = [
    (3, 1, 1), (3, 2, 1), (3, 3, 1), (3, 4, 1), (5, 2, 1), (5, 3, 1), (7, 2, 1),
    (11, 2, 1), (3, 4, 2), (5, 4, 2), (2, 4, 1), (2, 4, 2),
]


@pytest.mark.parametrize("p,degree,s", ZECH_EXHAUSTIVE)
def test_zech_add_and_neg_match_digits_exhaustive(p, degree, s):
    import helpers
    field = helpers.field(p, degree, s)
    elems = range(field.Q)
    for a in elems:
        assert field.neg(a) == helpers.digit_neg(field, a), a
        row = [helpers.digit_add(field, a, b) for b in elems]
        assert [field.add(a, b) for b in elems] == row, a
        assert [field.sub(b, a) for b in elems] == [
            helpers.digit_add(field, b, helpers.digit_neg(field, a)) for b in elems], a


def test_zech_add_and_neg_match_digits_gf3_10():
    import random
    import helpers
    field = helpers.field(3, 10)
    rng = random.Random(310)
    for _ in range(200_000):
        a, b = rng.randrange(field.Q), rng.randrange(field.Q)
        assert field.add(a, b) == helpers.digit_add(field, a, b), (a, b)
    assert [field.neg(a) for a in range(field.Q)] == [
        helpers.digit_neg(field, a) for a in range(field.Q)]


def test_zech_table_marks_minus_one(f49):
    # 1 + gamma^k = 0 exactly at gamma^k = -1 = gamma^((Q-1)/2)
    half = (f49.Q - 1) // 2
    assert f49.zech[half] == -1
    assert all(z >= 0 for k, z in enumerate(f49.zech) if k != half)
    assert f49.zech[0] == f49.log[2]
    assert build_field(2, 4).zech is None


@pytest.mark.parametrize("p,degree", [(3, 4), (7, 2), (3, 10)])
def test_zech_table_is_built_by_the_first_add_of_two_nonzero_elements(p, degree, monkeypatch):
    # building a field, adding 0 and negating read no Zech table; the first
    # add of two nonzero elements builds it once, and later adds reuse it.
    # No attribute appears after construction: one that did (a cached_property)
    # made every add about 1.6x slower
    import ghwlab.fields as fields
    import helpers
    modulus = list(build_field(p, degree).modulus)
    field = FieldCtx(p, 1, degree, modulus, *_build_tables(p, degree, modulus))
    built = []
    monkeypatch.setattr(fields, "_zech_table",
                        lambda *args: built.append(args) or _zech_table(*args))
    g, attrs = field.gamma, set(vars(field))
    assert (field.add(0, g), field.add(g, 0), field.neg(g)) == (g, g, field.exp[(field.Q - 1) // 2 + 1])
    field.trace_table(1)
    assert field._zech is None and built == []
    assert field.add(g, 1) == helpers.digit_add(field, g, 1)
    assert len(built) == 1 and field._zech is field.zech and set(vars(field)) == attrs
    assert field.zech == _zech_table(p, field.exp, field.log)
    assert field.add(1, field.neg(1)) == 0 and field.sub(g, g) == 0
    assert len(built) == 1


# -- exp/log tables against the digit loop -----------------------------------

TABLE_FIELDS = ([(2, d) for d in range(1, 17)] + [(3, d) for d in range(1, 12)]
                + [(5, d) for d in range(1, 7)] + [(7, d) for d in range(1, 6)])


@pytest.mark.parametrize("p,degree", TABLE_FIELDS)
def test_tables_match_digit_loop(p, degree):
    field = build_field(p, degree)
    assert (field.exp, list(field.log)) == digit_loop_tables(p, degree, field.modulus)


@pytest.mark.parametrize("p", [1009, 65537])
def test_tables_match_digit_loop_large_prime(p):
    field = build_field(p, 1)
    assert (field.exp, list(field.log)) == digit_loop_tables(p, 1, field.modulus)


def test_tables_of_gf3_10_memory():
    # exp's list and its int objects take about 40 bytes per element; log
    # and zech are 4-byte arrays, and the peak adds one 4-byte temporary.
    # As lists of ints, log and zech took 88 bytes per element, 96 at peak.
    # zech is built on first use, so it is read inside the traced block.
    p, d = 3, 10
    modulus = list(build_field(p, d).modulus)
    tracemalloc.start()
    try:
        field = FieldCtx(p, 1, d, modulus, *_build_tables(p, d, modulus))
        field.zech
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.log.itemsize == field.zech.itemsize == 4
    assert current <= 50 * field.Q
    assert peak <= 56 * field.Q


@pytest.mark.parametrize("p,degree", [(2, 1), (2, 6), (3, 1), (3, 5), (5, 3), (7, 2), (1009, 1)])
def test_translate_matches_add(p, degree):
    field = build_field(p, degree)
    # every code, and fewer codes than the digit tables hold
    for codes in (list(range(field.Q)), [0, 1, field.Q - 1]):
        for b in {0, 1, field.gamma, field.Q - 1, field.Q // 2}:
            assert field.translate(codes, b) == [field.add(x, b) for x in codes], b


def test_tables_prime_field_build_is_linear():
    # The fold tables of a prime field hold 2 (p - 1) entries, not (p - 1) p:
    # at p = 1009 a quadratic build would peak near 40 MB.
    p = 1009
    modulus = build_field(p, 1).modulus
    tracemalloc.start()
    try:
        _build_tables(p, 1, list(modulus))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize("p,modulus", [
    (2, [1, 1, 1, 1, 1]),   # x^4+x^3+x^2+x+1: x has order 5, not 15
    (3, [2, 0, 1]),         # x^2+2 = (x+1)(x+2): reducible
    (2, [0, 1, 1]),         # x^2+x: x is a zero divisor
    (5, [1, 1]),            # x+1: gamma = -1 has order 2, not 4
    (7, [0, 1]),            # x: gamma = 0
])
def test_tables_reject_non_primitive_modulus(p, modulus):
    d = len(modulus) - 1
    for build in (_build_tables, digit_loop_tables):
        with pytest.raises(RuntimeError):
            build(p, d, modulus)
