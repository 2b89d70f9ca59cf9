import pytest

from ghwlab.cyclotomy import CyclotomyCtx, semiprimitive_j

import helpers


def test_class_partition_f49(f49):
    cyc = CyclotomyCtx(f49, 4)
    assert cyc.class_size == 12
    counts = [0] * 4
    for x in range(1, 49):
        counts[cyc.class_index(x)] += 1
    assert counts == [12, 12, 12, 12]


def test_class_index_matches_exponent(f49):
    cyc = CyclotomyCtx(f49, 4)
    for k in (0, 1, 7, 30, 47):
        assert cyc.class_index(f49.exp[k]) == k % 4


def test_single_class_when_N_is_1(f49):
    cyc = CyclotomyCtx(f49, 1)
    assert all(cyc.class_index(x) == 0 for x in range(1, 49))


def test_class_index_rejects_zero(f49):
    with pytest.raises(ValueError):
        CyclotomyCtx(f49, 4).class_index(0)


def test_bad_divisor_rejected(f49):
    with pytest.raises(ValueError):
        CyclotomyCtx(f49, 5)


def test_class_invariant_under_class0_multiplication(f64):
    cyc = CyclotomyCtx(f64, 3)
    zero_class = cyc.class_elements(0)
    for x in (5, 17, 44, 62):
        i = cyc.class_index(x)
        for c in zero_class[:5]:
            assert cyc.class_index(f64.mul(x, c)) == i


def test_full_character_sum_is_minus_one(f49):
    cyc = CyclotomyCtx(f49, 1)
    for arg in (1, f49.gamma, 13):
        assert abs(cyc.gauss_period(arg) - (-1)) < 1e-9


def test_period_sum_partitions_full_sum(f49):
    cyc = CyclotomyCtx(f49, 4)
    total = sum(cyc.period_table().values)
    assert abs(total - (-1)) < 1e-9


def test_period_integrality_semiprimitive_f64(f64):
    cyc = CyclotomyCtx(f64, 3)
    val = cyc.gauss_period(1)
    assert abs(val.imag) < 1e-9
    assert abs(val.real - round(val.real)) < 1e-9


def test_period_zero_argument_gives_class_size(f64):
    cyc = CyclotomyCtx(f64, 3)
    assert cyc.gauss_period(0) == complex(21)


def test_period_magnitude_bound(f64):
    cyc = CyclotomyCtx(f64, 9)
    for arg in (1, 2, 17, 63):
        assert abs(cyc.gauss_period(arg)) <= cyc.class_size + 1e-9


def test_period_table_matches_direct_summation(f49):
    cyc = CyclotomyCtx(f49, 4)
    table = cyc.period_table()
    for i in range(4):
        direct = cyc.gauss_period(f49.exp[i])
        assert abs(table.values[i] - direct) < 1e-12
        assert abs(table.values[(i + 4) % table.N] - direct) < 1e-12


def test_period_depends_only_on_class(f49):
    cyc = CyclotomyCtx(f49, 4)
    a1 = f49.exp[3]
    a2 = f49.exp[3 + 4 * 5]
    assert abs(cyc.gauss_period(a1) - cyc.gauss_period(a2)) < 1e-9


def test_semiprimitive_j_values():
    assert semiprimitive_j(7, 4) == 1
    assert semiprimitive_j(2, 3) == 1
    assert semiprimitive_j(2, 7) is None
    assert semiprimitive_j(2, 9) == 3
    assert semiprimitive_j(3, 5) == 2


def test_semiprimitive_j_rejections():
    with pytest.raises(ValueError):
        semiprimitive_j(3, 6)
    with pytest.raises(ValueError):
        semiprimitive_j(5, 2)


@pytest.mark.parametrize("field_key,N", [((7, 2), 4), ((2, 6), 3)])
def test_half_subfield_inside_class0(field_key, N):
    # q^(m/2) = -1 (mod N) forces the punctured half-degree subfield into
    # class 0; checked exhaustively
    ctx = helpers.field(*field_key)
    cyc = CyclotomyCtx(ctx, N)
    half = ctx.degree // 2
    for x in ctx.subfield(half):
        if x:
            assert cyc.class_index(x) == 0
