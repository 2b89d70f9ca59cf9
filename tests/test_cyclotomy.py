import tracemalloc
from collections import Counter

import pytest

from ghwlab.cyclotomy import CyclotomyCtx, semiprimitive_j
from ghwlab.fields import FieldCtx, build_field

import helpers


def test_class_partition_f49(f49):
    cyc = CyclotomyCtx(f49, 4)
    assert cyc.class_size == 12
    counts = [0] * 4
    for x in range(1, 49):
        counts[helpers.class_index(cyc, x)] += 1
    assert counts == [12, 12, 12, 12]


def test_class_index_matches_exponent(f49):
    cyc = CyclotomyCtx(f49, 4)
    for k in (0, 1, 7, 30, 47):
        assert helpers.class_index(cyc, f49.exp[k]) == k % 4


def test_single_class_when_N_is_1(f49):
    cyc = CyclotomyCtx(f49, 1)
    assert all(helpers.class_index(cyc, x) == 0 for x in range(1, 49))


def test_single_class_period_table_copies_no_group():
    # at N = 1 class 0 is the whole group, counted from exp itself: a copy of
    # exp over GF(3^8) would hold 6,560 pointers, 52 KB
    field = build_field(3, 8, subfield_degree=8)
    field.trace_table(1)
    cyc = CyclotomyCtx(field, 1)
    tracemalloc.start()
    try:
        table = cyc.period_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024
    trace = field.trace_table(1)
    assert table[0] == Counter(trace[x] for x in cyc.class_elements(0))


def test_class_index_rejects_zero(f49):
    with pytest.raises(ValueError):
        helpers.class_index(CyclotomyCtx(f49, 4), 0)


def test_bad_divisor_rejected(f49):
    with pytest.raises(ValueError):
        CyclotomyCtx(f49, 5)


def test_class_invariant_under_class0_multiplication(f64):
    cyc = CyclotomyCtx(f64, 3)
    zero_class = cyc.class_elements(0)
    for x in (5, 17, 44, 62):
        i = helpers.class_index(cyc, x)
        for c in zero_class[:5]:
            assert helpers.class_index(cyc, f64.mul(x, c)) == i


def _all_nonzero_traces(field):
    # Tr onto GF(p) takes each value Q/p times on F_Q, 0 included at 0
    counts = {k: field.Q // field.p for k in range(field.p)}
    counts[0] -= 1
    return Counter(counts)


def _rational(row, p):
    # 1, zeta, ..., zeta^(p-2) are independent, so sum_k row[k] zeta^k is
    # rational exactly when the nonzero traces have equal counts
    return len({row[k] for k in range(1, p)}) == 1


def test_full_character_sum_is_minus_one(f49):
    # N = 1: the one class is F_Q^*, whose traces are every value Q/p times
    # except 0, once fewer; the period c_0 - c_1 is -1
    cyc = CyclotomyCtx(f49, 1)
    full = _all_nonzero_traces(f49)
    assert cyc.period_table()[0] == full
    assert full[0] - full[1] == -1
    for arg in (1, f49.gamma, 13):
        assert helpers.mul_gauss_period(cyc, arg) == full


def test_period_sum_partitions_full_sum(f49):
    cyc = CyclotomyCtx(f49, 4)
    assert sum(cyc.period_table()[:4], Counter()) == _all_nonzero_traces(f49)


def test_period_integrality_semiprimitive_f64(f64):
    cyc = CyclotomyCtx(f64, 3)
    assert [row[0] - row[1] for row in cyc.period_table()[:3]] == [5, -3, -3]
    # odd p: N divides (Q-1)/(p-1), so GF(p)^* lies in class 0 and every
    # period is the integer c_0 - c_1
    field = helpers.field(3, 4)
    for N in (1, 2, 4, 5, 10, 20, 40):
        assert all(_rational(row, 3) for row in CyclotomyCtx(field, N).period_table()), N
    assert not _rational(CyclotomyCtx(field, 16).period_table()[0], 3)  # 4 zeta^2 + zeta


@pytest.mark.parametrize("p,degree,N", [(2, 6, 3), (3, 4, 1), (3, 4, 5), (3, 4, 40),
                                         (7, 2, 4), (5, 4, 13)])
def test_periods_reduce_each_row_to_c0_minus_c1(p, degree, N):
    # every row of a divisor N of (Q-1)/(p-1) is rational, and the reduction
    # is c_0 - c_1 of each row, the zero row included
    cyc = CyclotomyCtx(helpers.field(p, degree), N)
    table = cyc.period_table()
    assert cyc.periods() == tuple(row[0] - row[1] for row in table)
    assert cyc.periods()[N] == cyc.class_size
    assert sum(cyc.periods()[:N]) == -1


@pytest.mark.parametrize("row", [Counter({0: 3, 1: 4, 2: 5}), Counter({0: 3, 2: 4}),
                                 Counter({0: 3, 1: 4, 2: 0})])
def test_periods_reject_an_irrational_row(row, monkeypatch):
    # unequal nonzero counts, or a nonzero trace that never occurs while
    # another does, make the period irrational; the row is checked itself
    cyc = CyclotomyCtx(helpers.field(3, 4), 5)
    table = cyc.period_table()
    monkeypatch.setattr(cyc, "_table", table[:2] + (row,) + table[3:])
    with pytest.raises(RuntimeError, match="Gauss period 2 is not rational"):
        cyc.periods()
    # GF(81) at N = 16 is not a divisor of (Q-1)/(p-1) = 40: class 0 is not
    # closed under GF(3)^*, and its row fails on its own
    with pytest.raises(RuntimeError, match="Gauss period 0 is not rational"):
        CyclotomyCtx(helpers.field(3, 4), 16).periods()


def test_period_zero_argument_gives_class_size(f64):
    cyc = CyclotomyCtx(f64, 3)
    assert cyc.period_table()[3] == Counter({0: 21})
    assert helpers.mul_gauss_period(cyc, 0) == Counter({0: 21})


def test_period_magnitude_bound(f64):
    # |sum_k c_k zeta^k| <= sum_k c_k, the class size
    cyc = CyclotomyCtx(f64, 9)
    for row in cyc.period_table():
        assert min(row.values()) > 0
        assert sum(row.values()) == cyc.class_size
        assert abs(helpers.period_value(row, 2)) <= cyc.class_size


def test_period_table_matches_direct_summation(f49):
    cyc = CyclotomyCtx(f49, 4)
    table = cyc.period_table()
    assert len(table) == 5
    for i in range(4):
        assert table[i] == helpers.mul_gauss_period(cyc, f49.exp[i])
        assert table[i] == helpers.mul_gauss_period(cyc, f49.exp[i + 4])
        assert sum(table[i].values()) == cyc.class_size


@pytest.mark.parametrize("p, degree, N", [(7, 2, 4), (3, 4, 5), (2, 6, 3), (3, 6, 7), (2, 10, 11)])
def test_gauss_period_is_log_domain(p, degree, N, monkeypatch):
    # each row counts the traces of its class's slice of exp, the log
    # domain, so the table takes no field product and equals the counts of
    # one product per class-0 element
    field = helpers.field(p, degree)
    cyc = CyclotomyCtx(field, N)
    args = [0, 1, field.exp[1], field.exp[N + 2], field.exp[field.Q - 2]]
    expected = [helpers.mul_gauss_period(cyc, x) for x in args]

    def no_mul(self, a, b):
        raise AssertionError("period_table called FieldCtx.mul")

    monkeypatch.setattr(FieldCtx, "mul", no_mul)
    table = cyc.period_table()
    assert [table[field.log[x] % N if x else N] for x in args] == expected


def test_period_depends_only_on_class(f49):
    cyc = CyclotomyCtx(f49, 4)
    a1 = f49.exp[3]
    a2 = f49.exp[3 + 4 * 5]
    assert helpers.mul_gauss_period(cyc, a1) == helpers.mul_gauss_period(cyc, a2)


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
            assert helpers.class_index(cyc, x) == 0
