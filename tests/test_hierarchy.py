import pytest

from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.errors import HypothesesNotMet
from ghwlab.hierarchy import (
    FormulaParams,
    OpConditionError,
    achieving_subspace,
    character_sum_count,
    closed_form_dr,
    closed_form_hierarchy,
    enumerate_profiles,
    max_class_intersection,
    optimize_profile,
    profile_objective,
    rank_decomposition,
    shift_cross,
    shift_high,
    shift_low,
    split_half_pair,
    unshift_cross,
)
from ghwlab.linalg import span_elements
from ghwlab.oracle import count_common_zeros, ghw_bruteforce

import helpers


def test_formula_params_validation():
    FormulaParams(7, 2, 4)
    FormulaParams(2, 6, 3)
    with pytest.raises(ValueError):
        FormulaParams(2, 4, 3)   # sm/(2j) = 2 is even
    with pytest.raises(ValueError):
        FormulaParams(3, 2, 4)   # N exceeds sqrt(Q)
    with pytest.raises(ValueError):
        FormulaParams(7, 2, 2)   # N too small
    with pytest.raises(ValueError):
        FormulaParams(6, 2, 4)   # q not a prime power
    with pytest.raises(ValueError):
        FormulaParams(7, 3, 4)   # odd m


def test_formula_params_derived_fields():
    fp = FormulaParams(7, 2, 4)
    assert (fp.p, fp.s, fp.j, fp.half, fp.v) == (7, 1, 1, 1, 0)
    fp2 = FormulaParams(2, 6, 3)
    assert (fp2.j, fp2.v) == (1, 1)
    fp4 = FormulaParams(4, 6, 5)
    assert (fp4.p, fp4.s, fp4.j) == (2, 2, 2)


@pytest.mark.parametrize("q,m,N", helpers.REGIME_CORPUS)
def test_threshold_defining_inequality(q, m, N):
    fp = helpers.formula_params(q, m, N)
    bound = (q ** fp.half + 1) // N - 1
    assert q**fp.v <= bound < q ** (fp.v + 1)
    assert 0 <= fp.v <= fp.half - 1


def test_max_intersection_values():
    fp = FormulaParams(7, 2, 4)
    assert max_class_intersection(fp, 0) == 0
    assert max_class_intersection(fp, 1) == 6
    assert max_class_intersection(fp, 2) == 12
    fp2 = FormulaParams(2, 6, 3)
    assert [max_class_intersection(fp2, l) for l in range(7)] == [0, 1, 3, 7, 9, 13, 21]


@pytest.mark.parametrize("q,m,N", helpers.REGIME_CORPUS)
def test_branch_agreement_at_half(q, m, N):
    fp = helpers.formula_params(q, m, N)
    half = fp.half
    low = q**half - 1
    num = q**half - 1 + (N - 1) * (q**half - q**0)
    assert num % N == 0
    assert num // N == low == max_class_intersection(fp, half)


def test_max_intersection_range_check():
    fp = FormulaParams(7, 2, 4)
    with pytest.raises(ValueError):
        max_class_intersection(fp, 3)


def test_exhaustive_intersection_oracle_small(f49):
    # brute force over every subspace of F_49 agrees with the closed form
    fp = FormulaParams(7, 2, 4)
    for l in range(3):
        best = helpers.exhaustive_class_intersections(f49, 4, l)
        assert best == [max_class_intersection(fp, l)] * 4


def test_achieving_subspace_examples(f49, f64):
    cyc = CyclotomyCtx(f64, 3)
    fp = FormulaParams(2, 6, 3)
    for l, i in [(0, 0), (2, 1), (3, 0), (4, 0), (4, 2), (6, 0)]:
        basis = achieving_subspace(cyc, l, i)
        assert len(basis) == l
        count = sum(1 for x in span_elements(f64, list(basis))
                    if x and cyc.class_index(x) == i)
        assert count == max_class_intersection(fp, l)


def test_achieving_subspace_half_is_subfield(f64):
    cyc = CyclotomyCtx(f64, 3)
    basis = achieving_subspace(cyc, 3, 0)
    assert set(span_elements(f64, list(basis))) == set(f64.subfield(3))


def test_achieving_subspace_whole_field(f49):
    cyc = CyclotomyCtx(f49, 4)
    basis = achieving_subspace(cyc, 2, 3)
    assert len(set(span_elements(f49, list(basis)))) == 49


def test_profile_objective_values():
    fp = FormulaParams(7, 2, 4)
    assert profile_objective(fp, (0, 0)) == 0
    assert profile_objective(fp, (2, 1)) == 18
    assert profile_objective(fp, (2, 2)) == 2 * (7**2 - 1) // 4


def test_enumerate_profiles():
    profiles = list(enumerate_profiles(2, 3, 2))
    assert profiles == [(2, 1)]
    profiles = list(enumerate_profiles(3, 4, 4))
    assert set(profiles) == {(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)}
    assert all(p == tuple(sorted(p, reverse=True)) for p in profiles)


def test_shift_ops_basic():
    fp = FormulaParams(3, 4, 5)
    # m=4, half=2
    assert shift_low(fp, (1, 1), 0, 1) == (2, 0)
    assert split_half_pair(fp, (2, 2)) == (4, 0)
    assert shift_high(fp, (3, 3), 0, 1) == (4, 2)
    assert shift_cross(fp, (2, 1), 0, 1) == (3, 0)
    assert unshift_cross(fp, (3, 1), 0, 1) == (2, 2)


def test_split_half_pair_matches_displayed_form():
    # two half entries become a leading m and a trailing 0
    fp = FormulaParams(2, 6, 3)
    assert split_half_pair(fp, (3, 3)) == (6, 0)
    assert split_half_pair(fp, (5, 3, 3, 1)) == (6, 5, 1, 0)


def test_shift_op_condition_errors():
    fp = FormulaParams(3, 4, 5)
    with pytest.raises(OpConditionError, match="u\\[i\\]\\+1 <= m/2"):
        shift_low(fp, (2, 1), 0, 1)
    with pytest.raises(OpConditionError, match="u\\[j\\] >= 1"):
        shift_low(fp, (1, 0), 0, 1)
    with pytest.raises(OpConditionError, match="u\\[i\\] >= m/2"):
        shift_cross(fp, (1, 1), 0, 1)
    with pytest.raises(OpConditionError, match="u\\[j\\]-1 >= m/2"):
        shift_high(fp, (3, 2), 0, 1)
    with pytest.raises(OpConditionError, match="u\\[j\\]\\+1 <= m/2"):
        unshift_cross(fp, (3, 2), 0, 1)
    with pytest.raises(OpConditionError, match="two entries"):
        split_half_pair(fp, (2, 1))


def test_cross_shift_round_trip():
    fp = FormulaParams(2, 6, 3)
    for u in [(4, 2), (3, 1), (5, 3, 1), (4, 4, 2, 1)]:
        i, j = 0, len(u) - 1
        shifted = shift_cross(fp, u, i, j)
        assert sum(shifted) == sum(u)
        # the inverse applies at the entries that moved
        hi = shifted.index(u[i] + 1) if u[i] + 1 in shifted else 0
        restored = unshift_cross(fp, shifted, hi, len(shifted) - 1 - shifted[::-1].index(u[j] - 1))
        assert restored == tuple(sorted(u, reverse=True))


def _claims_for(fp, u, i, j):
    """Yield (claim_name, rewritten, relation) for every applicable monotonicity claim."""
    half, v = fp.half, fp.v
    ui, uj = u[i], u[j]
    if half >= ui + 1 and ui >= uj >= 1:
        yield "low", shift_low(fp, u, i, j), "ge"
    if fp.m >= ui + 1 and ui >= half >= uj >= 1:
        moved = shift_cross(fp, u, i, j)
        if ui - uj >= half - v - 1:
            yield "cross_up", moved, "ge"
        if ui - uj <= half - v - 2:
            yield "cross_down", moved, "le"
    if fp.m >= ui + 1 and uj - 1 >= half:
        yield "high", shift_high(fp, u, i, j), "ge"
    if ui - 1 >= half >= uj + 1 and ui - uj <= half - v - 2:
        yield "cross_inverse", unshift_cross(fp, u, i, j), "ge"


def _assert_monotonicity(fp, t_max=4):
    violations = []
    for t in range(2, t_max + 1):
        for total in range(t * fp.m + 1):
            for u in enumerate_profiles(t, total, fp.m):
                T = profile_objective(fp, u)
                for i in range(t):
                    for j in range(i + 1, t):
                        for name, moved, rel in _claims_for(fp, u, i, j):
                            T2 = profile_objective(fp, moved)
                            if rel == "ge" and not T2 >= T:
                                violations.append((fp, u, i, j, name))
                            if rel == "le" and not T2 <= T:
                                violations.append((fp, u, i, j, name))
                if sum(1 for x in u if x == fp.half) >= 2:
                    if not profile_objective(fp, split_half_pair(fp, u)) >= T:
                        violations.append((fp, u, None, None, "split"))
    assert not violations, violations[:5]


@pytest.mark.parametrize("q,m,N", helpers.REGIME_CORPUS)
def test_operation_monotonicity(q, m, N):
    _assert_monotonicity(helpers.formula_params(q, m, N))


def test_operation_monotonicity_extended_regimes():
    # larger m makes the inverse cross-shift cases non-vacuous
    for q, m, N in [(2, 10, 3), (2, 10, 11)]:
        _assert_monotonicity(helpers.formula_params(q, m, N), t_max=3)


def test_inverse_cross_shift_exercised():
    fp = helpers.formula_params(2, 10, 11)
    hits = list(_claims_for(fp, (6, 4), 0, 1))
    assert any(name == "cross_inverse" for name, _, _ in hits)


def test_rank_decomposition():
    assert rank_decomposition(2, 2, 1) == (1, 1)
    assert rank_decomposition(2, 2, 4) == (0, 0)
    assert rank_decomposition(1, 6, 2) == (0, 4)
    with pytest.raises(ValueError):
        rank_decomposition(2, 2, 5)


def test_optimize_profile_example1():
    fp = FormulaParams(7, 2, 4)
    u, T = optimize_profile(fp, 2, 1, "exhaustive")
    assert (u, T) == ((2, 1), 18)
    u_cf, T_cf = optimize_profile(fp, 2, 1, "closed_form")
    assert T_cf == 18
    assert u_cf == (2, 1)


def test_optimize_profile_trivial_cases():
    fp = FormulaParams(7, 2, 4)
    assert optimize_profile(fp, 2, 4, "closed_form") == ((0, 0), 0)
    assert optimize_profile(fp, 2, 4, "exhaustive") == ((0, 0), 0)
    fp2 = FormulaParams(2, 6, 3)
    u, T = optimize_profile(fp2, 1, 2, "exhaustive")
    assert u == (4,)
    assert T == max_class_intersection(fp2, 4)


def test_optimize_profile_bad_mode():
    with pytest.raises(ValueError):
        optimize_profile(FormulaParams(7, 2, 4), 2, 1, "greedy")


@pytest.mark.parametrize("q,m,N", helpers.REGIME_CORPUS)
def test_optimizer_equivalence(q, m, N):
    fp = helpers.formula_params(q, m, N)
    for t in range(1, 5):
        for r in range(1, t * m + 1):
            _, exhaustive = optimize_profile(fp, t, r, "exhaustive")
            _, closed = optimize_profile(fp, t, r, "closed_form")
            assert closed == exhaustive, (q, m, N, t, r)


@pytest.mark.parametrize("q,m,N", helpers.REGIME_CORPUS)
def test_endgame_comparisons(q, m, N):
    # the winning concentrated profile dominates the alternative final forms
    fp = helpers.formula_params(q, m, N)
    for t in range(2, 5):
        for r in range(1, t * m + 1):
            r1, r2 = rank_decomposition(t, m, r)
            winner = (m,) * r1 + (r2,) + (0,) * (t - r1 - 1)
            if r2 < fp.half and r1 >= 1:
                alt = (m,) * (r1 - 1) + (r2 + fp.half, fp.half) + (0,) * (t - r1 - 1)
                assert profile_objective(fp, winner) >= profile_objective(fp, alt)
            if r2 >= fp.half and t - r1 - 2 >= 0:
                alt = (m,) * r1 + (fp.half, r2 - fp.half) + (0,) * (t - r1 - 2)
                assert profile_objective(fp, winner) >= profile_objective(fp, alt)


def test_closed_form_examples(example1_params, example2_params):
    assert closed_form_hierarchy(example1_params) == [2, 4, 6, 8]
    assert closed_form_hierarchy(example2_params) == [6, 12, 18, 24]


def test_closed_form_irreducible_matches_brute(irreducible21_params, irreducible21):
    formula = closed_form_hierarchy(irreducible21_params)
    brute = [ghw_bruteforce(irreducible21, r).d_r for r in range(1, 7)]
    assert formula == brute == [8, 12, 14, 18, 20, 21]


def test_closed_form_refuses_simplex(simplex_params):
    with pytest.raises(HypothesesNotMet) as exc:
        closed_form_dr(simplex_params, 1)
    assert any("N_in_range" in f for f in exc.value.failures)


def test_character_sum_matches_exact_counts(example1):
    res = ghw_bruteforce(example1, 1)
    val = character_sum_count(example1, res.witness)
    assert abs(val.imag) < 1e-6
    assert abs(val - count_common_zeros(example1, list(res.witness))) < 1e-6


def test_character_sum_requires_e_equals_t():
    from ghwlab.codes import TraceCode, derive_params
    params = derive_params(2, 1, 4, 3, 1, 1, (0,))
    code = TraceCode(params)
    with pytest.raises(ValueError, match="e == t"):
        character_sum_count(code, [(1,)])


@pytest.mark.parametrize("p,s,m,a,expect_N", [(2, 3, 2, 3, 3), (3, 2, 2, 5, 5)])
def test_full_pipeline_nonprime_q(p, s, m, a, expect_N):
    # q = 8 and q = 9: subfield scalars, coordinates, and both oracles all
    # run over a non-prime intermediate field
    from ghwlab.codes import TraceCode, derive_params
    from ghwlab.oracle import ghw_dual_sweep
    params = derive_params(p, s, m, 1, 1, a)
    assert params.N == expect_N
    assert params.assumptions.all_ok
    code = TraceCode(params)
    formula = closed_form_hierarchy(params)
    brute = [ghw_bruteforce(code, r).d_r for r in range(1, params.k + 1)]
    dual = [ghw_dual_sweep(code, r).d_r for r in range(1, params.k + 1)]
    assert formula == brute == dual


def test_character_sum_consistency_sweep(example1):
    # Summing the zero counts over ALL lines must match double counting:
    # each coordinate functional vanishes on a hyperplane of the message
    # space, which contains (q^(tm-1)-1)/(q-1) lines.
    from ghwlab.linalg import vector_from_coords
    from ghwlab.subspaces import SubspaceIter, gaussian_binomial
    f = example1.field
    tm, q, n = example1.k, example1.q, example1.n
    lines_per_coord = (q ** (tm - 1) - 1) // (q - 1)
    expected = n * lines_per_coord
    exact_total = 0
    numeric_total = 0j
    for rows in SubspaceIter(f, tm, 1):
        basis = [vector_from_coords(f, 2, rows[0])]
        exact_total += count_common_zeros(example1, basis)
        numeric_total += character_sum_count(example1, basis)
    assert exact_total == expected
    assert abs(numeric_total - expected) < 1e-6 * gaussian_binomial(tm, 1, q)


def test_closed_form_full_pipeline_consistency(example2_params, example2):
    # formula == brute == dual on a complete desk-scale instance
    from ghwlab.oracle import ghw_dual_sweep
    for r in range(1, 5):
        d = closed_form_dr(example2_params, r)
        assert d == ghw_bruteforce(example2, r).d_r
        assert d == ghw_dual_sweep(example2, r).d_r
