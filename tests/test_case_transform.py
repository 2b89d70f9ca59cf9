"""Replay of the profile-normalization argument as a rewriting harness.

Any dimension profile can be driven, by the five rewrite operations applied
only under their objective-nondecreasing side conditions, to one of three
concentrated final forms; the winner (m,...,m, r2, 0,...,0) dominates the
other two.  This file replays that transformation on every desk-scale
profile and checks the objective never decreases along the way, which
together with the endgame comparisons certifies the optimizer's winner.

The replay lives in the tests on purpose: the production closed form goes
straight to the winning profile and never rewrites anything.
"""

import pytest

from ghwlab.hierarchy import (
    enumerate_profiles,
    profile_objective,
    rank_decomposition,
    shift_cross,
    shift_high,
    shift_low,
    split_half_pair,
    unshift_cross,
)

import helpers


def _strict_interior(u, lo, hi):
    return [idx for idx, x in enumerate(u) if lo < x < hi]


def _one_rewrite(fp, u):
    """Pick the next rewrite under the harness strategy, or None when final."""
    half, m, v = fp.half, fp.m, fp.v
    lows = _strict_interior(u, 0, half)
    highs = _strict_interior(u, half, m)
    halves = [idx for idx, x in enumerate(u) if x == half]
    if len(lows) >= 2:
        return shift_low(fp, u, lows[0], lows[-1])
    if len(highs) >= 2:
        return shift_high(fp, u, highs[0], highs[-1])
    if len(halves) >= 2:
        return split_half_pair(fp, u)
    if highs and lows:
        i, j = highs[0], lows[0]
        if u[i] - u[j] >= half - v - 1:
            return shift_cross(fp, u, i, j)
        return unshift_cross(fp, u, i, j)
    return None


def _replay(fp, u):
    """Drive u to a final form; assert the objective is nondecreasing."""
    steps = 0
    current = tuple(sorted(u, reverse=True))
    T = profile_objective(fp, current)
    while True:
        nxt = _one_rewrite(fp, current)
        if nxt is None:
            return current, T
        T2 = profile_objective(fp, nxt)
        assert T2 >= T, (fp, u, current, nxt)
        current, T = nxt, T2
        steps += 1
        assert steps < 10_000, "rewriting did not terminate"


def _final_forms(fp, t, total):
    """The three recognized terminal shapes for a given profile sum."""
    m, half = fp.m, fp.half
    r = t * m - total
    r1, r2 = rank_decomposition(t, m, r) if r >= 1 else (t, 0)
    forms = set()
    if r >= 1:
        forms.add((m,) * r1 + (r2,) + (0,) * (t - r1 - 1))
        if r2 >= half and t - r1 - 2 >= 0:
            forms.add((m,) * r1 + (half, r2 - half) + (0,) * (t - r1 - 2))
        if r2 < half and r1 >= 1:
            forms.add((m,) * (r1 - 1) + (r2 + half, half) + (0,) * (t - r1 - 1))
    else:
        forms.add((m,) * t)
    return {tuple(sorted(f, reverse=True)) for f in forms}


@pytest.mark.parametrize("q,m,N", helpers.REGIME_CORPUS)
def test_replay_reaches_final_form_nondecreasing(q, m, N):
    fp = helpers.formula_params(q, m, N)
    for t in range(1, 5):
        for total in range(t * m + 1):
            for u in enumerate_profiles(t, total, m):
                final, T_final = _replay(fp, u)
                assert final in _final_forms(fp, t, total), (u, final)
                assert T_final >= profile_objective(fp, u)


@pytest.mark.parametrize("q,m,N", [(2, 10, 3), (2, 10, 11)])
def test_replay_extended_regimes(q, m, N):
    fp = helpers.formula_params(q, m, N)
    for t in range(1, 4):
        for total in range(t * m + 1):
            for u in enumerate_profiles(t, total, m):
                final, _ = _replay(fp, u)
                assert final in _final_forms(fp, t, total), (u, final)


@pytest.mark.parametrize("q,m,N", helpers.REGIME_CORPUS)
def test_winner_dominates_every_final_form(q, m, N):
    # combined with the nondecreasing replay this certifies the closed form
    fp = helpers.formula_params(q, m, N)
    for t in range(1, 5):
        for r in range(1, t * m + 1):
            r1, r2 = rank_decomposition(t, m, r)
            winner = (m,) * r1 + (r2,) + (0,) * (t - r1 - 1)
            w = profile_objective(fp, winner)
            for form in _final_forms(fp, t, t * m - r):
                assert w >= profile_objective(fp, form)
