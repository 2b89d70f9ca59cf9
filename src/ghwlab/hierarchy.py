"""Closed-form weight hierarchy machinery.

The maximum number of common zeros over r-dimensional message subspaces
reduces, through the dual expression, to maximizing a separable objective
over dimension profiles (u_1..u_t): each slot contributes the maximum
possible intersection of a u_i-dimensional GF(q)-subspace of F_Q with a
fixed cyclotomy class.  Under the semiprimitive hypotheses that per-slot
maximum has a two-branch closed form, the optimal profile concentrates mass
as (m,...,m, r_2, 0,...,0), and the hierarchy follows in exact integer
arithmetic.  Every division required to be exact is checked at runtime.

Profiles are kept sorted nonincreasing; the rewrite operations are defined
on sorted profiles and re-sort their result (the objective is symmetric in
the entries).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .codes import CodeParams, TraceCode, check_closed_form_hypotheses
from .cyclotomy import CyclotomyCtx, semiprimitive_j
from .errors import HypothesesNotMet
from .fields import prime_factors


class OpConditionError(ValueError):
    """A profile rewrite was attempted outside its side conditions."""


@dataclass(frozen=True)
class FormulaParams:
    """The (q, m, N) regime in which the closed form is valid.

    Construction enforces the full set of hypotheses: m even, 2 < N with
    N^2 <= q^m, a smallest j with p^j = -1 (mod N), and sm/(2j) odd (p, s
    recovered from the prime power q).  These are exactly the conditions
    under which the per-slot intersection bound below is attained.
    """

    q: int
    m: int
    N: int

    def __post_init__(self):
        factors = prime_factors(self.q)
        if len(factors) != 1:
            raise ValueError(f"q={self.q} is not a prime power")
        p = factors[0]
        s = 0
        qq = self.q
        while qq > 1:
            qq //= p
            s += 1
        if p**s != self.q:
            raise ValueError(f"q={self.q} is not a prime power")
        if self.m < 2 or self.m % 2:
            raise ValueError(f"m must be even and positive, got {self.m}")
        if not (2 < self.N and self.N * self.N <= self.q**self.m):
            raise ValueError(f"need 2 < N <= sqrt(Q), got N={self.N}, Q={self.q**self.m}")
        j = semiprimitive_j(p, self.N)
        if j is None:
            raise ValueError(f"no j with {p}^j = -1 (mod {self.N})")
        sm = s * self.m
        if sm % (2 * j) or (sm // (2 * j)) % 2 == 0:
            raise ValueError(f"sm/(2j) must be an odd integer, got sm={sm}, j={j}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "j", j)

    @classmethod
    def from_code_params(cls, params: CodeParams) -> "FormulaParams":
        report = check_closed_form_hypotheses(params)
        if not report.all_hold:
            raise HypothesesNotMet(report.failures())
        return cls(params.q, params.m, params.N)

    @property
    def half(self) -> int:
        return self.m // 2

    @property
    def v(self) -> int:
        """Unique v with q^v <= (q^(m/2)+1)/N - 1 < q^(v+1)."""
        bound = (self.q**self.half + 1) // self.N - 1
        v = 0
        while self.q ** (v + 1) <= bound:
            v += 1
        if not (0 <= v <= self.half - 1):
            raise RuntimeError(f"threshold v={v} escaped [0, m/2-1]")
        return v


def max_class_intersection(fp: FormulaParams, l: int) -> int:
    """Maximum of |L ∩ class| over l-dimensional GF(q)-subspaces L of F_Q.

    Two branches meeting at l = m/2; the upper branch is an exact integer,
    enforced at runtime.
    """
    if not 0 <= l <= fp.m:
        raise ValueError(f"need 0 <= l <= m={fp.m}, got {l}")
    if l <= fp.half:
        return fp.q**l - 1
    num = fp.q**l - 1 + (fp.N - 1) * (fp.q**fp.half - fp.q ** (l - fp.half))
    value, rem = divmod(num, fp.N)
    if rem:
        raise RuntimeError(f"intersection value for l={l} is not an integer")
    return value


def achieving_subspace(cyc: CyclotomyCtx, l: int, i: int):
    """Basis of an l-dimensional subspace meeting class i in the maximum.

    For l up to m/2 the subspace sits inside gamma^i times the half-degree
    subfield; beyond that, the half subfield is extended by deterministically
    chosen coset representatives (smallest element codes that keep the set
    independent) and the whole basis is scaled by gamma^i.
    """
    field = cyc.field
    fp = FormulaParams(field.q, field.m, cyc.N)
    if not 0 <= l <= field.m:
        raise ValueError(f"need 0 <= l <= m={field.m}, got {l}")
    if not 0 <= i < cyc.N:
        raise ValueError(f"class index {i} out of range [0, {cyc.N})")
    group = field.Q - 1
    half_deg = field.s * fp.half
    theta = field.exp[(group // (field.p**half_deg - 1)) % group]
    half_basis = [field.pow(theta, k) for k in range(fp.half)]
    if l <= fp.half:
        basis = half_basis[:l]
    else:
        ech = linalg.Echelon(field, field.m)
        for b in half_basis:
            ech.add(field.coords_over_q(b))
        basis = list(half_basis)
        candidate = 1
        while len(basis) < l:
            if candidate >= field.Q:
                raise RuntimeError("ran out of candidates extending the half subfield")
            if ech.add(field.coords_over_q(candidate)):
                basis.append(candidate)
            candidate += 1
    gi = field.exp[i % group]
    return tuple(field.mul(gi, b) for b in basis)


# -- dimension profiles ------------------------------------------------------

def validate_profile(fp: FormulaParams, u) -> tuple:
    u = tuple(u)
    if any(not 0 <= x <= fp.m for x in u):
        raise ValueError(f"profile entries must lie in [0, {fp.m}]: {u}")
    if any(u[i] < u[i + 1] for i in range(len(u) - 1)):
        raise ValueError(f"profile must be sorted nonincreasing: {u}")
    return u


def enumerate_profiles(t: int, total: int, cap: int):
    """All nonincreasing t-tuples with entries in [0, cap] summing to total."""
    def rec(remaining, slots, bound):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        top = min(bound, remaining)
        for first in range(top, -1, -1):
            if first * slots < remaining:
                break
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest
    return rec(total, t, cap)


def profile_objective(fp: FormulaParams, u) -> int:
    """Sum of per-slot maximum intersections over the profile."""
    return sum(max_class_intersection(fp, x) for x in u)


def _resorted(u, i, j, di, dj):
    new = list(u)
    new[i] += di
    new[j] += dj
    return tuple(sorted(new, reverse=True))


def _require(cond, message):
    if not cond:
        raise OpConditionError(message)


def shift_low(fp: FormulaParams, u, i: int, j: int):
    """Move one unit from slot j up to slot i, both sides staying <= m/2."""
    u = validate_profile(fp, u)
    _require(0 <= i < j < len(u), f"need indices i < j, got i={i}, j={j}")
    _require(u[i] + 1 <= fp.half, f"shift_low needs u[i]+1 <= m/2, got u[{i}]={u[i]}")
    _require(u[j] >= 1, f"shift_low needs u[j] >= 1, got u[{j}]={u[j]}")
    return _resorted(u, i, j, +1, -1)


def shift_cross(fp: FormulaParams, u, i: int, j: int):
    """Move one unit from a slot at or below m/2 to a slot at or above it.

    Raises the objective when u[i] - u[j] >= m/2 - v - 1 and lowers it when
    u[i] - u[j] <= m/2 - v - 2; both applications are legal.
    """
    u = validate_profile(fp, u)
    _require(0 <= i < j < len(u), f"need indices i < j, got i={i}, j={j}")
    _require(u[i] + 1 <= fp.m, f"shift_cross needs u[i]+1 <= m, got u[{i}]={u[i]}")
    _require(u[i] >= fp.half, f"shift_cross needs u[i] >= m/2, got u[{i}]={u[i]}")
    _require(u[j] <= fp.half, f"shift_cross needs u[j] <= m/2, got u[{j}]={u[j]}")
    _require(u[j] >= 1, f"shift_cross needs u[j] >= 1, got u[{j}]={u[j]}")
    return _resorted(u, i, j, +1, -1)


def unshift_cross(fp: FormulaParams, u, i: int, j: int):
    """Inverse of shift_cross: move one unit back from slot i to slot j."""
    u = validate_profile(fp, u)
    _require(0 <= i < j < len(u), f"need indices i < j, got i={i}, j={j}")
    _require(u[i] <= fp.m, f"unshift_cross needs u[i] <= m, got u[{i}]={u[i]}")
    _require(u[i] - 1 >= fp.half, f"unshift_cross needs u[i]-1 >= m/2, got u[{i}]={u[i]}")
    _require(u[j] + 1 <= fp.half, f"unshift_cross needs u[j]+1 <= m/2, got u[{j}]={u[j]}")
    _require(u[j] >= 0, f"unshift_cross needs u[j] >= 0, got u[{j}]={u[j]}")
    return _resorted(u, i, j, -1, +1)


def shift_high(fp: FormulaParams, u, i: int, j: int):
    """Move one unit from slot j up to slot i, both sides staying >= m/2."""
    u = validate_profile(fp, u)
    _require(0 <= i < j < len(u), f"need indices i < j, got i={i}, j={j}")
    _require(u[i] + 1 <= fp.m, f"shift_high needs u[i]+1 <= m, got u[{i}]={u[i]}")
    _require(u[j] - 1 >= fp.half, f"shift_high needs u[j]-1 >= m/2, got u[{j}]={u[j]}")
    return _resorted(u, i, j, +1, -1)


def split_half_pair(fp: FormulaParams, u):
    """Replace two entries equal to m/2 with one m and one 0."""
    u = validate_profile(fp, u)
    count = sum(1 for x in u if x == fp.half)
    _require(count >= 2, f"split_half_pair needs two entries equal to m/2={fp.half}, found {count}")
    new = list(u)
    new.remove(fp.half)
    new.remove(fp.half)
    new = [fp.m] + new + [0]
    return tuple(sorted(new, reverse=True))


def rank_decomposition(t: int, m: int, r: int):
    """(r1, r2) with t*m - r = r1*m + r2, 0 <= r1 <= t-1, 0 <= r2 <= m-1."""
    if not 1 <= r <= t * m:
        raise ValueError(f"need 1 <= r <= {t * m}, got r={r}")
    return divmod(t * m - r, m)


def optimize_profile(fp: FormulaParams, t: int, r: int, mode: str = "closed_form"):
    """Maximize the profile objective over profiles summing to t*m - r.

    ``exhaustive`` enumerates every admissible profile; ``closed_form``
    returns the concentrated winner (m,...,m, r2, 0,...,0) directly.  The
    two modes agree on the maximum under the construction hypotheses.
    """
    r1, r2 = rank_decomposition(t, fp.m, r)
    if mode == "closed_form":
        u = (fp.m,) * r1 + (r2,) + (0,) * (t - r1 - 1)
        return u, profile_objective(fp, u)
    if mode == "exhaustive":
        best_u = None
        best_T = -1
        for u in enumerate_profiles(t, t * fp.m - r, fp.m):
            T = profile_objective(fp, u)
            if T > best_T:
                best_u, best_T = u, T
        return best_u, best_T
    raise ValueError(f"unknown mode {mode!r}")


# -- the hierarchy itself -----------------------------------------------------

def closed_form_dr(params: CodeParams, r: int) -> int:
    """r-th GHW from the closed form, in exact integer arithmetic.

    Refuses (HypothesesNotMet) when the parameter regime is outside the
    construction hypotheses.  The branch value is cross-checked against
    n minus the scaled optimal profile objective.
    """
    fp = FormulaParams.from_code_params(params)
    t, delta, N, q = params.t, params.delta, params.N, params.q
    r1, r2 = rank_decomposition(t, fp.m, r)
    qm1 = q**fp.m - 1
    if r2 < fp.half:
        branch_sub = N * (q**r2 - 1)
    else:
        branch_sub = q**r2 - 1 + (N - 1) * (q**fp.half - q ** (r2 - fp.half))
    num = (t - r1) * qm1 - branch_sub
    d, rem = divmod(num, t * delta)
    if rem:
        raise RuntimeError(f"branch value for r={r} is not an integer")
    _, t_star = optimize_profile(fp, t, r, "closed_form")
    scaled, rem = divmod(N * t_star, t * delta)
    if rem:
        raise RuntimeError(f"scaled objective for r={r} is not an integer")
    if d != params.n - scaled:
        raise RuntimeError(f"branch/objective mismatch at r={r}: {d} vs {params.n - scaled}")
    return d


def closed_form_hierarchy(params: CodeParams) -> list:
    return [closed_form_dr(params, r) for r in range(1, params.k + 1)]


def branch_label(fp: FormulaParams, r2: int) -> str:
    return "low" if r2 < fp.half else "high"


def character_sum_count(code: TraceCode, basis) -> complex:
    """Common-zero count of a message subspace as a numeric character sum.

    Each member b contributes, for h = 1..t, the Gauss period at
    gamma^(a*h) * sum_j b_j beta^(delta_j*h).  That argument vector is
    GF(q)-linear in b, so it is computed once per basis vector and the
    members' arguments are the GF(q)-span of those images, enumerated in
    the members' coefficient order.  The result must agree with the exact
    integer count within 1e-6 (at most Q * q^r * t unit-magnitude summands
    at desk scale).  Requires e == t.
    """
    params = code.params
    if params.e != params.t:
        raise ValueError(f"character-sum counting requires e == t, got e={params.e}, t={params.t}")
    field = code.field
    table = code.cyclotomy.period_table()
    group = params.Q - 1
    exp = field.exp
    mul, add = field.mul, field.add
    t = params.t
    step = group // params.e
    g_pows = [exp[(params.a * h) % group] for h in range(1, t + 1)]
    beta_pows = [
        [exp[(step * params.deltas[j] * h) % group] for j in range(t)]
        for h in range(1, t + 1)
    ]
    images = []
    for b in basis:
        image = []
        for h in range(t):
            acc = 0
            for j in range(t):
                if b[j]:
                    acc = add(acc, mul(b[j], beta_pows[h][j]))
            image.append(mul(g_pows[h], acc))
        images.append(tuple(image))
    log, N = field.log, params.N
    values = table.values
    class_size = complex(table.class_size)
    total = 0j
    for args in linalg.span_vectors(field, images):
        for arg in args:
            total += values[log[arg] % N] if arg else class_size
    r = len(basis)
    return total * params.N / (params.t * params.delta * params.q**r)
