"""Closed-form weight hierarchy machinery.

The maximum number of common zeros over r-dimensional message subspaces
reduces, through the dual expression, to maximizing a separable objective
over dimension profiles (u_1..u_t): each slot contributes the maximum
possible intersection of a u_i-dimensional GF(q)-subspace of F_Q with a
fixed cyclotomy class.  Under the semiprimitive hypotheses that per-slot
maximum has a two-branch closed form, the optimal profile concentrates mass
as (m,...,m, r_2, 0,...,0), and the hierarchy follows in exact integer
arithmetic, as does the character-sum count of a subspace, whose Gauss
periods are trace counts.  Every division meant to be exact is checked.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .codes import CodeParams, TraceCode, check_closed_form_hypotheses
from .cyclotomy import semiprimitive_j
from .errors import HypothesesNotMet
from .fields import prime_factors


class FormulaParams(namedtuple("FormulaParams", "q m N p s j")):
    """The (q, m, N) regime in which the closed form is valid.

    Construction enforces the full set of hypotheses: m even, 2 < N with
    N^2 <= q^m, a smallest j with p^j = -1 (mod N), and sm/(2j) odd (p, s
    recovered from the prime power q).  These are exactly the conditions
    under which the per-slot intersection bound below is attained.  Built
    from (q, m, N) alone; p, s and j are derived, and repr shows q, m, N.
    """

    __slots__ = ()

    def __new__(cls, q, m, N):
        factors = prime_factors(q)
        if len(factors) != 1:
            raise ValueError(f"q={q} is not a prime power")
        p, = factors
        s = next(s for s in itertools.count(1) if p**s == q)
        if m < 2 or m % 2:
            raise ValueError(f"m must be even and positive, got {m}")
        if not (2 < N and N * N <= q**m):
            raise ValueError(f"need 2 < N <= sqrt(Q), got N={N}, Q={q**m}")
        j = semiprimitive_j(p, N)
        if j is None:
            raise ValueError(f"no j with {p}^j = -1 (mod {N})")
        sm = s * m
        if sm % (2 * j) or (sm // (2 * j)) % 2 == 0:
            raise ValueError(f"sm/(2j) must be an odd integer, got sm={sm}, j={j}")
        return super().__new__(cls, q, m, N, p, s, j)

    def __getnewargs__(self):  # copy and pickle rebuild through the checks
        return self[:3]

    def __repr__(self):
        return f"FormulaParams(q={self.q}, m={self.m}, N={self.N})"

    @classmethod
    def from_code_params(cls, params: CodeParams) -> "FormulaParams":
        """Refuses (HypothesesNotMet) a failed assumption or hypothesis."""
        failures = [f"assumption {name}: {check.detail}"
                    for name, check in params.assumptions._asdict().items() if not check.ok]
        failures += check_closed_form_hypotheses(params).failures()
        if failures:
            raise HypothesesNotMet(failures)
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


# -- dimension profiles ------------------------------------------------------

def profile_objective(fp: FormulaParams, u) -> int:
    """Sum of per-slot maximum intersections over the profile."""
    return sum(max_class_intersection(fp, x) for x in u)


def rank_decomposition(t: int, m: int, r: int):
    """(r1, r2) with t*m - r = r1*m + r2, 0 <= r1 <= t-1, 0 <= r2 <= m-1."""
    if not 1 <= r <= t * m:
        raise ValueError(f"need 1 <= r <= {t * m}, got r={r}")
    return divmod(t * m - r, m)


def optimize_profile(fp: FormulaParams, t: int, r: int):
    """The profile maximizing the objective among profiles summing to t*m - r.

    Under the construction hypotheses the winner is the concentrated profile
    (m,...,m, r2, 0,...,0), returned directly with its objective;
    ``tests/paper_lemmas.py`` keeps the search over every profile as the
    reference.
    """
    r1, r2 = rank_decomposition(t, fp.m, r)
    u = (fp.m,) * r1 + (r2,) + (0,) * (t - r1 - 1)
    return u, profile_objective(fp, u)


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
    _, t_star = optimize_profile(fp, t, r)
    scaled, rem = divmod(N * t_star, t * delta)
    if rem:
        raise RuntimeError(f"scaled objective for r={r} is not an integer")
    if d != params.n - scaled:
        raise RuntimeError(f"branch/objective mismatch at r={r}: {d} vs {params.n - scaled}")
    return d


def branch_label(fp: FormulaParams, r2: int) -> str:
    return "low" if r2 < fp.half else "high"


def character_sum_count(code: TraceCode, basis) -> int:
    """Common-zero count of a message subspace as an exact character sum.

    Each member b contributes, for h = 1..t, the Gauss period at slot h of
    ``code.relabel(b)`` (the derivation is there): the ``period_table()``
    row of that argument.  The image is GF(q)-linear in b, so it is computed
    once per basis vector.  N divides (Q-1)/(q-1) (``derive_params`` takes N
    as a divisor of it), so GF(q)^* lies in class 0 and the q - 1 nonzero
    members of a line of the span share a row.  A line is read once, at its
    member whose last nonzero coefficient is 1; those with the j-th last are
    the slot's j-th image coordinate plus the span of the earlier ones,
    built with ``FieldCtx.translate``.  At r = 1 that is one argument per
    slot, whose row is read from its log.
    The rows, weighted by their uses, sum to totals T_k; the character sum
    is sum_k T_k zeta_p^k.  GF(p)^* lies in class 0 too, so each row has
    equal counts at the nonzero traces, and ``CyclotomyCtx.periods``, which
    checks that, gives each row as the int c_0 - c_1: T_0 - T_1 is their
    sum over the uses.  The count N*(T_0 - T_1)/(t*delta*q^r) must divide
    exactly; otherwise RuntimeError.  Requires e == t.
    """
    params = code.params
    if params.e != params.t:
        raise ValueError(f"character-sum counting requires e == t, got e={params.e}, t={params.t}")
    field, cyclotomy = code.field, code.cyclotomy
    q, N, r = params.q, params.N, len(basis)
    row = cyclotomy.class_by_code().__getitem__ if r > 1 else (
        lambda x: field.log[x] % N if x else N)
    images = [code.relabel(b) for b in basis]
    periods = cyclotomy.periods()
    lines = 0  # the periods of the lines of the slots' spans, one member each
    for h in range(params.t):
        members = [0]  # the span of the slot-h coordinates of the images so far
        for j, image in enumerate(images):
            block = field.translate(members, image[h])
            lines += sum(map(periods.__getitem__, map(row, block)))
            if j + 1 < r:
                members += block + [y for c in field.subfield_q[2:]
                                    for y in field.translate(members, field.mul(c, image[h]))]
    total = params.t * periods[N] + (q - 1) * lines  # each slot's zero member, then the lines
    scale = params.t * params.delta * q**r
    count, rem = divmod(N * total, scale)
    if rem:
        raise RuntimeError(f"character-sum count {count * scale + rem}/{scale} is not an integer")
    return count
