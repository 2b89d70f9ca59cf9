"""Closed-form weight hierarchy machinery.

The maximum number of common zeros over r-dimensional message subspaces
reduces, through the dual expression, to maximizing a separable objective
over dimension profiles (u_1..u_t): each slot contributes the maximum
possible intersection of a u_i-dimensional GF(q)-subspace of F_Q with a
fixed cyclotomy class.  Under the semiprimitive hypotheses that per-slot
maximum has a two-branch closed form, the optimal profile concentrates mass
as (m,...,m, r_2, 0,...,0), and the hierarchy follows in exact integer
arithmetic.  Every division required to be exact is checked at runtime.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import reduce
from itertools import chain, repeat

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
        p = factors[0]
        s = 0
        qq = q
        while qq > 1:
            qq //= p
            s += 1
        if p**s != q:
            raise ValueError(f"q={q} is not a prime power")
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


def character_sum_count(code: TraceCode, basis) -> complex:
    """Common-zero count of a message subspace as a numeric character sum.

    Each member b contributes, for h = 1..t, the Gauss period at slot h of
    ``code.relabel(b)`` (the derivation is there).  The image is GF(q)-linear
    in b, so it is computed once per basis vector, and the members' images
    are the GF(q)-span of those, enumerated slot by slot.  At r = 1 a slot's
    members are 0 and the q - 1 nonzero multiples c*y of one image y.  They
    all share one period: N divides (Q-1)/(q-1) (``derive_params`` takes N
    as a divisor of it), so GF(q)^* lies in class 0 and c*y is in the class
    of y.  The slot is the class size, then ``period_table()[log y mod N]``
    (the class size again when y = 0) repeated q - 1 times, with nothing
    read per member.  At r >= 2, each basis vector adds each multiple c*x
    of its image coordinate x, c over the nonzero scalars of ``subfield_q``
    in order, to every member with ``FieldCtx.translate``: an XOR at p = 2,
    else two table reads or one ``add`` per member.  A slot's periods are
    one tuple, gathered from ``periods_by_code()`` at its members (at least
    q >= 2 of them, so the gather is a tuple); the slots' tuples are
    interleaved into one list before the fold, which folds faster than
    interleaving them lazily.  A single slot (t = 1) is folded as it is.
    Summation is a strict left fold over members outer, in coefficient
    order with the last basis vector slowest, and slots inner, as a
    member-by-member evaluation adds them, so the float does not depend on
    how the arguments were enumerated.  The result must agree with the
    exact integer count within 1e-6 (at most Q * q^r * t unit-magnitude
    summands at desk scale).  Requires e == t.
    """
    params = code.params
    if params.e != params.t:
        raise ValueError(f"character-sum counting requires e == t, got e={params.e}, t={params.t}")
    field = code.field
    cyclotomy = code.cyclotomy
    class_size = complex(cyclotomy.class_size)
    q, t, N = params.q, params.t, params.N

    def span(xs):
        # codes of sum_j c_j xs[j] over the coefficients, the last slowest
        members = [0]
        for x in xs:  # block i holds the members plus the i-th multiple of x
            size = len(members)
            shifted = members * q
            for i, c in enumerate(field.subfield_q[1:], 1):
                shifted[i * size:(i + 1) * size] = field.translate(members, field.mul(c, x))
            members = shifted
        return members

    r = len(basis)
    table = cyclotomy.period_table()
    by_code = cyclotomy.periods_by_code() if r > 1 else None
    images = [code.relabel(b) for b in basis]
    slots = []
    for h in range(t):
        xs = [image[h] for image in images]
        if r == 1:
            period = table[field.log[xs[0]] % N] if xs[0] else class_size
            slots.append(chain((class_size,), repeat(period, q - 1)))
        else:  # a tuple of periods: a slot's members are freed before the next
            slots.append(operator.itemgetter(*span(xs))(by_code))
    # member-major: slot h of member i is the (i*t + h)-th summand
    if t == 1:
        summands = slots[0]
    elif r == 1:  # interleave the lazy streams, with no list of the field's size
        summands = chain.from_iterable(zip(*slots))
    else:
        summands = [0j] * (t * len(slots[0]))
        for h, slot in enumerate(slots):
            summands[h::t] = slot
    total = reduce(operator.add, summands, 0j)  # not sum(): it compensates floats from 3.12
    return total * params.N / (params.t * params.delta * params.q**r)
