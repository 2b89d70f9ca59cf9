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

from dataclasses import dataclass

from .codes import CodeParams, TraceCode, check_closed_form_hypotheses
from .cyclotomy import semiprimitive_j
from .errors import HypothesesNotMet
from .fields import prime_factors


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


def closed_form_hierarchy(params: CodeParams) -> list:
    return [closed_form_dr(params, r) for r in range(1, params.k + 1)]


def branch_label(fp: FormulaParams, r2: int) -> str:
    return "low" if r2 < fp.half else "high"


def character_sum_count(code: TraceCode, basis) -> complex:
    """Common-zero count of a message subspace as a numeric character sum.

    Each member b contributes, for h = 1..t, the Gauss period at
    gamma^(a*h) * sum_j b_j beta^(delta_j*h).  That argument vector is
    GF(q)-linear in b, so it is computed once per basis vector, and the
    members' arguments are the GF(q)-span of those images, enumerated slot
    by slot as flat lists of element codes.  The multiples of an image
    coordinate x are gamma^(log c + log x) for the nonzero scalars c, read
    from the exp table; each later basis vector adds one field addition per
    member and slot.  A summand is the period of its argument's class,
    log(arg) mod N, or the class size at 0.  Summation runs members outer,
    in coefficient order with the last basis vector slowest, and slots
    inner, as a member-by-member evaluation would add them, so the float
    does not depend on how the arguments were enumerated.  The result must
    agree with the exact integer count within 1e-6 (at most Q * q^r * t
    unit-magnitude summands at desk scale).  Requires e == t.
    """
    params = code.params
    if params.e != params.t:
        raise ValueError(f"character-sum counting requires e == t, got e={params.e}, t={params.t}")
    field = code.field
    values = code.cyclotomy.period_table()
    group = params.Q - 1
    exp, log = field.exp, field.log
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
        images.append(image)
    scalar_logs = [log[c] for c in field.subfield_q[1:]]
    q, N = params.q, params.N
    class_size = complex(code.cyclotomy.class_size)
    slots = []
    for h in range(t):
        members = [0]
        for image in images:
            x = image[h]
            if not x:
                members = members * q
                continue
            lx = log[x]
            mults = [exp[(lc + lx) % group] for lc in scalar_logs]
            if len(members) == 1:  # the first image: 0 + c*x needs no addition
                members = [0] + mults
            else:
                members = members + [add(e, mb) for mb in mults for e in members]
        slots.append([values[log[arg] % N] if arg else class_size for arg in members])
    summands = [0j] * (t * len(slots[0]))
    for h, slot in enumerate(slots):
        summands[h::t] = slot  # member-major: slot h of member i at i*t + h
    total = 0j
    for summand in summands:
        total += summand
    r = len(basis)
    return total * params.N / (params.t * params.delta * params.q**r)
