"""Parameter derivation and trace-representation materialization of the codes.

A parameter tuple (p, s, m, e, t, a, deltas) determines exponents
a_i = a + ((Q-1)/e) * delta_i, a length n = (Q-1)/gcd(Q-1, a_1..a_t), and a
class count N = gcd((Q-1)/(q-1), a*e).  The code itself is the image of
F_Q^t under the trace map: coordinate i of the word for message (x_1..x_t)
is Tr_{Q->q}(sum_j x_j gamma^(a_j * i)), i = 1..n.

Coordinates are 1-based in the mathematics; everything serialized by this
package is 0-based and says so via an explicit "index_base" field.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce

from . import linalg
from .cyclotomy import CyclotomyCtx, semiprimitive_j
from .fields import build_field, is_prime


class AssumptionCheck(namedtuple("AssumptionCheck", "ok detail")):
    __slots__ = ()


class AssumptionReport(namedtuple("AssumptionReport", "i ii iii")):
    """Pass/fail record, with witnesses, for the three parameter assumptions."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return all(check.ok for check in self)

    def to_dict(self):
        return {**{name: check._asdict() for name, check in self._asdict().items()},
                "all_ok": self.all_ok}


class HypothesisReport(namedtuple(
        "HypothesisReport",
        "e_equals_t N_in_range semiprimitive j sm_over_2j_odd m_even irreducible")):
    """Which closed-form hypotheses hold for a parameter set.

    Never raised from; the closed-form engine consults it and refuses when
    any flag is false.  t = 1 is accepted and flagged as the irreducible
    (one-nonzero) special case.  N_in_range is 2 < N and N^2 <= Q; j is the
    smallest j with p^j = -1 (mod N), or None when semiprimitive is false.
    """

    __slots__ = ()

    @classmethod
    def of(cls, p, s, m, N, e, t) -> "HypothesisReport":
        """The one evaluation of the closed-form regime, for Q = p^(sm) and
        N classes, which ``check_closed_form_hypotheses`` reads."""
        j = semiprimitive_j(p, N) if N > 2 else None
        sm = s * m
        return cls(e_equals_t=e == t, N_in_range=2 < N and N * N <= p**sm,
                   semiprimitive=j is not None, j=j,
                   sm_over_2j_odd=j is not None and sm % (2 * j) == 0 and (sm // (2 * j)) % 2 == 1,
                   m_even=m % 2 == 0, irreducible=t == 1)

    @property
    def all_hold(self) -> bool:
        return not self.failures()

    def failures(self) -> list:
        return [name for name, ok in (
            ("e_equals_t", self.e_equals_t),
            ("N_in_range (need 2 < N <= sqrt(Q))", self.N_in_range),
            ("semiprimitive (no j with p^j = -1 mod N)", self.semiprimitive),
            ("sm_over_2j_odd", self.sm_over_2j_odd),
            ("m_even", self.m_even)) if not ok]

    def to_dict(self):
        return {**self._asdict(), "all_hold": self.all_hold}


class CodeParams(namedtuple(
        "CodeParams",
        "p s m e t a deltas q Q a_list delta n N k field assumptions")):
    """The derived parameters of one code, built by ``derive_params``:
    immutable and equal by value, so a ``TraceCode`` never sees its
    parameters change; ``_replace`` makes a variant."""

    __slots__ = ()

    def to_dict(self):
        """The fields before ``field``, tuples as lists and ``a_list`` as ``a_i``."""
        return {"a_i" if name == "a_list" else name: list(v) if isinstance(v, tuple) else v
                for name, v in zip(self._fields[:-2], self)}


def derive_params(p, s, m, e, t, a, deltas=None) -> CodeParams:
    """Derive all code parameters and record the assumption checks.

    Hard errors are limited to non-prime p, t > e, a delta list of the wrong
    length, and e not dividing Q-1 (without which the exponents a_i are
    undefined); every other assumption failure is recorded in the report
    rather than raised, so callers can inspect near-miss parameter sets.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    for name, val in (("s", s), ("m", m), ("e", e), ("t", t)):
        if val < 1:
            raise ValueError(f"{name} must be positive, got {val}")
    if a < 1:
        raise ValueError(f"a must be positive, got {a}")
    if t > e:
        raise ValueError(f"t={t} exceeds e={e}")
    if deltas is None:
        if e == t:
            deltas = tuple(range(t))
        else:
            raise ValueError("deltas may only be defaulted when e == t")
    deltas = tuple(deltas)
    if len(deltas) != t:
        raise ValueError(f"deltas must have length t={t}, got {len(deltas)}")

    field = build_field(p, s * m, subfield_degree=s)
    q, Q = field.q, field.Q
    if (Q - 1) % e != 0:
        raise ValueError(f"e={e} does not divide Q-1={Q - 1}")

    step = (Q - 1) // e
    a_list = tuple((a + step * d) % (Q - 1) for d in deltas)
    delta = math.gcd(Q - 1, *a_list)
    n = (Q - 1) // delta
    N = math.gcd((Q - 1) // (q - 1), a * e)

    iii, k = _check_iii(field, a_list, m)
    report = AssumptionReport(i=_check_i(Q, e, a, t), ii=_check_ii(e, t, deltas), iii=iii)
    return CodeParams(p=p, s=s, m=m, e=e, t=t, a=a, deltas=deltas,
                      q=q, Q=Q, a_list=a_list, delta=delta, n=n, N=N, k=k,
                      field=field, assumptions=report)


def _check_i(Q, e, a, t):
    # derive_params has already raised unless e | Q-1 and e >= t >= 1
    ok = a % (Q - 1) != 0
    clause = f"a={a} is nonzero mod Q-1" if ok else f"a={a} is 0 mod Q-1={Q - 1}"
    return AssumptionCheck(ok, f"e={e} divides Q-1; {clause}; e={e} >= t={t} >= 1")


def _check_ii(e, t, deltas):
    if t < 2:
        return AssumptionCheck(True, "t=1: no condition on deltas")
    residues = [d % e for d in deltas]
    if len(set(residues)) != t:
        dupes = sorted({r for r in residues if residues.count(r) > 1})
        return AssumptionCheck(False, f"deltas collide mod e at residues {dupes}")
    g = math.gcd(e, *[(d - deltas[0]) % e for d in deltas[1:]])
    if g != 1:
        return AssumptionCheck(False, f"gcd(delta differences, e) = {g} != 1")
    return AssumptionCheck(True, "deltas distinct mod e and difference gcd is 1")


def _check_iii(field, a_list, m):
    """The check, and the code dimension k: the size of the union of the
    roots' q-conjugacy orbits, the code's nonzeros, which is t*m when the
    check passes.  The minimal polynomial of a root over GF(q) is the
    product over its orbit: its degree is the orbit size, and two are equal
    exactly when the orbits are."""
    orbits = [frozenset(field.conjugacy_orbit(field.pow(field.gamma, -ai))) for ai in a_list]
    k = len(frozenset().union(*orbits))
    degs = [len(orbit) for orbit in orbits]
    if any(d != m for d in degs):
        return AssumptionCheck(False, f"minimal polynomial degrees {degs}, expected all {m}"), k
    if len(set(orbits)) != len(orbits):
        return AssumptionCheck(False, "repeated minimal polynomial among the exponents"), k
    return AssumptionCheck(True, f"all degrees equal {m} and polynomials pairwise distinct"), k


def check_closed_form_hypotheses(params: CodeParams) -> HypothesisReport:
    """Report whether the closed-form hierarchy applies; never raises."""
    return HypothesisReport.of(params.p, params.s, params.m, params.N, params.e, params.t)


def require_e_equals_t(params: CodeParams, count: str):
    """The one e = t check of the counts that need it: ValueError naming
    ``count`` ("dual counting", "character-sum counting") when e != t."""
    if params.e != params.t:
        raise ValueError(f"{count} requires e == t, got e={params.e}, t={params.t}")


class TraceCode:
    """The code materialized via its trace representation.

    The message space is F_Q^t.  A word is read off coordinatewise from the
    exponents a_j * i and the trace table onto GF(q); nothing per position
    is stored.  Immutable after construction and safe to share across
    workers.
    """

    def __init__(self, params: CodeParams):
        if not params.assumptions.all_ok:
            raise ValueError(
                "cannot materialize code: assumption check failed: "
                + "; ".join(c.detail for c in params.assumptions if not c.ok))
        self.params = params
        self.field = params.field
        self.n = params.n
        self.k = params.k
        self.q = params.q
        self.t = params.t
        self.cyclotomy = CyclotomyCtx(self.field, params.N)
        group = params.Q - 1
        exp = self.field.exp
        self._relabel_rows = tuple(
            tuple(exp[(aj * h) % group] for aj in params.a_list)
            for h in range(1, params.t + 1)
        )
        self._trace_q = self.field.trace_table(params.s)

    def __repr__(self):
        p = self.params
        return f"TraceCode([{self.n},{self.k}] over GF({p.q}), N={p.N})"

    def codeword(self, xbar) -> tuple:
        """Word for a message in F_Q^t; GF(q)-linear in the message.

        Coordinate i sums Tr_{Q->q}(x_j gamma^(a_j*i)) over the nonzero x_j,
        each one read ``trace[exp[(log x_j + a_j*i) mod (Q-1)]]``, in GF(q):
        t - 1 adds per position, none at t = 1, and no F_Q product."""
        if len(xbar) != self.t:
            raise ValueError(f"message must have {self.t} components, got {len(xbar)}")
        field, trace, n, group = self.field, self._trace_q, self.n, self.params.Q - 1
        exp, log = field.exp, field.log
        # exponents by a range of step a_j; a_j = 0 (m = 1) steps by Q - 1 instead
        words = [[trace[exp[k % group]] for k in range(log[x] + aj, log[x] + aj * (n + 1), aj)]
                 for x, aj in zip(xbar, (aj or group for aj in self.params.a_list)) if x]
        return tuple(reduce(lambda u, v: list(map(field.add, u, v)), words)) if words else (0,) * n

    def relabel(self, vec) -> tuple:
        """Slot h of the image, h = 1..t, is
        gamma^(a*h) * sum_j b_j beta^(delta_j*h), with beta = gamma^((Q-1)/e).

        Coordinate i of the word of b is Tr_{Q->q}(sum_j b_j gamma^(a_j*i)),
        and gamma^(a_j*i) = gamma^(a*i) beta^(delta_j*i).  Let e = t, and
        let i run over 0..Q-2, which counts each coordinate delta times.
        Write i = h + t*u; beta^t = 1, so the sum inside the trace is
        relabel(b)_h * gamma^(a*t*u).  Count the common zeros of an
        r-dimensional subspace S with the additive character psi of F_Q.
        Scaling b by c in GF(q)^* scales its image by c, and the products
        c * gamma^(a*t*u) cover class 0 evenly, so the sum over u becomes a
        Gauss period:
            zeros(S) = N/(t*delta*q^r) * sum_{b in S} sum_h eta(relabel(b)_h),
        eta(y) = sum_{z in C_0} psi(y*z), eta(0) = |C_0|.  That sum is
        ``hierarchy.character_sum_count``.  The sum of psi(y_h*z) over a
        subspace S' is q^r when Tr_{Q->q}(y_h*z) = 0 on all of S' and 0
        otherwise, so the dual count of relabel(S), the pairs (h, z) with
        z*e_h orthogonal to it, is zeros(S).  The map is F_Q-linear: a
        diagonal times a Vandermonde matrix in the beta^(delta_j), which
        assumption ii makes distinct, so it is invertible.  Its row h holds
        gamma^(a*h) beta^(delta_j*h) = gamma^(a_j*h), built once with the code.
        """
        if len(vec) != self.t:
            raise ValueError(f"message must have {self.t} components, got {len(vec)}")
        add, mul = self.field.add, self.field.mul
        return tuple(reduce(add, map(mul, vec, row), 0) for row in self._relabel_rows)

    def generator_matrix(self) -> tuple:
        """The k x n generator matrix over GF(q): ``linalg.pairing_matrix``
        with slot j the evaluation points gamma^(a_j*i), ``exp[a_j*i mod (Q-1)]``.
        Row j*m + i is the word of gamma^i at slot j, the message that
        ``vector_from_coords`` makes of unit vector j*m + i; an RREF row's
        word is its GF(q)-combination of these rows.  Read without
        ``codeword``, so the brute witness recount checks the two against
        each other.  Built on every call and never stored on the instance.
        """
        exp, group, n = self.field.exp, self.params.Q - 1, self.n
        return linalg.pairing_matrix(self.field, [[exp[aj * i % group] for i in range(1, n + 1)]
                                                  for aj in self.params.a_list])


def count_common_zeros(code: TraceCode, basis) -> int:
    """Number of coordinates at which every word of the subcode vanishes:
    n minus the union of the basis words' supports, which by linearity of
    the coordinate functionals is the support of the whole subcode.  The
    basis must be GF(q)-independent."""
    if not linalg.vectors_independent(code.field, basis):
        raise ValueError("basis vectors are GF(q)-dependent")
    support = set()
    for vec in basis:
        support.update(i for i, c in enumerate(code.codeword(vec)) if c)
    return code.n - len(support)
