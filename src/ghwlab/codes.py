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

    def to_dict(self):
        return {"ok": self.ok, "detail": self.detail}


class AssumptionReport(namedtuple("AssumptionReport", "i ii iii")):
    """Pass/fail record, with witnesses, for the three parameter assumptions."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.i.ok and self.ii.ok and self.iii.ok

    def to_dict(self):
        return {
            "i": self.i.to_dict(),
            "ii": self.ii.to_dict(),
            "iii": self.iii.to_dict(),
            "all_ok": self.all_ok,
        }


class HypothesisReport(namedtuple(
        "HypothesisReport",
        "e_equals_t N_in_range j sm_over_2j_odd m_even irreducible")):
    """Which closed-form hypotheses hold for a parameter set.

    Never raised from; the closed-form engine consults it and refuses when
    any flag is false.  t = 1 is accepted and flagged as the irreducible
    (one-nonzero) special case.  N_in_range is 2 < N and N^2 <= Q; j is the
    smallest j with p^j = -1 (mod N), or None.
    """

    __slots__ = ()

    @property
    def semiprimitive(self) -> bool:
        return self.j is not None

    @property
    def all_hold(self) -> bool:
        return (self.e_equals_t and self.N_in_range and self.semiprimitive
                and self.sm_over_2j_odd and self.m_even)

    def failures(self) -> list:
        return [name for name, ok in (
            ("e_equals_t", self.e_equals_t),
            ("N_in_range (need 2 < N <= sqrt(Q))", self.N_in_range),
            ("semiprimitive (no j with p^j = -1 mod N)", self.semiprimitive),
            ("sm_over_2j_odd", self.sm_over_2j_odd),
            ("m_even", self.m_even)) if not ok]

    def to_dict(self):
        return {
            "e_equals_t": self.e_equals_t,
            "N_in_range": self.N_in_range,
            "semiprimitive": self.semiprimitive,
            "j": self.j,
            "sm_over_2j_odd": self.sm_over_2j_odd,
            "m_even": self.m_even,
            "irreducible": self.irreducible,
            "all_hold": self.all_hold,
        }


class CodeParams:
    """The derived parameters of one code, built by ``derive_params``.

    Mutable, and equal only to itself.
    """

    __slots__ = ("p", "s", "m", "e", "t", "a", "deltas", "q", "Q", "a_list",
                 "delta", "n", "N", "field", "assumptions")

    def __init__(self, **fields):
        if fields.keys() != set(self.__slots__):
            raise TypeError(f"CodeParams takes exactly the fields {self.__slots__}")
        for name, value in fields.items():
            setattr(self, name, value)

    def __repr__(self):
        return "CodeParams(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    @property
    def k(self) -> int:
        """Code dimension t*m (holds when assumption iii passes)."""
        return self.t * self.m

    def to_dict(self):
        return {
            "p": self.p, "s": self.s, "m": self.m,
            "e": self.e, "t": self.t, "a": self.a,
            "deltas": list(self.deltas),
            "q": self.q, "Q": self.Q,
            "a_i": list(self.a_list),
            "delta": self.delta, "n": self.n, "N": self.N, "k": self.k,
        }


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

    report = AssumptionReport(
        i=_check_i(Q, e, a, t),
        ii=_check_ii(e, t, deltas),
        iii=_check_iii(field, a_list, m),
    )
    return CodeParams(p=p, s=s, m=m, e=e, t=t, a=a, deltas=deltas,
                      q=q, Q=Q, a_list=a_list, delta=delta, n=n, N=N,
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
    """The minimal polynomial of a root over GF(q) is the product over its
    q-conjugacy orbit: its degree is the orbit size, and two are equal
    exactly when the orbits are."""
    orbits = []
    for ai in a_list:
        root = field.pow(field.gamma, -ai) if ai else field.one
        orbits.append(frozenset(field.conjugacy_orbit(root)))
    degs = [len(orbit) for orbit in orbits]
    if any(d != m for d in degs):
        return AssumptionCheck(False, f"minimal polynomial degrees {degs}, expected all {m}")
    if len(set(orbits)) != len(orbits):
        return AssumptionCheck(False, "repeated minimal polynomial among the exponents")
    return AssumptionCheck(True, f"all degrees equal {m} and polynomials pairwise distinct")


def check_closed_form_hypotheses(params: CodeParams) -> HypothesisReport:
    """Report whether the closed-form hierarchy applies; never raises."""
    N = params.N
    j = None
    if N > 2:
        j = semiprimitive_j(params.p, N)
    sm = params.s * params.m
    odd = j is not None and sm % (2 * j) == 0 and (sm // (2 * j)) % 2 == 1
    return HypothesisReport(
        e_equals_t=params.e == params.t,
        N_in_range=2 < N and N * N <= params.Q,
        j=j,
        sm_over_2j_odd=odd,
        m_even=params.m % 2 == 0,
        irreducible=params.t == 1,
    )


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
                + "; ".join(c.detail for c in (params.assumptions.i,
                                               params.assumptions.ii,
                                               params.assumptions.iii) if not c.ok))
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

    def support_union(self, basis) -> frozenset:
        """0-based coordinates where some basis word is nonzero.

        By linearity of the coordinate functionals this is the support of
        the whole subcode spanned by the basis.  The basis must be
        GF(q)-independent.
        """
        if not linalg.vectors_independent(self.field, basis):
            raise ValueError("basis vectors are GF(q)-dependent")
        supp = set()
        for vec in basis:
            word = self.codeword(vec)
            supp.update(i for i, c in enumerate(word) if c)
        return frozenset(supp)

    def generator_matrix(self) -> tuple:
        """The k x n generator matrix over GF(q), read from the trace tables.

        Row j*m + i is the word of gamma^i at slot j, the message that
        ``vector_from_coords`` makes of unit vector j*m + i: coordinate i of
        ``FieldCtx.trace_coords`` at each evaluation point gamma^(a_j*i),
        read as ``exp[a_j*i mod (Q-1)]``.  An RREF row's word is its
        GF(q)-combination of these rows.  Read without ``codeword``, so the
        brute witness recount checks the two against each other.  Built on
        every call and never stored on the instance.
        """
        coords, exp, group = self.field.trace_coords, self.field.exp, self.params.Q - 1
        return tuple(row for aj in self.params.a_list
                     for row in zip(*(coords(exp[aj * i % group]) for i in range(1, self.n + 1))))


def count_common_zeros(code: TraceCode, basis) -> int:
    """Number of coordinates at which every word of the subcode vanishes."""
    return code.n - len(code.support_union(basis))
