"""Exact arithmetic in small extension fields GF(p^(s*m)).

An element is a plain integer in [0, Q): its base-p digits are the
coefficients of the residue polynomial modulo a fixed primitive polynomial,
constant term first.  Multiplication goes through dense exponent/logarithm
tables built once at construction by stepping gamma^k to gamma^(k+1) on
the packed code: a shift by one digit, then the top digit folded back in
through two small tables per digit value, one for each half of the
shifted digits, so no step loops over digits.  For odd p, addition goes through a table
of Zech logarithms, zech[k] = log(1 + gamma^k), and negation adds (Q-1)/2 to
the logarithm; for p = 2 addition is XOR.  Every operation is a few table
lookups.  The intermediate field GF(q), q = p^s, is kept as the subset of
elements fixed by x -> x^q rather than as a separate field object, which
keeps all arithmetic inside a single context.  GF(q)-coordinates in the
basis (1, gamma, ..., gamma^(m-1)) are trace pairings Tr_{Q->q}(x * d_j)
with the trace-dual basis d, and the degree of x over GF(q) is the size of
its q-conjugacy orbit.

Fields are capped at 2^20 elements: this module targets desk-scale
verification, not cryptographic sizes.
"""

from __future__ import annotations

import functools

from . import linalg

MAX_FIELD_SIZE = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (inputs are desk-scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        value, rem = divmod(value, p)
        out.append(rem)
    return out


def _poly_mulmod(a, b, modulus, p):
    # a, b: digit lists of length d; modulus: monic, length d+1
    d = len(modulus) - 1
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(d):
                prod[k - d + i] = (prod[k - d + i] - c * modulus[i]) % p
    return prod[:d]


def _poly_powmod(a, e, modulus, p):
    d = len(modulus) - 1
    result = [0] * d
    result[0] = 1
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _x_has_full_order(p, degree, modulus):
    """Check that the residue of x modulo `modulus` has order exactly p^degree - 1."""
    group = p**degree - 1
    x = [0] * degree
    if degree == 1:
        x[0] = (-modulus[0]) % p
    else:
        x[1] = 1
    one = [0] * degree
    one[0] = 1
    if _poly_powmod(x, group, modulus, p) != one:
        return False
    for ell in prime_factors(group):
        if _poly_powmod(x, group // ell, modulus, p) == one:
            return False
    return True


class FieldCtx:
    """GF(p^(s*m)) with a primitive element and dense exp/log tables.

    Not constructed directly; use :func:`build_field`.  All operations are
    pure and the context is immutable after construction (lazily built
    caches excepted), so one context can be shared freely across workers.
    """

    def __init__(self, p, s, m, modulus, exp_table, log_table):
        self.p = p
        self.s = s
        self.m = m
        self.q = p**s
        self.degree = s * m
        self.Q = p**self.degree
        self.modulus = tuple(modulus)
        self.exp = exp_table
        self.log = log_table
        self.zech = _zech_table(p, exp_table, log_table) if p != 2 else None
        self.gamma = exp_table[1 % (self.Q - 1)] if self.Q > 2 else exp_table[0]
        self.one = 1
        self._subfields: dict[int, tuple] = {}
        self._trace_tables: dict[int, list] = {}
        self._dual_basis = None
        self._scalar_logs = None

    def __repr__(self):
        return f"FieldCtx(p={self.p}, s={self.s}, m={self.m}, Q={self.Q})"

    # -- basic arithmetic ------------------------------------------------

    def add(self, a, b):
        """a + b: XOR when p = 2, else by a Zech logarithm,
        a + b = a * (1 + b/a) = gamma^(log a + zech[log b - log a])."""
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        group = self.Q - 1
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % group]
        if z < 0:
            return 0
        return self.exp[(la + z) % group]

    def neg(self, a):
        """-a: -1 = gamma^((Q-1)/2) when p is odd."""
        if self.p == 2 or a == 0:
            return a
        group = self.Q - 1
        return self.exp[(self.log[a] + group // 2) % group]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        k = self.log[a] + self.log[b]
        group = self.Q - 1
        if k >= group:
            k -= group
        return self.exp[k]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        group = self.Q - 1
        return self.exp[(group - self.log[a]) % group]

    def pow(self, a, k):
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        group = self.Q - 1
        return self.exp[(self.log[a] * k) % group]

    def frobenius(self, x, k=1):
        """x^(p^k)."""
        if x == 0:
            return 0
        group = self.Q - 1
        return self.exp[(self.log[x] * pow(self.p, k, group)) % group]

    # -- subfields and traces ---------------------------------------------

    def subfield(self, sub_degree) -> tuple:
        """Elements of the subfield GF(p^sub_degree), sorted ascending.

        The result always starts with 0 and 1, which downstream code relies
        on when it needs canonical scalar lists.
        """
        cached = self._subfields.get(sub_degree)
        if cached is not None:
            return cached
        if sub_degree <= 0 or self.degree % sub_degree != 0:
            raise ValueError(
                f"subfield degree {sub_degree} does not divide {self.degree}"
            )
        size = self.p**sub_degree
        if size == self.Q:  # every code, in order: the identity trace table
            result = self._subfields[sub_degree] = tuple(self.trace_table(sub_degree))
            return result
        step = (self.Q - 1) // (size - 1)
        elems = sorted({0} | {self.exp[(k * step) % (self.Q - 1)] for k in range(size - 1)})
        result = tuple(elems)
        if len(result) != size:
            raise RuntimeError("subfield extraction produced wrong cardinality")
        self._subfields[sub_degree] = result
        return result

    @property
    def subfield_q(self) -> tuple:
        return self.subfield(self.s)

    @property
    def scalar_logs(self) -> tuple:
        """Logs of the nonzero scalars of ``subfield_q``, in its order, to
        the base gamma^((Q-1)/(q-1)), the primitive element of GF(q); built
        on first use.

        The scalar c is ``exp[scalar_logs[i] * (Q-1)/(q-1)]``.  At q = Q
        these are the field's own logs, held as the log table's objects,
        so the cache is one pointer per element.
        """
        if self._scalar_logs is None:
            step = (self.Q - 1) // (self.q - 1)
            logs = tuple(map(self.log.__getitem__, self.subfield_q[1:]))
            # step > 1 only when m > 1, so at most sqrt(Q) new ints
            self._scalar_logs = tuple(lc // step for lc in logs) if step > 1 else logs
        return self._scalar_logs

    def trace_table(self, sub_degree) -> list:
        """Relative trace onto GF(p^sub_degree) of every element; built once.

        The trace is GF(p)-linear, so it is fixed by its values on the basis
        X^i (element code p**i), each the Frobenius sum of its conjugates.
        The table then grows one base-p digit at a time:
        tr[x + c*p^i] = tr[x + (c-1)*p^i] + tr[p^i], where adding tr[p^i]
        is a lookup in a shift table over the subfield, which holds every
        trace value.  The trace onto the whole field is the identity.
        """
        table = self._trace_tables.get(sub_degree)
        if table is not None:
            return table
        if sub_degree <= 0 or self.degree % sub_degree != 0:
            raise ValueError(
                f"trace target degree {sub_degree} does not divide {self.degree}")
        if sub_degree == self.degree:
            table = self._trace_tables[sub_degree] = list(range(self.Q))
            return table
        add, values = self.add, self.subfield(sub_degree)
        table = [0]
        for i in range(self.degree):
            tr = cur = self.p**i
            for _ in range(self.degree // sub_degree - 1):
                cur = self.frobenius(cur, sub_degree)
                tr = add(tr, cur)
            shift = {v: add(v, tr) for v in values}
            block = len(table)
            for _ in range(self.p - 1):
                # extend by a sized list: a bare map grows the table append by
                # append, which raised the peak RSS of verify on GF(3^10) about 0.3 MB
                table.extend(list(map(shift.__getitem__, table[-block:])))
        self._trace_tables[sub_degree] = table
        return table

    # -- GF(q)-coordinates and conjugates ---------------------------------

    def _dual(self) -> tuple:
        """Trace-dual basis d of (1, gamma, ..., gamma^(m-1)): Tr(gamma^i d_j) = [i = j].

        Row j of the inverse of the Gram matrix G[i][k] = Tr(gamma^(i+k))
        holds the coordinates of d_j; G is symmetric, so
        Tr(gamma^i d_j) = (G^-1 G)[j][i].
        """
        if self._dual_basis is None:
            m, group = self.m, self.Q - 1
            trace = self.trace_table(self.s)
            gram = [[trace[self.exp[(i + k) % group]] for k in range(m)]
                    + [int(i == k) for k in range(m)] for i in range(m)]
            rows, _ = linalg.rref(self, gram)
            self._dual_basis = tuple(self.element_from_coords(row[m:]) for row in rows)
        return self._dual_basis

    def coords_over_q(self, x) -> tuple:
        """Coordinates of x in the GF(q)-basis (1, gamma, ..., gamma^(m-1)).

        Coordinate j is Tr_{Q->q}(x * d_j) for the trace-dual basis d.
        Returns m elements of the subfield GF(q), as element codes.
        """
        trace = self.trace_table(self.s)
        return tuple(trace[self.mul(x, d)] for d in self._dual())

    def element_from_coords(self, coords):
        """Inverse of :meth:`coords_over_q`."""
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        acc = 0
        for i, c in enumerate(coords):
            if c:
                acc = self.add(acc, self.mul(c, self.exp[i]))
        return acc

    def conjugacy_orbit(self, x) -> list:
        """Orbit of x under x -> x^q; its size is the degree of x over GF(q)."""
        orbit = [x]
        cur = self.frobenius(x, self.s)
        while cur != x:
            orbit.append(cur)
            cur = self.frobenius(cur, self.s)
        return orbit

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "degree": self.degree,
            "modulus_coeffs": list(self.modulus),
        }


@functools.lru_cache(maxsize=1)
def build_field(p: int, ext_degree: int, subfield_degree: int = 1) -> FieldCtx:
    """Build GF(p^ext_degree) over a deterministically chosen primitive polynomial.

    The modulus is the first primitive polynomial of degree ext_degree over
    GF(p) in ascending order of the packed coefficient value (constant term
    as least-significant digit), so repeated runs agree element-for-element.
    ``subfield_degree`` fixes s in q = p^s; it must divide ext_degree.
    The most recently built field is kept and returned again for the same
    arguments (a context is immutable), so a sweep over many codes of one
    field builds it, and its trace tables, once.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if ext_degree < 1:
        raise ValueError("ext_degree must be positive")
    if subfield_degree < 1 or ext_degree % subfield_degree != 0:
        raise ValueError(
            f"subfield_degree {subfield_degree} must divide ext_degree {ext_degree}"
        )
    Q = p**ext_degree
    if Q > MAX_FIELD_SIZE:
        raise ValueError(
            f"field size {Q} exceeds the enumeration cap {MAX_FIELD_SIZE}"
        )
    d = ext_degree
    for packed in range(Q):
        if packed % p == 0:
            continue  # constant term zero: x is not a unit
        modulus = _digits(packed, p, d) + [1]
        if not _x_has_full_order(p, d, modulus):
            continue
        exp_table, log_table = _build_tables(p, d, modulus)
        ctx = FieldCtx(p, subfield_degree, ext_degree // subfield_degree,
                       modulus, exp_table, log_table)
        return ctx
    raise RuntimeError(f"no primitive polynomial of degree {d} over GF({p})")


def _zech_table(p, exp_table, log_table):
    """zech[k] = log(1 + gamma^k), or -1 where 1 + gamma^k = 0.

    Adding 1 changes only the constant digit of a code: x + 1, wrapping to
    x + 1 - p when that digit is p - 1.  ``log_succ[x]`` is log(x + 1).
    """
    log_succ = log_table[1:] + log_table[:1]
    log_succ[p - 1::p] = log_table[::p]
    return [log_succ[x] for x in exp_table]


def _digitwise_add_table(p, width, addend, scale, offset=0):
    """``table[v]`` is ``offset`` plus ``scale`` times the digit-by-digit
    sum, mod p and without carries, of the ``width``-digit code v and the
    digit list ``addend``; built one digit at a time, ``p**width`` entries."""
    table = [offset]
    for i in range(width):
        place = scale * p**i
        table = [v + (j + addend[i]) % p * place for j in range(p) for v in table]
    return table


def _build_tables(p, d, modulus):
    """exp[k] = gamma^k and its inverse log, with gamma the residue of x.

    Multiplying a code c by x splits off its top digit c_top, shifts the
    other d - 1 digits up by one place and folds c_top back in as
    -c_top * (modulus without its leading 1), added digit by digit.  The
    shifted code's constant digit is 0, so that digit of the addend is a
    constant; the other d - 1 digits take the addend through two
    precomputed tables per value of c_top, one for the low ceil((d-1)/2)
    digits and one for the high floor((d-1)/2).  The tables hold
    (p - 1) * (p^ceil((d-1)/2) + p^floor((d-1)/2)) entries in all, at most
    about Q; for d = 1 each table is the single entry c_top * gamma or 0.
    """
    Q = p**d
    group = Q - 1
    top = p ** (d - 1)
    lo_width = d // 2
    lo_size = p**lo_width
    folds = [None]
    for c in range(1, p):
        addend = [(-c * m) % p for m in modulus[:d]]
        folds.append((
            _digitwise_add_table(p, lo_width, addend[1:lo_width + 1], p, addend[0]),
            _digitwise_add_table(p, d - 1 - lo_width, addend[lo_width + 1:], p * lo_size)))
    exp_table = [0] * group
    log_table = [-1] * Q
    cur = 1
    for k in range(group):
        if log_table[cur] != -1:
            raise RuntimeError("exp table collision: modulus is not primitive")
        exp_table[k] = cur
        log_table[cur] = k
        c, rest = divmod(cur, top)
        if c:
            low, high = folds[c]
            cur = low[rest % lo_size] + high[rest // lo_size]
        else:
            cur = rest * p
    if cur != 1:
        raise RuntimeError("primitive element order check failed")
    return exp_table, log_table
