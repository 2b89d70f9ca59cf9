"""Exact arithmetic in small extension fields GF(p^(s*m)).

An element is a plain integer in [0, Q): its base-p digits are the
coefficients of the residue polynomial modulo a fixed primitive polynomial,
constant term first.  Multiplication goes through dense exponent/logarithm
tables built once at construction, so every operation is a table lookup plus
O(degree) digit work.  The intermediate field GF(q), q = p^s, is kept as the
subset of elements fixed by x -> x^q rather than as a separate field object,
which keeps all arithmetic inside a single context.

Fields are capped at 2^20 elements: this module targets desk-scale
verification, not cryptographic sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dc_field

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


def _pack(digits, p: int) -> int:
    total = 0
    for d in reversed(digits):
        total = total * p + d
    return total


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
        self.gamma = exp_table[1 % (self.Q - 1)] if self.Q > 2 else exp_table[0]
        self.zero = 0
        self.one = 1
        self._subfields: dict[int, tuple] = {}
        self._trace_tables: dict[int, list] = {}
        self._coords_solver = None

    def __repr__(self):
        return f"FieldCtx(p={self.p}, s={self.s}, m={self.m}, Q={self.Q})"

    # -- basic arithmetic ------------------------------------------------

    def add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        total = 0
        mult = 1
        while a or b:
            s = a % p + b % p
            if s >= p:
                s -= p
            total += s * mult
            a //= p
            b //= p
            mult *= p
        return total

    def neg(self, a):
        p = self.p
        if p == 2:
            return a
        total = 0
        mult = 1
        while a:
            d = a % p
            if d:
                total += (p - d) * mult
            a //= p
            mult *= p
        return total

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

    def order(self, a):
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ZeroDivisionError("order of zero")
        group = self.Q - 1
        return group // math.gcd(group, self.log[a])

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

    def in_subfield(self, x, sub_degree=None) -> bool:
        d = self.s if sub_degree is None else sub_degree
        return self.frobenius(x, d) == x

    def trace_table(self, sub_degree) -> list:
        """Relative trace onto GF(p^sub_degree) of every element; built once.

        The trace is GF(p)-linear, so it is fixed by its values on the basis
        X^i (element code p**i), each the Frobenius sum of its conjugates.
        The table then grows one base-p digit at a time:
        tr[x + c*p^i] = tr[x + (c-1)*p^i] + tr[p^i].
        """
        table = self._trace_tables.get(sub_degree)
        if table is not None:
            return table
        if sub_degree <= 0 or self.degree % sub_degree != 0:
            raise ValueError(
                f"trace target degree {sub_degree} does not divide {self.degree}")
        add = self.add
        table = [0]
        for i in range(self.degree):
            tr = cur = self.p**i
            for _ in range(self.degree // sub_degree - 1):
                cur = self.frobenius(cur, sub_degree)
                tr = add(tr, cur)
            block = len(table)
            for _ in range(self.p - 1):
                table.extend([add(v, tr) for v in table[-block:]])
        self._trace_tables[sub_degree] = table
        return table

    # -- GF(q)-coordinates of the big field --------------------------------

    def _coords(self):
        if self._coords_solver is None:
            p, s, m = self.p, self.s, self.m
            group = self.Q - 1
            theta = self.exp[((group // (self.q - 1)) % group)]
            theta_pows = [self.pow(theta, k) for k in range(s)]
            gamma_pows = [self.exp[i % group] for i in range(m)]
            cols = []
            for i in range(m):
                for k in range(s):
                    cols.append(_digits(self.mul(gamma_pows[i], theta_pows[k]), p, self.degree))
            inv = _invert_mod_p([[cols[j][i] for j in range(self.degree)] for i in range(self.degree)], p)
            self._coords_solver = (inv, theta_pows, gamma_pows)
        return self._coords_solver

    def coords_over_q(self, x) -> tuple:
        """Coordinates of x in the GF(q)-basis (1, gamma, ..., gamma^(m-1)).

        Returns m elements of the subfield GF(q), as element codes.
        """
        inv, theta_pows, _ = self._coords()
        p = self.p
        digs = _digits(x, p, self.degree)
        lam = [sum(row[j] * digs[j] for j in range(self.degree)) % p for row in inv]
        coords = []
        for i in range(self.m):
            c = 0
            for k in range(self.s):
                lk = lam[i * self.s + k]
                if lk:
                    c = self.add(c, self.mul(lk, theta_pows[k]))
            coords.append(c)
        return tuple(coords)

    def element_from_coords(self, coords):
        """Inverse of :meth:`coords_over_q`."""
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        _, _, gamma_pows = self._coords()
        acc = 0
        for c, g in zip(coords, gamma_pows):
            if c:
                acc = self.add(acc, self.mul(c, g))
        return acc

    # -- minimal polynomials -----------------------------------------------

    def conjugacy_orbit(self, x) -> list:
        """Orbit of x under x -> x^q."""
        orbit = [x]
        cur = self.frobenius(x, self.s)
        while cur != x:
            orbit.append(cur)
            cur = self.frobenius(cur, self.s)
        return orbit

    def minimal_poly(self, x) -> "PolyOverFq":
        """Monic minimal polynomial of a nonzero x over GF(q).

        Computed as the product over the q-conjugacy orbit; every
        coefficient is verified to be fixed by y -> y^q.
        """
        if x == 0:
            raise ValueError("minimal_poly requires a nonzero element")
        coeffs = [1]
        for root in self.conjugacy_orbit(x):
            nroot = self.neg(root)
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                if c:
                    nxt[i] = self.add(nxt[i], self.mul(c, nroot))
                    nxt[i + 1] = self.add(nxt[i + 1], c)
            coeffs = nxt
        for c in coeffs:
            if not self.in_subfield(c):
                raise RuntimeError("minimal polynomial coefficient escaped GF(q)")
        return PolyOverFq(self, tuple(coeffs))

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "degree": self.degree,
            "modulus_coeffs": list(self.modulus),
        }


@dataclass(frozen=True)
class PolyOverFq:
    """Polynomial with coefficients in the GF(q) subfield, low degree first."""

    field: FieldCtx = _dc_field(repr=False, compare=False)
    coeffs: tuple = ()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = self.field.add(self.field.mul(acc, x), c)
        return acc


def poly_mul(ctx: FieldCtx, a, b):
    """Product of coefficient sequences (low degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return tuple(out)


def poly_divmod(ctx: FieldCtx, a, b):
    """Quotient and remainder of coefficient sequences over the field."""
    a = list(a)
    db = len(b) - 1
    while b and b[-1] == 0:
        b = b[:-1]
        db -= 1
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = ctx.inv(b[-1])
    quot = [0] * max(len(a) - db, 1)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        if c == 0:
            continue
        factor = ctx.mul(c, inv_lead)
        quot[k - db] = factor
        for i, bi in enumerate(b):
            a[k - db + i] = ctx.sub(a[k - db + i], ctx.mul(factor, bi))
    rem = a[:db] if db > 0 else [0]
    return tuple(quot), tuple(rem)


def _invert_mod_p(matrix, p):
    n = len(matrix)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(matrix)]
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col] % p), None)
        if piv is None:
            raise RuntimeError("basis matrix is singular mod p")
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = pow(aug[row][col], -1, p)
        aug[row] = [(v * inv) % p for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(aug[r][j] - f * aug[row][j]) % p for j in range(2 * n)]
        row += 1
    return [r[n:] for r in aug]


def build_field(p: int, ext_degree: int, subfield_degree: int = 1) -> FieldCtx:
    """Build GF(p^ext_degree) over a deterministically chosen primitive polynomial.

    The modulus is the first primitive polynomial of degree ext_degree over
    GF(p) in ascending order of the packed coefficient value (constant term
    as least-significant digit), so repeated runs agree element-for-element.
    ``subfield_degree`` fixes s in q = p^s; it must divide ext_degree.
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


def _build_tables(p, d, modulus):
    Q = p**d
    group = Q - 1
    exp_table = [0] * group
    log_table = [-1] * Q
    cur = [0] * d
    if d == 1:
        gamma = (-modulus[0]) % p
        cur[0] = 1
        mul_digit = gamma
    else:
        mul_digit = None
        cur[0] = 1
    for k in range(group):
        packed = _pack(cur, p)
        if log_table[packed] != -1:
            raise RuntimeError("exp table collision: modulus is not primitive")
        exp_table[k] = packed
        log_table[packed] = k
        if d == 1:
            cur[0] = (cur[0] * mul_digit) % p
        else:
            carry = cur[d - 1]
            for i in range(d - 1, 0, -1):
                cur[i] = cur[i - 1]
            cur[0] = 0
            if carry:
                for i in range(d):
                    cur[i] = (cur[i] - carry * modulus[i]) % p
    if _pack(cur, p) != 1:
        raise RuntimeError("primitive element order check failed")
    return exp_table, log_table
