"""Exact arithmetic in small extension fields GF(p^(s*m)).

An element is a plain integer in [0, Q): its base-p digits are the
coefficients of the residue polynomial modulo a fixed primitive polynomial,
constant term first.  Multiplication goes through exponent/logarithm
tables filled together at construction by one walk from gamma^k to
gamma^(k+1) on the packed code: two lookups per step, one keyed by the
high half of the digits (the top digit included) and one by the low half,
so no step loops over digits.  For odd p, addition goes through a table
of Zech logarithms, zech[k] = log(1 + gamma^k), built on the first
addition of two nonzero elements, and negation adds (Q-1)/2 to the
logarithm; for p = 2 addition is XOR.  Every operation is a few table
lookups.  ``exp`` is a list of the element codes, the only int objects a
field holds per element (about 40 bytes each with its pointer); ``log``
and ``zech`` are ``array("i")`` tables of 4 bytes per entry.  Each
Q-sized table exists once: the trace onto the whole field and the whole
field as a subfield are ``range(Q)``, not copies of it, and a trace table
onto a subfield whose codes are all below 256 is ``bytes``, one byte per
element.  The set-up of a trace table adds its few basis conjugates digit
by digit, not through the Zech table.  The intermediate
field GF(q), q = p^s, is kept as the subset of elements fixed by
x -> x^q rather than as a separate field object, which keeps all
arithmetic inside a single context.  The one map from an element to
GF(q)^m is its trace coordinates (Tr_{Q->q}(x * gamma^j))_{j<m}, read from
the exp, log and trace tables; the trace form is nondegenerate, so the map
is a GF(q)-linear bijection.  Coordinates in the basis
(1, gamma, ..., gamma^(m-1)) are read back to an element by
``element_from_coords``; the degree of gamma^k over GF(q) is the size of
the q-cyclotomic coset {k*q^i mod (Q-1)} of its exponent.

Fields are capped at 2^20 elements: this module targets desk-scale
verification, not cryptographic sizes.
"""

from __future__ import annotations

import functools
from array import array
from itertools import repeat
from operator import getitem

MAX_FIELD_SIZE = 1 << 20


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


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


def _x_has_full_order(p, degree, modulus):
    """Check that the residue of x modulo `modulus` has order exactly p^degree - 1.

    Each power of x comes from a left-to-right ladder: square, and for a set
    bit multiply by x, which is one digit shift and one fold of the top
    digit through the modulus (x^d = -modulus[:d]).  At degree 1 the shift
    leaves only the fold, x = -modulus[0].
    """
    group = p**degree - 1
    one = [1] + [0] * (degree - 1)

    def times_x(a):
        top = a[-1]
        return [(c - top * f) % p for c, f in zip([0] + a[:-1], modulus)]

    def power(e):  # e >= 1: its leading bit is the first times_x
        acc = times_x(one)
        for bit in bin(e)[3:]:
            acc = _poly_mulmod(acc, acc, modulus, p)
            if bit == "1":
                acc = times_x(acc)
        return acc

    return power(group) == one and all(power(group // ell) != one for ell in prime_factors(group))


class FieldCtx:
    """GF(p^(s*m)) with a primitive element and its exp/log tables.

    Not constructed directly; use :func:`build_field`.  All operations are
    pure and the context is immutable after construction (lazily built
    caches excepted: the Zech table, subfields and trace tables), so one
    context can be shared freely across workers.
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
        self._zech = None  # the Zech table, built on first use by ``zech``
        self.gamma = exp_table[1 % (self.Q - 1)]
        self._subfields: dict[int, tuple] = {}
        self._trace_tables: dict[int, bytes | list] = {}

    @property
    def zech(self):
        """zech[k] = log(1 + gamma^k) for odd p, None for p = 2; built on
        first use, by the first ``add`` of two nonzero elements, so a run
        that adds none (an r = 1 ``verify``) never holds it.  ``add`` reads
        the table from ``_zech``, an attribute set in ``__init__``: an
        attribute that appears only later, as a ``cached_property`` puts it,
        made every ``add`` about 1.6x slower (Python 3.11)."""
        if self._zech is None and self.p != 2:
            self._zech = _zech_table(self.p, self.exp, self.log)
        return self._zech

    def __repr__(self):
        return f"FieldCtx(p={self.p}, s={self.s}, m={self.m}, Q={self.Q})"

    def __eq__(self, other):
        # equal by value: one (p, s, m, modulus) gives one field, however often built
        if not isinstance(other, FieldCtx):
            return NotImplemented
        return (self.p, self.s, self.m, self.modulus) == (other.p, other.s, other.m, other.modulus)

    def __hash__(self):
        return hash((self.p, self.s, self.m, self.modulus))

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
        z = (self._zech or self.zech)[(self.log[b] - la) % group]
        if z < 0:
            return 0
        return self.exp[(la + z) % group]

    def translate(self, codes, b) -> list:
        """``[x + b for x in codes]``: XOR at p = 2, else digit by digit,
        with no logarithm: the low and high halves of a code's digits each
        index a table of their sum with b's digits, about 2 sqrt(Q) entries
        built for b on each call.  Fewer codes than that are added one
        ``add`` at a time instead."""
        if self.p == 2:
            return [x ^ b for x in codes]
        p, d = self.p, self.degree
        lo_width = d // 2
        size = p**lo_width
        if len(codes) < size + p ** (d - lo_width):
            return [self.add(x, b) for x in codes]
        digits = _digits(b, p, d)
        low = _digitwise_add_table(p, lo_width, digits[:lo_width], 1)
        high = _digitwise_add_table(p, d - lo_width, digits[lo_width:], size)
        return [low[x % size] + high[x // size] for x in codes]

    def neg(self, a):
        """-a: -1 = gamma^((Q-1)/2) when p is odd."""
        if self.p == 2 or a == 0:
            return a
        group = self.Q - 1
        return self.exp[(self.log[a] + group // 2) % group]

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

    # -- subfields and traces ---------------------------------------------

    def subfield(self, sub_degree) -> tuple | range:
        """Elements of the subfield GF(p^sub_degree), sorted ascending: a
        tuple, or ``range(Q)`` for the whole field.

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
        if size == self.Q:  # every code, in order
            return range(self.Q)
        step = (self.Q - 1) // (size - 1)
        elems = sorted({0} | {self.exp[(k * step) % (self.Q - 1)] for k in range(size - 1)})
        result = tuple(elems)
        if len(result) != size:
            raise RuntimeError("subfield extraction produced wrong cardinality")
        self._subfields[sub_degree] = result
        return result

    @property
    def subfield_q(self) -> tuple | range:
        return self.subfield(self.s)

    def trace_table(self, sub_degree) -> bytes | list | range:
        """Relative trace onto GF(p^sub_degree) of every element; built once.

        The trace is GF(p)-linear, so it is fixed by its values on the basis
        X^i (element code p**i), each the sum of its conjugates
        ``exp[log(p^i) * p^(sub_degree*j) mod (Q-1)]``.
        The table then grows one base-p digit at a time:
        tr[x + c*p^i] = tr[x + (c-1)*p^i] + tr[p^i], where adding tr[p^i]
        is a lookup in a shift table over the subfield, which holds every
        trace value.  The conjugate sums and shift tables are digit sums
        (``_digit_add``), so the build reads no Zech table.  Where every
        code of the subfield is below 256 the table is ``bytes``, each block
        one ``bytes.translate`` of the last; otherwise it is a list, the one
        form that holds larger codes.  The trace onto the whole field is the
        identity, returned as ``range(Q)``; ``subfield`` refuses a bad degree.
        """
        table = self._trace_tables.get(sub_degree)
        if table is not None:
            return table
        if sub_degree == self.degree:
            return range(self.Q)
        p, values, group = self.p, self.subfield(sub_degree), self.Q - 1
        small = values[-1] < 256
        table = bytearray(1) if small else [0]
        for i in range(self.degree):
            tr, log_x = 0, self.log[p**i]
            for j in range(self.degree // sub_degree):
                tr = _digit_add(p, tr, self.exp[log_x * p ** (sub_degree * j) % group])
            block = len(table)
            if small:
                shift = bytearray(256)
                for v in values:
                    shift[v] = _digit_add(p, v, tr)
                for _ in range(p - 1):
                    table += table[-block:].translate(shift)
            else:
                shift = {v: _digit_add(p, v, tr) for v in values}
                for _ in range(p - 1):
                    # extend by a sized list: a bare map grows the table append by
                    # append, which raised the peak RSS of verify on GF(3^10) about 0.3 MB
                    table.extend(list(map(shift.__getitem__, table[-block:])))
        if small:
            table = bytes(table)
        self._trace_tables[sub_degree] = table
        return table

    # -- GF(q)-coordinates and conjugates ---------------------------------

    def trace_coords(self, x) -> tuple:
        """(Tr_{Q->q}(x * gamma^j))_{j<m}: a GF(q)-linear bijection of F_Q onto
        GF(q)^m, since the trace form is nondegenerate.  Coordinate j is one read
        ``trace[exp[(log x + j) mod (Q-1)]]``, x = 0 has zero coordinates, and at
        m = 1 (q = Q), where the trace is the identity, the coordinate is x."""
        if self.m == 1:
            return (x,)
        if not x:
            return (0,) * self.m
        trace, exp, group = self.trace_table(self.s), self.exp, self.Q - 1
        lx = self.log[x]
        return tuple(trace[exp[(lx + j) % group]] for j in range(self.m))

    def element_from_coords(self, coords):
        """sum_i coords[i] * gamma^i: the element with the given coordinates
        in the GF(q)-basis (1, gamma, ..., gamma^(m-1))."""
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        acc = 0
        for i, c in enumerate(coords):
            if c:
                acc = self.add(acc, self.mul(c, self.exp[i]))
        return acc

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "degree": self.degree,
            "modulus_coeffs": list(self.modulus),
        }


def build_field(p: int, ext_degree: int, subfield_degree: int = 1) -> FieldCtx:
    """Build GF(p^ext_degree) over a deterministically chosen primitive polynomial.

    The modulus is the first primitive polynomial of degree ext_degree over
    GF(p) in ascending order of the packed coefficient value (constant term
    as least-significant digit), so repeated runs agree element-for-element.
    ``subfield_degree`` fixes s in q = p^s; it must divide ext_degree.
    The most recently built field is kept and returned again for the same
    triple (p, ext_degree, subfield_degree), however the arguments are
    passed (a context is immutable), so a sweep over many codes of one
    field builds it, and its trace tables, once.
    """
    return _build_field(p, ext_degree, subfield_degree)


@functools.lru_cache(maxsize=1)
def _build_field(p, ext_degree, subfield_degree):
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
    modulus = _primitive_modulus(p, ext_degree)
    exp_table, log_table = _build_tables(p, ext_degree, modulus)
    return FieldCtx(p, subfield_degree, ext_degree // subfield_degree,
                    modulus, exp_table, log_table)


def _primitive_modulus(p, d):
    """The first monic degree-d polynomial over GF(p), by packed value, for
    which x has order p^d - 1, as its digit list (constant term first).

    For d > 1 a candidate with a root in GF(p) has a linear factor, so it
    is reducible and not primitive; it is skipped before the order test.
    """
    for packed in range(p**d):
        if packed % p == 0:
            continue  # constant term zero: x is not a unit
        modulus = _digits(packed, p, d) + [1]
        if d > 1 and _has_root(modulus, p):
            continue
        if _x_has_full_order(p, d, modulus):
            return modulus
    raise RuntimeError(f"no primitive polynomial of degree {d} over GF({p})")


def _has_root(poly, p):
    """Whether the polynomial (digit list, constant term first) vanishes at
    some nonzero c in GF(p), by Horner's rule at each c."""
    for c in range(1, p):
        acc = 0
        for coeff in reversed(poly):
            acc = (acc * c + coeff) % p
        if not acc:
            return True
    return False


def _zech_table(p, exp_table, log_table):
    """zech[k] = log(1 + gamma^k), or -1 where 1 + gamma^k = 0, as an
    ``array("i")`` like the log table; ``FieldCtx.zech`` builds it on first
    use.

    Adding 1 changes only the constant digit of a code: x + 1, wrapping to
    x + 1 - p when that digit is p - 1.  ``log_succ[x]`` is log(x + 1).
    """
    log_succ = log_table[1:] + log_table[:1]
    log_succ[p - 1::p] = log_table[::p]
    return array("i", map(getitem, repeat(log_succ), exp_table))


def _digit_add(p, a, b):
    """a + b for two codes: their base-p digits added mod p, no carries."""
    total, place = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        total += (x + y) % p * place
        place *= p
    return total


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
    """exp[k] = gamma^k, a list, and its inverse log, an ``array("i")``
    with log[0] = -1, for gamma the residue of x; one walk fills both.

    Multiplying a code c by x shifts its digits up by one place and folds
    the top digit back in as -(top digit) * (modulus without its leading 1),
    added digit by digit.  Split c = h * L + l with L = p^floor(d/2): h is
    the high ceil(d/2) digits, the top one included, and l the low
    floor(d/2).  Then x * c = high[h] + lows[h][l]: high[h] is h's other
    digits shifted up, plus the fold's digits above the low half, and
    lows[h], one table shared by every h with the same top digit, is l
    shifted up plus the fold's low digits.  high holds p^ceil(d/2) entries
    and the p tables of lows p^floor(d/2) each, at most (p + 1) sqrt(Q) in
    all; for d = 1, l is empty and each table of lows the single fold digit.

    gamma is primitive exactly when the walk is back at 1 after Q - 1 steps
    and not before: a walk that never gets back to 1 ends at cur != 1, and
    log[1] = 0 from step 0 is overwritten exactly when 1 comes back early.
    """
    Q = p**d
    group = Q - 1
    lo_width = d // 2
    L = p**lo_width
    rest = p ** (d - 1 - lo_width)  # values of h below the top digit
    high = list(range(0, rest * p * L, p * L))  # top digit 0: a plain shift
    lows = [list(range(0, L * p, p))] * rest
    for c in range(1, p):
        addend = [(-c * m) % p for m in modulus[:d]]
        high += _digitwise_add_table(p, d - 1 - lo_width, addend[lo_width + 1:], p * L)
        lows += [_digitwise_add_table(p, lo_width, addend[1:lo_width + 1], p, addend[0])] * rest
    exp_table = [0] * group
    log_table = array("i", [-1]) * Q
    cur = 1
    for k in range(group):
        exp_table[k] = cur
        log_table[cur] = k
        h = cur // L
        cur = high[h] + lows[h][cur % L]
    if cur != 1 or log_table[1] != 0:
        raise RuntimeError("modulus is not primitive: the powers of x "
                           "are not the nonzero codes")
    return exp_table, log_table
