"""Exact arithmetic in small finite fields GF(p^m) and univariate polynomial
algebra over them.

Elements are coefficient vectors over GF(p) with respect to the power basis of
a fixed monic irreducible modulus.  The modulus for GF(p^m) is the
lexicographically smallest monic irreducible of degree m, where candidates are
ordered by the integer encoding sum(c_i * p^i) of their non-leading
coefficients; this makes every derived quantity reproducible across runs.

Subfield embeddings GF(p^s) -> GF(p^m) (s | m) send the subfield generator to
the smallest root of the subfield modulus in the big field.

Factorization is Cantor-Zassenhaus (squarefree, distinct-degree, then
equal-degree splitting), and every root search goes through the same
deterministic equal-degree splitter (see _shifts).  Together with the
modulus search, which skips the binomials x^m + c whenever none of them can
be irreducible, and residue symbols in place of discrete logarithms, every
operation the closed forms use costs time polynomial in log q: nothing loops
over the elements of GF(p).

The field-size limit guards user-facing construction via make_field;
evaluation towers built internally (which never enumerate their field) are
exempt, as is roots_in_extension, whose algorithms are polynomial time.
"""

import os
from functools import lru_cache

import numpy as np

from .zmat import factorize, gcd

#: Default bound on field cardinality for user-facing construction.
DEFAULT_FIELD_LIMIT = 2 ** 20

_LIMIT_ENV = "TORICDESCENT_FIELD_LIMIT"

#: Marker for the point at infinity on a projective-line coordinate.
INF = "oo"

#: Bounds of the caches keyed by the user's prime, so that one process
#: answering many primes stays bounded.  A run of the small-q benchmark
#: workload touches about 21 fields and moduli, 19 embeddings and 16
#: (field, order) pairs; the bounds leave several times that.
FIELD_CACHE_SIZE = 128
DERIVED_CACHE_SIZE = 256


class FieldError(Exception):
    pass


class NotPrime(FieldError):
    pass


class SizeLimitExceeded(FieldError):
    pass


class NotASubfield(FieldError):
    pass


class ZeroElement(FieldError):
    pass


class ZeroPolynomial(FieldError):
    pass


class MixedFields(FieldError):
    pass


class ConjugatesNotDistinct(FieldError):
    pass


class OrderDoesNotDivide(FieldError):
    pass


class NotInSubgroup(FieldError):
    pass


def field_limit():
    value = os.environ.get(_LIMIT_ENV)
    return int(value) if value else DEFAULT_FIELD_LIMIT


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


# ---------------------------------------------------------------------------
# modulus search (runs before any field machinery exists)


def _mulmod_list(a, b, mod, p):
    out = list(np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)) % p)
    dm = len(mod) - 1
    for i in range(len(out) - 1, dm - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(dm):
                out[i - dm + j] = (out[i - dm + j] - c * mod[j]) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return [int(v) for v in out]


def _gcd_list_poly(a, b, p):
    def trim(c):
        c = [v % p for v in c]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b != [0]:
        inv = pow(b[-1], -1, p)
        r = a[:]
        for i in range(len(r) - 1, len(b) - 2, -1):
            c = (r[i] * inv) % p
            if c:
                for j in range(len(b)):
                    r[i - len(b) + 1 + j] = (r[i - len(b) + 1 + j] - c * b[j]) % p
        a, b = b, trim(r)
    return a


def _is_irreducible_p(f, p):
    """Monic int-list polynomial over GF(p): staged distinct-degree sieve."""
    n = len(f) - 1
    if n == 1:
        return True
    if f[0] == 0:
        return False
    xp = [0, 1]
    for k in range(1, n // 2 + 1):
        # raise xp to the p-th power mod f
        e = p
        acc = xp
        result = [1]
        while e:
            if e & 1:
                result = _mulmod_list(result, acc, f, p)
            e >>= 1
            if e:
                acc = _mulmod_list(acc, acc, f, p)
        xp = result
        diff = xp + [0] * (2 - len(xp))
        diff = diff[:]
        diff[1] = (diff[1] - 1) % p
        if len(_gcd_list_poly(diff, f, p)) > 1:
            return False
    return True


def _binomials_can_be_irreducible(p, m):
    """Whether some x^m + c is irreducible over GF(p), m >= 2 (Lidl-Niederreiter,
    Thm 3.75): every prime factor of m divides p - 1, and p = 1 mod 4 when
    4 | m."""
    if any((p - 1) % ell for ell in factorize(m)):
        return False
    return m % 4 != 0 or p % 4 == 1


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _smallest_irreducible(p, m):
    """Monic irreducible of degree m over GF(p), smallest integer encoding of
    the non-leading coefficients.  Low coefficients first, leading 1 included.

    The encodings below p are the binomials x^m + c; the search starts past
    them when none can be irreducible, which leaves the result unchanged and
    saves ~p candidates (p = 2 mod 3 and m = 3, for instance)."""
    if m == 1:
        return (0, 1)
    n = 0 if _binomials_can_be_irreducible(p, m) else p
    while True:
        coeffs = []
        t = n
        for _ in range(m):
            coeffs.append(t % p)
            t //= p
        cand = coeffs + [1]
        if cand[0] != 0 and _is_irreducible_p(cand, p):
            return tuple(cand)
        n += 1


# ---------------------------------------------------------------------------
# fields and elements


class FiniteField:
    """GF(p^m) with the deterministic monic irreducible modulus over GF(p)."""

    def __init__(self, p, m=1):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if m < 1:
            raise FieldError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = _smallest_irreducible(p, m)
        if m > 1:
            # row j of _red is x^(m+j) reduced mod the modulus
            rows = []
            xm = [(-c) % p for c in self.modulus[:m]]
            cur = xm
            for _ in range(m - 1):
                rows.append(cur)
                top = cur[m - 1]
                shifted = [0] + cur[: m - 1]
                cur = [(a + top * b) % p for a, b in zip(shifted, xm)]
            self._red = np.array(rows, dtype=np.int64)
        else:
            self._red = None
        self._frob_mat = None

    # element constructors

    def zero(self):
        return FieldElement(self, np.zeros(self.m, dtype=np.int64))

    def one(self):
        c = np.zeros(self.m, dtype=np.int64)
        c[0] = 1
        return FieldElement(self, c)

    def gen(self):
        """The class of x (a root of the modulus); equals 0 when m = 1."""
        c = np.zeros(self.m, dtype=np.int64)
        if self.m > 1:
            c[1] = 1
        return FieldElement(self, c)

    def from_int(self, n):
        """Element with encoding n: base-p digits, constant coefficient first."""
        n %= self.q
        c = np.zeros(self.m, dtype=np.int64)
        for i in range(self.m):
            c[i] = n % self.p
            n //= self.p
        return FieldElement(self, c)

    def from_coeffs(self, seq):
        c = np.zeros(self.m, dtype=np.int64)
        for i, v in enumerate(seq):
            c[i] = int(v) % self.p
        return FieldElement(self, c)

    def __call__(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFields(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, (int, np.integer)):
            return self.from_coeffs([int(value)])
        return self.from_coeffs(value)

    def elements(self):
        """All elements in encoding order (enumeration-scale fields only)."""
        for n in range(self.q):
            yield self.from_int(n)

    def frobenius_matrix(self):
        """Matrix of x -> x^p on the power basis; rows are basis images."""
        if self._frob_mat is None:
            xp = self.gen() ** self.p
            rows = [self.one().coeffs]
            acc = self.one()
            for _ in range(1, self.m):
                acc = acc * xp
                rows.append(acc.coeffs)
            self._frob_mat = np.array(rows, dtype=np.int64)
        return self._frob_mat

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.m) == (other.p, other.m)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.p, self.m))


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _cached_field(p, m):
    return FiniteField(p, m)


def make_field(p, m=1, limit=DEFAULT_FIELD_LIMIT):
    """GF(p^m) with the deterministic modulus; cached per (p, m).

    The size limit (default 2^20, env TORICDESCENT_FIELD_LIMIT, or the limit
    argument; None disables) applies here, at user-facing construction.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise FieldError("extension degree must be >= 1")
    bound = field_limit() if limit is DEFAULT_FIELD_LIMIT else limit
    if bound is not None and p ** m > bound:
        raise SizeLimitExceeded(f"{p}^{m} exceeds the field-size limit {bound}")
    return _cached_field(p, m)


def extension(field, s):
    """GF(q^s) over GF(q) = field, as a plain GF(p^(m*s)); no size limit
    (evaluation towers are arithmetic-only, never enumerated)."""
    return _cached_field(field.p, field.m * s)


class FieldElement:
    """Immutable element of a FiniteField: a coefficient vector over GF(p)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        coeffs.setflags(write=False)
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MixedFields(f"mixed fields {self.field} and {other.field}")
            return other
        if isinstance(other, (int, np.integer)):
            return self.field.from_coeffs([int(other)])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, (self.coeffs + o.coeffs) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, (self.coeffs - o.coeffs) % self.field.p)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FieldElement(self.field, (-self.coeffs) % self.field.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        f = self.field
        if f.m == 1:
            return FieldElement(f, (self.coeffs * o.coeffs) % f.p)
        conv = np.convolve(self.coeffs, o.coeffs)
        low = conv[: f.m].copy()
        high = conv[f.m:]
        if high.size:
            low = low + high @ f._red[: high.size]
        return FieldElement(f, low % f.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroElement("division by zero field element")
        f = self.field
        if f.m == 1:
            return FieldElement(f, np.array([pow(int(self.coeffs[0]), -1, f.p)],
                                            dtype=np.int64))
        p = f.p
        # extended Euclid against the modulus over GF(p)
        r0, s0 = list(f.modulus), [0]
        r1, s1 = [int(v) for v in self.coeffs], [1]

        def trim(c):
            while len(c) > 1 and c[-1] == 0:
                c.pop()
            return c

        r1 = trim(r1)
        while r1 != [0]:
            inv = pow(r1[-1], -1, p)
            r = r0[:]
            quo = [0] * max(1, len(r0) - len(r1) + 1)
            for i in range(len(r) - 1, len(r1) - 2, -1):
                c = (r[i] * inv) % p
                if c:
                    quo[i - len(r1) + 1] = c
                    for j in range(len(r1)):
                        r[i - len(r1) + 1 + j] = (r[i - len(r1) + 1 + j] - c * r1[j]) % p
            snew = _list_sub(s0, _list_mul(quo, s1, p), p)
            r0, s0 = r1, s1
            r1, s1 = trim(r), trim(snew)
        lead_inv = pow(r0[-1], -1, p)
        return f.from_coeffs([(v * lead_inv) % p for v in s0])

    def frob(self, k=1):
        """x -> x^(p^k) via the precomputed Frobenius matrix."""
        f = self.field
        if f.m == 1:
            return self
        mat = f.frobenius_matrix()
        c = self.coeffs
        for _ in range(k % f.m):
            c = (c @ mat) % f.p
        return FieldElement(f, np.ascontiguousarray(c))

    def is_zero(self):
        return not self.coeffs.any()

    def to_int(self):
        n = 0
        for v in reversed(self.coeffs):
            n = n * self.field.p + int(v)
        return n

    def multiplicative_order(self):
        if self.is_zero():
            raise ZeroElement("zero has no multiplicative order")
        order = self.field.q - 1
        for prm in factorize(order):
            while order % prm == 0 and (self ** (order // prm)) == self.field.one():
                order //= prm
        return order

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and np.array_equal(self.coeffs, other.coeffs)
        if isinstance(other, (int, np.integer)):
            return self == self.field(int(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.to_int()))

    def __repr__(self):
        return f"{self.field}({self.to_int()})"


def _list_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] = (out[i + j] + av * bv) % p
    return out


def _list_sub(a, b, p):
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return [(x - y) % p for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense univariate polynomial over a FiniteField, low coefficients first.

    The zero polynomial has degree -1.
    """

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs):
        cs = [c if isinstance(c, FieldElement) else field(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)
        self._hash = None

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lead(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i <= self.degree else self.field.zero()

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.p, self.field.m,
                               tuple(c.to_int() for c in self.coeffs)))
        return self._hash

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self[i] + other[i] for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self[i] - other[i] for i in range(n)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        f = self.field
        if (f.m > 1 and self.degree + other.degree > 1
                and f.p ** 3 * f.m * f.m * (min(self.degree, other.degree) + 2) < 2 ** 62):
            return self._mul_kronecker(other)
        out = [f.zero()] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def _mul_kronecker(self, other):
        """One integer convolution for the whole product: coefficients are
        packed into slots of width 2m-1 so cross terms cannot collide.  Slot
        values stay below ~p^2 * m * deg, far inside int64."""
        f = self.field
        m = f.m
        slot = 2 * m - 1
        a = np.zeros(slot * len(self.coeffs), dtype=np.int64)
        for i, c in enumerate(self.coeffs):
            a[i * slot: i * slot + m] = c.coeffs
        b = np.zeros(slot * len(other.coeffs), dtype=np.int64)
        for i, c in enumerate(other.coeffs):
            b[i * slot: i * slot + m] = c.coeffs
        conv = np.convolve(a, b)
        out = []
        n_out = self.degree + other.degree + 1
        red = f._red
        for k in range(n_out):
            piece = conv[k * slot: k * slot + slot]
            if piece.size < slot:
                piece = np.concatenate([piece, np.zeros(slot - piece.size, dtype=np.int64)])
            low = piece[:m] + piece[m:] @ red
            out.append(FieldElement(f, low % f.p))
        return Poly(f, out)

    def scale(self, c):
        return Poly(self.field, [a * c for a in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroPolynomial("polynomial division by zero")
        r = list(self.coeffs)
        d = other.degree
        lead = other.lead()
        inv = None if lead == self.field.one() else lead.inverse()
        quot = [self.field.zero()] * max(0, len(r) - d)
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i] if inv is None else r[i] * inv
            if not c.is_zero():
                quot[i - d] = c
                for j in range(d):
                    r[i - d + j] = r[i - d + j] - c * other.coeffs[j]
                r[i] = self.field.zero()
        return Poly(self.field, quot), Poly(self.field, r[:d])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial cannot be made monic")
        return self.scale(self.lead().inverse())

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        return Poly(self.field, [self.coeffs[i] * i
                                 for i in range(1, len(self.coeffs))])

    def __call__(self, x):
        """Horner evaluation at a point of the same field."""
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn, field):
        return Poly(field, [fn(c) for c in self.coeffs])

    def pow_mod(self, e, modulus):
        modulus = modulus.monic()  # scaling the divisor leaves residues unchanged
        result = Poly(self.field, [1])
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            e >>= 1
            if e:
                base = (base * base) % modulus
        return result

    def encoding(self):
        """Integer encoding of the coefficient vector, for stable ordering."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.q + c.to_int()
        return n

    def __repr__(self):
        return f"Poly({self.field}, {[c.to_int() for c in self.coeffs]})"


def poly_from_int(field, n):
    """Polynomial with coefficient encoding n (base-q digits, low first)."""
    coeffs = []
    while n:
        coeffs.append(field.from_int(n % field.q))
        n //= field.q
    return Poly(field, coeffs)


def coprimality_check(f, g):
    """True iff gcd(f, g) = 1 (so in particular for coprime unit inputs)."""
    h = f.gcd(g)
    return h.degree == 0


# ---------------------------------------------------------------------------
# factorization


def _squarefree_parts(f):
    """(squarefree monic factor, multiplicity) pairs with product f.monic()."""
    field = f.field
    p = field.p
    out = {}

    def accumulate(g, mult):
        if g.degree >= 1:
            out[g] = out.get(g, 0) + mult

    def decompose(g, mult):
        d = g.derivative()
        if d.is_zero():
            # g is a polynomial in x^p; p-th root of a coefficient is c^(p^(m-1))
            root = Poly(field, [g[i * p].frob(field.m - 1)
                                for i in range(g.degree // p + 1)])
            decompose(root.monic(), mult * p)
            return
        c = g.gcd(d)
        w = (g // c).monic()
        k = 1
        while w.degree >= 1:
            y = w.gcd(c)
            z = (w // y).monic()
            accumulate(z, mult * k)
            w = y
            c = (c // y).monic()
            k += 1
        if c.degree >= 1:
            decompose(c, mult)

    decompose(f.monic(), 1)
    return sorted(out.items(), key=lambda kv: (kv[0].degree, kv[0].encoding()))


def _distinct_degree(f):
    """Split monic squarefree f into (d, product of degree-d irreducibles)."""
    field = f.field
    x = Poly(field, [0, 1])
    out = []
    xq = x
    g = f
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            out.append((g.degree, g))
            break
        xq = xq.pow_mod(field.q, g)
        h = g.gcd(xq - x)
        if h.degree > 0:
            out.append((d, h))
            g = (g // h).monic()
            xq = xq % g
    return out


def _shifts(field):
    """The splitting polynomials, in a fixed order: poly_from_int(field, n) + t
    for n = q, q + 1, ..., where t = field.gen() (t = 0 when m = 1).

    Roots that are conjugate over a subfield have the same character under
    every shift with coefficients in that subfield, so a counter whose first
    ~p shifts lie in GF(p) costs time linear in p.  t generates the field and
    lies in no proper subfield, so the first shifts x + t + c already
    separate such roots.  Translation by t permutes the polynomials of degree
    >= 1, so the sequence still reaches every one of them; by the Chinese
    remainder theorem one of those tells any two irreducible factors apart,
    so splitting always terminates."""
    theta = Poly(field, [field.gen()])
    n = field.q
    while True:
        yield poly_from_int(field, n) + theta
        n += 1


def _split(f, d, h):
    """The factor of f, all of whose irreducible factors have degree d, on
    which h^((q^d-1)/2) is 1 (odd p) or the trace of h is 0 (p = 2)."""
    field = f.field
    if field.p == 2:
        t = h % f
        acc = t
        for _ in range(d * field.m - 1):
            t = (t * t) % f
            acc = (acc + t) % f
        return f.gcd(acc)
    s = h.pow_mod((field.q ** d - 1) // 2, f)
    return f.gcd(s - Poly(field, [1]))


def _equal_degree_split(f, d):
    """Irreducible factors of f when all have degree d, split by the shifts
    of _shifts in order."""
    if f.degree == d:
        return [f.monic()]
    for h in _shifts(f.field):
        g = _split(f, d, h)
        if 0 < g.degree < f.degree:
            return (_equal_degree_split(g, d)
                    + _equal_degree_split((f // g).monic(), d))


def factor(f):
    """Monic irreducible factors of f with multiplicity.

    Ordered by degree, then coefficient encoding; the product of the factors
    (with multiplicity) times f's leading coefficient equals f.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    out = []
    for sqfree, mult in _squarefree_parts(f):
        for d, part in _distinct_degree(sqfree):
            for irr in _equal_degree_split(part, d):
                out.append((irr, mult))
    out.sort(key=lambda pair: (pair[0].degree, pair[0].encoding()))
    return out


def roots(f):
    """Roots of f in its own field, with multiplicity, ascending encoding."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    out = []
    for g, mult in factor(f):
        if g.degree == 1:
            out.extend([-g.coeffs[0]] * mult)
    out.sort(key=lambda r: r.to_int())
    return out


# ---------------------------------------------------------------------------
# embeddings and roots in extensions


def _one_root(f):
    """One root of f, a squarefree polynomial with all its roots in its own
    field: the splitter of _equal_degree_split at d = 1, keeping the smaller
    side of each split."""
    work = f.monic()
    shifts = _shifts(work.field)
    while work.degree > 1:
        g = _split(work, 1, next(shifts))
        if 0 < g.degree < work.degree:
            work = g if g.degree <= work.degree - g.degree else (work // g).monic()
    return -work.coeffs[0]


class Embedding:
    """Field homomorphism GF(p^s) -> GF(p^m) for s | m."""

    def __init__(self, sub, big):
        if big.p != sub.p or big.m % sub.m != 0:
            raise NotASubfield(f"{sub} is not a subfield of {big}")
        self.sub = sub
        self.big = big
        if sub.m == 1:
            self._mat = None
        else:
            rho = _one_root(Poly(big, [big(c) for c in sub.modulus]))
            # smallest conjugate (p-power orbit) fixes the embedding
            conj = [rho]
            for _ in range(sub.m - 1):
                rho = rho.frob(1)
                conj.append(rho)
            rho = min(conj, key=lambda r: r.to_int())
            rows = [big.one().coeffs]
            acc = big.one()
            for _ in range(1, sub.m):
                acc = acc * rho
                rows.append(acc.coeffs)
            self._mat = np.array(rows, dtype=np.int64)

    def __call__(self, x):
        if x.field != self.sub:
            raise MixedFields(f"element of {x.field} passed to an embedding of {self.sub}")
        if self._mat is None:
            return self.big.from_coeffs([int(x.coeffs[0])])
        return FieldElement(self.big, (x.coeffs @ self._mat) % self.big.p)

    def section(self, y):
        """Preimage of y; raises NotASubfield if y is not in the image."""
        if y.field != self.big:
            raise MixedFields(f"element of {y.field} passed to a section onto {self.big}")
        if self._mat is None:
            if any(y.coeffs[1:]):
                raise NotASubfield(f"{y} is not in the prime subfield")
            return self.sub.from_coeffs([int(y.coeffs[0])])
        sol = _solve_gfp(self._mat.T, y.coeffs, self.big.p)
        if sol is None:
            raise NotASubfield(f"{y} is not in the image of {self.sub}")
        return self.sub.from_coeffs(sol)


@lru_cache(maxsize=DERIVED_CACHE_SIZE)
def _cached_embedding(p, msub, mbig):
    return Embedding(_cached_field(p, msub), _cached_field(p, mbig))


def embed(sub, big):
    if big.p != sub.p or big.m % sub.m != 0:
        raise NotASubfield(f"{sub} is not a subfield of {big}")
    return _cached_embedding(sub.p, sub.m, big.m)


def embed_over(base, sub, big):
    """An embedding of sub into big that restricts to embed(base, big) on the
    common subfield base.  embed picks each embedding on its own, so
    embed(sub, big) after embed(base, sub) can differ from embed(base, big)
    by an automorphism; this is the Frobenius twist of embed(sub, big) that
    agrees on the generator of base (the identity when sub is big)."""
    if sub == big:
        return lambda x: x
    emb = embed(sub, big)
    target = embed(base, big)(base.gen())
    image = emb(embed(base, sub)(base.gen()))
    for j in range(big.m):
        if image.frob(j) == target:
            return lambda x: emb(x).frob(j)
    raise NotASubfield(f"{base} is not a common subfield of {sub} and {big}")


def _solve_gfp(A, b, p):
    """One solution of A x = b over GF(p); A is numpy (n x k).  None if
    inconsistent."""
    A = A.astype(np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    n, k = A.shape
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    piv_cols = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if aug[i, c] % p), None)
        if piv is None:
            continue
        aug[[r, piv]] = aug[[piv, r]]
        aug[r] = (aug[r] * pow(int(aug[r, c]), -1, p)) % p
        for i in range(n):
            if i != r and aug[i, c]:
                aug[i] = (aug[i] - aug[i, c] * aug[r]) % p
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if aug[i, k] % p:
            return None
    x = [0] * k
    for i, c in enumerate(piv_cols):
        x[c] = int(aug[i, k]) % p
    return x


def roots_in_extension(f, s, factors=None):
    """All roots of f (a Poly over GF(q)) lying in GF(q^s), with multiplicity,
    sorted by encoding.  The returned elements live in extension(f.field, s).
    factors is f's factorization as factor returns it, when the caller
    already has it."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    base = f.field
    big = extension(base, s)
    emb = embed(base, big)
    found = []
    for g, mult in (factor(f) if factors is None else factors):
        d = g.degree
        if d == 1:
            found.append((emb(-g.coeffs[0]), mult))
            continue
        if s % d != 0:
            continue
        rho = _one_root(g.map_coeffs(emb, big))
        conj = [rho]
        cur = rho
        for _ in range(d - 1):
            cur = cur.frob(base.m)  # q-power Frobenius
            conj.append(cur)
        if len({c.to_int() for c in conj}) != d:
            raise ConjugatesNotDistinct(
                f"a root of the irreducible {g} has fewer than {d} conjugates")
        found.extend((c, mult) for c in conj)
    found.sort(key=lambda pair: pair[0].to_int())
    out = []
    for elem, mult in found:
        out.extend([elem] * mult)
    return out


# ---------------------------------------------------------------------------
# multiplicative structure


def power_residue(x, r):
    """True iff x lies in the subgroup of r-th powers of the unit group."""
    if x.is_zero():
        raise ZeroElement("power residue of zero is undefined")
    n = x.field.q - 1
    return x ** (n // gcd(r, n)) == x.field.one()


def norm_to_subfield(x, s):
    """Norm from GF(p^m) to GF(p^s), s | m: product of x^(p^(s*j))."""
    field = x.field
    if field.m % s != 0:
        raise NotASubfield(f"degree {s} does not divide {field.m}")
    acc = field.one()
    cur = x
    for _ in range(field.m // s):
        acc = acc * cur
        cur = cur.frob(s)
    sub = _cached_field(field.p, s)
    return embed(sub, field).section(acc)


@lru_cache(maxsize=DERIVED_CACHE_SIZE)
def element_of_order(field, n):
    """Deterministic element of exact multiplicative order n (cached): the
    first w^((q-1)/n) of exact order n, w running through the encodings from 2.

    The encodings below p are the prime field; when no power of GF(p)^x has
    order n the search starts at p, which leaves the result unchanged."""
    if (field.q - 1) % n != 0:
        raise OrderDoesNotDivide(f"order {n} does not divide {field.q - 1}")
    if n == 1:
        return field.one()
    primes = list(factorize(n))
    cof = (field.q - 1) // n
    p = field.p
    counter = 2 if ((p - 1) // gcd(p - 1, cof)) % n == 0 else p
    while True:
        w = field.from_int(counter)
        counter += 1
        if w.is_zero():
            continue
        eta = w ** cof
        if eta == field.one():
            continue
        if all(eta ** (n // prm) != field.one() for prm in primes):
            return eta


def residue_symbol(value, base, order, g):
    """x mod g, where base^x = value, base has the given order and g divides
    it: the class of value in <base> / <base>^g.  value^(order/g) is looked up
    among the g powers of base^(order/g), with O(log order + g)
    multiplications.  NotInSubgroup if value lies outside <base>."""
    if order % g:
        raise OrderDoesNotDivide(f"{g} does not divide the order {order}")
    target = value ** (order // g)
    step = base ** (order // g)
    cur = value.field.one()
    for x in range(g):
        if cur == target:
            return x
        cur = cur * step
    raise NotInSubgroup(f"{value} is not in the cyclic group generated by {base}")
