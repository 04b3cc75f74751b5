"""Exact arithmetic in small finite fields GF(p^m) and univariate polynomial
algebra over them.

Elements are tuples of m Python ints in [0, p): the coefficients over GF(p)
with respect to the power basis of a fixed monic irreducible modulus.  At the
field sizes used here (evaluation fields of degree a few over GF(p)), plain
int arithmetic costs less than array machinery, so the module needs nothing
beyond the standard library.  The modulus for GF(p^m) is the
lexicographically smallest monic irreducible of degree m, where candidates are
ordered by the integer encoding sum(c_i * p^i) of their non-leading
coefficients; this makes every derived quantity reproducible across runs.  The
search for it runs on Poly over GF(p), whose modulus x needs no search.

Subfield embeddings GF(p^s) -> GF(p^m) (s | m) send the subfield generator to
the smallest root of the subfield modulus in the big field.  Each is chosen on
its own, so embeddings along a tower need not compose; callers only embed the
residue field k of a request into fields that contain it, and never map a
value back down.  A value known to lie in k (|k| = q) is tested where it is
held: it is an r-th power in k iff x^((q-1)/gcd(r, q-1)) = 1.

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
# modulus search (over GF(p), whose modulus x needs no search)


def _is_irreducible_p(f):
    """Monic f over GF(p) of degree >= 2: a staged distinct-degree sieve,
    gcd(x^(p^k) - x, f) = 1 for every k <= deg f / 2."""
    x = Poly(f.field, [0, 1])
    xp = x
    for _ in range(f.degree // 2):
        xp = _pow_mod(xp, f.field.p, f)
        if not _coprime_p(xp - x, f):
            return False
    return True


def _coprime_p(a, b):
    """Whether gcd(a, b) = 1 over GF(p): Euclid, each divisor made monic with
    the integer inverse of its leading coefficient."""
    p = a.field.p
    while not a.is_zero():
        a = a.scale(pow(a.lead().coeffs[0], -1, p))
        a, b = b % a, a
    return b.degree == 0


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
    prime = _cached_field(p, 1)
    n = 0 if _binomials_can_be_irreducible(p, m) else p
    while True:
        cand = poly_from_int(prime, p ** m + n)
        if not cand.coeffs[0].is_zero() and _is_irreducible_p(cand):
            return tuple(c.coeffs[0] for c in cand.coeffs)
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
        # row j of _red is x^(m+j) reduced mod the modulus
        rows = []
        if m > 1:
            xm = [(-c) % p for c in self.modulus[:m]]
            cur = xm
            for _ in range(m - 1):
                rows.append(tuple(cur))
                top = cur[m - 1]
                shifted = [0] + cur[: m - 1]
                cur = [(a + top * b) % p for a, b in zip(shifted, xm)]
        self._red = tuple(rows)
        self._zero = FieldElement(self, (0,) * m)
        self._one = FieldElement(self, (1,) + (0,) * (m - 1))
        self._frob_mat = None

    # element constructors

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def gen(self):
        """The class of x (a root of the modulus); equals 0 when m = 1."""
        return self.from_coeffs([0, 1] if self.m > 1 else [0])

    def from_int(self, n):
        """Element with encoding n: base-p digits, constant coefficient first."""
        n %= self.q
        digits = []
        for _ in range(self.m):
            n, d = divmod(n, self.p)
            digits.append(d)
        return FieldElement(self, tuple(digits))

    def from_coeffs(self, seq):
        c = [int(v) % self.p for v in seq]
        if len(c) > self.m:
            raise FieldError(f"{len(c)} coefficients for an element of {self}")
        return FieldElement(self, tuple(c) + (0,) * (self.m - len(c)))

    def __call__(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MixedFields(f"element of {value.field} used in {self}")
            return value
        if isinstance(value, int):
            return self.from_coeffs([value])
        return self.from_coeffs(value)

    def elements(self):
        """All elements in encoding order (enumeration-scale fields only)."""
        for n in range(self.q):
            yield self.from_int(n)

    def frobenius_matrix(self):
        """Matrix of x -> x^p on the power basis: a tuple of rows, row i the
        coefficients of x^(i p)."""
        if self._frob_mat is None:
            xp = self.gen() ** self.p
            rows = [self.one().coeffs]
            acc = self.one()
            for _ in range(1, self.m):
                acc = acc * xp
                rows.append(acc.coeffs)
            self._frob_mat = tuple(rows)
        return self._frob_mat

    def __repr__(self):
        return field_name(self.p, self.m)

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteField)
                                 and (self.p, self.m) == (other.p, other.m))

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash((self.p, self.m))


def field_name(p, m):
    """The name of GF(p^m), as reports print it."""
    return f"GF({p}^{m})" if m > 1 else f"GF({p})"


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _cached_field(p, m):
    return FiniteField(p, m)


def make_field(p, m=1, limit=DEFAULT_FIELD_LIMIT):
    """GF(p^m) with the deterministic modulus; cached per (p, m).

    The size limit (default 2^20, env TORICDESCENT_FIELD_LIMIT, or the limit
    argument; None disables) applies here, at user-facing construction, and
    before the primality test, whose trial division costs ~sqrt(p).
    """
    if m < 1:
        raise FieldError("extension degree must be >= 1")
    bound = field_limit() if limit is DEFAULT_FIELD_LIMIT else limit
    if bound is not None and p ** m > bound:
        raise SizeLimitExceeded(f"{p}^{m} exceeds the field-size limit {bound}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _cached_field(p, m)


def extension(field, s):
    """GF(q^s) over GF(q) = field, as a plain GF(p^(m*s)); no size limit
    (evaluation towers are arithmetic-only, never enumerated)."""
    return _cached_field(field.p, field.m * s)


def _vec_mat(vec, rows, p):
    """The row vector vec times the matrix given by its rows, mod p."""
    out = [0] * len(rows[0])
    for c, row in zip(vec, rows):
        if c:
            for j, v in enumerate(row):
                out[j] += c * v
    return tuple([v % p for v in out])


class FieldElement:
    """Immutable element of a FiniteField: the tuple of its m coefficients
    over GF(p), ints in [0, p), constant coefficient first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MixedFields(f"mixed fields {self.field} and {other.field}")
            return other
        if isinstance(other, int):
            return self.field.from_coeffs([other])
        return NotImplemented

    def __add__(self, other):
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        p = f.p
        if f.m == 1:
            return FieldElement(f, ((self.coeffs[0] + other.coeffs[0]) % p,))
        return FieldElement(f, tuple([(a + b) % p for a, b in zip(self.coeffs, other.coeffs)]))

    __radd__ = __add__

    def __sub__(self, other):
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        p = f.p
        if f.m == 1:
            return FieldElement(f, ((self.coeffs[0] - other.coeffs[0]) % p,))
        return FieldElement(f, tuple([(a - b) % p for a, b in zip(self.coeffs, other.coeffs)]))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple([-a % p for a in self.coeffs]))

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        p = f.p
        if f.m == 1:
            return FieldElement(f, (self.coeffs[0] * other.coeffs[0] % p,))
        m = f.m
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs, i):
                    prod[j] += a * b
        low = prod[:m]
        for c, row in zip(prod[m:], f._red):
            if c:
                for j, v in enumerate(row):
                    low[j] += c * v
        return FieldElement(f, tuple([v % p for v in low]))

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
        p = f.p
        if f.m == 1:
            return FieldElement(f, (pow(self.coeffs[0], -1, p),))
        # extended Euclid against the modulus over GF(p), on coefficient
        # lists: s0 * self = r0 and s1 * self = r1 mod the modulus
        r0, s0 = list(f.modulus), [0]
        r1, s1 = _trim(list(self.coeffs)), [1]
        while r1:
            inv = pow(r1[-1], -1, p)
            r, s = r0[:], s0 + [0] * (len(r0) - len(r1) + len(s1) - len(s0))
            for shift in range(len(r0) - len(r1), -1, -1):
                c = r[shift + len(r1) - 1] * inv % p
                if c:
                    for j, v in enumerate(r1, shift):
                        r[j] = (r[j] - c * v) % p
                    for j, v in enumerate(s1, shift):
                        s[j] = (s[j] - c * v) % p
            r0, s0, r1, s1 = r1, s1, _trim(r), _trim(s)
        unit = pow(r0[0], -1, p)
        return f.from_coeffs([v * unit for v in s0])

    def frob(self, k=1):
        """x -> x^(p^k) via the precomputed Frobenius matrix."""
        f = self.field
        if f.m == 1:
            return self
        mat = f.frobenius_matrix()
        c = self.coeffs
        for _ in range(k % f.m):
            c = _vec_mat(c, mat, f.p)
        return FieldElement(f, c)

    def is_zero(self):
        return not any(self.coeffs)

    def to_int(self):
        n = 0
        for v in reversed(self.coeffs):
            n = n * self.field.p + v
        return n

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.coeffs == other.coeffs and self.field == other.field
        if isinstance(other, int):
            return self == self.field(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.to_int()))

    def __repr__(self):
        return f"{self.field}({self.to_int()})"


def _trim(c):
    """c without its zero top coefficients (the zero polynomial is [])."""
    while c and c[-1] == 0:
        c.pop()
    return c


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense univariate polynomial over a FiniteField, low coefficients first.

    The zero polynomial has degree -1.
    """

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs):
        cs = [c if c.__class__ is FieldElement else field(c) for c in coeffs]
        while cs and not any(cs[-1].coeffs):
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
        out = [self.field.zero()] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if any(a.coeffs):
                for j, b in enumerate(other.coeffs, i):
                    out[j] = out[j] + a * b
        return Poly(self.field, out)

    def scale(self, c):
        return Poly(self.field, [a * c for a in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroPolynomial("polynomial division by zero")
        r = list(self.coeffs)
        d = other.degree
        lead = other.lead()
        inv = None if lead == self.field.one() else lead.inverse()
        low = other.coeffs[:d]
        quot = [self.field.zero()] * max(0, len(r) - d)
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i] if inv is None else r[i] * inv
            if any(c.coeffs):
                quot[i - d] = c
                for j, b in enumerate(low, i - d):
                    r[j] = r[j] - c * b
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
        # scaling the divisor leaves residues unchanged
        return _pow_mod(self, e, modulus.monic())

    def encoding(self):
        """Integer encoding of the coefficient vector, for stable ordering."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.q + c.to_int()
        return n

    def __repr__(self):
        return f"Poly({self.field}, {[c.to_int() for c in self.coeffs]})"


def _pow_mod(base, e, modulus):
    """base^e mod a monic modulus, by repeated squaring."""
    result = Poly(base.field, [1])
    base = base % modulus
    while e:
        if e & 1:
            result = (result * base) % modulus
        e >>= 1
        if e:
            base = (base * base) % modulus
    return result


def poly_from_int(field, n):
    """Polynomial with coefficient encoding n (base-q digits, low first)."""
    coeffs = []
    while n:
        coeffs.append(field.from_int(n % field.q))
        n //= field.q
    return Poly(field, coeffs)


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
            self._mat = tuple(rows)

    def __call__(self, x):
        if x.field != self.sub:
            raise MixedFields(f"element of {x.field} passed to an embedding of {self.sub}")
        if self._mat is None:
            return self.big.from_coeffs(x.coeffs)
        return FieldElement(self.big, _vec_mat(x.coeffs, self._mat, self.big.p))


@lru_cache(maxsize=DERIVED_CACHE_SIZE)
def _cached_embedding(p, msub, mbig):
    return Embedding(_cached_field(p, msub), _cached_field(p, mbig))


def embed(sub, big):
    if big.p != sub.p or big.m % sub.m != 0:
        raise NotASubfield(f"{sub} is not a subfield of {big}")
    return _cached_embedding(sub.p, sub.m, big.m)


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
