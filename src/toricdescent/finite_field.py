"""Exact arithmetic in small finite fields GF(p^m) and univariate polynomial
algebra over them.

Elements are tuples of m Python ints in [0, p): the coefficients over GF(p)
with respect to the power basis of a fixed monic irreducible modulus, and the
module needs nothing beyond the standard library.  An element product is a
schoolbook product folded mod the modulus (in closed form for m = 2, 3
and 4) until a field with the deterministic modulus, m > 1 and at most
TABLE_LIMIT elements has done q of them.  That field then builds log/antilog
tables over a generator of its unit group, once, and multiplies, inverts,
raises to powers and applies Frobenius by lookups from then on.  The build
costs about as much as the q products before it, so a field used for a few
hundred products (a cold cache on a new prime) never pays for one.  A Poly
holds raw values rather than FieldElements: a plain int per coefficient when
m = 1 and the coefficient tuple when m > 1.  Its loops multiply ints mod p,
reducing once per output coefficient, or call the same tuple functions as
FieldElement (_conv, _fold, _mul, _inv), so no FieldElement is made per term;
coeffs, lead(), indexing and evaluation still hand out FieldElements.
Poly.pow_mod over GF(p) modulo a polynomial of degree 2, 3 or 4 (the node
orbits a factorization of g meets most) raises in the ring GF(p)[x]/(f)
with the same closed-form products, on a _Ring that holds only p and the
reduction rows; any other modulus multiplies and divides per step.

The modulus for GF(p^m) is the lexicographically smallest monic irreducible
of degree m, where candidates are ordered by the integer encoding
sum(c_i * p^i) of their non-leading coefficients; this makes every derived
quantity reproducible across runs.  The search for it runs on int coefficient
lists over GF(p), whose modulus x needs no search.

A field can also take a given monic irreducible modulus: residue_field(g)
builds the field k[x]/(g) of a node orbit that way, with no modulus search
and no root finding.  Fields are equal when their p, modulus and base (the
embedding their builder fixed) agree.

Subfield embeddings GF(p^s) -> GF(p^m) (s | m) send the subfield generator to
the smallest root of the subfield modulus in the big field, or, into a
residue field, to the root its builder chose.  The big field holds each of
its embeddings, keyed by the subfield, so an embedding lives and dies with
the field it maps into.  Each is chosen on its own, so embeddings along a
tower need not compose; callers only embed the residue field k of a request
into fields that contain it, and never map a value back down.  A value
known to lie in k (|k| = q) is tested where it is held: it is an r-th power
in k iff x^((q-1)/gcd(r, q-1)) = 1.

Factorization is Cantor-Zassenhaus (squarefree, distinct-degree, then
equal-degree splitting), and every root search goes through the same
deterministic equal-degree splitter (see _shifts), which tries each shift
once per factorization.  Together with the
modulus search, which skips the binomials x^m + c whenever none of them can
be irreducible, Miller-Rabin, and residue symbols, which need a primitive
g-th root of unity and never factor q^s - 1, every operation the closed
forms use costs time polynomial in log q: nothing loops over GF(p).

make_field is the one size gate: it builds a field a user names, up to the
field-size limit.  Every field built internally comes from extension (the
evaluation towers, the host fields of torus points, roots_in_extension) or
from residue_field; none of them is enumerated, so none is limited.
"""

import os
from functools import cached_property, lru_cache

from .zmat import factorize, gcd

#: Default bound on field cardinality for user-facing construction.
DEFAULT_FIELD_LIMIT = 2 ** 20

_LIMIT_ENV = "TORICDESCENT_FIELD_LIMIT"

#: Miller-Rabin to the first 13 prime bases decides primality below this
#: bound (Sorenson and Webster, Math. Comp. 86 (2017), psi_13)
MILLER_RABIN_BOUND = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Marker for the point at infinity on a projective-line coordinate.
INF = "oo"

#: Bound of the field cache, which is keyed by the user's prime, so that one
#: process answering many primes stays bounded.  Rounds -1..3 of the small-q
#: benchmark workload at seed 1 leave 12 fields in it; the bound leaves
#: several times that.  A field keeps its own elements of given orders
#: (element_of_order) and the embeddings into it, which go with it.
FIELD_CACHE_SIZE = 128

#: Fields with m > 1, the deterministic modulus and at most this many
#: elements build log/antilog tables on their q-th element product (see
#: _build_tables).  Only the 31 fields with m > 1 and q <= 2^11 qualify,
#: 15849 elements in all.  Tables cost about 150 bytes per element (the
#: coefficient tuple, two list slots and a dict entry), so one set for each
#: of those fields takes about 2.4 MB (tracemalloc), however many fields the
#: caches above hold.  A residue field (given modulus) builds none: each
#: new curve brings new ones, and a dead field, held in reference cycles
#: by its own elements, keeps its tables until a full garbage
#: collection, which raised peak memory on the oracle workload by 9%.
#: Measured: at 0 (no tables) the oracle workload answered 14-19% fewer requests/s.
TABLE_LIMIT = 2 ** 11


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
    """Deterministic Miller-Rabin for n < MILLER_RABIN_BOUND."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# modulus search (on raw coefficient lists over GF(p), whose modulus x needs
# no search)


def _is_irreducible_p(f, p):
    """Monic f over GF(p) of degree >= 2, a list of ints low first: a staged
    distinct-degree sieve, gcd(x^(p^k) - x, f) = 1 for every k <= deg f / 2."""
    prime = _cached_field(p, 1)
    xp = [0, 1]
    for _ in range((len(f) - 1) // 2):
        xp = _pow_mod(prime, xp, p, f)
        diff = xp + [0] * (2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if not _coprime_p(_trim(diff), f, p):
            return False
    return True


def _coprime_p(a, b, p):
    """Whether gcd(a, b) = 1 over GF(p), a and b lists of ints: Euclid, each
    divisor made monic with the integer inverse of its leading coefficient."""
    while a:
        inv = pow(a[-1], -1, p)
        a = [v * inv % p for v in a]
        a, b = _divmod_p(b, a, p)[1], a
    return len(b) == 1


def _binomials_can_be_irreducible(p, m):
    """Whether some x^m + c is irreducible over GF(p), m >= 2 (Lidl-Niederreiter,
    Thm 3.75): every prime factor of m divides p - 1, and p = 1 mod 4 when
    4 | m."""
    if any((p - 1) % ell for ell in factorize(m)):
        return False
    return m % 4 != 0 or p % 4 == 1


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
        cand = _digits(p ** m + n, p)
        if cand[0] and _is_irreducible_p(cand, p):
            return tuple(cand)
        n += 1


def _digits(n, base):
    """The base-`base` digits of n >= 0, lowest first."""
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# fields and elements


class FiniteField:
    """GF(p^m) over the deterministic monic irreducible modulus of degree m
    over GF(p), or over a given one.

    A given modulus (ints in [0, p), low first, monic and irreducible; not
    checked) makes a residue field of a node orbit (see residue_field).
    base, with it, is (m', root): the subfield GF(p^m') of that degree, in
    its deterministic modulus, embeds by sending its generator to the
    element with the coefficient tuple root.  Two fields are equal when p,
    the modulus and base agree, so a cache keyed by a field never hands one
    field's element to another field of the same size."""

    def __init__(self, p, m=1, modulus=None, base=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if modulus is not None:
            m = len(modulus) - 1
        if m < 1:
            raise FieldError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.q = p ** m
        self.given_modulus = modulus is not None
        self.modulus = tuple(modulus) if modulus is not None else _smallest_irreducible(p, m)
        self.base = base
        self._key = (p, self.modulus, base)
        self._hash = hash(self._key)
        # the embeddings into this field, keyed by subfield (see embed), and
        # the elements of given orders (see element_of_order)
        self._embeddings = {}
        self._of_order = {}
        self._red = _reduction_rows(self.modulus, p)
        self._zero = FieldElement(self, (0,) * m)
        self._one = FieldElement(self, (1,) + (0,) * (m - 1))
        # log/antilog tables (see _build_tables): _exp holds the coefficient
        # tuples g^0, ..., g^(q-2) twice over, _log maps each to its exponent
        # and the zero tuple to -1; _muls_to_tables counts down the element
        # products left before the build, 0 for a field that never builds
        self._exp = self._log = None
        # a residue field lives for one curve: it never builds tables
        tabled = m > 1 and self.q <= TABLE_LIMIT and modulus is None
        self._muls_to_tables = self.q if tabled else 0

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

    @cached_property
    def frobenius_matrix(self):
        """Matrix of x -> x^p on the power basis: row i the coefficients of
        x^(i p)."""
        return _power_rows(self.gen() ** self.p, self.m)

    def __repr__(self):
        name = field_name(self.p, self.m)
        return f"{name} mod {list(self.modulus)}" if self.given_modulus else name

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteField)
                                 and self._key == other._key)

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash


def field_name(p, m):
    """The name of GF(p^m), as reports print it."""
    return f"GF({p}^{m})" if m > 1 else f"GF({p})"


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _cached_field(p, m):
    return FiniteField(p, m)


def make_field(p, m=1):
    """GF(p^m) with the deterministic modulus, for a field a user names;
    cached per (p, m).  The size limit (default 2^20, env
    TORICDESCENT_FIELD_LIMIT) applies here, before FiniteField's primality
    test (NotPrime), which runs once per field built."""
    if m < 1:
        raise FieldError("extension degree must be >= 1")
    bound = field_limit()
    if p ** m > bound:
        raise SizeLimitExceeded(f"{p}^{m} exceeds the field-size limit {bound}")
    return _cached_field(p, m)


def extension(field, s):
    """GF(q^s) over GF(q) = field, as a plain GF(p^(m*s)); no size limit
    (fields built internally are arithmetic-only, never enumerated)."""
    return _cached_field(field.p, field.m * s)


def _power_rows(x, n):
    """The coefficient tuples of x^0, ..., x^(n-1): the rows of the matrix
    that sends the power basis of a degree-n field to the powers of x."""
    acc = x.field.one()
    rows = [acc.coeffs]
    for _ in range(1, n):
        acc = acc * x
        rows.append(acc.coeffs)
    return tuple(rows)


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

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple([-a % p for a in self.coeffs]))

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        if f.m == 1:
            return FieldElement(f, (self.coeffs[0] * other.coeffs[0] % f.p,))
        return FieldElement(f, _mul(f, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        if f.m == 1:
            return FieldElement(f, (pow(self.coeffs[0], e, f.p),))
        if f._log is not None:
            i = f._log[self.coeffs]
            if i < 0:
                return f._zero if e else f._one
            return FieldElement(f, f._exp[i * e % (f.q - 1)])
        return FieldElement(f, _power(f, self.coeffs, e))

    def inverse(self):
        if self.is_zero():
            raise ZeroElement("division by zero field element")
        f = self.field
        if f.m == 1:
            return FieldElement(f, (pow(self.coeffs[0], -1, f.p),))
        return FieldElement(f, _inv(f, self.coeffs))

    def frob(self, k=1):
        """x -> x^(p^k): a power by the tables once the field has them,
        else the precomputed Frobenius matrix."""
        f = self.field
        if f.m == 1:
            return self
        if f._log is not None:
            return self ** f.p ** (k % f.m)
        mat = f.frobenius_matrix
        c = self.coeffs
        for _ in range(k % f.m):
            c = _vec_mat(c, mat, f.p)
        return FieldElement(f, c)

    def is_zero(self):
        return not any(self.coeffs)

    def to_int(self):
        return _encode(self.field.p, self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.coeffs == other.coeffs and self.field == other.field
        if isinstance(other, int):
            return self == self.field(other)
        return NotImplemented

    def __hash__(self):
        # equal elements have equal coefficients; __eq__ also compares fields
        return hash(self.coeffs)

    def __repr__(self):
        return f"{self.field}({self.to_int()})"


def _trim(c, zero=0):
    """c without its zero top coefficients (the zero polynomial is [])."""
    while c and c[-1] == zero:
        c.pop()
    return c


# ---------------------------------------------------------------------------
# raw values: a Poly over GF(p^m) stores each coefficient as an int in [0, p)
# when m = 1 and as its coefficient tuple (FieldElement.coeffs) when m > 1.
# The tuple functions below are the one element arithmetic for m > 1;
# FieldElement and the Poly loops both call them.  _mul and _inv look their
# result up once the field has tables, and otherwise compute it on tuples.


def _reduction_rows(modulus, p):
    """Rows j = 0, ..., m - 2 of x^(m+j) reduced mod a monic modulus of
    degree m over GF(p) (ints low first, leading 1 included), as the tuples
    _fold and the closed forms of _mul read."""
    m = len(modulus) - 1
    xm = [(-c) % p for c in modulus[:m]]
    rows = []
    cur = xm
    for _ in range(m - 1):
        rows.append(tuple(cur))
        top = cur[m - 1]
        shifted = [0] + cur[: m - 1]
        cur = [(a + top * b) % p for a, b in zip(shifted, xm)]
    return tuple(rows)


def _conv(acc, a, b):
    """acc[i + j] += a[i] * b[j]: the unreduced product of two coefficient
    sequences, added into acc."""
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                acc[j] += x * y


def _fold(f, acc):
    """An unreduced product (2m - 1 ints, of any size and sign) as a
    coefficient tuple of f = GF(p^m): x^(m+j) becomes row j of f._red, then
    every coefficient is reduced mod p."""
    m = f.m
    low = acc[:m]
    for c, row in zip(acc[m:], f._red):
        if c:
            for j, v in enumerate(row):
                low[j] += c * v
    p = f.p
    return tuple([v % p for v in low])


def _mul(f, a, b):
    """The product of two coefficient tuples of GF(p^m), m > 1: g^i * g^j
    = g^(i+j) from the tables, else a schoolbook product folded mod the
    modulus, which counts towards the tables' build."""
    log = f._log
    if log is not None:
        i, j = log[a], log[b]
        if i < 0 or j < 0:
            return f._zero.coeffs
        return f._exp[i + j]
    if f._muls_to_tables:
        f._muls_to_tables -= 1
        if not f._muls_to_tables:
            _build_tables(f)
    m = f.m
    # m = 2, 3 and 4, the usual node and k(i) fields and the rings of
    # _pow_mod, in closed form: a third to a sixth of the time of the loops
    # below (m = 4: 1.2-1.7 against 6-8 us)
    if m == 2:
        a0, a1 = a
        b0, b1 = b
        top = a1 * b1
        r0, r1 = f._red[0]
        p = f.p
        return ((a0 * b0 + top * r0) % p, (a0 * b1 + a1 * b0 + top * r1) % p)
    if m == 3:
        a0, a1, a2 = a
        b0, b1, b2 = b
        c3 = a1 * b2 + a2 * b1
        c4 = a2 * b2
        (u0, u1, u2), (v0, v1, v2) = f._red
        p = f.p
        return ((a0 * b0 + c3 * u0 + c4 * v0) % p,
                (a0 * b1 + a1 * b0 + c3 * u1 + c4 * v1) % p,
                (a0 * b2 + a1 * b1 + a2 * b0 + c3 * u2 + c4 * v2) % p)
    if m == 4:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        c4 = a1 * b3 + a2 * b2 + a3 * b1
        c5 = a2 * b3 + a3 * b2
        c6 = a3 * b3
        (u0, u1, u2, u3), (v0, v1, v2, v3), (w0, w1, w2, w3) = f._red
        p = f.p
        return ((a0 * b0 + c4 * u0 + c5 * v0 + c6 * w0) % p,
                (a0 * b1 + a1 * b0 + c4 * u1 + c5 * v1 + c6 * w1) % p,
                (a0 * b2 + a1 * b1 + a2 * b0 + c4 * u2 + c5 * v2 + c6 * w2) % p,
                (a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
                 + c4 * u3 + c5 * v3 + c6 * w3) % p)
    acc = [0] * (2 * m - 1)
    _conv(acc, a, b)
    return _fold(f, acc)


def _power(f, a, e):
    """a^e for a coefficient tuple a of f (a field with m > 1, or a _Ring),
    by repeated squaring with _mul."""
    result = (1,) + (0,) * (f.m - 1)
    while e:
        if e & 1:
            result = _mul(f, result, a)
        e >>= 1
        if e:
            a = _mul(f, a, a)
    return result


def _build_tables(f):
    """Give f (m > 1) its log/antilog tables over g = element_of_order(f,
    q - 1): the antilog list holds g^0, ..., g^(q-2) twice over, so that the
    sum of two logs indexes it with no reduction, and the log dict maps the
    same tuple objects back to their exponents, the zero tuple to -1.  The
    q - 2 products run on tuples, since f has no tables yet and its count
    is spent."""
    g = element_of_order(f, f.q - 1).coeffs
    powers = [f._one.coeffs]
    for _ in range(f.q - 2):
        powers.append(_mul(f, powers[-1], g))
    log = {v: i for i, v in enumerate(powers)}
    log[f._zero.coeffs] = -1
    f._exp, f._log = powers + powers, log


def _inv(f, a):
    """The inverse of a nonzero coefficient tuple of GF(p^m), m > 1: g^-i =
    g^(q-1-i) from the tables, else extended Euclid against the modulus over
    GF(p), on coefficient lists, keeping s0 * a = r0 and s1 * a = r1 mod the
    modulus."""
    if f._log is not None:
        return f._exp[f.q - 1 - f._log[a]]
    p = f.p
    r0, s0 = list(f.modulus), [0]
    r1, s1 = _trim(list(a)), [1]
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
    return tuple([v * unit % p for v in s0]) + (0,) * (f.m - len(s0))


def _conv_p(a, b):
    """The unreduced product of two int coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    _conv(out, a, b)
    return out


def _conv_t(f, a, b):
    """The product of two lists of coefficient tuples, each output
    coefficient an unreduced accumulator of 2m - 1 ints (fold it with
    _fold), so that each is reduced once rather than once per term."""
    width = 2 * f.m - 1
    out = [[0] * width for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if any(x):
            for j, y in enumerate(b, i):
                _conv(out[j], x, y)
    return out


def _divmod_p(a, b, p):
    """(quotient, remainder) of int coefficient lists over GF(p), b nonzero
    with reduced coefficients.  The entries of a may be unreduced; each is
    reduced when it is read.  Both results are reduced and trimmed."""
    d = len(b) - 1
    lead = b[-1]
    inv = None if lead == 1 else pow(lead, -1, p)
    low = b[:d]
    r = list(a)
    quot = [0] * max(0, len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i] % p if inv is None else r[i] * inv % p
        if c:
            quot[i - d] = c
            for j, y in enumerate(low, i - d):
                r[j] -= c * y
    return _trim(quot), _trim([v % p for v in r[:d]])


def _divmod_t(f, a, b):
    """(quotient, remainder) of lists of coefficient tuples of GF(p^m),
    m > 1, b nonzero.  The entries of a may be tuples or the unreduced
    accumulators of _conv_t; the remainder is accumulated unreduced and each
    coefficient is folded when it is read."""
    width = 2 * f.m - 1
    zero = f._zero.coeffs
    d = len(b) - 1
    lead = b[-1]
    inv = None if lead == f._one.coeffs else _inv(f, lead)
    low = b[:d]
    r = [list(x) + [0] * (width - len(x)) for x in a]
    quot = [zero] * max(0, len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        c = _fold(f, r[i])
        if inv is not None:
            c = _mul(f, c, inv)
        if any(c):
            quot[i - d] = c
            neg = [-v for v in c]
            for j, y in enumerate(low, i - d):
                _conv(r[j], neg, y)
    return _trim(quot, zero), _trim([_fold(f, v) for v in r[:d]], zero)


def _divmod(f, a, b):
    """(quotient, remainder) of raw coefficient lists over f, b nonzero."""
    if f.m == 1:
        return _divmod_p(a, b, f.p)
    return _divmod_t(f, a, b)


def _mulmod(f, a, b, mod):
    """a * b modulo a monic mod, raw coefficient lists over f; the product is
    reduced once, by the division."""
    if f.m == 1:
        return _divmod_p(_conv_p(a, b), mod, f.p)[1]
    return _divmod_t(f, _conv_t(f, a, b), mod)[1]


class _Ring:
    """GF(p)[x]/(mod) for a monic mod of degree m = 2, 3 or 4, as far as
    _mul reads a field: p, m and the reduction rows, never tables.  It holds
    no element and no field, so it is freed as soon as _pow_mod returns."""

    __slots__ = ("p", "m", "_red")
    _log = None
    _muls_to_tables = 0

    def __init__(self, p, mod):
        self.p = p
        self.m = len(mod) - 1
        self._red = _reduction_rows(mod, p)


def _pow_mod(f, base, e, mod):
    """base^e modulo a monic mod, raw coefficient lists over f, by repeated
    squaring.  Over GF(p) with mod of degree 2, 3 or 4 the powers are
    coefficient tuples of the ring GF(p)[x]/(mod), multiplied by the closed
    forms of _mul; any other mod takes _mulmod, a product and a division per
    step."""
    base = _divmod(f, base, mod)[1]
    if f.m == 1 and 2 <= len(mod) - 1 <= 4:
        ring = _Ring(f.p, mod)
        base = tuple(base) + (0,) * (ring.m - len(base))
        return _trim(list(_power(ring, base, e)))
    result = [1 if f.m == 1 else f._one.coeffs]
    while e:
        if e & 1:
            result = _mulmod(f, result, base, mod)
        e >>= 1
        if e:
            base = _mulmod(f, base, base, mod)
    return result


def _encode(p, v):
    """The integer encoding of a coefficient tuple: base-p digits."""
    n = 0
    for c in reversed(v):
        n = n * p + c
    return n


def _poly(field, c):
    """The Poly over field with the raw coefficients c, reduced and trimmed."""
    out = Poly.__new__(Poly)
    out.field = field
    out._c = tuple(c)
    out._hash = None
    return out


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense univariate polynomial over a FiniteField, low coefficients first.

    A Poly holds raw field values, not FieldElements: an int in [0, p) per
    coefficient when m = 1, its coefficient tuple when m > 1; its arithmetic
    loops run on them.  coeffs, lead(), p[i] and evaluation hand out
    FieldElements.  The zero polynomial has degree -1.
    """

    __slots__ = ("field", "_c", "_hash")

    def __init__(self, field, coeffs):
        p = field.p
        prime = field.m == 1
        cs = []
        for c in coeffs:
            if prime and c.__class__ is int:
                cs.append(c % p)
                continue
            if c.__class__ is not FieldElement or c.field is not field:
                c = field(c)
            cs.append(c.coeffs[0] if prime else c.coeffs)
        self.field = field
        self._c = tuple(_trim(cs, 0 if prime else field._zero.coeffs))
        self._hash = None

    def _same(self, other):
        """The common field of self and other; MixedFields if they differ."""
        f = self.field
        if other.field is not f and other.field != f:
            raise MixedFields(f"mixed fields {f} and {other.field}")
        return f

    def _elem(self, v):
        f = self.field
        return FieldElement(f, (v,) if f.m == 1 else v)

    @property
    def coeffs(self):
        return tuple([self._elem(v) for v in self._c])

    @property
    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def lead(self):
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self._elem(self._c[-1])

    def __getitem__(self, i):
        return self._elem(self._c[i]) if 0 <= i < len(self._c) else self.field.zero()

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self._c == other._c)

    def __hash__(self):
        if self._hash is None:
            f = self.field
            enc = self._c if f.m == 1 else tuple([_encode(f.p, v) for v in self._c])
            self._hash = hash((f.p, f.m, enc))
        return self._hash

    def _padded(self, other):
        """Both raw coefficient tuples, padded with zeros to one length."""
        a, b = self._c, other._c
        zero = 0 if self.field.m == 1 else self.field._zero.coeffs
        n = max(len(a), len(b))
        return a + (zero,) * (n - len(a)), b + (zero,) * (n - len(b)), zero

    def __add__(self, other):
        f = self._same(other)
        a, b, zero = self._padded(other)
        p = f.p
        if f.m == 1:
            c = [(x + y) % p for x, y in zip(a, b)]
        else:
            c = [tuple([(u + v) % p for u, v in zip(x, y)]) for x, y in zip(a, b)]
        return _poly(f, _trim(c, zero))

    def __sub__(self, other):
        f = self._same(other)
        a, b, zero = self._padded(other)
        p = f.p
        if f.m == 1:
            c = [(x - y) % p for x, y in zip(a, b)]
        else:
            c = [tuple([(u - v) % p for u, v in zip(x, y)]) for x, y in zip(a, b)]
        return _poly(f, _trim(c, zero))

    def __neg__(self):
        f = self.field
        p = f.p
        if f.m == 1:
            return _poly(f, [-x % p for x in self._c])
        return _poly(f, [tuple([-u % p for u in x]) for x in self._c])

    def __mul__(self, other):
        f = self._same(other)
        if not self._c or not other._c:
            return _poly(f, [])
        if f.m == 1:
            p = f.p
            return _poly(f, [v % p for v in _conv_p(self._c, other._c)])
        return _poly(f, [_fold(f, acc) for acc in _conv_t(f, self._c, other._c)])

    def scale(self, c):
        f = self.field
        if c.__class__ is not FieldElement or c.field is not f:
            c = f(c)
        if c.is_zero():
            return _poly(f, [])
        if f.m == 1:
            x, p = c.coeffs[0], f.p
            return _poly(f, [a * x % p for a in self._c])
        return _poly(f, [_mul(f, a, c.coeffs) for a in self._c])

    def divmod(self, other):
        f = self._same(other)
        if not other._c:
            raise ZeroPolynomial("polynomial division by zero")
        quot, rem = _divmod(f, self._c, other._c)
        return _poly(f, quot), _poly(f, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial cannot be made monic")
        return self.scale(self.lead().inverse())

    def gcd(self, other):
        f = self._same(other)
        a, b = self._c, other._c
        while b:
            a, b = b, _divmod(f, a, b)[1]
        out = _poly(f, a)
        return out.monic() if a else out

    def derivative(self):
        f = self.field
        p = f.p
        if f.m == 1:
            c = [v * i % p for i, v in enumerate(self._c) if i]
            return _poly(f, _trim(c))
        c = [tuple([u * i % p for u in v]) for i, v in enumerate(self._c) if i]
        return _poly(f, _trim(c, f._zero.coeffs))

    def __call__(self, x):
        """Horner evaluation at a point of the same field."""
        f = self.field
        if x.__class__ is not FieldElement or x.field is not f:
            x = f(x)
        p = f.p
        if f.m == 1:
            v = x.coeffs[0]
            acc = 0
            for c in reversed(self._c):
                acc = (acc * v + c) % p
            return FieldElement(f, (acc,))
        acc = f._zero.coeffs
        for c in reversed(self._c):
            acc = tuple([(u + w) % p for u, w in zip(_mul(f, acc, x.coeffs), c)])
        return FieldElement(f, acc)

    def map_coeffs(self, fn, field):
        return Poly(field, [fn(c) for c in self.coeffs])

    def pow_mod(self, e, modulus):
        f = self._same(modulus)
        # scaling the divisor leaves residues unchanged
        return _poly(f, _pow_mod(f, self._c, e, modulus.monic()._c))

    def encoding(self):
        """Integer encoding of the coefficient vector, for stable ordering."""
        f = self.field
        n = 0
        for v in reversed(self._c):
            n = n * f.q + (v if f.m == 1 else _encode(f.p, v))
        return n

    def __repr__(self):
        f = self.field
        enc = list(self._c) if f.m == 1 else [_encode(f.p, v) for v in self._c]
        return f"Poly({f}, {enc})"


def poly_from_int(field, n):
    """Polynomial with coefficient encoding n (base-q digits, low first)."""
    digits = _digits(n, field.q)
    if field.m == 1:
        return _poly(field, digits)
    return _poly(field, [field.from_int(d).coeffs for d in digits])


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
        if c.degree == 0:
            accumulate(g, mult)
            return
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


def _equal_degree_split(f, d, shifts=None):
    """Irreducible factors of f when all have degree d, split by the shifts
    of _shifts in order.  Both factors of a split continue the one sequence:
    a shift tried on f puts all roots of each factor on one side of its
    split, so it cannot split either of them."""
    if f.degree == d:
        return [f.monic()]
    if shifts is None:
        shifts = _shifts(f.field)
    for h in shifts:
        g = _split(f, d, h)
        if 0 < g.degree < f.degree:
            return (_equal_degree_split(g, d, shifts)
                    + _equal_degree_split((f // g).monic(), d, shifts))


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


# ---------------------------------------------------------------------------
# embeddings and roots in extensions


def _one_root(f):
    """One root of f, a squarefree polynomial with all its roots in its own
    field: the splitter of _equal_degree_split at d = 1, keeping the smaller
    side of each split."""
    # measured: splitting fully took 610 _pow_mod calls, not 526, on the oracle workload
    work = f.monic()
    shifts = _shifts(work.field)
    while work.degree > 1:
        g = _split(work, 1, next(shifts))
        if 0 < g.degree < work.degree:
            work = g if g.degree <= work.degree - g.degree else (work // g).monic()
    return -work.coeffs[0]


class Embedding:
    """Field homomorphism GF(p^s) -> GF(p^m) for s | m: the generator of the
    subfield goes to root, or by default to the smallest p-power conjugate
    of a root of the subfield modulus found in the big field."""

    def __init__(self, sub, big, root=None):
        if big.p != sub.p or big.m % sub.m != 0:
            raise NotASubfield(f"{sub} is not a subfield of {big}")
        self.sub = sub
        self.big = big
        if sub.m == 1:
            self._mat = None
        else:
            if root is None:
                rho = _one_root(Poly(big, [big(c) for c in sub.modulus]))
                # smallest conjugate (p-power orbit) fixes the embedding
                conj = [rho]
                for _ in range(sub.m - 1):
                    rho = rho.frob(1)
                    conj.append(rho)
                root = min(conj, key=lambda r: r.to_int())
            self._mat = _power_rows(root, sub.m)

    def __call__(self, x):
        if x.field != self.sub:
            raise MixedFields(f"element of {x.field} passed to an embedding of {self.sub}")
        if self._mat is None:
            return self.big.from_coeffs(x.coeffs)
        return FieldElement(self.big, _vec_mat(x.coeffs, self._mat, self.big.p))


def embed(sub, big):
    """The embedding sub -> big, kept by big per subfield: the one a residue
    field's base fixes for its base field, Embedding's default otherwise."""
    emb = big._embeddings.get(sub)
    if emb is None:
        root = None
        if big.base is not None and big.base[0] == sub.m and not sub.given_modulus:
            root = FieldElement(big, big.base[1])
        emb = big._embeddings[sub] = Embedding(sub, big, root)
    return emb


def residue_field(g):
    """(K, node): the field k[x]/(g) of a monic irreducible g of degree s over
    k = GF(p^m), as a FiniteField of degree m s over GF(p) with a modulus of
    its own, and a root of g in it.  Nothing is factored and no root is
    searched for (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 14).

    For m = 1 the modulus is g and the node is the class of x.  For m > 1 it
    is the norm N(x) = prod_j G^(p^j)(x) down to GF(p) of G(x) = g(x - c t),
    t the generator of k, for the first c = 0, 1, ... that makes N
    squarefree.  A norm is a power of the minimal polynomial of its roots,
    so a squarefree one is irreducible, and x is a root of one conjugate
    G^(p^j) only.  k then embeds by the one root tau of its modulus with
    G^tau(x) = 0, the linear gcd of the two over the new field, and the node
    is x - c tau."""
    k = g.field
    p, m = k.p, k.m
    if g.degree < 2 or g.lead() != k.one():
        raise FieldError(f"{g} is not a monic polynomial of degree >= 2")
    if m == 1:
        K = FiniteField(p, modulus=g._c)
        return K, K.gen()
    t = Poly(k, [k.gen()])
    x = Poly(k, [0, 1])
    # shifts c t with c in GF(p): a bad c puts the root alpha + c t of G in
    # a maximal subfield L whose intersection with k has index some prime
    # l | m, and at most one c does that for each l.  Below the field-size
    # limit m has at most two prime factors, so one of the p >= 3 values of
    # c works (the two-line family never has p = 2, which divides 2d)
    for c in range(p):
        shift = x - t.scale(k(c))
        G = Poly(k, [0])
        for coeff in reversed(g.coeffs):
            G = G * shift + Poly(k, [coeff])
        N = G
        for j in range(1, m):
            N = N * Poly(k, [a.frob(j) for a in G.coeffs])
        norm = [a.coeffs[0] for a in N.coeffs]
        if _coprime_p(_trim([v * i % p for i, v in enumerate(norm) if i]), norm, p):
            break
    else:
        raise FieldError(f"no shift of {g} has an irreducible norm")
    # tau in the plain field GF(p)[x]/(N), then the field that carries it
    plain = FiniteField(p, modulus=norm)
    X = Poly(plain, [plain.gen(), -c])
    G_T = Poly(plain, [0])
    mu = Poly(plain, list(k.modulus))
    for coeff in reversed(g.coeffs):
        G_T = (G_T * X + Poly(plain, list(coeff.coeffs))) % mu
    linear = mu.gcd(G_T)
    if linear.degree != 1:
        raise FieldError(f"the modulus of {k} has {linear.degree} roots making "
                         f"a root of {g}")
    K = FiniteField(p, modulus=norm, base=(m, (-linear[0]).coeffs))
    tau = FieldElement(K, K.base[1])
    return K, K.gen() - tau * c


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


def element_of_order(field, n):
    """Deterministic element of exact multiplicative order n: the first
    w^((q-1)/n) of exact order n, w running through the encodings from 2.
    Kept by the field, so that it goes with the field (and a residue field's
    tables with it).

    The encodings below p are the prime field; when no power of GF(p)^x has
    order n the search starts at p, which leaves the result unchanged.  For
    n = 2 there is no search: in odd characteristic -1 is the only element
    of order 2, so the search would find it too."""
    eta = field._of_order.get(n)
    if eta is None:
        eta = field._of_order[n] = _element_of_order(field, n)
    return eta


def _element_of_order(field, n):
    if (field.q - 1) % n != 0:
        raise OrderDoesNotDivide(f"order {n} does not divide {field.q - 1}")
    if n == 1:
        return field.one()
    if n == 2:
        return -field.one()
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


def residue_symbol(value, order, g):
    """The class of value in mu_order / (mu_order)^g, g | order: the index of
    value^(order/g) among the powers of element_of_order(field, g), in
    O(log order + g) multiplications.  NotInSubgroup if value^order != 1."""
    if order % g:
        raise OrderDoesNotDivide(f"{g} does not divide the order {order}")
    field = value.field
    target = value ** (order // g)
    step = element_of_order(field, g)
    cur = field.one()
    for x in range(g):
        if cur == target:
            return x
        cur = cur * step
    raise NotInSubgroup(f"{value} is not in the group of {order}-th roots of unity")
