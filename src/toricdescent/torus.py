"""Character lattices with Frobenius action: orders, the check of a
principal decomposition, mu-group structure, and rational points of
principally decomposable tori over finite fields.  A dual graph reads its
own torus off its edge orbits (dual_graph); the lattices here serve the
torus command and the checks against it.

All of it is integer linear algebra on zmat's one kernel: the Frobenius
characteristic polynomial gives the orders, the Smith form (through
zmat.solve_int) the linear recurrence of each sigma-orbit, and the Smith form
of the equivariance congruence the rational points.

Conventions.  Characters are integer column vectors in Z^g; the Frobenius
generator acts by the matrix F, so sigma(chi) = F @ chi and F[i][j] is the
coefficient of basis vector i in the image of basis vector j.  A rational
point is a Galois-equivariant homomorphism from the lattice to the units of
the algebraic closure; equivariance pins e(F v) = e(v)^q.
"""

import math
from functools import cached_property
from itertools import product

from . import zmat
from .finite_field import (MILLER_RABIN_BOUND, FiniteField, element_of_order, extension,
                           field_name, is_prime)
from .zmat import charpoly, gcd, mat_vec, poly_eval_int, smith_normal_form, solve_int

FROBENIUS_ORDER_BOUND = 64
ENUMERATION_LIMIT = 10 ** 6


class TorusError(Exception):
    pass


class EnumerationLimitExceeded(TorusError):
    pass


class PointCountMismatch(Exception):
    """The Smith-form solutions of the equivariance congruence disagree with
    the torus order from the characteristic polynomial: an internal fault,
    not a refusal of the input, so it is no TorusError."""


class CharacterLattice:
    """Free Z-module of rank g with a finite-order Frobenius matrix."""

    def __init__(self, frobenius, label="", order=None):
        """order, when the caller knows it (the Galois generator on a dual
        graph's cycle space, an automorphism of finite order by
        construction), is taken as given; otherwise the determinant and the
        order are checked."""
        F = [list(map(int, row)) for row in frobenius]
        g = len(F)
        if any(len(row) != g for row in F):
            raise TorusError("frobenius matrix must be square")
        self.rank = g
        self.frobenius = F
        self.label = label
        if order is None:
            if abs(zmat.det(F)) != 1:
                raise TorusError("frobenius matrix must have determinant +-1")
            order = self._frobenius_order()
        self.order = order

    def _frobenius_order(self):
        ident = zmat.identity(self.rank)
        power = self.frobenius
        for k in range(1, FROBENIUS_ORDER_BOUND + 1):
            if power == ident:
                return k
            power = zmat.mat_mul(power, self.frobenius)
        raise TorusError(
            f"frobenius order exceeds the bound {FROBENIUS_ORDER_BOUND}")

    def apply(self, chi):
        return mat_vec(self.frobenius, list(chi))

    @cached_property
    def char_poly(self):
        """Characteristic polynomial of the Frobenius matrix, coefficients
        low degree first, monic; basis independent.  Computed once per
        lattice, since the order and the point count both read it."""
        return charpoly(self.frobenius)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"CharacterLattice(rank={self.rank}{tag})"


def torus_order(lattice, q):
    """Number of rational points over GF(q): the char poly evaluated at q."""
    return _order_at(lattice.char_poly, q)


def _order_at(char_poly, q):
    """char_poly(q), the number of GF(q)-points of the torus it belongs to.
    TorusError when it is not positive: q is then not a field size."""
    value = poly_eval_int(char_poly, q)
    if value <= 0:
        raise TorusError(f"the torus order at q = {q} is {value}, not a point count")
    return value


class PrincipalComponent:
    """One principal summand: a generator chi whose sigma-orbit is a Z-basis
    of its span."""

    def __init__(self, generator, orbit, char_poly):
        self.generator = tuple(int(v) for v in generator)
        self.orbit = [tuple(int(v) for v in vec) for vec in orbit]
        self.char_poly = list(char_poly)
        self.rank = len(orbit)

    def order_over(self, q):
        return _order_at(self.char_poly, q)

    def __repr__(self):
        return f"PrincipalComponent(generator={self.generator}, rank={self.rank})"


def principal_component(lattice, chi):
    """Build the principal component generated by chi.

    The orbit chi, F chi, ... up to its first dependent vector, with the
    recurrence that vector satisfies.
    """
    chi = [int(v) for v in chi]
    orbit = [chi]
    cur = chi
    while True:
        cur = lattice.apply(cur)
        in_span, coeffs = solve_int([list(row) for row in zip(*orbit)], cur)
        if in_span:
            # integral by Gauss's lemma (a factor of x^order - 1), met within rank steps
            # char poly of the restriction: x^k - c_{k-1} x^(k-1) - ... - c_0
            fx = [-c for c in coeffs] + [1]
            return PrincipalComponent(chi, orbit, fx)
        orbit.append(cur)


def verify_principal_decomposition(lattice, generators):
    """Check that the sigma-orbits of the generators jointly form a Z-basis.

    Returns (ok, certificate_matrix, components), one PrincipalComponent per
    generator; the certificate has the orbit vectors as columns and ok means
    |det| = 1.  When the orbits do not number the rank, the certificate
    lists them as rows instead.
    """
    columns = []
    comps = []
    for chi in generators:
        comp = principal_component(lattice, chi)
        comps.append(comp)
        columns.extend(comp.orbit)
    if len(columns) != lattice.rank:
        return False, [list(col) for col in columns], comps
    cert = [[columns[j][i] for j in range(len(columns))] for i in range(lattice.rank)]
    ok = abs(zmat.det(cert)) == 1
    return ok, cert, comps


class MuGroup:
    """The cyclic group of f_i(q)-th roots of unity attached to a principal
    component, with the name of its smallest host field."""

    def __init__(self, order, host):
        self.order = order
        self.host = host

    def __repr__(self):
        return f"MuGroup(order={self.order}, host={self.host})"


def prime_power(q):
    """(p, a) with q = p^a; TorusError unless q is a prime power >= 2.

    Time polynomial in log q: p is what is left after taking exact integer
    l-th roots for primes l while there are any, and is then tested by
    deterministic Miller-Rabin (TorusError when p is past the range of that
    test)."""
    if q >= 2:
        p, a, ell = q, 1, 2
        # an l-th root of p with 2^l > p would be 1
        while ell < p.bit_length():
            root = _integer_root(p, ell)
            if root ** ell == p:
                p, a = root, a * ell
            else:
                ell = next(n for n in range(ell + 1, 2 * ell + 1) if is_prime(n))
        if p >= MILLER_RABIN_BOUND:
            raise TorusError(f"{q} is past the primality-test bound {MILLER_RABIN_BOUND}")
        if is_prime(p):
            return p, a
    raise TorusError(f"{q} is not a prime power")


def _integer_root(n, k):
    """floor(n^(1/k)) for n >= 1: Newton's method from a point above the
    root, a float estimate when the root fits in a float."""
    bits = n.bit_length()
    if bits < 1000 * k:
        x = int(2 ** (math.log2(n) / k) * (1 + 2 ** -30)) + 1
    else:
        x = 1 << -(-bits // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def multiplicative_order_mod(q, n):
    """Multiplicative order of q modulo n >= 1, for n dividing some q^s - 1
    (so gcd(q, n) = 1): the smallest such s."""
    if n == 1:
        return 1
    s = 1
    cur = q % n
    while cur != 1:
        cur = (cur * q) % n
        s += 1
    return s


def mu_group(component, q):
    """MuGroup of order n = f_i(q), hosted by GF(q^s) with s the
    multiplicative order of q modulo n.  f_i divides x^t - 1 for the order t
    of Frobenius on the component, so n divides q^t - 1 and s exists.  The
    host field is named, not built."""
    n = component.order_over(q)
    p, a = prime_power(q)
    return MuGroup(n, field_name(p, a * multiplicative_order_mod(q, n)))


class RationalPoints:
    """All Galois-equivariant homomorphisms from the lattice to the units of
    the algebraic closure, over GF(q).

    Points are stored as discrete-log vectors a with respect to a primitive
    root zeta of the host field GF(q^s): the hom sends basis character e_j to
    zeta^(a_j).  The group law is componentwise addition mod q^s - 1.  The
    count and the invariants need only the solution counts of the Smith
    congruences; the points are listed, and the host field and zeta built,
    on first use.
    """

    def __init__(self, lattice, q, modulus, V, counts, invariants):
        self.lattice = lattice
        self.q = q
        self.modulus = modulus
        self._V = V
        self._counts = counts
        self.invariants = invariants

    def __len__(self):
        return math.prod(self._counts)

    @cached_property
    def points(self):
        """The vectors V b, b running in mixed radix (the last index fastest)
        over the solutions of the diagonal congruences d_i b_i = 0 mod n:
        the multiples of n / counts[i]."""
        n = self.modulus
        strides = [n // c for c in self._counts]
        points = []
        for idx in product(*map(range, self._counts)):
            b = [s * i % n for s, i in zip(strides, idx)]
            points.append(tuple(v % n for v in mat_vec(self._V, b)))
        return points

    @cached_property
    def zeta(self):
        """A primitive root of the host field GF(q^s), built on first use
        (an extension, without the field-size limit: only its powers are
        taken)."""
        p, a = prime_power(self.q)
        host = extension(FiniteField(p), a * self.lattice.order)
        return element_of_order(host, self.modulus)

    @property
    def host(self):
        return self.zeta.field

    def value(self, point, char_vector):
        """Evaluate the character (integer vector) at the point."""
        e = sum(int(c) * int(a) for c, a in zip(char_vector, point)) % self.modulus
        return self.zeta ** e


def enumerate_rational_points(lattice, q, limit=ENUMERATION_LIMIT):
    """The rational points, from the Smith form of the equivariance
    congruence (F^T - q I) a = 0 mod (q^s - 1), s the order of Frobenius:
    the count and the invariants at once, the points listed on first use."""
    order = torus_order(lattice, q)
    if order > limit:
        raise EnumerationLimitExceeded(f"torus has {order} points, limit {limit}")
    n = q ** lattice.order - 1
    g = lattice.rank
    F = lattice.frobenius
    A = [[F[j][i] - (q if i == j else 0) for j in range(g)] for i in range(g)]
    U, D, V = smith_normal_form(A)
    # d_i b_i = 0 mod n has gcd(d_i, n) solutions
    counts = [gcd(D[i][i], n) for i in range(g)]
    count = math.prod(counts)
    if count != order:
        raise PointCountMismatch(
            f"the congruence has {count} solutions, the torus {order} points")
    return RationalPoints(lattice, q, n, V, counts, zmat.group_invariants(counts))
