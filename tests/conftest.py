"""Shared builders for randomized test instances, and small helpers the
tests need but the package does not."""

import random

import pytest

from toricdescent import (cli, descent, dual_graph, families, finite_field, oracle,
                          parsing, torus, zmat)
from toricdescent.finite_field import Poly, factor
from toricdescent.torus import CharacterLattice


def random_hyperelliptic(k, d, rng):
    """A random valid two-line input with monic degree-d g."""
    while True:
        g = Poly(k, [k.from_int(rng.randrange(k.q)) for _ in range(d)] + [k.one()])
        e = rng.randrange(0, 2 * d + 1)
        h = Poly(k, [k.from_int(rng.randrange(k.q)) for _ in range(e)]
                 + [k.from_int(rng.randrange(1, k.q))])
        try:
            return families.validate_hyperelliptic(k, g, h)
        except families.FamilyError:
            continue


def random_genus4(k, rng, r=2):
    while True:
        vec = [k.from_int(rng.randrange(k.q)) for _ in families.MONOMIALS]
        try:
            return families.validate_genus4(k, cubic_from_vector(k, vec), r=r)
        except families.FamilyError:
            continue


def random_divisor(fiber, gens, r, rng):
    """A random orbit divisor (oracle.random_divisor) keyed, as the oracle
    command keys it, to the field of the nodes and of the zeros of h: a
    node's degree over k is the length of its edge orbit."""
    degree = oracle.field_degree(
        [H for gen in gens for _c, H, _m in gen.f_divisor.entries])
    for orbit in fiber.graph.edge_orbits():
        degree = zmat.lcm(degree, len(orbit))
    return oracle.random_divisor(fiber, r, rng, degree)


def random_unimodular(n, rng):
    """A product of random elementary row operations on the n x n identity."""
    U = zmat.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randrange(-2, 3)
            for t in range(n):
                U[i][t] += c * U[j][t]
    return U


def rng_for(name):
    # string hashes are salted per process; crc32 keeps seeds reproducible
    import zlib
    return random.Random(zlib.crc32(name.encode()))


def cubic_from_vector(field, vec):
    """The cubic form with the given coefficients in report order."""
    return families.CubicForm(field, dict(zip(families.MONOMIALS, vec)))


def roots(f):
    """Roots of f in its own field, with multiplicity, ascending encoding."""
    out = []
    for g, mult in factor(f):
        if g.degree == 1:
            out.extend([-g.coeffs[0]] * mult)
    out.sort(key=lambda r: r.to_int())
    return out


def multiplicative_order(x):
    """Order of a nonzero field element in the unit group."""
    order = x.field.q - 1
    for prm in zmat.factorize(order):
        while order % prm == 0 and x ** (order // prm) == x.field.one():
            order //= prm
    return order


def project_with_base(phi, multidegree, base_index=0):
    """Class in the component group of a multidegree of any total degree,
    after compensating the degree at the base component."""
    deg = list(multidegree)
    deg[base_index] -= sum(deg)
    return phi.project(deg)


def split_lattice(rank):
    """Character lattice of the split torus of the given rank."""
    return CharacterLattice(zmat.identity(rank))


def norm_lattice(degree):
    """Character lattice of the Weil restriction of the multiplicative group
    from the degree-g extension: cyclic permutation action."""
    F = [[0] * degree for _ in range(degree)]
    for j in range(degree):
        F[(j + 1) % degree][j] = 1
    return CharacterLattice(F)


def record_calls(monkeypatch, function):
    """The argument tuples of every call of a module-level function of the
    package, patched under every name that binds it in a package module
    (modules import zmat's functions by name, for instance)."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for module in (cli, descent, dual_graph, families, finite_field, oracle,
                   parsing, torus, zmat):
        for name, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, name, recorded)
    return calls


#: the per-process caches of shared structure: two-line dual graphs per
#: shape, genus-4 structures per residue field and oracle tori per shape
#: graph, residue field and oracle field
SHAPE_CACHES = (families._two_line_graph, families._genus4_structure,
                oracle._shared_torus)


@pytest.fixture
def cold_shape_caches():
    """Empties the shape caches before and after the test, so that it sees
    a cold request's work and a constant it patches (GENUS4_MATRIX,
    TORUS_CACHE_POINTS) or a function it patches (element_of_order) is not
    kept past it."""
    for cache in SHAPE_CACHES:
        cache.cache_clear()
    yield SHAPE_CACHES
    for cache in SHAPE_CACHES:
        cache.cache_clear()
