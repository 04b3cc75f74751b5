"""Shared builders for randomized test instances."""

import random

from toricdescent import families, oracle
from toricdescent.finite_field import Poly


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
            return families.validate_genus4(k, families.CubicForm.from_vector(k, vec), r=r)
        except families.FamilyError:
            continue


def random_divisor(fiber, gens, r, rng):
    """A random orbit divisor (oracle.random_divisor) keyed, as the oracle
    command keys it, to the field of the nodes and of the zeros of h."""
    return oracle.random_divisor(fiber, r, rng, oracle.generator_degree(fiber, gens))


def rng_for(name):
    # string hashes are salted per process; crc32 keeps seeds reproducible
    import zlib
    return random.Random(zlib.crc32(name.encode()))
