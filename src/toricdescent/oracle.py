"""Brute-force ground truth at tiny scale, deliberately independent of the
streamlined engine: torus points by direct enumeration of equivariant
homomorphisms, cycle evaluation through the chain-of-ratios construction,
and divisibility by literal subgroup closure.

Only the field layer and the combinatorial graph plumbing are shared with
the engine; evaluation and membership are re-derived from first principles.
The connecting-map lifts are shared input (the compensating-function recipe
is the only route to them), and agreement claims are scoped accordingly.

The engine's divisors are Galois orbits given by polynomials over k.  The
oracle works with points: it lifts the fiber into a field that holds every
point it needs (lift_fiber, field_degree) and finds the roots of each orbit
there (divisor_points), which is affordable only at its tiny q.  The random
divisors both are checked on come from random_divisor.
"""

from functools import lru_cache

from .descent import (DivisorMeetsNode, SpecialFiber, SpecializedDivisor,
                      phi_r_table, translate_to_degree_zero)
from .dual_graph import chain_decomposition, h1_basis, principal_cycle_generators
from .finite_field import (INF, Poly, embed, embed_over, extension, factor,
                           roots_in_extension)
from .torus import principal_component, _solve_rational
from .zmat import lcm, poly_eval_int


class OracleError(Exception):
    pass


class TooLarge(OracleError):
    pass


class NonzeroMultidegree(OracleError):
    pass


class PointsOutsideField(OracleError):
    pass


class NotATorusPoint(OracleError):
    pass


ENUMERATION_LIMIT = 10 ** 6


def field_degree(fiber, divisors):
    """Degree over k of the field of the nodes and of every point of the
    given orbit divisors: the least common multiple of the nodes' degree and
    the degrees of the irreducible factors of every orbit polynomial."""
    s = fiber.E.m // fiber.k.m
    for divisor in divisors:
        for _comp, H, _mult in divisor.entries:
            if H is not INF:
                for f, _ in factor(H):
                    s = lcm(s, f.degree)
    return s


def generator_degree(fiber, generators):
    """Degree over k of the oracle's field for a fiber: it holds the nodes
    and the points of the generators' function divisors (the zeros of h).
    random_divisor draws its points from the subfields of this field."""
    return field_degree(fiber, [gen.f_divisor for gen in generators])


def prepare(fiber, phi, generators, r):
    """Everything exhaustive_divisibility needs for one fiber and target r:
    (degree, lifted fiber, enumerated torus, connecting-map lifts), with
    degree as in generator_degree."""
    degree = generator_degree(fiber, generators)
    ofiber = lift_fiber(fiber, degree)
    torus = enumerate_torus(ofiber)
    lifts = nu_lift_vectors(ofiber, torus, phi, generators, r)
    return degree, ofiber, torus, lifts


def lift_fiber(fiber, degree):
    """The same fiber over GF(q^s), s = lcm(degree of the nodes, degree):
    same graph, node coordinates embedded over k.  The fiber itself when its
    field is already large enough."""
    k = fiber.k
    s = lcm(fiber.E.m // k.m, degree)
    big = extension(k, s)
    if big == fiber.E:
        return fiber
    emb = embed_over(k, fiber.E, big)
    coords = [tuple(c if c is INF else emb(c) for c in pair)
              for pair in fiber.node_coords]
    return SpecialFiber(fiber.graph, k, big, coords)


def divisor_points(divisor, fiber):
    """The points of an orbit divisor, as (component, point, multiplicity)
    with the points in the fiber's field: the roots of every orbit
    polynomial, found there, with multiplicity."""
    s = fiber.E.m // fiber.k.m
    out = []
    for comp, H, mult in divisor.entries:
        if H is INF:
            out.append((comp, INF, mult))
            continue
        points = _orbit_roots(H, s)
        if len(points) != H.degree:
            raise PointsOutsideField(
                f"{len(points)} of the {H.degree} roots of an orbit lie in {fiber.E}")
        out.extend((comp, point, mult) for point in points)
    return out


@lru_cache(maxsize=512)
def _orbit_roots(H, s):
    """The roots of a monic orbit polynomial in GF(q^s); cached, since the
    random divisors of one fiber draw the same orbits again and again."""
    if H.degree == 1:
        return (embed(H.field, extension(H.field, s))(-H.coeffs[0]),)
    return tuple(roots_in_extension(H, s))


def _multidegree(points, fiber):
    deg = [0] * fiber.graph.num_vertices
    for comp, _point, mult in points:
        deg[comp] += mult
    return tuple(deg)


def _frobenius_orbit(x, step):
    """x, x^(p^step), x^(p^(2 step)), ... up to the first repetition."""
    orbit = [x]
    nxt = x.frob(step)
    while nxt != x:
        orbit.append(nxt)
        nxt = nxt.frob(step)
    return orbit


def _conjugate_orbits(x, k):
    """The minimal polynomials over k of the conjugates of x over GF(p),
    each once: the Frobenius orbit of x over the prime field, grouped into
    its orbits over k."""
    field = x.field
    if field == k:
        # every conjugate is a point of k
        return list({c.to_int(): Poly(k, [-c, k.one()])
                     for c in _frobenius_orbit(x, 1)}.values())
    emb = embed(k, field)
    seen = set()
    out = []
    cur = x
    for _ in range(k.m):
        if cur.to_int() not in seen:
            orbit = _frobenius_orbit(cur, k.m)
            seen.update(y.to_int() for y in orbit)
            H = Poly(field, [1])
            for y in orbit:
                H = H * Poly(field, [-y, field.one()])
            out.append(Poly(k, [emb.section(c) for c in H.coeffs]))
        cur = cur.frob(1)
    return out


def random_divisor(fiber, r, rng, degree):
    """Random node-avoiding orbit divisor with multidegree in r*Z^v.

    On every component, up to two draws: an element x of
    GF(q^t), t in {1, 2} dividing `degree` (draws with t not dividing it are
    skipped), whose conjugates over GF(p) enter with one random multiplicity
    unless one of them is a node.  A multiple of the standard point of each
    component then makes the multidegree divisible by r."""
    k = fiber.k
    entries = []
    for comp in range(fiber.graph.num_vertices):
        for _ in range(rng.randrange(0, 3)):
            t = rng.choice([1, 2])
            if degree % t:
                continue
            sub = extension(k, t)
            orbits = _conjugate_orbits(sub.from_int(rng.randrange(sub.q)), k)
            if any(fiber.meets_nodes(comp, H) for H in orbits):
                continue
            mult = rng.choice([-2, -1, 1, 2])
            entries.extend((comp, H, mult) for H in orbits)
    div = SpecializedDivisor(fiber, entries)
    fix = []
    for comp, dcomp in enumerate(div.multidegree):
        rem = (-dcomp) % r
        if rem:
            fix.append((comp, fiber.standard_point(comp), rem))
    return div + SpecializedDivisor(fiber, fix)


def orbit_cycle_basis(graph):
    """Generator cycles of the principal decomposition together with their
    Galois iterates: a basis of the cycle lattice organized orbit by orbit.

    Returns (flat cycle list, layout), layout entries being
    (start index, orbit length, characteristic polynomial)."""
    basis, lattice, coords = h1_basis(graph)
    generators = principal_cycle_generators(graph, basis, lattice, coords)
    flat = []
    layout = []
    for gen in generators:
        comp = principal_component(lattice, coords(gen))
        start = len(flat)
        cur = gen
        for _ in range(comp.rank):
            flat.append(cur)
            cur = graph.sigma_cycle(cur)
        layout.append((start, comp.rank, comp.char_poly))
    return flat, layout


class EnumeratedTorus:
    """Every equivariant homomorphism from the cycle lattice to the units of
    the evaluation field, stored as value tuples along the orbit basis."""

    def __init__(self, fiber, cycles, layout, points, component_generators):
        self.fiber = fiber
        self.cycles = cycles
        self.layout = layout
        self.points = points
        self.component_generators = component_generators
        self._index = {self.key(pt) for pt in points}

    @staticmethod
    def key(point):
        return tuple(v.to_int() for v in point)

    def __len__(self):
        return len(self.points)

    def __contains__(self, point):
        return self.key(point) in self._index

    def identity(self):
        one = self.fiber.E.one()
        return tuple(one for _ in self.cycles)

    def mul(self, a, b):
        return tuple(x * y for x, y in zip(a, b))

    def power(self, a, e):
        return tuple(x ** e for x in a)


def enumerate_torus(fiber, limit=ENUMERATION_LIMIT):
    """All rational torus points: choose a root of unity of the right order
    for each orbit generator and spread it along the orbit by the q-power
    rule.  Every tuple is verified to be equivariant for the Galois action on
    the cycle lattice."""
    graph = fiber.graph
    q = fiber.k.q
    cycles, layout = orbit_cycle_basis(graph)
    total = 1
    for _start, _rank, fpoly in layout:
        total *= poly_eval_int(fpoly, q)
    if total > limit:
        raise TooLarge(f"torus has {total} points, enumeration limit {limit}")

    one = fiber.E.one()
    blocks = []
    component_generators = []
    for idx, (start, rank, fpoly) in enumerate(layout):
        order = poly_eval_int(fpoly, q)
        eta = fiber.mu_generator(order)
        values = []
        cur = one
        for _ in range(order):
            block = []
            spread = cur
            for _ in range(rank):
                block.append(spread)
                spread = spread ** q
            values.append(tuple(block))
            cur = cur * eta
        blocks.append(values)
        gen_point = []
        for jdx, (_s, r2, _f) in enumerate(layout):
            gen_point.extend(values[1 % order] if jdx == idx else [one] * r2)
        component_generators.append(tuple(gen_point))

    points = [()]
    for values in blocks:
        points = [head + block for head in points for block in values]
    assert len(points) == total
    torus = EnumeratedTorus(fiber, cycles, layout, points, component_generators)
    _verify_equivariance(torus)
    return torus


def _verify_equivariance(torus):
    """Check e(sigma c) = e(c)^q on the whole orbit basis, for every point."""
    graph = torus.fiber.graph
    q = torus.fiber.k.q
    _basis, _lattice, coords = h1_basis(graph)
    orbit_coords = [list(coords(c)) for c in torus.cycles]
    sigma_in_basis = []
    for cyc in torus.cycles:
        img = list(coords(graph.sigma_cycle(cyc)))
        sol = _solve_rational(orbit_coords, img)
        assert sol is not None and all(c.denominator == 1 for c in sol)
        sigma_in_basis.append([int(c) for c in sol])
    for point in torus.points:
        for j in range(len(torus.cycles)):
            value = torus.fiber.E.one()
            for c, v in zip(sigma_in_basis[j], point):
                if c:
                    value = value * v ** c
            assert value == point[j] ** q, "enumerated point is not equivariant"


def _plain_parameter_value(fiber, comp, enter_edge, leave_edge, point):
    """Unnormalized degree-1 parameter (zero at the entering node, pole at
    the leaving node) evaluated at a point of the component."""
    a = fiber.node_coordinate(enter_edge, comp)
    b = fiber.node_coordinate(leave_edge, comp)
    if point is INF:
        if a is INF or b is INF:
            raise DivisorMeetsNode("divisor point at an infinite node")
        return fiber.E.one()
    if a is INF:
        out = None if point == b else (point - b).inverse()
    elif b is INF:
        out = point - a
        out = None if out.is_zero() else out
    else:
        out = None if (point == a or point == b) else (point - a) / (point - b)
    if out is None or out.is_zero():
        raise DivisorMeetsNode("divisor point at a node of the chain")
    return out


def plain_cycle_value(cycle, points, fiber):
    """Product of the unnormalized chain parameters over the divisor's
    points: the scale-free companion of the engine's normalized evaluation,
    used for the connecting-map lifts (whose coherence across an orbit
    matters)."""
    acc = fiber.E.one()
    for walk in chain_decomposition(cycle):
        for comp, enter_edge, leave_edge in walk:
            for c, point, mult in points:
                if c == comp:
                    acc = acc * _plain_parameter_value(
                        fiber, comp, enter_edge, leave_edge, point) ** mult
    return acc


def chain_evaluate(cycle, points, fiber):
    """Evaluation through the chain-of-ratios construction, on the points of
    a divisor (see divisor_points).

    For each occurrence of a component, form the auxiliary product
    f(z) = prod over divisor points y of (t(z) - t(y))^mult, where t is the
    occurrence's unnormalized parameter; the cycle evaluation is the product
    of f_next(node)/f_current(node) over the nodes joining consecutive
    occurrences.  At its own pole node each f tends to 1 because the
    exponents on every component sum to zero, which is why the divisor must
    have zero multidegree."""
    deg = _multidegree(points, fiber)
    if any(deg):
        raise NonzeroMultidegree(
            f"chain evaluation needs zero multidegree, got {deg}")
    E = fiber.E
    total = E.one()
    for walk in chain_decomposition(cycle):
        n = len(walk)
        for idx in range(n):
            nxt = (idx + 1) % n
            comp, enter_edge, _leave = walk[nxt]
            # f_next evaluated where t_next vanishes (the shared node), times
            # 1/f_current at its pole (which is 1)
            acc = E.one()
            for c, point, mult in points:
                if c == comp:
                    t_y = _plain_parameter_value(fiber, comp, enter_edge,
                                                 walk[nxt][2], point)
                    acc = acc * (E.zero() - t_y) ** mult
            total = total * acc
    return total


def nu_lift_vectors(fiber, torus, phi, generators, r):
    """Value tuples, along the orbit basis, of the compensating principal
    divisors for every element of the r-torsion of the component group."""
    gen_points = [divisor_points(gen.f_divisor, fiber) for gen in generators]
    out = []
    for element, powers, _rep in phi_r_table(phi, generators, r, fiber):
        points = [(c, pt, m * power) for power, pts in zip(powers, gen_points)
                  if power for c, pt, m in pts]
        vec = tuple(plain_cycle_value(cyc, points, fiber) for cyc in torus.cycles)
        out.append((element, vec))
    return out


def exhaustive_divisibility(divisor, r, fiber, torus, lifts):
    """Literal membership test: translate the orbit divisor to multidegree
    zero, read its torus point off by chain evaluation on its points in the
    oracle's fiber, and check membership in the subgroup generated by r-th
    powers and the connecting-map lifts."""
    if r == 1:
        return True
    if any(d % r for d in divisor.multidegree):
        raise NonzeroMultidegree("the oracle needs an r-divisible multidegree")
    points = divisor_points(translate_to_degree_zero(divisor, r), fiber)
    x = tuple(chain_evaluate(cyc, points, fiber) for cyc in torus.cycles)
    if x not in torus:
        raise NotATorusPoint("evaluation vector is not a rational torus point")
    generators = [torus.power(pt, r) for pt in torus.component_generators]
    generators += [vec for _el, vec in lifts]
    subgroup = {torus.key(torus.identity())}
    frontier = [torus.identity()]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = torus.mul(cur, g)
            key = torus.key(nxt)
            if key not in subgroup:
                subgroup.add(key)
                frontier.append(nxt)
    return torus.key(x) in subgroup
