"""Brute-force ground truth at tiny scale, deliberately independent of the
streamlined engine: torus points by direct enumeration of equivariant
homomorphisms, cycle evaluation through the chain-of-ratios construction,
and divisibility by literal subgroup closure.

Cost, per request: the enumerated torus reads no node coordinate, only k,
the oracle's field and the dual graph with its Frobenius action.  The
oracle's fiber is built on the request's shared shape graph (inp.graph, one
object per two-line shape), so the torus is built once per (graph, k, field)
and shared (_shared_torus): enumerate_torus reads the orbit cycle basis off
the principal decomposition the graph keeps, lists the points and checks
each for equivariance, with literal q-th powers, on the first request with
that key, and a later one pays for none of it.  A request builds what reads
its own fiber: the chain walks over its node coordinates
(EnumeratedTorus.for_fiber), the connecting-map lifts, and the closure of
the subgroup that r-th powers and the lifts generate.  The closure runs
element by element in exponent coordinates: each generator's value tuple
is looked up among the enumerated points to find its exponent vector, and
products add those vectors modulo the component orders (see
EnumeratedTorus).  A trial reads its torus point off orbit entry by orbit
entry: the view takes each entry's literal chain-parameter products over
that entry's roots once per request (EnumeratedTorus.entry_products), since
the random divisors of tiny fields keep redrawing the same orbits, and the
trial multiplies its entries' products to their multiplicities, with one
field inverse per cycle, and makes one dictionary lookup.

Only the field layer, the shape's dual graph (with the cycle basis and
principal decomposition it keeps), the chain decomposition and the fiber
builder are shared with the engine; the torus points, evaluation and
membership are re-derived from first principles.  The connecting-map lifts
are shared input (the compensating-function recipe is the only route to
them), and agreement claims are scoped accordingly.

The engine's divisors are Galois orbits given by polynomials over k, and
its nodes lie in one field per node orbit.  The oracle works with points in
one absolute field: prepare builds its own fiber over a field that holds
every point it needs (field_degree), with the nodes found there
(hyperelliptic_special_fiber), and entry_points finds the roots of each
orbit in that field, which is affordable only at its tiny q.  No value moves
between the engine's fields and the oracle's: both embed only k.  The random
divisors both are checked on come from random_divisor, which draws its
orbits over k.
"""

import math
from functools import lru_cache
from itertools import chain, product

from .descent import (DivisorMeetsNode, SpecialFiber, SpecializedDivisor, _view,
                      phi_r_table, translate_to_degree_zero)
from .dual_graph import chain_decomposition
from .finite_field import (INF, Poly, element_of_order, embed, extension, factor,
                           power_residue, roots_in_extension)
from .torus import ENUMERATION_LIMIT
from .zmat import lcm, poly_eval_int, solve_int


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


class TrialsOutOfRange(OracleError):
    """A trial count below 0 or above TRIALS_LIMIT."""


class NotEquivariant(OracleError):
    pass


class UnexpectedRootCount(OracleError):
    """Fewer roots of the reduction of g than its degree in the oracle's field."""


class EvenCharacteristic(OracleError):
    """Random quadratic orbits are drawn by their discriminant, which needs
    odd characteristic."""


#: the most random divisors one request checks: every trial costs one
#: engine verdict and one product of per-entry chain products, so the count
#: bounds the loop (1000 trials on the 2380-point torus of
#: `oracle --q 13 --g x^4+2 --h x+2` take 0.6-0.7 s of CPU, the package
#: import included, on a 2-vCPU Xeon VM with Python 3.11.7)
TRIALS_LIMIT = 1000


def check_trials(trials):
    """TrialsOutOfRange unless 0 <= trials <= TRIALS_LIMIT."""
    if not 0 <= trials <= TRIALS_LIMIT:
        raise TrialsOutOfRange(
            f"--trials {trials} is outside 0..{TRIALS_LIMIT}")


def field_degree(polys):
    """Degree over k of the smallest field that holds every root of the
    polynomials over k (INF entries are skipped): the least common multiple
    of the degrees of their irreducible factors."""
    return lcm(*(f.degree for H in polys if H is not INF for f, _ in factor(H)))


def node_degree(inp):
    """Degree over k of the field of the nodes, the splitting field of the
    reduction of g: the least common multiple of its factor degrees."""
    return lcm(*(f.degree for f in inp.factors))


def hyperelliptic_special_fiber(inp, s):
    """The two-line special fiber over GF(q^s) on the shape graph
    (inp.graph), with the nodes found there, so s must be a multiple of
    node_degree.  In the graph's edge order: the rational nodes, embedded,
    then for each node orbit the smallest-encoding root of its factor found
    in GF(q^s), followed by that root's q-power conjugates.  SpecialFiber
    checks the roots against the graph's Frobenius action."""
    k = inp.k
    big = extension(k, s)
    nodes = [embed(k, big)(x) for x in inp.rational_nodes]
    for f in inp.factors:
        if f.degree == 1:
            continue
        roots = _orbit_roots(f, s, factors=((f, 1),))
        if len(roots) != f.degree:
            raise UnexpectedRootCount(
                f"found {len(roots)} of the {f.degree} nodes of an orbit in {big}")
        node = roots[0]
        for _ in range(f.degree):
            nodes.append(node)
            node = node.frob(k.m)
    return SpecialFiber(inp.graph, k, big, [(x, x) for x in nodes])


def prepare(inp, phi, generators, r):
    """Everything exhaustive_divisibility needs for one validated
    hyperelliptic input and target r: (degree, fiber, enumerated torus,
    subgroup).  The fiber is the oracle's own, with its nodes found in
    GF(q^degree), where degree is the least common multiple of the nodes'
    degree and the field_degree of the generators' function divisors (the
    zeros of h).  random_divisor draws its orbits to split in this field.
    The torus is the one shared for the shape graph, k and the fiber's
    field (_shared_torus), or, past TORUS_CACHE_POINTS points, one
    enumerated for this request, seen through this fiber
    (EnumeratedTorus.for_fiber).
    The subgroup is the frozenset of the positions (EnumeratedTorus.position)
    of the torus points that r-th powers and the connecting-map lifts
    generate: each generator is computed as a value tuple, looked up among
    the enumerated points, and the closure is taken element by element on
    the positions."""
    degree = lcm(node_degree(inp), field_degree(
        [H for gen in generators for _comp, H, _mult in gen.f_divisor.entries]))
    fiber = hyperelliptic_special_fiber(inp, degree)
    torus = _shared_torus(fiber.graph, fiber.k, fiber.E)
    if torus is None:
        torus = enumerate_torus(fiber.graph, fiber.k, fiber.E)
    torus = torus.for_fiber(fiber)
    powers = [torus.position(torus.power(pt, r)) for pt in torus.component_generators]
    lifts = [torus.position(vec)
             for _el, vec in nu_lift_vectors(torus, phi, generators, r)]
    return degree, fiber, torus, _closure(torus.orders, list(dict.fromkeys(powers + lifts)))


def _closure(orders, generators):
    """The subgroup that the given positions generate, as a frozenset of
    positions: the identity closed under adding each generator, exponent by
    exponent modulo the component orders."""
    identity = tuple(0 for _ in orders)
    subgroup = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = tuple([(a + b) % n for a, b, n in zip(cur, g, orders)])
            if nxt not in subgroup:
                subgroup.add(nxt)
                frontier.append(nxt)
    return frozenset(subgroup)


def divisor_points(divisor, fiber):
    """The points of an orbit divisor, as (component, point, multiplicity)
    with the points in the fiber's field: the roots of every orbit
    polynomial, found there, with multiplicity (entry_points)."""
    return [(comp, point, mult) for comp, H, mult in divisor.entries
            for point in entry_points(H, fiber)]


def entry_points(H, fiber):
    """The points of one orbit entry in the fiber's field: INF alone for
    INF, else the roots of H found there (PointsOutsideField unless all of
    them lie there)."""
    if H is INF:
        return (INF,)
    points = _orbit_roots(H, fiber.E.m // fiber.k.m)
    if len(points) != H.degree:
        raise PointsOutsideField(
            f"{len(points)} of the {H.degree} roots of an orbit lie in {fiber.E}")
    return points


@lru_cache(maxsize=512)
def _orbit_roots(H, s, factors=None):
    """The roots of a monic orbit polynomial in GF(q^s), given its
    factorization (a tuple, as factor returns it) when the caller has it;
    cached, since the random divisors of one fiber draw the same orbits
    again and again, and the oracle fibers of one curve find the same
    nodes."""
    if H.degree == 1:
        return (embed(H.field, extension(H.field, s))(-H.coeffs[0]),)
    return tuple(roots_in_extension(H, s, factors=factors))


def _require_zero_multidegree(deg):
    """NonzeroMultidegree unless the degrees per component are all zero, as
    chain evaluation needs (see chain_evaluate)."""
    if any(deg):
        raise NonzeroMultidegree(
            f"chain evaluation needs zero multidegree, got {tuple(deg)}")


def _random_orbit(k, t, rng):
    """A random monic irreducible polynomial of degree t in {1, 2} over k of
    odd characteristic: y - c, or y^2 + b y + c with b^2 - 4c a non-square
    (as c runs through k, so does the discriminant)."""
    b = k.from_int(rng.randrange(k.q))
    if t == 1:
        return Poly(k, [-b, k.one()])
    while True:
        c = k.from_int(rng.randrange(k.q))
        disc = b * b - c * 4
        if not disc.is_zero() and not power_residue(disc, 2):
            return Poly(k, [c, b, k.one()])


def random_divisor(fiber, r, rng, degree):
    """Random node-avoiding orbit divisor with multidegree in r*Z^v.

    On every component, up to two draws of an orbit over k of degree t in
    {1, 2} (see _random_orbit), skipped when t does not divide `degree` or
    the orbit meets a node, and entered with one random multiplicity.  A
    multiple of the standard point of each component then makes the
    multidegree divisible by r.  EvenCharacteristic when k has
    characteristic 2, which no hyperelliptic fiber has (p does not divide
    2d)."""
    k = fiber.k
    if k.p == 2:
        raise EvenCharacteristic(f"random orbits over {k} need odd characteristic")
    entries = []
    deg = [0] * fiber.graph.num_vertices
    for comp in range(len(deg)):
        for _ in range(rng.randrange(0, 3)):
            t = rng.choice([1, 2])
            if degree % t:
                continue
            H = _random_orbit(k, t, rng)
            if fiber.meets_nodes(comp, H):
                continue
            mult = rng.choice([-2, -1, 1, 2])
            entries.append((comp, H, mult))
            deg[comp] += mult * t
    for comp, dcomp in enumerate(deg):
        rem = (-dcomp) % r
        if rem:
            entries.append((comp, fiber.standard_point(comp), rem))
    return SpecializedDivisor(fiber, entries)


def orbit_cycle_basis(graph):
    """Generator cycles of the graph's principal decomposition together with
    their Galois iterates: a basis of the cycle lattice organized orbit by
    orbit.  It reads the decomposition the graph keeps.

    Returns (flat cycle list, layout), layout entries being (start index,
    orbit length, characteristic polynomial)."""
    flat = []
    layout = []
    for gen, comp in zip(graph.principal_generators(), graph.principal_components):
        start = len(flat)
        cur = gen
        for _ in range(comp.rank):
            flat.append(cur)
            cur = graph.sigma_cycle(cur)
        layout.append((start, comp.rank, comp.char_poly))
    return flat, layout


class EnumeratedTorus:
    """Every equivariant homomorphism from the cycle lattice to the units of
    the field E, stored as value tuples along the orbit basis.  cycles are
    those of orbit_cycle_basis on graph, and chains the chain decomposition
    of each cycle.

    Orbit generator i takes the powers of one root of unity eta_i of order
    orders[i], and the points are listed in mixed radix, the last exponent
    running fastest.  A point's position is its exponent vector
    (e_1, ..., e_c): it is the product of the eta_i^e_i spread along the
    orbits, so multiplying points adds positions modulo the orders.  The
    position of a value tuple is found by lookup (position), never by a
    logarithm; two enumerated points with one value tuple raise
    NotATorusPoint.

    None of this reads a node coordinate, so one torus serves every
    request with its graph, k and E (_shared_torus), and its fiber is None.
    A request evaluates through a view (for_fiber) that shares the points
    and adds its fiber, the chain walks over that fiber's node coordinates
    (walks, read by parameter_products) and the memo of each orbit entry's
    products (entry_products)."""

    def __init__(self, graph, k, E, cycles, orders, points, component_generators):
        self.fiber = None
        self.graph = graph
        self.k = k
        self.E = E
        self.cycles = cycles
        self.chains = [chain_decomposition(cycle) for cycle in cycles]
        self.orders = tuple(orders)
        self.points = points
        self.component_generators = component_generators
        self._positions = {}
        for position, point in zip(product(*(range(n) for n in self.orders)), points):
            key = self.key(point)
            if key in self._positions:
                raise NotATorusPoint(f"the points at positions {self._positions[key]} "
                                     f"and {position} are equal")
            self._positions[key] = position

    @staticmethod
    def key(point):
        return tuple(v.to_int() for v in point)

    def __len__(self):
        return len(self.points)

    def position(self, point):
        """The exponent vector of a value tuple; NotATorusPoint when the
        tuple is no enumerated point."""
        position = self._positions.get(self.key(point))
        if position is None:
            raise NotATorusPoint("value tuple is not a rational torus point")
        return position

    def point_at(self, position):
        """The enumerated point with the given exponent vector."""
        index = 0
        for e, n in zip(position, self.orders):
            index = index * n + e
        return self.points[index]

    def for_fiber(self, fiber):
        """This torus seen through a fiber on its graph, over its k and E: a
        view that shares everything above and adds the fiber and walks, the
        chain walks of each cycle over the fiber's node coordinates
        (_node_walks), with an empty entry_products memo."""
        # with FrameComponent's entry memos, oracle-crosscheck CPU fell 18%
        return _view(self, fiber=fiber, _entry_products={},
                     walks=[_node_walks(walks, fiber) for walks in self.chains])

    def entry_products(self, component, H):
        """The unnormalized chain-parameter products along the cycles
        (_parameter_product) of the points of one orbit entry with
        multiplicity 1 (entry_points), on a view's fiber; cached per
        (component, H), since a request's trials, translations and lifts
        draw the same orbits again."""
        key = (component, H)
        products = self._entry_products.get(key)
        if products is None:
            points = [(component, y, 1) for y in entry_points(H, self.fiber)]
            products = tuple(_parameter_product(walks, points, self.fiber.E)
                             for walks in self.walks)
            self._entry_products[key] = products
        return products

    def parameter_products(self, entries):
        """The unnormalized chain-parameter products along the cycles of the
        orbit entries (component, H, multiplicity), on a view's fiber: per
        cycle, the product of the entries' products (entry_products) to
        their multiplicities, with one inverse.  This is the scale-free
        companion of the engine's normalized evaluation, used for the trials
        and the connecting-map lifts (whose coherence across an orbit
        matters)."""
        one = self.E.one()
        nums = [one] * len(self.walks)
        dens = [one] * len(self.walks)
        for comp, H, mult in entries:
            side = nums if mult > 0 else dens
            for i, value in enumerate(self.entry_products(comp, H)):
                side[i] = side[i] * (value if abs(mult) == 1 else value ** abs(mult))
        return tuple(num / den for num, den in zip(nums, dens))

    def identity(self):
        one = self.E.one()
        return tuple(one for _ in self.cycles)

    def mul(self, a, b):
        return tuple(x * y for x, y in zip(a, b))

    def power(self, a, e):
        return tuple(x ** e for x in a)


def enumerate_torus(graph, k, E, limit=ENUMERATION_LIMIT):
    """All rational torus points of a dual graph with its Frobenius action
    over k, with values in the field E: choose a root of unity of the right
    order for each orbit generator and spread it along the orbit by the
    q-power rule, applied as the q-th power Frobenius.  Every tuple is
    verified to be equivariant for the Galois action on the cycle lattice,
    with q-th powers taken literally.  TooLarge, before any point is listed,
    past limit points.  Not cached: prepare looks its tori up in
    _shared_torus."""
    q = k.q
    m = k.m
    cycles, layout = orbit_cycle_basis(graph)
    total = math.prod(poly_eval_int(fpoly, q) for _start, _rank, fpoly in layout)
    if total > limit:
        raise TooLarge(f"torus has {total} points, enumeration limit {limit}")

    one = E.one()
    blocks = []
    orders = []
    component_generators = []
    for idx, (start, rank, fpoly) in enumerate(layout):
        order = poly_eval_int(fpoly, q)
        orders.append(order)
        eta = element_of_order(E, order)
        values = []
        cur = one
        for _ in range(order):
            block = []
            spread = cur
            for _ in range(rank):
                block.append(spread)
                spread = spread.frob(m)
            values.append(tuple(block))
            cur = cur * eta
        blocks.append(values)
        gen_point = []
        for jdx, (_s, r2, _f) in enumerate(layout):
            gen_point.extend(values[1 % order] if jdx == idx else [one] * r2)
        component_generators.append(tuple(gen_point))

    points = [tuple(chain.from_iterable(parts)) for parts in product(*blocks)]
    torus = EnumeratedTorus(graph, k, E, cycles, orders, points, component_generators)
    _verify_equivariance(torus)
    return torus


#: Oracle tori kept, one per shape graph, k and oracle field; the
#: oracle-crosscheck benchmark workload uses 14 (seeds 1-5), its largest
#: torus has 342 points.
TORUS_CACHE_SIZE = 32

#: A torus of more points is enumerated for its request and not kept, so a
#: request near ENUMERATION_LIMIT holds its points only while it runs.  A
#: kept torus takes about 200-250 bytes per point (4096 points over GF(17),
#: 0.85 MB), so a full cache holds at most about 16 MB.
TORUS_CACHE_POINTS = 2048


@lru_cache(maxsize=TORUS_CACHE_SIZE)
def _shared_torus(graph, k, E):
    """The enumerated torus of a dual graph over k with values in E, built
    once per process, or None when it has more than TORUS_CACHE_POINTS
    points (found before any point is listed): prepare then enumerates that
    torus for its own request.  The graph is keyed by identity: the shape
    graph (families._two_line_graph) is one object per shape, and a rebuilt
    graph only misses.  k is in the key because the Frobenius is the q-power
    map: GF(5^12) is reached from GF(5) and from GF(25) on one shape, with
    different tori."""
    try:
        return enumerate_torus(graph, k, E, limit=TORUS_CACHE_POINTS)
    except TooLarge:
        return None


def _verify_equivariance(torus):
    """Check e(sigma c) = e(c)^q on the whole orbit basis, for every point."""
    graph = torus.graph
    q = torus.k.q
    _basis, coords = graph.cycle_basis
    orbit_matrix = [list(row) for row in zip(*(coords(c) for c in torus.cycles))]
    sigma_in_basis = []
    for cyc in torus.cycles:
        _, sol = solve_int(orbit_matrix, list(coords(graph.sigma_cycle(cyc))))
        if sol is None:
            raise NotEquivariant("Frobenius does not map the orbit basis into "
                                 "its integer span")
        sigma_in_basis.append(sol)
    # per basis cycle, the (index, coefficient) pairs of its image; a
    # coefficient 1 needs no power
    images = [[(i, c) for i, c in enumerate(sol) if c] for sol in sigma_in_basis]
    one = torus.E.one()
    for point in torus.points:
        for j, image in enumerate(images):
            value = one
            for i, c in image:
                value = value * (point[i] if c == 1 else point[i] ** c)
            if value != point[j] ** q:
                raise NotEquivariant("enumerated point is not equivariant")


def _node_walks(walks, fiber):
    """The walks of a chain decomposition, each occurrence given as
    (component, coordinate of the entering node, coordinate of the leaving
    node) on that component of the fiber."""
    return [[(comp, fiber.node_coordinate(enter_edge, comp),
              fiber.node_coordinate(leave_edge, comp))
             for comp, enter_edge, leave_edge in walk]
            for walk in walks]


def _parameter_product(walks, points, E):
    """Product, over the occurrences (component, a, b) of the walks and the
    points (component, y, multiplicity) on that component, of t(y)^mult.
    t is the occurrence's unnormalized degree-1 parameter, zero at the
    entering node a and with a pole at the leaving node b: (y - a)/(y - b),
    1/(y - b) when a is INF, y - a when b is INF, and 1 at y = INF.
    Numerators and denominators are multiplied apart, with one inverse at
    the end.  DivisorMeetsNode for a point at a or b."""
    one = E.one()
    num = den = one
    for walk in walks:
        for comp, a, b in walk:
            for c, y, mult in points:
                if c != comp:
                    continue
                if y is INF:
                    if a is INF or b is INF:
                        raise DivisorMeetsNode("divisor point at an infinite node")
                    x = z = one
                elif y == a or y == b:
                    raise DivisorMeetsNode("divisor point at a node of the chain")
                else:
                    x = one if a is INF else y - a
                    z = one if b is INF else y - b
                if mult < 0:
                    x, z, mult = z, x, -mult
                if mult != 1:
                    x, z = x ** mult, z ** mult
                num = num * x
                den = den * z
    return num / den


def chain_evaluate(cycle, points, fiber):
    """Evaluation through the chain-of-ratios construction, on the points of
    a divisor (see divisor_points).

    For each occurrence of a component, form the auxiliary product
    f(z) = prod over divisor points y of (t(z) - t(y))^mult, where t is the
    occurrence's unnormalized parameter; the cycle evaluation is the product
    of f_next(node)/f_current(node) over the nodes joining consecutive
    occurrences.  At its own pole node each f tends to 1 because the
    exponents on every component sum to zero, which is why the divisor must
    have zero multidegree.  f_next at the shared node, where t_next
    vanishes, is the product of (-t_next(y))^mult, and its signs multiply
    to (-1)^0 = 1 since the multiplicities on the component sum to zero.
    Around a closed walk every occurrence is the next one once, so the
    evaluation is the product of t(y)^mult over all occurrences and points,
    taken with one inverse per cycle (_parameter_product)."""
    deg = [0] * fiber.graph.num_vertices
    for comp, _point, mult in points:
        deg[comp] += mult
    _require_zero_multidegree(deg)
    return _parameter_product(_node_walks(chain_decomposition(cycle), fiber),
                              points, fiber.E)


def nu_lift_vectors(torus, phi, generators, r):
    """Value tuples, along the orbit basis, of the compensating principal
    divisors for every element of the r-torsion of the component group, on
    the orbit entries of the generators' function divisors."""
    out = []
    for element, powers in phi_r_table(phi, generators, r):
        entries = [(c, H, m * power) for power, gen in zip(powers, generators)
                   if power for c, H, m in gen.f_divisor.entries]
        out.append((element, torus.parameter_products(entries)))
    return out


def exhaustive_divisibility(divisor, r, fiber, torus, subgroup):
    """Literal membership test: translate the orbit divisor to multidegree
    zero, read its torus point off by chain evaluation on its points in the
    oracle's fiber (that of the torus view, from prepare): the product of its
    orbit entries' chain-parameter products (parameter_products).  Then look
    its position up in the subgroup generated by r-th powers and the
    connecting-map lifts (see prepare).  NotATorusPoint when the evaluation
    is no enumerated point."""
    if r == 1:
        return True
    if any(d % r for d in divisor.multidegree):
        raise NonzeroMultidegree("the oracle needs an r-divisible multidegree")
    if torus.fiber.node_coords != fiber.node_coords:
        raise OracleError("the torus is seen through a fiber with other nodes")
    shifted = translate_to_degree_zero(divisor, r)
    _require_zero_multidegree(shifted.multidegree)
    return torus.position(torus.parameter_products(shifted.entries)) in subgroup
