"""The descent machinery: specialized divisors on a chain-of-lines special
fiber, normalized local function systems along 1-cycles, evaluation, the
connecting map out of the component group, r-divisibility verdicts, and
assembly of the prime-to-p rational torsion.

A special fiber here is a dual graph whose components are projective lines
with an affine coordinate; every node carries its coordinate on each incident
component.  All coordinates and divisor points live in one evaluation field E
(an extension of the residue field k), and the arithmetic Frobenius is the
q-power map on E.
"""

from . import zmat
from .dual_graph import chain_decomposition, fibral_lattice_membership, h1_basis
from .finite_field import INF, element_of_order, embed, residue_symbol
from .torus import principal_decomposition, NotPrincipal
from .zmat import gcd, poly_eval_int


class DescentError(Exception):
    pass


class MissingNodeCoordinates(DescentError):
    pass


class NoRationalBasePoint(DescentError):
    pass


class DivisorMeetsNode(DescentError):
    pass


class NotDivRDivisor(DescentError):
    pass


class DegreeMismatch(DescentError):
    pass


class UnsupportedTorus(DescentError):
    pass


# verdict outcomes
DIVISIBLE = "Divisible"
NOT_DIVISIBLE = "NotDivisible"
NOT_IN_PIC_R = "NotInPicBracketR"
UNDETERMINED = "Undetermined"


class SpecialFiber:
    """Dual graph plus node coordinates inside an evaluation field.

    node_coords[i] = (coordinate on tail component, coordinate on head
    component) for edge i; entries are E-elements or INF.
    """

    def __init__(self, graph, base_field, eval_field, node_coords):
        self.graph = graph
        self.k = base_field
        self.E = eval_field
        self.embed = embed(base_field, eval_field)
        if len(node_coords) != graph.num_edges:
            raise MissingNodeCoordinates("need one coordinate pair per node")
        self.node_coords = [tuple(pair) for pair in node_coords]
        self._validate()
        self._mu_generators = {}

    def frobq(self, x):
        """Arithmetic Frobenius of E over the residue field."""
        return x if x is INF else x.frob(self.k.m)

    def node_coordinate(self, edge_index, component):
        t, h, _ = self.graph.edges[edge_index]
        if component == t:
            return self.node_coords[edge_index][0]
        if component == h:
            return self.node_coords[edge_index][1]
        raise MissingNodeCoordinates(
            f"edge {edge_index} does not meet component {component}")

    def component_node_coords(self, component):
        out = []
        for i, (t, h, _) in enumerate(self.graph.edges):
            if t == component:
                out.append(self.node_coords[i][0])
            if h == component:
                out.append(self.node_coords[i][1])
        return out

    def _validate(self):
        for comp in range(self.graph.num_vertices):
            coords = self.component_node_coords(comp)
            keys = [c if c is INF else c.to_int() for c in coords]
            if len(set(keys)) != len(keys):
                raise MissingNodeCoordinates(
                    f"coincident node coordinates on component {comp}")
        # Galois generator must act on coordinates through the q-power map
        g = self.graph
        for i in range(g.num_edges):
            j = g.edge_perm[i]
            t, h, _ = g.edges[i]
            img_tail = self.frobq(self.node_coords[i][0])
            img_head = self.frobq(self.node_coords[i][1])
            if g.edge_sign[i] == 1:
                expect = (img_tail, img_head)
            else:
                expect = (img_head, img_tail)
            if self.node_coords[j] != expect:
                raise MissingNodeCoordinates(
                    f"node coordinates are not Galois-equivariant at edge {i}")

    def rational_coordinates(self, component, avoid=(), limit=None):
        """k-rational coordinates on the component, smallest first, then INF,
        skipping the avoided values."""
        avoided = {c if c is INF else c.to_int() for c in avoid}
        count = 0
        for n in range(self.k.q):
            x = self.embed(self.k.from_int(n))
            if x.to_int() not in avoided:
                yield x
                count += 1
                if limit is not None and count >= limit:
                    return
        if INF not in avoided:
            yield INF

    def standard_point(self, component, extra_avoid=()):
        """Deterministic node-avoiding rational point on the component."""
        avoid = list(self.component_node_coords(component)) + list(extra_avoid)
        for x in self.rational_coordinates(component, avoid):
            return x
        raise NoRationalBasePoint(f"component {component} has no free rational point")

    def mu_generator(self, n):
        """Generator of the order-n subgroup of E^* (cached)."""
        if n not in self._mu_generators:
            self._mu_generators[n] = element_of_order(self.E, n)
        return self._mu_generators[n]


class SpecializedDivisor:
    """Formal sum of node-avoiding points with component labels."""

    def __init__(self, fiber, points):
        self.fiber = fiber
        merged = {}
        for comp, point, mult in points:
            key = (comp, "inf") if point is INF else (comp, point.to_int())
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + mult)
            else:
                merged[key] = (point, mult)
        cleaned = []
        for (comp, _), (point, mult) in merged.items():
            if mult != 0:
                cleaned.append((comp, point, mult))
        cleaned.sort(key=lambda it: (it[0], it[1] is INF,
                                     0 if it[1] is INF else it[1].to_int()))
        self.points = tuple(cleaned)
        for _, point, _ in self.points:
            assert point is INF or point.field == fiber.E, "points must live in the evaluation field"
        for comp, point, _ in self.points:
            node_keys = {c if c is INF else c.to_int()
                         for c in fiber.component_node_coords(comp)}
            key = point if point is INF else point.to_int()
            if key in node_keys:
                raise DivisorMeetsNode(
                    f"point on component {comp} coincides with a node")
        deg = [0] * fiber.graph.num_vertices
        for comp, _, mult in self.points:
            deg[comp] += mult
        self.multidegree = tuple(deg)

    def __add__(self, other):
        return SpecializedDivisor(self.fiber, list(self.points) + list(other.points))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return SpecializedDivisor(self.fiber,
                                  [(c, pt, m * k) for c, pt, m in self.points])

    def total_degree(self):
        return sum(self.multidegree)

    def is_galois_stable(self):
        image = []
        g = self.fiber.graph
        for comp, point, mult in self.points:
            image.append((g.vertex_perm[comp], self.fiber.frobq(point), mult))
        return SpecializedDivisor(self.fiber, image).points == self.points

    def __repr__(self):
        body = ", ".join(f"C{c}:{'oo' if p is INF else p.to_int()}^{m}"
                         for c, p, m in self.points)
        return f"Divisor({body})"


class MobiusFactor:
    """Degree-1 local parameter on one occurrence of a component: vanishes at
    the entering node, has its pole at the leaving node, scaled so that the
    value at the base point is 1."""

    def __init__(self, fiber, component, enter, leave, base_rank=0):
        self.component = component
        self.enter = enter
        self.leave = leave
        candidates = fiber.rational_coordinates(component, avoid=[enter, leave])
        base = None
        for rank, cand in enumerate(candidates):
            if rank == base_rank:
                base = cand
                break
        if base is None:
            raise NoRationalBasePoint(
                f"not enough rational points on component {component}")
        self.base = base
        raw = self._raw_value(base, fiber)
        if raw is None or raw.is_zero():
            raise NoRationalBasePoint("base point meets the support of the parameter")
        self.scale = raw.inverse()

    def _raw_value(self, point, fiber=None):
        a, b = self.enter, self.leave
        if point is INF:
            if a is INF or b is INF:
                return None  # zero or pole at infinity
            return self.leave.field.one() if b is not INF else None
        if a is INF:
            return (point - b).inverse() if point != b else None
        if b is INF:
            return point - a
        if point == b:
            return None
        return (point - a) / (point - b)

    def value(self, point):
        raw = self._raw_value(point)
        if raw is None or raw.is_zero():
            raise DivisorMeetsNode("evaluation at a zero or pole of the parameter")
        return self.scale * raw


class LocalFunctionSystem:
    """Normalized local parameters for every occurrence of a component in a
    cycle, following the chain decomposition."""

    def __init__(self, cycle, fiber, base_rank=0):
        self.cycle = cycle
        self.fiber = fiber
        self.factors = []
        for walk in chain_decomposition(cycle):
            for comp, enter_edge, leave_edge in walk:
                enter = fiber.node_coordinate(enter_edge, comp)
                leave = fiber.node_coordinate(leave_edge, comp)
                self.factors.append(MobiusFactor(fiber, comp, enter, leave,
                                                 base_rank=base_rank))

    def evaluate(self, divisor):
        """Product of the parameters over the divisor points, multiplicities
        as exponents."""
        acc = self.fiber.E.one()
        for factor in self.factors:
            for comp, point, mult in divisor.points:
                if comp == factor.component:
                    acc = acc * factor.value(point) ** mult
        return acc


def build_local_function_system(cycle, fiber, base_rank=0):
    return LocalFunctionSystem(cycle, fiber, base_rank=base_rank)


def evaluate_cycle(system, divisor):
    return system.evaluate(divisor)


class FrameComponent:
    """One principal summand with its generator cycle and mu-group data."""

    def __init__(self, fiber, cycle, char_poly, base_rank=0):
        self.fiber = fiber
        self.cycle = cycle
        self.char_poly = char_poly
        self.order = poly_eval_int(char_poly, fiber.k.q)
        assert self.order > 0
        self.system = LocalFunctionSystem(cycle, fiber, base_rank=base_rank)
        self._eta = None

    @property
    def eta(self):
        if self._eta is None:
            self._eta = self.fiber.mu_generator(self.order)
        return self._eta

    def mu_log(self, value, g):
        """Logarithm mod g (g dividing the order) of a mu-group member against
        the stored generator: its residue symbol."""
        if value ** self.order != self.fiber.E.one():
            raise DescentError(
                "evaluation left the mu group; check divisor rationality")
        return residue_symbol(value, self.eta, self.order, g)


class TorusFrame:
    """A verified principal decomposition bound to cycles on the fiber."""

    def __init__(self, fiber, generator_cycles, base_rank=0):
        self.fiber = fiber
        basis, lattice, coords = h1_basis(fiber.graph)
        self.lattice = lattice
        try:
            decomposition = principal_decomposition(
                lattice, [coords(c) for c in generator_cycles])
        except NotPrincipal as exc:
            raise UnsupportedTorus(str(exc)) from exc
        self.components = [
            FrameComponent(fiber, cycle, comp.char_poly, base_rank=base_rank)
            for cycle, comp in zip(generator_cycles, decomposition.components)]
        self.decomposition = decomposition

    def torus_order(self):
        out = 1
        for c in self.components:
            out *= c.order
        return out

    def is_split(self):
        return all(c.char_poly == [-1, 1] for c in self.components)

    def is_normal(self):
        return all(c.char_poly == [-1] + [0] * (len(c.char_poly) - 2) + [1]
                   for c in self.components)

    def gamma_value(self, index, divisor):
        return self.components[index].system.evaluate(divisor)


class GammaClass:
    """Class of an evaluation in mu(T_i) / r mu(T_i), carried as a residue."""

    def __init__(self, residue, modulus, value):
        self.residue = residue % modulus if modulus else 0
        self.modulus = modulus
        self.value = value

    def is_trivial(self):
        return self.residue == 0

    def __eq__(self, other):
        return (isinstance(other, GammaClass)
                and (self.residue, self.modulus) == (other.residue, other.modulus))

    def __repr__(self):
        return f"GammaClass({self.residue} mod {self.modulus})"


def gamma_class(divisor, component, r):
    """Evaluate the component's cycle on a divisor whose multidegree is
    divisible by r; reduce modulo r-th powers of the mu group."""
    if any(d % r for d in divisor.multidegree):
        raise NotDivRDivisor(
            f"multidegree {divisor.multidegree} is not divisible by {r}")
    value = component.system.evaluate(divisor)
    n = component.order
    g = gcd(r, n)
    if g == 1:
        return GammaClass(0, 1, value)
    return GammaClass(component.mu_log(value, g), g, value)


class PhiGenerator:
    """A cyclic generator of the component group together with descent data:
    a representative multidegree and the specialization of a rational function
    whose divisor has multidegree -order * representative."""

    def __init__(self, element, order, rep_multidegree, f_divisor):
        self.element = element
        self.order = order
        self.rep_multidegree = tuple(int(v) for v in rep_multidegree)
        self.f_divisor = f_divisor
        expected = tuple(-order * v for v in self.rep_multidegree)
        if f_divisor.multidegree != expected:
            raise DegreeMismatch(
                f"function divisor degree {f_divisor.multidegree}, expected {expected}")


def compute_nu(rep_multidegree, f_divisor, frame, r):
    """Row of the connecting map: classes of the function divisor along every
    component generator, modulo r-th powers."""
    expected = tuple(-r * int(v) for v in rep_multidegree)
    if f_divisor.multidegree != expected:
        raise DegreeMismatch(
            f"function divisor degree {f_divisor.multidegree}, expected {expected}")
    return tuple(gamma_class(f_divisor, comp, r) for comp in frame.components)


def phi_r_table(phi, generators, r, fiber):
    """For every element of Phi[r], a compensating principal divisor built as
    a power product of the generators' functions.

    Returns a list of (element, combined function divisor, representative
    multidegree)."""
    if not generators:
        zero = tuple([0] * fiber.graph.num_vertices)
        return [(phi.identity(), SpecializedDivisor(fiber, []), zero)]
    entries = []
    choice_lists = []
    for gen in generators:
        g = gcd(r, gen.order)
        step = gen.order // g
        choice_lists.append([step * k for k in range(g)])
    idx = [0] * len(generators)
    while True:
        coeffs = [choice_lists[t][idx[t]] for t in range(len(generators))]
        element = phi.identity()
        fdiv = SpecializedDivisor(fiber, [])
        rep = [0] * fiber.graph.num_vertices
        for t, gen in enumerate(generators):
            a = coeffs[t]
            if a:
                element = phi.add(element, phi.scale(gen.element, a))
                power = a * r // gen.order
                fdiv = fdiv + gen.f_divisor.scale(power)
                rep = [u + a * v for u, v in zip(rep, gen.rep_multidegree)]
        entries.append((element, fdiv, tuple(rep)))
        t = len(generators) - 1
        while t >= 0:
            idx[t] += 1
            if idx[t] < len(choice_lists[t]):
                break
            idx[t] = 0
            t -= 1
        if t < 0:
            break
    return entries


class DescentVerdict:
    def __init__(self, outcome, witness=None, failure_table=None, path="per-component",
                 reason=None):
        self.outcome = outcome
        self.witness = witness
        self.failure_table = failure_table
        self.path = path
        self.reason = reason

    def __repr__(self):
        extra = f", witness={self.witness}" if self.witness is not None else ""
        return f"DescentVerdict({self.outcome}{extra})"


def divisibility_verdict(divisor, r, frame, phi, generators, matrix):
    """Decide whether the class of the divisor is divisible by r.

    The divisor must be Galois-stable (its class rational).  The geometric
    obstruction is checked first; then the divisor is shifted into the
    r-divisible-multidegree range using the generators' principal functions,
    and the arithmetic criterion is tested against every element of Phi[r].
    """
    fiber = divisor.fiber
    if r < 1:
        raise DescentError("r must be positive")
    if r % fiber.k.p == 0:
        raise DescentError("r must be prime to the residue characteristic")
    if r == 1:
        return DescentVerdict(DIVISIBLE, witness=phi.identity())
    deg = list(divisor.multidegree)
    if not fibral_lattice_membership(deg, r, matrix):
        return DescentVerdict(NOT_IN_PIC_R,
                              reason="multidegree outside r*Z^v + fibral lattice")
    if any(d % r for d in deg):
        divisor = _shift_to_div_r(divisor, r, generators)
        if divisor is None:
            return DescentVerdict(
                UNDETERMINED,
                reason="no available principal function reaches an r-divisible multidegree")
    path = "norm" if frame.is_normal() and (fiber.k.q - 1) % r == 0 else "per-component"
    table = phi_r_table(phi, generators, r, fiber)
    failures = {}
    for element, fdiv, _rep in table:
        shifted = divisor + fdiv
        classes = [gamma_class(shifted, comp, r) for comp in frame.components]
        if all(c.is_trivial() for c in classes):
            return DescentVerdict(DIVISIBLE, witness=element, path=path)
        failures[element] = tuple(c.residue for c in classes)
    return DescentVerdict(NOT_DIVISIBLE, failure_table=failures, path=path)


def _shift_to_div_r(divisor, r, generators):
    """Add a principal power product of the generator functions so that the
    multidegree becomes divisible by r; None when unreachable."""
    fiber = divisor.fiber
    v = fiber.graph.num_vertices
    if not generators:
        return None
    cols = [gen.f_divisor.multidegree for gen in generators]
    A = [[cols[t][i] for t in range(len(generators))] for i in range(v)]
    b = [-d for d in divisor.multidegree]
    sol = zmat.solve_mod(A, b, r)
    if sol is None:
        return None
    out = divisor
    for t, s in enumerate(sol):
        if s:
            out = out + generators[t].f_divisor.scale(s)
    assert all(d % r == 0 for d in out.multidegree)
    return out


def torsion_structure(frame, phi, generators, p=None):
    """Invariant factors of the prime-to-p rational torsion of the Jacobian,
    resolved from the extension of the component group by the torus points.

    Presentation: one generator per mu summand (order n_i) plus one lift per
    cyclic generator of the prime-to-p component group; the lift of a
    generator of order n satisfies n * lift = an explicit torus element read
    off from the connecting map at r = n.  The supplied generators must split
    the component group as a direct sum of the cyclic subgroups they generate
    (the family builders construct exactly such sets).
    """
    p = p if p is not None else frame.fiber.k.p
    torus_orders = [comp.order for comp in frame.components]
    reduced = []
    for gen in generators:
        order = gen.order
        ppart = 1
        while order % p == 0:
            order //= p
            ppart *= p
        if order == 1:
            continue
        if ppart == 1:
            reduced.append((gen, order, gen.rep_multidegree))
        else:
            elem = phi.scale(gen.element, ppart)
            rep = tuple(ppart * x for x in gen.rep_multidegree)
            reduced.append((PhiGenerator(elem, order, rep, gen.f_divisor), order, rep))
    k = len(torus_orders)
    rows = []
    for i, n in enumerate(torus_orders):
        rows.append([n if j == i else 0 for j in range(k + len(reduced))])
    for t, (gen, order, rep) in enumerate(reduced):
        row = [0] * (k + len(reduced))
        nu_row = compute_nu(rep, gen.f_divisor, frame, order)
        for i, cls in enumerate(nu_row):
            row[i] = -cls.residue
        row[k + t] = order
        rows.append(row)
    diag = zmat.snf_diagonal(rows)
    invariants = sorted(d for d in diag if d > 1)
    return invariants


def translate_to_degree_zero(divisor, r):
    """Subtract r-divisible multiples of standard rational points so that the
    multidegree vanishes; the class changes by an r-divisible class only."""
    fiber = divisor.fiber
    if any(d % r for d in divisor.multidegree):
        raise NotDivRDivisor("translation needs an r-divisible multidegree")
    shift = []
    for comp, d in enumerate(divisor.multidegree):
        if d:
            support = [pt for c, pt, _ in divisor.points if c == comp]
            point = fiber.standard_point(comp, extra_avoid=support)
            shift.append((comp, point, -d))
    return divisor + SpecializedDivisor(fiber, shift)
