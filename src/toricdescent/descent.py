"""The descent machinery: specialized divisors on a chain-of-lines special
fiber, normalized local function systems along 1-cycles, evaluation, the
connecting map out of the component group, r-divisibility verdicts, and
assembly of the prime-to-p rational torsion.

A special fiber here is a dual graph whose components are projective lines
with an affine coordinate; every node carries its coordinate on each incident
component.  The node coordinates live in the evaluation field E, the field
of the nodes over the residue field k, and the arithmetic Frobenius is the
q-power map on E.

A divisor is a sum of Galois orbits: an entry (component, H, multiplicity)
stands for the roots of a monic H over k, and (component, INF, multiplicity)
for the point at infinity, so every divisor is rational by construction and
its points never need to be found.  A degree-1 local function
s (t - a)/(t - b) multiplies over the roots of H to s^n H(a)/H(b) (see
MobiusFactor.over_roots), so evaluation only needs H at the nodes, in E.
"""

from . import zmat
from .dual_graph import chain_decomposition, fibral_lattice_membership, h1_basis
from .finite_field import INF, FieldElement, Poly, element_of_order, embed, residue_symbol
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


class NotAnOrbit(DescentError):
    """A divisor entry that is neither INF, an element of k, nor a
    polynomial of positive degree over k."""


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
        self._component_coords = []
        for comp in range(graph.num_vertices):
            coords = []
            for i, (t, h, _) in enumerate(graph.edges):
                if t == comp:
                    coords.append(self.node_coords[i][0])
                if h == comp:
                    coords.append(self.node_coords[i][1])
            self._component_coords.append(tuple(coords))
        self._validate()
        self._mu_generators = {}
        # finite node coordinates, once each, the values of orbit polynomials
        # there and whether an orbit meets a component's nodes
        self._finite_nodes = {}
        for pair in self.node_coords:
            for c in pair:
                if c is not INF:
                    self._finite_nodes.setdefault(c.to_int(), c)
        self._node_values = {}
        self._meets = {}

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
        return self._component_coords[component]

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

    def node_values(self, H):
        """{encoding of a finite node coordinate c: H(c)} for a polynomial H
        over k, its coefficients embedded into E (cached per H)."""
        values = self._node_values.get(H)
        if values is None:
            lifted = H.map_coeffs(self.embed, self.E)
            values = {key: lifted(c) for key, c in self._finite_nodes.items()}
            self._node_values[H] = values
        return values

    def meets_nodes(self, component, H):
        """Whether the orbit entry H (a polynomial over k, or INF) contains a
        node of the component (cached)."""
        key = (component, H)
        meets = self._meets.get(key)
        if meets is None:
            coords = self.component_node_coords(component)
            if H is INF:
                meets = INF in coords
            else:
                values = self.node_values(H)
                meets = any(values[c.to_int()].is_zero()
                            for c in coords if c is not INF)
            self._meets[key] = meets
        return meets

    def rational_coordinates(self, component, avoid=(), limit=None):
        """k-rational coordinates on the component, as elements of k,
        smallest first, then INF, skipping the avoided values (elements of E
        or INF)."""
        avoided = {c if c is INF else c.to_int() for c in avoid}
        count = 0
        for n in range(self.k.q):
            x = self.k.from_int(n)
            if self.embed(x).to_int() not in avoided:
                yield x
                count += 1
                if limit is not None and count >= limit:
                    return
        if INF not in avoided:
            yield INF

    def standard_point(self, component, extra_avoid=()):
        """Deterministic rational point on the component (an element of k, or
        INF) that avoids the nodes and the orbits in extra_avoid (polynomials
        over k, or INF)."""
        polys = [H for H in extra_avoid if H is not INF]
        for x in self.rational_coordinates(component,
                                           self.component_node_coords(component)):
            if x is INF:
                if INF not in extra_avoid:
                    return x
            elif all(not H(x).is_zero() for H in polys):
                return x
        raise NoRationalBasePoint(f"component {component} has no free rational point")

    def mu_generator(self, n):
        """Generator of the order-n subgroup of E^* (cached)."""
        if n not in self._mu_generators:
            self._mu_generators[n] = element_of_order(self.E, n)
        return self._mu_generators[n]


def _as_orbit(k, H):
    """A divisor entry as INF or a monic polynomial over k of degree >= 1;
    an element x of k stands for the orbit of the point x, that is t - x."""
    if H is INF:
        return INF
    if isinstance(H, FieldElement) and H.field == k:
        return Poly(k, [-H, k.one()])
    if isinstance(H, Poly) and H.field == k and H.degree >= 1:
        return H if H.lead() == k.one() else H.monic()
    raise NotAnOrbit(f"divisor entry {H!r} is not INF, an element of {k} or a "
                     f"polynomial of positive degree over {k}")


class SpecializedDivisor:
    """Formal sum of node-avoiding Galois orbits with component labels.

    Entries are (component, H, multiplicity) with H a monic polynomial over k
    (the orbit of its roots, with multiplicity) or INF.  Equal entries merge;
    entries whose polynomials share roots stay apart, which evaluation does
    not mind."""

    def __init__(self, fiber, entries):
        self.fiber = fiber
        merged = {}
        for comp, H, mult in entries:
            key = (comp, _as_orbit(fiber.k, H))
            merged[key] = merged.get(key, 0) + mult
        cleaned = [(comp, H, mult) for (comp, H), mult in merged.items() if mult]
        cleaned.sort(key=lambda it: (it[0], it[1] is INF,
                                     0 if it[1] is INF else it[1].encoding()))
        self.entries = tuple(cleaned)
        deg = [0] * fiber.graph.num_vertices
        for comp, H, mult in self.entries:
            if fiber.meets_nodes(comp, H):
                raise DivisorMeetsNode(
                    f"an orbit on component {comp} contains a node")
            deg[comp] += mult * (1 if H is INF else H.degree)
        self.multidegree = tuple(deg)

    def __add__(self, other):
        return SpecializedDivisor(self.fiber, self.entries + other.entries)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return SpecializedDivisor(self.fiber,
                                  [(c, H, m * k) for c, H, m in self.entries])

    def __repr__(self):
        body = ", ".join(
            f"C{c}:{'oo' if H is INF else [x.to_int() for x in H.coeffs]}^{m}"
            for c, H, m in self.entries)
        return f"Divisor({body})"


class MobiusFactor:
    """The degree-1 function s (t - a)/(t - b) on one occurrence of a
    component: zero at the entering node a, pole at the leaving node b.  At
    an infinite node the factor is s/(t - b) (a = INF) or s (t - a)
    (b = INF).  The scale s is kept as a fraction num/den, so that products
    of factors need a single inverse at the end."""

    def __init__(self, component, enter, leave, scale_num, scale_den):
        self.component = component
        self.enter = enter
        self.leave = leave
        self.scale_num = scale_num
        self.scale_den = scale_den
        self.enter_key = enter if enter is INF else enter.to_int()
        self.leave_key = leave if leave is INF else leave.to_int()

    @classmethod
    def normalized(cls, fiber, component, enter, leave, base_rank=0):
        """The factor scaled to the value 1 at the base point: the
        base_rank-th rational coordinate that avoids both nodes."""
        candidates = fiber.rational_coordinates(component, avoid=[enter, leave])
        base = None
        for rank, cand in enumerate(candidates):
            if rank == base_rank:
                base = cand
                break
        if base is None:
            raise NoRationalBasePoint(
                f"not enough rational points on component {component}")
        one = fiber.E.one()
        if base is INF:
            if enter is INF or leave is INF:
                raise NoRationalBasePoint("base point meets the support of the parameter")
            return cls(component, enter, leave, one, one)
        x = fiber.embed(base)
        # s is the inverse of the unscaled value at the base point
        if enter is INF:
            return cls(component, enter, leave, x - leave, one)
        if leave is INF:
            return cls(component, enter, leave, one, x - enter)
        return cls(component, enter, leave, x - leave, x - enter)

    def over_roots(self, n, h_enter, h_leave):
        """Product of the factor over the n roots of a monic H, with
        multiplicity, as (numerator, denominator); h_enter = H(a) and
        h_leave = H(b) (unused at an infinite node).

        Both products over the roots carry the sign (-1)^n, so finite nodes
        give s^n H(a)/H(b); the product of 1/(t - b) is (-1)^n/H(b) and the
        product of t - a is (-1)^n H(a)."""
        num = self.scale_num if n == 1 else self.scale_num ** n
        den = self.scale_den if n == 1 else self.scale_den ** n
        if self.enter is INF:
            num = -num if n % 2 else num
            return num, den * h_leave
        if self.leave is INF:
            num = num * h_enter
            return (-num if n % 2 else num), den
        return num * h_enter, den * h_leave

    def at_infinity(self):
        """The factor at t = INF, as (numerator, denominator): s when both
        nodes are finite."""
        if self.enter is INF or self.leave is INF:
            raise DivisorMeetsNode("evaluation at a zero or pole of the parameter")
        return self.scale_num, self.scale_den


def product_of_factors(factors, entries, one, values_of):
    """Product of the factors over the orbit entries (component, H, mult),
    multiplicities as exponents, with one inverse.  values_of(H) maps the
    encoding of a finite node coordinate to H there."""
    num = den = one
    for factor in factors:
        for comp, H, mult in entries:
            if comp != factor.component:
                continue
            if H is INF:
                x, y = factor.at_infinity()
            else:
                values = values_of(H)
                x, y = factor.over_roots(H.degree, values.get(factor.enter_key),
                                         values.get(factor.leave_key))
            if mult < 0:
                x, y, mult = y, x, -mult
            if mult != 1:
                x, y = x ** mult, y ** mult
            num = num * x
            den = den * y
    if num.is_zero() or den.is_zero():
        raise DivisorMeetsNode("an orbit meets a zero or pole of a local function")
    return num / den


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
                self.factors.append(MobiusFactor.normalized(
                    fiber, comp, enter, leave, base_rank=base_rank))

    def evaluate(self, divisor):
        """Product of the parameters over the divisor's orbits, multiplicities
        as exponents: resultants at the nodes, one inverse."""
        fiber = self.fiber
        return product_of_factors(self.factors, divisor.entries, fiber.E.one(),
                                  fiber.node_values)


def build_local_function_system(cycle, fiber, base_rank=0):
    return LocalFunctionSystem(cycle, fiber, base_rank=base_rank)


class FrameComponent:
    """One principal summand with its generator cycle and mu-group data."""

    def __init__(self, fiber, cycle, char_poly, base_rank=0):
        self.fiber = fiber
        self.cycle = cycle
        self.char_poly = char_poly
        self.order = poly_eval_int(char_poly, fiber.k.q)
        if self.order <= 0:
            raise UnsupportedTorus(
                f"characteristic polynomial {char_poly} gives order {self.order} at q")
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


def _class_of_value(value, component, r):
    n = component.order
    g = gcd(r, n)
    if g == 1:
        return GammaClass(0, 1, value)
    return GammaClass(component.mu_log(value, g), g, value)


def gamma_class(divisor, component, r):
    """Evaluate the component's cycle on a divisor whose multidegree is
    divisible by r; reduce modulo r-th powers of the mu group."""
    if any(d % r for d in divisor.multidegree):
        raise NotDivRDivisor(
            f"multidegree {divisor.multidegree} is not divisible by {r}")
    return _class_of_value(component.system.evaluate(divisor), component, r)


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
    """Every element of Phi[r] with its compensating principal divisor, given
    as the exponents of the generators' functions.

    Returns a list of (element, powers, representative multidegree); the
    compensating divisor is compensating_divisor(generators, powers, fiber).
    The element with coefficient a_t = k * order_t / gcd(r, order_t) on
    generator t takes the power a_t * r / order_t = k * r / gcd(r, order_t)."""
    if not generators:
        zero = tuple([0] * fiber.graph.num_vertices)
        return [(phi.identity(), (), zero)]
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
        powers = []
        rep = [0] * fiber.graph.num_vertices
        for t, gen in enumerate(generators):
            a = coeffs[t]
            powers.append(a * r // gen.order)
            if a:
                element = phi.add(element, phi.scale(gen.element, a))
                rep = [u + a * v for u, v in zip(rep, gen.rep_multidegree)]
        entries.append((element, tuple(powers), tuple(rep)))
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


def compensating_divisor(generators, powers, fiber):
    """Sum of powers[t] times the function divisor of generator t."""
    out = SpecializedDivisor(fiber, [])
    for gen, power in zip(generators, powers):
        if power:
            out = out + gen.f_divisor.scale(power)
    return out


class DescentVerdict:
    def __init__(self, outcome, witness=None, failure_table=None, reason=None):
        self.outcome = outcome
        self.witness = witness
        self.failure_table = failure_table
        self.reason = reason

    def __repr__(self):
        extra = f", witness={self.witness}" if self.witness is not None else ""
        return f"DescentVerdict({self.outcome}{extra})"


def divisibility_verdict(divisor, r, frame, phi, generators, matrix):
    """Decide whether the class of the divisor is divisible by r.

    The divisor's class must be rational, which every orbit divisor is.  The
    geometric obstruction is checked first; then the divisor is shifted into
    the r-divisible-multidegree range using the generators' principal
    functions, and the arithmetic criterion is tested against every element
    of Phi[r].  The classes are additive, gamma(D + sum_t c_t u_t) =
    gamma(D) + sum_t c_t gamma(u_t) with u_t = (r / gcd(r, order_t)) f_t,
    so D and each u_t are evaluated once per frame component and the rows of
    the table combine residues.
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
    table = phi_r_table(phi, generators, r, fiber)
    base = [gamma_class(divisor, comp, r) for comp in frame.components]
    # a generator with gcd(r, order) = 1 only ever takes the power 0
    units = [r // gcd(r, gen.order) for gen in generators]
    steps = [None if unit == r else
             [_class_of_value(comp.system.evaluate(gen.f_divisor) ** unit,
                              comp, r).residue for comp in frame.components]
             for gen, unit in zip(generators, units)]
    failures = {}
    for element, powers, _rep in table:
        residues = []
        for i, cls in enumerate(base):
            acc = cls.residue
            for power, unit, step in zip(powers, units, steps):
                if power:
                    acc += (power // unit) * step[i]
            residues.append(acc % cls.modulus if cls.modulus else 0)
        if not any(residues):
            return DescentVerdict(DIVISIBLE, witness=element)
        failures[element] = tuple(residues)
    return DescentVerdict(NOT_DIVISIBLE, failure_table=failures)


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
    out = divisor + compensating_divisor(generators, sol, fiber)
    if any(d % r for d in out.multidegree):
        raise NotDivRDivisor(
            f"the compensating shift left multidegree {out.multidegree}, "
            f"not divisible by {r}")
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
            support = [H for c, H, _ in divisor.entries if c == comp]
            point = fiber.standard_point(comp, extra_avoid=support)
            shift.append((comp, point, -d))
    return divisor + SpecializedDivisor(fiber, shift)
