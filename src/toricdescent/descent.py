"""The descent machinery: specialized divisors on a chain-of-lines special
fiber, the torus frame (one component per generator cycle, with its
normalized local functions, its evaluation and its classes in the mu
group), the connecting map out of the component group, r-divisibility
verdicts, and assembly of the prime-to-p rational torsion.

A special fiber here is a dual graph whose components are projective lines
with an affine coordinate; every node carries its coordinate on each incident
component.  A coordinate lies in a field over the residue field k that holds
its node: k for a rational node, the field of its node orbit otherwise (the
hyperelliptic engine), or one field for every node (genus 4 and the oracle).
The arithmetic Frobenius is the q-power map on each of them.  A cycle's
local functions and values live in the field of the nodes it passes; k
embeds there.

A divisor is a sum of Galois orbits: an entry (component, H, multiplicity)
stands for the roots of a monic H over k, and (component, INF, multiplicity)
for the point at infinity, so every divisor is rational by construction and
its points never need to be found.  A degree-1 local function
s (t - a)/(t - b) multiplies over the roots of H to s^n H(a)/H(b) (see
MobiusFactor.over_roots), so evaluation only needs H at the nodes.
"""

import math
from itertools import product

from . import zmat
from .dual_graph import chain_decomposition, fibral_lattice_membership, h1_basis
from .finite_field import (INF, FieldElement, NotInSubgroup, Poly, embed,
                           residue_symbol)
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


def _identity(x):
    return x


class SpecialFiber:
    """Dual graph plus node coordinates.

    node_coords[i] = (coordinate on tail component, coordinate on head
    component) for edge i; entries are INF or elements of k or of a field
    over k that holds the node.  eval_field is the largest of those fields.
    """

    def __init__(self, graph, base_field, eval_field, node_coords):
        self.graph = graph
        self.k = base_field
        self.E = eval_field
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
        # per component, one finite coordinate per Frobenius orbit: an orbit
        # polynomial over k vanishes at all of an orbit or at none of it
        # (measured: testing every node cost the small-q workload 30% more CPU)
        self._orbit_reps = []
        for coords in self._component_coords:
            seen = set()
            reps = []
            for c in coords:
                if c is not INF and c not in seen:
                    reps.append(c)
                    while c not in seen:
                        seen.add(c)
                        c = self.frobq(c)
            self._orbit_reps.append(reps)
        self._meets = {}
        # per component, (values drawn, iterator of the rest) of the
        # sequence standard_point scans, built on first use (kept: scanning
        # afresh per call was not shown to cost nothing)
        self._scans = [None] * graph.num_vertices

    def frobq(self, x):
        """Arithmetic Frobenius over the residue field, in x's own field."""
        return x if x is INF else x.frob(self.k.m)

    def embedding(self, field):
        """k -> field, for the field of a node coordinate (k itself included)."""
        return _identity if field == self.k else embed(self.k, field)

    def lift(self, c, field):
        """A node coordinate (INF, or an element of k or of field) in field."""
        if c is INF or c.field == field:
            return c
        return self.embedding(field)(c)

    def lift_poly(self, H, field):
        """A polynomial over k with its coefficients embedded into field."""
        return H if field == self.k else H.map_coeffs(self.embedding(field), field)

    def value(self, H, c):
        """H(c) for a polynomial H over k at a finite node coordinate c, in
        c's field.  At the node of a residue field of k = GF(p), the class of
        x, that is H mod the field's modulus; elsewhere H with its
        coefficients embedded, evaluated at c."""
        field = c.field
        # measured: without this shortcut the small-q workload took 20% more CPU
        if (self.k.m == 1 and field.given_modulus and field != self.k
                and c == field.gen()):
            rem = H % Poly(self.k, list(field.modulus))
            return field.from_coeffs([a.to_int() for a in rem.coeffs])
        return self.lift_poly(H, field)(c)

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
            if len(set(coords)) != len(coords):
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

    def field_of(self, coords):
        """The field of the finite coordinates among coords: the largest of
        their fields, which must hold all of them (k embeds everywhere)."""
        field = self.k
        for c in coords:
            if c is INF or c.field == field or c.field == self.k:
                continue
            if field != self.k:
                raise DescentError(f"nodes in {field} and in {c.field} on one cycle")
            field = c.field
        return field

    def meets_nodes(self, component, H):
        """Whether the orbit entry H (a polynomial over k, or INF) contains a
        node of the component (cached): H at one node of each Frobenius
        orbit, in the node's field."""
        key = (component, H)
        meets = self._meets.get(key)
        if meets is None:
            if H is INF:
                meets = INF in self.component_node_coords(component)
            else:
                meets = any(self.value(H, c).is_zero()
                            for c in self._orbit_reps[component])
            self._meets[key] = meets
        return meets

    def _avoiding(self, avoid):
        """Predicate on elements of k: true when the element is none of the
        avoided values (node coordinates in any field, or INF, which no
        element of k is), compared in each value's field."""
        avoided = {}
        for c in avoid:
            if c is not INF:
                avoided.setdefault(c.field, set()).add(c.coeffs)
        lifts = [(self.embedding(field), keys) for field, keys in avoided.items()]
        return lambda x: all(emb(x).coeffs not in keys for emb, keys in lifts)

    def rational_coordinates(self, component, avoid=()):
        """k-rational coordinates on the component, as elements of k,
        smallest first, then INF, skipping the avoided values (node
        coordinates in any field, or INF)."""
        return _coordinates(self.k, self._avoiding(avoid), INF not in avoid)

    def standard_point(self, component, extra_avoid=()):
        """Deterministic rational point on the component (an element of k, or
        INF) that avoids the nodes and the orbits in extra_avoid (polynomials
        over k, or INF): the first of rational_coordinates(component, its
        node coordinates) that the orbits miss.  That sequence is drawn once
        per component and kept only as far as some call needed it, so k is
        never listed up front (q runs to 2^20)."""
        if self._scans[component] is None:
            self._scans[component] = ([], self.rational_coordinates(
                component, self.component_node_coords(component)))
        polys = [H for H in extra_avoid if H is not INF]
        for x in _replayed(*self._scans[component]):
            if x is INF:
                if INF not in extra_avoid:
                    return x
            elif all(not H(x).is_zero() for H in polys):
                return x
        raise NoRationalBasePoint(f"component {component} has no free rational point")


def _coordinates(k, free, inf_free):
    """The elements of k that free accepts, in encoding order, then INF
    when inf_free."""
    for n in range(k.q):
        x = k.from_int(n)
        if free(x):
            yield x
    if inf_free:
        yield INF


def _replayed(found, rest):
    """The values in found, then those left in the iterator rest, each
    appended to found as it is drawn: a sequence drawn once and replayed."""
    i = 0
    while True:
        if i == len(found):
            x = next(rest, None)
            if x is None:
                return
            found.append(x)
        yield found[i]
        i += 1


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
    not mind.  Sums and multiples of divisors on one fiber reuse their
    validated entries; a sum across fibers validates everything again."""

    def __init__(self, fiber, entries):
        self._merge(fiber, [(comp, _as_orbit(fiber.k, H), mult)
                            for comp, H, mult in entries])
        for comp, H, _mult in self.entries:
            if fiber.meets_nodes(comp, H):
                raise DivisorMeetsNode(
                    f"an orbit on component {comp} contains a node")

    @classmethod
    def _validated(cls, fiber, entries):
        """The divisor of entries that already passed __init__'s checks on
        this fiber: merged and sorted, with no check repeated."""
        out = cls.__new__(cls)
        out._merge(fiber, entries)
        return out

    def _merge(self, fiber, entries):
        self.fiber = fiber
        merged = {}
        for comp, H, mult in entries:
            key = (comp, H)
            merged[key] = merged.get(key, 0) + mult
        cleaned = [(comp, H, mult) for (comp, H), mult in merged.items() if mult]
        cleaned.sort(key=lambda it: (it[0], it[1] is INF,
                                     0 if it[1] is INF else it[1].encoding()))
        self.entries = tuple(cleaned)
        deg = [0] * fiber.graph.num_vertices
        for comp, H, mult in self.entries:
            deg[comp] += mult * (1 if H is INF else H.degree)
        self.multidegree = tuple(deg)

    def __add__(self, other):
        if other.fiber is not self.fiber:
            return SpecializedDivisor(self.fiber, self.entries + other.entries)
        return SpecializedDivisor._validated(self.fiber, self.entries + other.entries)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return SpecializedDivisor._validated(
            self.fiber, [(c, H, m * k) for c, H, m in self.entries])

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
        base_rank-th rational coordinate that avoids both nodes.  It lives in
        the field of its nodes, which must share one field (or be INF)."""
        field = (leave if enter is INF else enter).field
        candidates = fiber.rational_coordinates(component, avoid=[enter, leave])
        base = None
        for rank, cand in enumerate(candidates):
            if rank == base_rank:
                base = cand
                break
        if base is None:
            raise NoRationalBasePoint(
                f"not enough rational points on component {component}")
        one = field.one()
        if base is INF:
            if enter is INF or leave is INF:
                raise NoRationalBasePoint("base point meets the support of the parameter")
            return cls(component, enter, leave, one, one)
        x = fiber.lift(base, field)
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


class FrameComponent:
    """One principal summand of the torus frame: its generator cycle, the
    order of its mu group, and normalized local parameters for every
    occurrence of a component in the cycle, following the chain
    decomposition.  They and its values lie in the field of the nodes the
    cycle passes (see SpecialFiber.field_of); rational nodes are lifted
    there."""

    def __init__(self, fiber, cycle, char_poly, base_rank=0):
        self.fiber = fiber
        self.cycle = cycle
        self.char_poly = char_poly
        self.order = poly_eval_int(char_poly, fiber.k.q)
        if self.order <= 0:
            raise UnsupportedTorus(
                f"characteristic polynomial {char_poly} gives order {self.order} at q")
        occurrences = [(comp, fiber.node_coordinate(enter_edge, comp),
                        fiber.node_coordinate(leave_edge, comp))
                       for walk in chain_decomposition(cycle)
                       for comp, enter_edge, leave_edge in walk]
        self.field = fiber.field_of(
            [c for _comp, a, b in occurrences for c in (a, b)])
        self.factors = []
        # the cycle's finite nodes: their encodings in its field, and their
        # coordinates as the fiber holds them
        self._nodes = {}
        for comp, a, b in occurrences:
            factor = MobiusFactor.normalized(fiber, comp, fiber.lift(a, self.field),
                                             fiber.lift(b, self.field),
                                             base_rank=base_rank)
            self.factors.append(factor)
            for key, c in ((factor.enter_key, a), (factor.leave_key, b)):
                if c is not INF:
                    self._nodes[key] = c
        self._values = {}

    def node_values(self, H):
        """{encoding of a node of the cycle: H there, in the cycle's field}
        for a polynomial H over k (cached per H)."""
        values = self._values.get(H)
        if values is None:
            fiber, field = self.fiber, self.field
            values = {key: fiber.lift(fiber.value(H, c), field)
                      for key, c in self._nodes.items()}
            self._values[H] = values
        return values

    def evaluate(self, divisor):
        """Product of the parameters over the divisor's orbits, multiplicities
        as exponents: resultants at the nodes, one inverse."""
        return product_of_factors(self.factors, divisor.entries, self.field.one(),
                                  self.node_values)

    def gamma(self, value, r):
        """The class of a mu-group member in mu / mu^r, a residue mod g =
        gcd(r, order): its residue symbol, which never builds a generator of
        mu.  The symbol finds value^(order/g) among the g-th roots of unity
        exactly when value^order = 1, so it checks membership too."""
        g = gcd(r, self.order)
        if g == 1:
            return GammaClass(0, 1, value)
        try:
            return GammaClass(residue_symbol(value, self.order, g), g, value)
        except NotInSubgroup as exc:
            raise DescentError(
                "evaluation left the mu group; check divisor rationality") from exc


class TorusFrame:
    """A verified principal decomposition bound to cycles on the fiber."""

    def __init__(self, fiber, generator_cycles):
        self.fiber = fiber
        _, lattice, coords = h1_basis(fiber.graph)
        try:
            components = principal_decomposition(
                lattice, [coords(c) for c in generator_cycles])
        except NotPrincipal as exc:
            raise UnsupportedTorus(str(exc)) from exc
        self.components = [FrameComponent(fiber, cycle, comp.char_poly)
                           for cycle, comp in zip(generator_cycles, components)]
        self._steps = {}

    def step_residues(self, generators, r):
        """Per generator, None when gcd(r, order) = 1 (its power in a
        Phi[r] row is always 0), else the residues of (r / gcd(r, order))
        times its function divisor along every component: the classes a
        verdict at r adds per unit of that generator's power.  Computed once
        per generators and r, since every verdict at r reuses them."""
        key = (tuple(generators), r)
        steps = self._steps.get(key)
        if steps is None:
            steps = []
            for gen in generators:
                unit = r // gcd(r, gen.order)
                steps.append(None if unit == r else [
                    comp.gamma(comp.evaluate(gen.f_divisor) ** unit, r).residue
                    for comp in self.components])
            self._steps[key] = steps
        return steps

    def torus_order(self):
        return math.prod(c.order for c in self.components)


class GammaClass:
    """Class of an evaluation in mu(T_i) / r mu(T_i), carried as a residue."""

    def __init__(self, residue, modulus, value):
        self.residue = residue % modulus if modulus else 0
        self.modulus = modulus
        self.value = value

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
    return component.gamma(component.evaluate(divisor), r)


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
    entries = []
    choices = [range(0, gen.order, gen.order // gcd(r, gen.order)) for gen in generators]
    for coeffs in product(*choices):
        element = phi.identity()
        powers = []
        rep = [0] * fiber.graph.num_vertices
        for a, gen in zip(coeffs, generators):
            powers.append(a * r // gen.order)
            if a:
                element = phi.add(element, phi.scale(gen.element, a))
                rep = [u + a * v for u, v in zip(rep, gen.rep_multidegree)]
        entries.append((element, tuple(powers), tuple(rep)))
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


def divisibility_verdict(divisor, r, frame, phi, generators):
    """Decide whether the class of the divisor is divisible by r.

    The divisor's class must be rational, which every orbit divisor is.  The
    obstruction in the component group (fibral_lattice_membership against
    phi) is checked first; then the divisor is shifted into
    the r-divisible-multidegree range using the generators' principal
    functions, and the arithmetic criterion is tested against every element
    of Phi[r].  The classes are additive, gamma(D + sum_t c_t u_t) =
    gamma(D) + sum_t c_t gamma(u_t) with u_t = (r / gcd(r, order_t)) f_t,
    so D is evaluated once per frame component, each u_t once per frame and
    r (TorusFrame.step_residues), and the rows of the table combine
    residues.
    """
    fiber = divisor.fiber
    if r < 1:
        raise DescentError("r must be positive")
    if r % fiber.k.p == 0:
        raise DescentError("r must be prime to the residue characteristic")
    if r == 1:
        return DescentVerdict(DIVISIBLE, witness=phi.identity())
    deg = list(divisor.multidegree)
    if not fibral_lattice_membership(deg, r, phi):
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
    steps = frame.step_residues(generators, r)
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


def torsion_structure(frame, phi, generators):
    """Invariant factors of the prime-to-p rational torsion of the Jacobian,
    resolved from the extension of the component group by the torus points.

    Presentation: one generator per mu summand (order n_i) plus one lift per
    cyclic generator of the prime-to-p component group; the lift of a
    generator of order n satisfies n * lift = an explicit torus element read
    off from the connecting map at r = n.  The supplied generators must split
    the component group as a direct sum of the cyclic subgroups they generate
    (the family builders construct exactly such sets).
    """
    p = frame.fiber.k.p
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
