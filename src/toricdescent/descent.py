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
MobiusFactor.over_roots), so evaluation only needs H at the nodes.  Each
orbit entry is itself a rational divisor, so its value lies in the mu group,
and since the class in mu / mu^r is a homomorphism, the class of a divisor
is the sum of its entries' classes (FrameComponent.gamma).
"""

import math
from itertools import product

from . import zmat
from .dual_graph import chain_decomposition, fibral_lattice_membership
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


def _view(obj, **attrs):
    """A shallow copy of obj with attrs set: it shares obj's other
    attributes (the copy module would add to the import time)."""
    view = object.__new__(type(obj))
    view.__dict__.update(obj.__dict__)
    view.__dict__.update(attrs)
    return view


class SpecialFiber:
    """Dual graph plus node coordinates.

    node_coords[i] = (coordinate on tail component, coordinate on head
    component) for edge i; entries are INF or elements of k or of a field
    over k that holds the node.  eval_field is the largest of those fields.

    The memos of value, meets_nodes and standard_point belong to one
    request: a fiber shared across requests hands each a view of its own
    (for_request).
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
        self._values = {}
        # measured: without it meets_nodes took 42.6 ms, not 34.3, over
        # oracle-crosscheck seed 3 rounds 0-9 (medians of 10 processes)
        self._meets = {}
        # per component, (values drawn, iterator of the rest) of the
        # sequence standard_point scans, built on first use (kept: scanning
        # afresh per call was not shown to cost nothing)
        self._scans = [None] * graph.num_vertices

    def for_request(self):
        """This fiber with empty memos: the graph, the coordinates and the
        orbit representatives are shared, and what a request memoizes stays
        on the view and goes with it."""
        return _view(self, _values={}, _meets={}, _scans=[None] * self.graph.num_vertices)

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
        c's field (cached per (H, c): meets_nodes, FrameComponent.node_value
        and the genus-4 direct table read the same nodes).  At the node of a
        residue field of k = GF(p), the class of x, that is H mod the
        field's modulus; elsewhere H with its coefficients embedded,
        evaluated at c."""
        key = (H, c)
        value = self._values.get(key)
        if value is None:
            field = c.field
            # measured: without this shortcut the small-q workload took 20% more CPU
            if (self.k.m == 1 and field.given_modulus and field != self.k
                    and c == field.gen()):
                rem = H % Poly(self.k, list(field.modulus))
                value = field.from_coeffs([a.to_int() for a in rem.coeffs])
            else:
                value = self.lift_poly(H, field)(c)
            self._values[key] = value
        return value

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
        for i, j in enumerate(self.graph.edge_perm):
            tail, head = self.node_coords[i]
            if self.node_coords[j] != (self.frobq(tail), self.frobq(head)):
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

    def on_view(self, fiber):
        """This divisor on a view of its fiber (SpecialFiber.for_request),
        with no check repeated."""
        if fiber.node_coords is not self.fiber.node_coords:
            raise DescentError("on_view needs a view of the divisor's own fiber")
        return SpecializedDivisor._validated(fiber, self.entries)

    def __repr__(self):
        body = ", ".join(
            f"C{c}:{'oo' if H is INF else [x.to_int() for x in H.coeffs]}^{m}"
            for c, H, m in self.entries)
        return f"Divisor({body})"


class MobiusFactor:
    """The degree-1 function s (t - a)/(t - b) on one occurrence of a
    component: zero at the entering node a, pole at the leaving node b.  At
    an infinite node the factor is s/(t - b) (a = INF) or s (t - a)
    (b = INF).  The nodes are coordinates as the fiber holds them; the scale
    s lies in the field of the cycle, kept as a fraction num/den, so that
    products of factors need a single inverse at the end."""

    def __init__(self, component, enter, leave, scale_num, scale_den):
        self.component = component
        self.enter = enter
        self.leave = leave
        self.scale_num = scale_num
        self.scale_den = scale_den

    @classmethod
    def normalized(cls, fiber, component, enter, leave, field, base_rank=0):
        """The factor scaled to the value 1 at the base point: the
        base_rank-th rational coordinate that avoids both nodes.  Its scale
        lies in field, which holds both nodes (or they are INF)."""
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
            return cls(component, enter, leave, x - fiber.lift(leave, field), one)
        if leave is INF:
            return cls(component, enter, leave, one, x - fiber.lift(enter, field))
        return cls(component, enter, leave, x - fiber.lift(leave, field),
                   x - fiber.lift(enter, field))

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


def product_of_factors(factors, entries, one, value):
    """Product of the factors over the orbit entries (component, H, mult),
    multiplicities as exponents, with one inverse.  value(H, c) is H at a
    finite node coordinate c of a factor, in the field of the factors."""
    num = den = one
    for factor in factors:
        for comp, H, mult in entries:
            if comp != factor.component:
                continue
            if H is INF:
                x, y = factor.at_infinity()
            else:
                a, b = factor.enter, factor.leave
                x, y = factor.over_roots(H.degree, None if a is INF else value(H, a),
                                         None if b is INF else value(H, b))
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
    decomposition.  Their scales and its values lie in the field of the
    nodes the cycle passes (see SpecialFiber.field_of); values at rational
    nodes are lifted there."""

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
        self.factors = [MobiusFactor.normalized(fiber, comp, a, b, self.field,
                                                base_rank=base_rank)
                        for comp, a, b in occurrences]
        # one value per orbit entry and one symbol per (entry, g) per request:
        # with EnumeratedTorus.entry_products, oracle-crosscheck CPU fell 18%
        self._entry_values = {}
        self._entry_symbols = {}

    def for_request(self, fiber):
        """This component on fiber, a view of its own fiber (whose memo
        node_value reads), with empty entry_value and entry_symbol memos."""
        return _view(self, fiber=fiber, _entry_values={}, _entry_symbols={})

    def node_value(self, H, c):
        """H at the node coordinate c of the cycle, for a polynomial H over
        k, in the cycle's field (the fiber keeps the values)."""
        return self.fiber.lift(self.fiber.value(H, c), self.field)

    def entry_value(self, component, H):
        """Product of the parameters over the roots of one orbit entry, with
        multiplicity 1 (product_of_factors over that entry alone, so a zero
        or pole raises DivisorMeetsNode); cached per (component, H)."""
        key = (component, H)
        value = self._entry_values.get(key)
        if value is None:
            value = product_of_factors(self.factors, ((component, H, 1),),
                                       self.field.one(), self.node_value)
            self._entry_values[key] = value
        return value

    def entry_symbol(self, component, H, g):
        """The residue symbol mod g of entry_value(component, H), cached per
        (component, H, g).  The symbol finds value^(order/g) among the g-th
        roots of unity exactly when value^order = 1, so it checks membership
        in the mu group too."""
        key = (component, H, g)
        symbol = self._entry_symbols.get(key)
        if symbol is None:
            try:
                symbol = residue_symbol(self.entry_value(component, H), self.order, g)
            except NotInSubgroup as exc:
                raise DescentError(
                    "evaluation left the mu group; check divisor rationality") from exc
            self._entry_symbols[key] = symbol
        return symbol

    def evaluate(self, divisor):
        """Product of the parameters over the divisor's orbits, multiplicities
        as exponents: the product of its entries' values."""
        value = self.field.one()
        for comp, H, mult in divisor.entries:
            value = value * self.entry_value(comp, H) ** mult
        return value

    def gamma(self, divisor, r):
        """The class of the divisor's value in mu / mu^r, a residue mod g =
        gcd(r, order).  The class is a homomorphism, so it is the sum over
        the orbit entries of mult times the entry's residue symbol, which
        never builds a generator of mu.  Every entry's value is taken, so a
        zero or pole raises even when g = 1."""
        g = gcd(r, self.order)
        if g == 1:
            for comp, H, _mult in divisor.entries:
                self.entry_value(comp, H)
            return GammaClass(0, 1)
        return GammaClass(sum(mult * self.entry_symbol(comp, H, g)
                              for comp, H, mult in divisor.entries), g)


class TorusFrame:
    """A verified principal decomposition bound to cycles on the fiber: the
    given generator cycles, or by default the graph's principal generators,
    whose decomposition the graph keeps (DualGraph.principal_components).

    The frame itself keeps no memo; its components' entry_value and
    entry_symbol memos belong to one request, so a frame shared across
    requests hands each a view of its own (for_request)."""

    def __init__(self, fiber, generator_cycles=None):
        self.fiber = fiber
        graph = fiber.graph
        try:
            if generator_cycles is None:
                generator_cycles = graph.principal_generators()
                components = graph.principal_components
            else:
                _, lattice, coords = graph.h1
                components = principal_decomposition(
                    lattice, [coords(c) for c in generator_cycles])
        except NotPrincipal as exc:
            raise UnsupportedTorus(str(exc)) from exc
        self.components = [FrameComponent(fiber, cycle, comp.char_poly)
                           for cycle, comp in zip(generator_cycles, components)]

    def for_request(self, fiber):
        """This frame, for the view fiber of its own fiber, with empty
        memos: the components' local functions are shared."""
        return _view(self, fiber=fiber,
                     components=[comp.for_request(fiber) for comp in self.components])

    def torus_order(self):
        return math.prod(c.order for c in self.components)


class GammaClass:
    """Class of an evaluation in mu(T_i) / r mu(T_i), carried as a residue."""

    def __init__(self, residue, modulus):
        self.residue = residue % modulus if modulus else 0
        self.modulus = modulus

    def __eq__(self, other):
        return (isinstance(other, GammaClass)
                and (self.residue, self.modulus) == (other.residue, other.modulus))

    def __repr__(self):
        return f"GammaClass({self.residue} mod {self.modulus})"


def gamma_class(divisor, component, r):
    """Evaluate the component's cycle on a divisor whose multidegree is
    divisible by r; reduce modulo r-th powers of the mu group, entry by
    entry (FrameComponent.gamma)."""
    if any(d % r for d in divisor.multidegree):
        raise NotDivRDivisor(
            f"multidegree {divisor.multidegree} is not divisible by {r}")
    return component.gamma(divisor, r)


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


def phi_r_table(phi, generators, r):
    """Every element of Phi[r] with its compensating principal divisor, given
    as the exponents of the generators' functions.

    Returns a list of (element, powers); the compensating divisor is
    compensating_divisor(generators, powers, fiber).  The element with
    coefficient a_t = k * order_t / gcd(r, order_t) on generator t takes the
    power a_t * r / order_t = k * r / gcd(r, order_t)."""
    entries = []
    choices = [range(0, gen.order, gen.order // gcd(r, gen.order)) for gen in generators]
    for coeffs in product(*choices):
        element = phi.identity()
        powers = []
        for a, gen in zip(coeffs, generators):
            powers.append(a * r // gen.order)
            if a:
                element = phi.add(element, phi.scale(gen.element, a))
        entries.append((element, tuple(powers)))
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
    phi) is checked first.  When the multidegree is not divisible by r, the
    congruence on the generators' function divisors gives the coefficients
    sol of a principal shift into r * Z^v (_shift_to_div_r).  The
    arithmetic criterion is then tested against every element of Phi[r]
    with powers p_t: the class of D + sum_t (sol_t + p_t) f_t along frame
    component i vanishes in mu_i / mu_i^r.  The class is a homomorphism, so
    that row is S_i(D) + sum_t (sol_t + p_t) S_i(f_t) mod gcd(r, order_i),
    with S_i = FrameComponent.gamma; no shifted divisor is built.  S_i(f_t)
    is needed only where sol_t or some p_t is nonzero, that is where sol_t
    is nonzero or gcd(r, order_t) > 1.  Each S_i is itself the sum over the
    orbit entries of mult times the entry's residue symbol, taken once per
    request (FrameComponent.entry_value, entry_symbol), so the orbits that
    D, the function divisors and the request's earlier verdicts share are
    paid for once.
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
    sol = [0] * len(generators)
    if any(d % r for d in deg):
        sol = _shift_to_div_r(divisor, r, generators)
        if sol is None:
            return DescentVerdict(
                UNDETERMINED,
                reason="no available principal function reaches an r-divisible multidegree")
    base = [comp.gamma(divisor, r) for comp in frame.components]
    # S_i(f_t) where sol_t + p_t can be nonzero: a generator with
    # gcd(r, order) = 1 only ever takes the power 0
    f_classes = [[comp.gamma(gen.f_divisor, r).residue for comp in frame.components]
                 if s or gcd(r, gen.order) > 1 else None
                 for s, gen in zip(sol, generators)]
    failures = {}
    for element, powers in phi_r_table(phi, generators, r):
        residues = tuple(
            (cls.residue + sum((s + power) * f_class[i] for s, power, f_class
                               in zip(sol, powers, f_classes) if f_class))
            % cls.modulus
            for i, cls in enumerate(base))
        if not any(residues):
            return DescentVerdict(DIVISIBLE, witness=element)
        failures[element] = residues
    return DescentVerdict(NOT_DIVISIBLE, failure_table=failures)


def _shift_to_div_r(divisor, r, generators):
    """Coefficients sol of the generators' function divisors such that
    D + sum_t sol_t f_t has a multidegree divisible by r; None when
    unreachable."""
    if not generators:
        return None
    cols = [gen.f_divisor.multidegree for gen in generators]
    A = [list(row) for row in zip(*cols)]
    b = [-d for d in divisor.multidegree]
    sol = zmat.solve_mod(A, b, r)
    if sol is None:
        return None
    shifted = [d + sum(s * col[i] for s, col in zip(sol, cols))
               for i, d in enumerate(divisor.multidegree)]
    if any(d % r for d in shifted):
        raise NotDivRDivisor(
            f"the compensating shift left multidegree {tuple(shifted)}, "
            f"not divisible by {r}")
    return sol


def torsion_structure(frame, generators):
    """Invariant factors of the prime-to-p rational torsion of the Jacobian,
    resolved from the extension of the component group by the torus points.

    Presentation: one generator per mu summand (order n_i) plus one lift per
    cyclic generator of the prime-to-p component group; the lift of a
    generator whose order has prime-to-p part n > 1 (the generator times
    the p-part of its order) satisfies n * lift = an explicit torus
    element, the connecting map at r = n: minus the classes of the
    generator's function divisor.  The supplied generators must split the
    component group as a direct sum of the cyclic subgroups they generate
    (the family builders construct exactly such sets).
    """
    p = frame.fiber.k.p
    components = frame.components
    reduced = []
    for gen in generators:
        n = gen.order
        while n % p == 0:
            n //= p
        if n > 1:
            reduced.append((gen, n))
    width = len(components) + len(reduced)
    rows = [[comp.order if j == i else 0 for j in range(width)]
            for i, comp in enumerate(components)]
    for t, (gen, n) in enumerate(reduced):
        row = [-gamma_class(gen.f_divisor, comp, n).residue for comp in components]
        row += [0] * len(reduced)
        row[len(components) + t] = n
        rows.append(row)
    diag = zmat.snf_diagonal(rows)
    return sorted(d for d in diag if d > 1)


def translate_to_degree_zero(divisor, r):
    """Subtract r-divisible multiples of standard rational points so that the
    multidegree vanishes; the class changes by an r-divisible class only."""
    fiber = divisor.fiber
    if any(d % r for d in divisor.multidegree):
        raise NotDivRDivisor("translation needs an r-divisible multidegree")
    # standard points avoid the nodes, so the shift needs no node check
    entries = list(divisor.entries)
    for comp, d in enumerate(divisor.multidegree):
        if d:
            support = [H for c, H, _ in divisor.entries if c == comp]
            point = fiber.standard_point(comp, extra_avoid=support)
            entries.append((comp, _as_orbit(fiber.k, point), -d))
    return SpecializedDivisor._validated(fiber, entries)
