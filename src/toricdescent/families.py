"""Closed-form solvers for the two supported curve families, together with
special-fiber builders that drive the generic descent engine on the same
inputs.

Family 1: hyperelliptic curves y^2 = g(x)^2 + pi*h(x) whose special fiber is
two lines crossing at the d roots of the reduction of g.

Family 2: genus-4 curves cut out of the quadric XY = ZW by a cubic surface
degenerating to three hyperplane sections; the special fiber is a triangle of
three rational curves on the quadric, each pair crossing twice.

Verdicts that the underlying theory does not cover are reported as
"Undetermined", never guessed.
"""

import itertools

from . import descent, dual_graph
from .descent import (MobiusFactor, PhiGenerator, SpecialFiber,
                      SpecializedDivisor, divisibility_verdict,
                      product_of_factors, torsion_structure, DIVISIBLE,
                      UNDETERMINED)
from .dual_graph import DualGraph, component_group, principal_cycle_generators
from .finite_field import (INF, Poly, element_of_order, embed, extension,
                           factor, norm_to_subfield, power_residue,
                           residue_symbol, roots, roots_in_extension)
from .zmat import gcd, group_invariants, lcm


class FamilyError(Exception):
    pass


class CharDividesTwoD(FamilyError):
    pass


class NotSeparableReduction(FamilyError):
    pass


class CommonFactorGH(FamilyError):
    pass


class DegreeTooLarge(FamilyError):
    pass


class EpsVanishesAtNode(FamilyError):
    pass


class CharTooSmall(FamilyError):
    pass


class UnexpectedRootCount(FamilyError):
    pass


class WrongCoefficientCount(FamilyError):
    pass


class NotMobius(FamilyError):
    """A genus-4 local function that is not of degree 1 on its line."""


class ComponentGroupMismatch(FamilyError):
    """The genus-4 component-group generators do not split the group."""


def _power_class_subgroup_order(values, r):
    """Order of the subgroup generated by the values in k^x / (k^x)^r.

    k^x is cyclic, so the quotient is Z/gcd(r, q-1) and the subgroup order is
    computed from residue symbols against a fixed generator."""
    if not values:
        return 1
    field = values[0].field
    n = field.q - 1
    g = gcd(r, n)
    if g == 1:
        return 1
    zeta = element_of_order(field, n)
    acc = g
    for v in values:
        acc = gcd(acc, residue_symbol(v, zeta, n, g))
    return g // acc


def _all_r_th_powers(values, r):
    return all(power_residue(v, r) for v in values)


# ---------------------------------------------------------------------------
# hyperelliptic family (two components crossing at d nodes)


class HyperellipticInput:
    """Validated data for y^2 = g^2 + pi*h over a local field with residue
    field k; only the reductions of g and h matter here."""

    def __init__(self, k, gbar, hbar, r=2, qp_mode=False):
        self.k = k
        self.g = gbar
        self.h = hbar
        self.r = r
        self.d = gbar.degree
        self.e = hbar.degree
        self.genus = self.d - 1
        self.qp_mode = qp_mode
        self.warnings = []
        if qp_mode:
            self.warnings.append(
                "base field Q_p: reported torsion is the prime-to-p part; it is "
                "the full rational torsion when p is odd and the component group "
                "has no p-torsion")


def validate_hyperelliptic(k, gbar, hbar, r=2, qp_mode=False):
    """Check the regularity hypotheses for the two-line family."""
    d = gbar.degree
    if d < 3:
        raise FamilyError("g must have degree at least 3")
    if gbar.lead() != k.one():
        raise FamilyError("g must be monic")
    if (2 * d) % k.p == 0:
        raise CharDividesTwoD(f"residue characteristic {k.p} divides 2d = {2 * d}")
    if r < 1 or r % k.p == 0:
        raise FamilyError("r must be positive and prime to the residue characteristic")
    if hbar.degree > 2 * d:
        raise DegreeTooLarge(f"h has degree {hbar.degree} > 2d = {2 * d}")
    if gbar.gcd(gbar.derivative()).degree != 0:
        raise NotSeparableReduction("reduction of g must be separable")
    if hbar.is_zero() or gbar.gcd(hbar).degree != 0:
        raise CommonFactorGH("g and h must generate the unit ideal modulo pi")
    return HyperellipticInput(k, gbar, hbar, r=r, qp_mode=qp_mode)


def _gbar_factor_data(inp):
    """The irreducible factors of the reduction of g, plus its rational roots
    in ascending encoding; factored once per input."""
    if not hasattr(inp, "_gbar_factors"):
        facs = factor(inp.g)
        if any(mult != 1 for _, mult in facs):
            raise NotSeparableReduction("reduction of g has a repeated factor")
        factors = [f for f, _ in facs]
        rational = sorted((-f.coeffs[0] for f in factors if f.degree == 1),
                          key=lambda r: r.to_int())
        inp._gbar_factors = factors, rational
    return inp._gbar_factors


def theta_bd(inp, alpha0_rank=0):
    """Rationality of a theta characteristic (square root of the canonical
    class), by the closed-form criterion.

    d even or irreducible reduction: always rational.  d odd with a rational
    node alpha_0: rational iff the norm of h(alpha_0)h(alpha_i) is a square
    for a root alpha_i of every other irreducible factor.  d odd, reducible,
    no rational node: undetermined (outside the proved cases).
    """
    k = inp.k
    if inp.d % 2 == 0:
        return True
    factors, rational = _gbar_factor_data(inp)
    if len(factors) == 1:
        return True
    if not rational:
        return UNDETERMINED
    alpha0 = rational[alpha0_rank % len(rational)]
    h_alpha0 = inp.h(alpha0)
    for fac in factors:
        if fac.degree == 1 and -fac.coeffs[0] == alpha0:
            continue
        s = fac.degree
        big = extension(k, s)
        emb = embed(k, big)
        alpha_i = -fac.coeffs[0] if s == 1 else roots_in_extension(fac, s)[0]
        value = emb(h_alpha0) * inp.h.map_coeffs(emb, big)(alpha_i)
        norm = norm_to_subfield(value, k.m)
        if not power_residue(norm, 2):
            return False
    return True


def torsion_bd(inp):
    """Invariant factors of the prime-to-p rational torsion of the Jacobian.

    Closed forms cover the split case for every d and all three shapes for
    d = 3; other shapes fall back to the generic engine."""
    k = inp.k
    q = k.q
    factors, rational = _gbar_factor_data(inp)
    if len(rational) == inp.d:
        alphas = rational
        h0 = inp.h(alphas[0])
        ratios = [inp.h(a) / h0 for a in alphas[1:]]
        # the ratios generate a subgroup of order n in k^x / (k^x)^d, which
        # is cyclic of order gcd(d, q - 1); the Smith form of the extension
        # leaves the cyclic factors d (q - 1) / m and m
        n = _power_class_subgroup_order(ratios, inp.d)
        m = gcd(inp.d, q - 1) // n
        parts = [q - 1] * (inp.d - 2) + [inp.d * (q - 1) // m, m]
        return group_invariants(parts)
    if inp.d == 3:
        ell = extension(k, 2)
        emb2 = embed(k, ell)
        if len(rational) == 1:
            alpha0 = rational[0]
            quad = next(f for f in factors if f.degree == 2)
            alpha1 = roots_in_extension(quad, 2)[0]
            h_ell = inp.h.map_coeffs(emb2, ell)
            if q % 3 == 1:
                nm = norm_to_subfield(h_ell(alpha1), k.m)
                test = power_residue(inp.h(alpha0) ** 2 / nm, 3)
            else:
                test = h_ell(alpha1) ** ((q * q - 1) // 3) == ell.one()
            if test:
                return group_invariants([q * q - 1, 3])
            return group_invariants([3 * (q * q - 1)])
        # irreducible cubic reduction
        cubic = factors[0]
        big = extension(k, 3)
        alpha0 = roots_in_extension(cubic, 3)[0]
        h_big = inp.h.map_coeffs(embed(k, big), big)
        if q % 3 == 2:
            test = True
        else:
            test = h_big(alpha0) ** ((q ** 3 - 1) // 3) == big.one()
        if test:
            return group_invariants([q * q + q + 1, 3])
        return group_invariants([3 * (q * q + q + 1)])
    # non-split shapes beyond d = 3: delegate to the engine
    return torsion_bd_engine(inp)


# -- engine route -----------------------------------------------------------


def hyperelliptic_fiber(inp):
    """Build the two-line special fiber, torus frame, component group, and
    descent generators for the generic engine.

    The evaluation field is the splitting field of the reduction of g, the
    field of the nodes; the zeros of h enter div(y - g) as one orbit entry
    and are never found."""
    k = inp.k
    factors = _gbar_factor_data(inp)[0]
    s = 1
    for f in factors:
        s = lcm(s, f.degree)
    E = extension(k, s)
    g_roots = roots_in_extension(inp.g, s, factors=[(f, 1) for f in factors])
    if len(g_roots) != inp.d:
        raise UnexpectedRootCount(
            f"found {len(g_roots)} of the {inp.d} nodes in {E}")
    edges = [(0, 1, rho.to_int()) for rho in g_roots]
    key_to_index = {rho.to_int(): idx for idx, rho in enumerate(g_roots)}
    perm = [key_to_index[rho.frob(k.m).to_int()] for rho in g_roots]
    graph = DualGraph(2, edges, vertex_perm=[0, 1], edge_perm=perm)
    fiber = SpecialFiber(graph, k, E, [(rho, rho) for rho in g_roots])

    generator_cycles = principal_cycle_generators(graph)
    frame = descent.TorusFrame(fiber, generator_cycles)

    d = inp.d
    matrix = [[-d, d], [d, -d]]
    phi = component_group(matrix)
    # div(y - g): the zeros of h on the first line, the rest at the two
    # points at infinity
    fdiv = SpecializedDivisor(
        fiber, _h_zeros(inp) + [(0, INF, d - inp.e), (1, INF, -d)])
    delta = phi.project((-1, 1))
    generators = [PhiGenerator(delta, d, (-1, 1), fdiv)]
    return fiber, frame, phi, generators, matrix


def _h_zeros(inp):
    """The zeros of the reduction of h on the first line, as one orbit entry
    (the monic h; its leading coefficient moves no zero)."""
    return [(0, inp.h, 1)] if inp.e > 0 else []


def hyperelliptic_canonical_divisor(inp, fiber):
    """Specialization of a canonical representative with even multidegree:
    the zeros of h on the first line plus corrections at infinity."""
    return SpecializedDivisor(
        fiber,
        _h_zeros(inp) + [(0, INF, 2 * inp.genus - inp.e), (1, INF, -2)])


def _hyperelliptic_data(inp):
    if not hasattr(inp, "_fiber_data"):
        inp._fiber_data = hyperelliptic_fiber(inp)
    return inp._fiber_data


def theta_bd_engine(inp):
    """Theta verdict through the generic descent engine."""
    try:
        fiber, frame, phi, generators, matrix = _hyperelliptic_data(inp)
    except dual_graph.NotSupported:
        return UNDETERMINED
    L = hyperelliptic_canonical_divisor(inp, fiber)
    verdict = divisibility_verdict(L, 2, frame, phi, generators, matrix)
    if verdict.outcome == UNDETERMINED:
        return UNDETERMINED
    return verdict.outcome == DIVISIBLE


def torsion_bd_engine(inp):
    try:
        fiber, frame, phi, generators, matrix = _hyperelliptic_data(inp)
    except dual_graph.NotSupported as exc:
        raise descent.UnsupportedTorus(str(exc)) from exc
    return torsion_structure(frame, phi, generators)


# ---------------------------------------------------------------------------
# genus-4 family: quadric XY = ZW meeting a degenerating cubic


#: degree-3 exponent tuples in (X, Y, Z, W), canonical report order
MONOMIALS = sorted(
    (t for t in itertools.product(range(4), repeat=4) if sum(t) == 3),
    reverse=True)


class CubicForm:
    """Homogeneous cubic in X, Y, Z, W with coefficients in the residue field."""

    def __init__(self, field, coefficients):
        self.field = field
        self.coeffs = {}
        for expo, c in coefficients.items():
            c = field(c)
            if not c.is_zero():
                self.coeffs[tuple(expo)] = c

    @classmethod
    def from_vector(cls, field, vec):
        if len(vec) != len(MONOMIALS):
            raise WrongCoefficientCount(
                f"a cubic form has {len(MONOMIALS)} coefficients, got {len(vec)}")
        return cls(field, dict(zip(MONOMIALS, vec)))

    def vector(self):
        zero = self.field.zero()
        return [self.coeffs.get(m, zero) for m in MONOMIALS]

    def evaluate(self, point, emb=None):
        """Value at a 4-tuple of elements of an extension; emb maps the
        coefficients into that extension (identity when None)."""
        x, y, z, w = point
        F = x.field
        acc = F.zero()
        for (a, b, c, d), coeff in self.coeffs.items():
            cc = coeff if emb is None else emb(coeff)
            acc = acc + cc * x ** a * y ** b * z ** c * w ** d
        return acc

    def restrict_zw(self):
        """The one-variable polynomial t^3 * eps(t, 1/t, 1, 1) carrying the
        section of the cubic along the line Z = W."""
        coeffs = [self.field.zero()] * 7
        for (a, b, _c, _d), coeff in self.coeffs.items():
            coeffs[3 + a - b] = coeffs[3 + a - b] + coeff
        return Poly(self.field, coeffs)

    def restrict_mzw(self):
        """t^3 * eps(t, -1/t, -1, 1) along the line Z = -W."""
        coeffs = [self.field.zero()] * 7
        for (a, b, c, _d), coeff in self.coeffs.items():
            sign = (-1) ** (b + c)
            coeffs[3 + a - b] = coeffs[3 + a - b] + coeff * sign
        return Poly(self.field, coeffs)


class Genus4Input:
    def __init__(self, k, eps, r=2, qp_mode=False):
        self.k = k
        self.eps = eps
        self.r = r
        self.qp_mode = qp_mode
        self.i_in_k = (k.q % 4 == 1)
        #: (k(i), i): the square root of -1 that every table uses
        self.sqrt_minus_one = _sqrt_of_minus_one(k)
        self.warnings = []
        if qp_mode:
            self.warnings.append(
                "base field Q_p: reported torsion is the prime-to-p part; it is "
                "the full rational torsion when the component group has no "
                "p-torsion (automatic here: the component group has order 12 and "
                "p >= 5)")


def _sqrt_of_minus_one(k):
    """The square root of -1 with the smaller encoding, in k or in its
    quadratic extension."""
    if k.q % 4 == 1:
        field = k
    else:
        field = extension(k, 2)
    rs = roots(Poly(field, [1, 0, 1]))
    if len(rs) != 2:
        raise UnexpectedRootCount(f"x^2 + 1 has {len(rs)} roots in {field}, not 2")
    return field, rs[0]


def validate_genus4(k, eps, r=2, qp_mode=False):
    """Check the regularity condition: the cubic must not vanish at any of
    the six nodes of the degenerate special fiber."""
    if k.p < 5:
        raise CharTooSmall(f"residue characteristic must be at least 5, got {k.p}")
    if r not in (2, 3):
        raise FamilyError("supported divisibility targets are r = 2 and r = 3")
    inp = Genus4Input(k, eps, r=r, qp_mode=qp_mode)
    field, i = inp.sqrt_minus_one
    emb = embed(k, field) if field != k else None
    one = field.one()

    def lift(v):
        return emb(v) if emb else v

    tests = [
        ("[1:1:1:1]", (one, one, one, one)),
        ("[-1:-1:1:1]", (-one, -one, one, one)),
        ("[i:i:-1:1]", (i, i, -one, one)),
        ("[-i:-i:-1:1]", (-i, -i, -one, one)),
        ("[1:0:0:0]", (one, field.zero(), field.zero(), field.zero())),
        ("[0:1:0:0]", (field.zero(), one, field.zero(), field.zero())),
    ]
    for name, point in tests:
        if eps.evaluate(point, emb=(lift if emb else None)).is_zero():
            raise EpsVanishesAtNode(f"cubic vanishes at the node {name}")
    return inp


ROW_NAMES = [
    "div(X+Y)", "div(Z-W)", "div(Z+W)",
    "div((Z-W)/(Z+W))", "div((X+Y)/(Z+W))", "div((Z-W)/(X+Y))",
    "div((Z^2-W^2)/(X+Y))", "div((Z+W)^2/(Z-W))",
]


def genus4_table_eval(inp):
    """Closed-form evaluation table: for each of the eight divisor rows, the
    values of the four loops, as elements of k(i).

    The base rows come from the symmetric-function identities for the
    sections X+Y, Z-W, Z+W; derived rows are entrywise products.  Note the
    first loop's value on div(Z-W) is -eps(1,1,1,1)/eps(-1,-1,1,1): the
    minus sign is forced by the product over the six intersection points.
    """
    k = inp.k
    field, i = inp.sqrt_minus_one
    emb = embed(k, field) if field != k else None

    def lift(v):
        return emb(v) if emb else v

    one = field.one()
    zero = field.zero()
    lift_fn = lift if emb else None
    e1111 = inp.eps.evaluate((one, one, one, one), lift_fn)
    em11 = inp.eps.evaluate((-one, -one, one, one), lift_fn)
    e1000 = inp.eps.evaluate((one, zero, zero, zero), lift_fn)
    e0100 = inp.eps.evaluate((zero, one, zero, zero), lift_fn)
    ei = inp.eps.evaluate((i, i, -one, one), lift_fn)
    emi = inp.eps.evaluate((-i, -i, -one, one), lift_fn)

    row_xy = (-one, -one, -i, i)
    row_zw = (-e1111 / em11, e1000 / e0100, e1111 / e0100, e1111 / e0100)
    row_mzw = (one, -e0100 / e1000, i * e0100 / ei, -i * e0100 / emi)
    return field, i, _table_rows(row_xy, row_zw, row_mzw)


def _table_rows(row_xy, row_zw, row_mzw):
    """The eight rows from the three sections' rows: derived rows are
    entrywise products and ratios."""
    def ratio(a, b):
        return tuple(x / y for x, y in zip(a, b))

    def prod(a, b):
        return tuple(x * y for x, y in zip(a, b))

    return {
        "div(X+Y)": row_xy,
        "div(Z-W)": row_zw,
        "div(Z+W)": row_mzw,
        "div((Z-W)/(Z+W))": ratio(row_zw, row_mzw),
        "div((X+Y)/(Z+W))": ratio(row_xy, row_mzw),
        "div((Z-W)/(X+Y))": ratio(row_zw, row_xy),
        "div((Z^2-W^2)/(X+Y))": ratio(prod(row_zw, row_mzw), row_xy),
        "div((Z+W)^2/(Z-W))": ratio(prod(row_mzw, row_mzw), row_zw),
    }


def _genus4_rows(inp):
    """genus4_table_eval, computed once per input."""
    if not hasattr(inp, "_table"):
        inp._table = genus4_table_eval(inp)
    return inp._table


# -- direct route through the local functions (independent of the closed forms)


# restriction of a linear form a*X + b*Y + c*Z + d*W to each component's
# parametrization:
#   component 0 (X = Y): [t : t : t^2 : 1]      -> c t^2 + (a+b) t + d
#   component 1 (Z = W): [t^2 : 1 : t : t]      -> a t^2 + (c+d) t + b
#   component 2 (Z = -W): [t^2 : -1 : -t : t]   -> a t^2 + (d-c) t - b
def _restrict_linear(field, form, component):
    a, b, c, d = form
    if component == 0:
        return Poly(field, [d, a + b, c])
    if component == 1:
        return Poly(field, [b, c + d, a])
    return Poly(field, [-b, d - c, a])


def _local_function(field, component, num_form, den_form):
    """The ratio of two linear forms on a component, reduced, as the Mobius
    factor c (t - a)/(t - b); a or b is INF when the reduced numerator or
    denominator is constant."""
    num = _restrict_linear(field, num_form, component)
    den = _restrict_linear(field, den_form, component)
    common = num.gcd(den)
    if common.degree > 0:
        num, den = num // common, den // common
    if num.degree > 1 or den.degree > 1 or num.degree + den.degree < 1:
        raise NotMobius(f"local function on component {component} has degrees "
                        f"{num.degree}/{den.degree}")
    if num.degree == 0:
        return MobiusFactor(component, INF, -den[0] / den[1], num[0], den[1])
    if den.degree == 0:
        return MobiusFactor(component, -num[0] / num[1], INF, num[1], den[0])
    return MobiusFactor(component, -num[0] / num[1], -den[0] / den[1],
                        num[1], den[1])


def _genus4_local_functions(field, i):
    """The local functions per loop, as Mobius factors on the components;
    loops 3 and 4 differ by the substitution i -> -i."""
    one = field.one()
    zero = field.zero()

    def lf(component, numf, denf):
        return _local_function(field, component, numf, denf)

    def gamma3(ii):
        return [
            lf(0, (-ii, zero, one, zero), (-one, zero, one, zero)),  # (Z-iX)/(Z-X)
            lf(1, (zero, -one, one, zero), (zero, zero, one, zero)),  # (Z-Y)/Z
            lf(2, (one, zero, zero, zero), (-ii, zero, one, zero)),  # X/(Z-iX)
        ]

    return {
        1: [lf(0, (one, zero, one, zero), (-one, zero, one, zero)),   # (Z+X)/(Z-X)
            lf(1, (-one, zero, one, zero), (one, zero, one, zero))],  # (Z-X)/(Z+X)
        2: [lf(1, (zero, -one, one, zero), (-one, zero, one, zero)),  # (Z-Y)/(Z-X)
            lf(2, (-one, zero, one, zero), (zero, one, one, zero))],  # (Z-X)/(Z+Y)
        3: gamma3(i),
        4: gamma3(-i),
    }


def genus4_direct_table(inp):
    """The same eight rows computed through the local functions: each
    section is a divisor of orbits, the zeros of the restricted form on every
    component plus infinity for a degree deficit, and each loop is the
    product of its Mobius factors over them, by resultants at the known
    node coordinates (MobiusFactor.over_roots)."""
    k = inp.k
    field, i = inp.sqrt_minus_one
    emb = embed(k, field) if field != k else None

    def liftpoly(p):
        return p.map_coeffs(emb, field) if emb else p

    funcs = _genus4_local_functions(field, i)
    one = field.one()
    xy_form = (one, one, field.zero(), field.zero())
    # every section meets each component in two points, X + Y partly at
    # infinity
    xy = []
    for comp in range(3):
        restricted = _restrict_linear(field, xy_form, comp)
        xy.append((comp, restricted.monic(), 1))
        xy += [(comp, INF, 1)] * (2 - restricted.degree)
    zw = [(1, liftpoly(inp.eps.restrict_zw()).monic(), 1)]
    mzw = [(2, liftpoly(inp.eps.restrict_mzw()).monic(), 1)]

    nodes = {x.to_int(): x for factors in funcs.values() for f in factors
             for x in (f.enter, f.leave) if x is not INF}
    values = {}

    def values_at_nodes(H):
        if H not in values:
            values[H] = {key: H(x) for key, x in nodes.items()}
        return values[H]

    def row(entries):
        return tuple(product_of_factors(funcs[gamma], entries, one, values_at_nodes)
                     for gamma in (1, 2, 3, 4))

    return field, i, _table_rows(row(xy), row(zw), row(mzw))


def _row_subgroup(inp, field, rows, name):
    """Generators in k^x extracted from a table row: all four entries when i
    is rational, otherwise the two rational entries plus the norm of the
    third."""
    row = rows[name]
    k = inp.k
    if inp.i_in_k:
        return list(row)
    emb = embed(k, field)
    out = [emb.section(row[0]), emb.section(row[1])]
    out.append(norm_to_subfield(row[2], k.m))
    return out


def genus4_theta(inp):
    """Rational theta characteristic iff one of the four candidate rows
    generates only squares."""
    field, _i, rows = _genus4_rows(inp)
    names = ["div(X+Y)", "div(Z-W)", "div(Z+W)", "div((Z^2-W^2)/(X+Y))"]
    for name in names:
        gens = _row_subgroup(inp, field, rows, name)
        if _all_r_th_powers(gens, 2):
            return True
    return False


def genus4_cuberoot(inp):
    """Rational cube root of the canonical class.

    A candidate row works iff its rational entries are cubes in k and, when i
    is irrational, the third entry is a cube in the quadratic extension
    (tested directly by the (q^2-1)/3 power).  When 3 does not divide q - 1
    every k-rational value is a cube in the relevant group, so the first row
    always works and the answer is yes for every admissible cubic.
    """
    k = inp.k
    field, _i, rows = _genus4_rows(inp)
    names = ["div(Z-W)", "div(Z+W)", "div((Z+W)^2/(Z-W))"]
    for name in names:
        row = rows[name]
        if inp.i_in_k:
            if _all_r_th_powers(row, 3):
                return True
            continue
        emb = embed(k, field)
        rational = [emb.section(row[0]), emb.section(row[1])]
        if not _all_r_th_powers(rational, 3):
            continue
        if row[2] ** ((k.q ** 2 - 1) // 3) == field.one():
            return True
    return False


def genus4_torsion(inp):
    """Invariant factors of the prime-to-p rational torsion, from the
    two-case closed form."""
    k = inp.k
    q = k.q
    field, i, rows = _genus4_rows(inp)
    if inp.i_in_k:
        h1 = list(rows["div((Z-W)/(Z+W))"])
        h2 = list(rows["div((X+Y)/(Z+W))"])
        h3 = list(rows["div((Z-W)/(X+Y))"])
        a1 = _power_class_subgroup_order(h1, 6)
        a0 = 6 // a1
        if _all_r_th_powers(h3, 2):
            b1, b0 = 1, 2
        else:
            b1 = _power_class_subgroup_order(h2, 2)
            b0 = 2 // b1
        parts = [a0, b0, a1 * (q - 1), b1 * (q - 1), q - 1, q - 1]
        return group_invariants(parts)
    emb = embed(k, field)
    h1 = _row_subgroup(inp, field, rows, "div((Z-W)/(Z+W))")
    h3 = _row_subgroup(inp, field, rows, "div((Z-W)/(X+Y))")
    one = field.one()
    ei = inp.eps.evaluate((i, i, -one, one), lambda v: emb(v))
    if (q - 1) % 3 == 0:
        c_test = _all_r_th_powers(h1, 3)
    else:
        c_test = ei ** ((q * q - 1) // 3) == field.one()
    c0 = 3 if c_test else 1
    c3 = 3 // c0
    nm_ei = norm_to_subfield(ei, k.m)
    if power_residue(nm_ei, 2):
        b1, b3 = 2, 1
    else:
        b1, b3 = 1, 2
    if _all_r_th_powers(h3, 2):
        a0, a1 = 2, 1
    else:
        a0, a1 = 1, 2
    parts = [a0, c0, a1 * (q - 1), b1 * (q - 1), b3 * c3 * (q * q - 1)]
    return group_invariants(parts)


# -- engine route -------------------------------------------------------------


GENUS4_MATRIX = [[-4, 2, 2], [2, -4, 2], [2, 2, -4]]


def genus4_fiber(inp):
    """Special fiber of the degenerate genus-4 curve: three lines on the
    quadric in a triangle, two nodes per pair, with the torus frame and
    component-group generators for the engine.

    The evaluation field is k(i), the field of the nodes, with the square
    root of -1 the closed forms use; the sections enter as orbit entries."""
    k = inp.k
    E, i = inp.sqrt_minus_one
    one = E.one()
    zero = E.zero()
    # components: 0 = X=Y line pair, 1 = Z=W, 2 = Z=-W
    # edges (tail, head, label): coordinates on (tail, head)
    edges = [
        (0, 1, 0),  # [1:1:1:1]
        (0, 1, 1),  # [-1:-1:1:1]
        (0, 2, 2),  # [i:i:-1:1]
        (0, 2, 3),  # [-i:-i:-1:1]
        (1, 2, 4),  # [1:0:0:0]
        (1, 2, 5),  # [0:1:0:0]
    ]
    coords = [
        (one, one),
        (-one, -one),
        (i, i),
        (-i, -i),
        (INF, INF),
        (zero, zero),
    ]
    if inp.i_in_k:
        perm = [0, 1, 2, 3, 4, 5]
    else:
        perm = [0, 1, 3, 2, 4, 5]
    graph = DualGraph(3, edges, vertex_perm=[0, 1, 2], edge_perm=perm)
    fiber = SpecialFiber(graph, k, E, coords)

    def cyc(vec):
        return dual_graph.Cycle(graph, vec)

    gamma1 = cyc([1, -1, 0, 0, 0, 0])
    gamma2 = cyc([0, 0, 0, 0, -1, 1])
    gamma3 = cyc([1, 0, -1, 0, 0, 1])
    gamma4 = cyc([1, 0, 0, -1, 0, 1])
    if inp.i_in_k:
        cycles = [gamma1, gamma2, gamma3, gamma4]
    else:
        cycles = [gamma1, gamma2, gamma3]
    frame = descent.TorusFrame(fiber, cycles)
    phi = component_group(GENUS4_MATRIX)

    # specializations of the three sections
    h_zw = inp.eps.restrict_zw()
    h_mzw = inp.eps.restrict_mzw()
    if h_zw.degree != 6 or h_mzw.degree != 6:
        raise UnexpectedRootCount("a section does not meet its line in six finite points")
    div_zw = SpecializedDivisor(fiber, [(1, h_zw, 1)])
    div_mzw = SpecializedDivisor(fiber, [(2, h_mzw, 1)])
    t = Poly(k, [0, 1])
    div_xy = SpecializedDivisor(fiber, [
        (0, t, 1), (0, INF, 1),
        (1, Poly(k, [1, 0, 1]), 1),
        (2, Poly(k, [-1, 0, 1]), 1),
    ])
    delta1 = phi.project((0, 1, -1))
    delta2 = phi.project((-1, -1, 2))
    span = {phi.add(phi.scale(delta1, a), phi.scale(delta2, b))
            for a in range(6) for b in range(2)}
    if (phi.element_order(delta1), phi.element_order(delta2), len(span)) != (6, 2, 12):
        raise ComponentGroupMismatch(
            "the generators of orders 6 and 2 do not span the component group")
    generators = [
        PhiGenerator(delta1, 6, (0, 1, -1), div_mzw - div_zw),
        PhiGenerator(delta2, 2, (-1, -1, 2), div_xy - div_mzw),
    ]
    return fiber, frame, phi, generators, {
        "div(X+Y)": div_xy, "div(Z-W)": div_zw, "div(Z+W)": div_mzw}


def _genus4_data(inp):
    if not hasattr(inp, "_fiber_data"):
        inp._fiber_data = genus4_fiber(inp)
    return inp._fiber_data


def genus4_theta_engine(inp):
    fiber, frame, phi, generators, divisors = _genus4_data(inp)
    verdict = divisibility_verdict(divisors["div(X+Y)"], 2, frame, phi,
                                   generators, GENUS4_MATRIX)
    return verdict.outcome == DIVISIBLE


def genus4_cuberoot_engine(inp):
    fiber, frame, phi, generators, divisors = _genus4_data(inp)
    verdict = divisibility_verdict(divisors["div(Z-W)"], 3, frame, phi,
                                   generators, GENUS4_MATRIX)
    return verdict.outcome == DIVISIBLE


def genus4_torsion_engine(inp):
    fiber, frame, phi, generators, _ = _genus4_data(inp)
    return torsion_structure(frame, phi, generators)


# ---------------------------------------------------------------------------
# structured reports


def _torsion_or_reason(closed_fn):
    try:
        return closed_fn(), None
    except descent.UnsupportedTorus as exc:
        return None, str(exc)


def hyperelliptic_report(inp, engine_check=True):
    """JSON-ready verdict report for the two-line family."""
    from .parsing import format_univariate
    from .zmat import poly_divexact_int, poly_mul_int, poly_eval_int

    k = inp.k
    q = k.q
    facs, rational = _gbar_factor_data(inp)
    orbit_degrees = sorted(f.degree for f in facs)
    # characteristic polynomial of the Galois action on the cycle space:
    # product of x^deg - 1 over the node orbits, divided by x - 1
    fpoly = [1]
    for degree in orbit_degrees:
        fpoly = poly_mul_int(fpoly, [-1] + [0] * (degree - 1) + [1])
    fpoly = poly_divexact_int(fpoly, [-1, 1])
    order = poly_eval_int(fpoly, q)

    warnings = list(inp.warnings)
    reasons = []
    theta = theta_bd(inp)
    if theta == UNDETERMINED:
        reasons.append("no-rational-node: theta criterion outside the proved cases")
    torsion, torsion_reason = _torsion_or_reason(lambda: torsion_bd(inp))
    if torsion_reason:
        reasons.append("no-rational-node: " + torsion_reason)

    decomposition = None
    if rational or len(facs) == 1:
        decomposition = []
        if rational:
            base_removed = False
            for f in facs:
                d = f.degree
                if d == 1 and not base_removed and -f.coeffs[0] == rational[0]:
                    base_removed = True
                    continue
                decomposition.append({
                    "kind": "norm" if d > 1 else "split",
                    "rank": d,
                    "order": q ** d - 1,
                })
        else:
            d = orbit_degrees[0]
            decomposition.append({
                "kind": "principal",
                "rank": d - 1,
                "order": (q ** d - 1) // (q - 1),
            })

    checks = None
    if engine_check:
        checks = {}
        theta_e = theta_bd_engine(inp)
        if theta_e == UNDETERMINED:
            checks["theta"] = None
        else:
            checks["theta"] = (theta == theta_e)
        if torsion is not None:
            try:
                checks["torsion"] = (torsion_bd_engine(inp) == torsion)
            except descent.UnsupportedTorus:
                checks["torsion"] = None
        ok_values = [v for v in checks.values() if v is not None]
        checks["agree"] = all(ok_values) if ok_values else None

    report = {
        "schema_version": 1,
        "family": "hyperelliptic",
        "input": {
            "q": q,
            "p": k.p,
            "g": format_univariate([c.to_int() for c in inp.g.coeffs]),
            "h": format_univariate([c.to_int() for c in inp.h.coeffs]),
            "r": inp.r,
            "base_field": "Q_p" if inp.qp_mode else "local field with this residue field",
        },
        "valid": True,
        "dual_graph": {
            "vertices": 2,
            "nodes": inp.d,
            "node_orbit_degrees": orbit_degrees,
        },
        "phi": component_group([[-inp.d, inp.d], [inp.d, -inp.d]]).invariant_factors,
        "torus": {
            "char_poly": format_univariate(fpoly),
            "order": order,
            "decomposition": decomposition,
        },
        "verdicts": {
            "theta": theta,
        },
        "torsion": torsion,
        "engine_check": checks,
        "warnings": warnings,
        "undetermined_reasons": reasons,
    }
    return report


def genus4_report(inp, engine_check=True):
    """JSON-ready verdict report for the genus-4 family."""
    from .parsing import format_univariate

    k = inp.k
    q = k.q
    field, i, rows = _genus4_rows(inp)
    theta = genus4_theta(inp)
    cube = genus4_cuberoot(inp)
    torsion = genus4_torsion(inp)
    if inp.i_in_k:
        torus_info = {
            "char_poly": format_univariate([1, -4, 6, -4, 1]),
            "order": (q - 1) ** 4,
            "decomposition": [{"kind": "split", "rank": 1, "order": q - 1}] * 4,
        }
    else:
        torus_info = {
            "char_poly": format_univariate([1, -2, 0, 2, -1]),
            "order": (q - 1) ** 2 * (q * q - 1),
            "decomposition": [{"kind": "split", "rank": 1, "order": q - 1}] * 2
            + [{"kind": "norm", "rank": 2, "order": q * q - 1}],
        }

    checks = None
    if engine_check:
        _f, _i, direct = genus4_direct_table(inp)
        checks = {
            "table": all(rows[name] == direct[name] for name in ROW_NAMES),
            "theta": genus4_theta_engine(inp) == theta,
            "cube_root": genus4_cuberoot_engine(inp) == cube,
            "torsion": genus4_torsion_engine(inp) == torsion,
        }
        checks["agree"] = all(checks.values())

    report = {
        "schema_version": 1,
        "family": "genus4",
        "input": {
            "q": q,
            "p": k.p,
            "eps_vector": [c.to_int() for c in inp.eps.vector()],
            "r": inp.r,
            "base_field": "Q_p" if inp.qp_mode else "local field with this residue field",
        },
        "valid": True,
        "dual_graph": {
            "vertices": 3,
            "nodes": 6,
            "node_orbit_degrees": [1, 1, 1, 1] + ([2] if not inp.i_in_k else [1, 1]),
        },
        "phi": component_group(GENUS4_MATRIX).invariant_factors,
        "torus": torus_info,
        "verdicts": {
            "theta": theta,
            "cube_root": cube,
        },
        "torsion": torsion,
        "tables": {
            "field": repr(field),
            "i": i.to_int(),
            "rows": {name: [v.to_int() for v in rows[name]] for name in ROW_NAMES},
        },
        "engine_check": checks,
        "warnings": list(inp.warnings),
        "undetermined_reasons": [],
    }
    return report
