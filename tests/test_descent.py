from itertools import product

import pytest

import properties
from conftest import random_divisor, random_hyperelliptic, rng_for
from toricdescent import descent, dual_graph, families, zmat
from toricdescent.descent import (
    DIVISIBLE, NOT_DIVISIBLE, NOT_IN_PIC_R, SpecializedDivisor,
    DivisorMeetsNode, NotDivRDivisor, divisibility_verdict, gamma_class,
    translate_to_degree_zero)
from toricdescent.descent import MobiusFactor
from toricdescent.finite_field import (INF, Poly, embed, extension,
                                       factor, make_field, power_residue,
                                       roots_in_extension)
from toricdescent.zmat import factorize, gcd, lcm


def b3_instance(q=7, gcoeffs=(0, -1, 0, 1), hcoeffs=(2, 1)):
    k = make_field(q)
    inp = families.validate_hyperelliptic(k, Poly(k, list(gcoeffs)),
                                          Poly(k, list(hcoeffs)))
    return inp, families.hyperelliptic_fiber(inp)


def test_gamma_class_canonical_example():
    # split three-node curve over GF(7): the two loop classes of the even
    # canonical representative are h(0)h(1) = 6 (nonsquare) and h(0)h(-1) = 2
    # (a square)
    inp, (fiber, frame, phi, gens) = b3_instance()
    L = families.hyperelliptic_canonical_divisor(inp, fiber)
    k = fiber.k
    classes = []
    for comp in frame.components:
        cls = gamma_class(L, comp, 2)
        classes.append(cls)
        # the class is trivial exactly when the evaluation is a square
        assert (cls.residue == 0) == power_residue(comp.evaluate(L), 2)
    assert sorted(c.residue == 0 for c in classes) == [False, True]
    values = sorted(power_residue(comp.evaluate(L), 2) for comp in frame.components)
    assert values == [False, True]


def test_gamma_class_requires_divisible_multidegree():
    inp, (fiber, frame, phi, gens) = b3_instance()
    bad = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 1)])
    with pytest.raises(NotDivRDivisor):
        gamma_class(bad, frame.components[0], 2)


def test_divisor_rejects_nodes():
    inp, (fiber, _, _, _) = b3_instance()
    node = fiber.node_coords[0][0]
    # g splits over GF(7): every node is a point of k
    assert fiber.E == fiber.k and all(a.field == fiber.k for a, _b in fiber.node_coords)
    with pytest.raises(DivisorMeetsNode):
        SpecializedDivisor(fiber, [(0, node, 1)])
    # an orbit meets a node when its polynomial vanishes there: g itself
    with pytest.raises(DivisorMeetsNode):
        SpecializedDivisor(fiber, [(1, inp.g, 1)])


def test_canonical_divisibility_verdicts():
    inp, (fiber, frame, phi, gens) = b3_instance(q=7)
    L = families.hyperelliptic_canonical_divisor(inp, fiber)
    verdict = divisibility_verdict(L, 2, frame, phi, gens)
    assert verdict.outcome == NOT_DIVISIBLE
    assert verdict.failure_table
    inp23, (fiber, frame, phi, gens) = b3_instance(q=23)
    L = families.hyperelliptic_canonical_divisor(inp23, fiber)
    verdict = divisibility_verdict(L, 2, frame, phi, gens)
    assert verdict.outcome == DIVISIBLE
    assert verdict.witness is not None
    assert divisibility_verdict(L, 1, frame, phi, gens).outcome == DIVISIBLE


def test_geometric_obstruction():
    inp, (fiber, frame, phi, gens) = b3_instance()
    odd = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 1),
                                     (1, fiber.standard_point(1), 2)])
    verdict = divisibility_verdict(odd, 2, frame, phi, gens)
    assert verdict.outcome == NOT_IN_PIC_R


def test_shift_into_divisible_multidegree():
    # multidegree (3, -3) + (1, 1) = (4, -2): not even, but reachable by the
    # principal compensators, so a verdict must still be produced
    inp, (fiber, frame, phi, gens) = b3_instance(q=7)
    L = families.hyperelliptic_canonical_divisor(inp, fiber)
    pt0 = fiber.standard_point(0)
    pt1 = fiber.standard_point(1)
    shifted = L + SpecializedDivisor(fiber, [(0, pt0, 3), (1, pt1, -3)])
    assert any(d % 2 for d in shifted.multidegree)
    verdict = divisibility_verdict(shifted, 2, frame, phi, gens)
    assert verdict.outcome in (DIVISIBLE, NOT_DIVISIBLE)


def test_base_point_independence():
    assert properties.run_base_point_independence(60) >= 60


def test_principal_triviality():
    assert properties.run_principal_triviality(60) >= 60


def test_nu_additivity():
    assert properties.run_nu_additivity(60) >= 60


def test_orientation_flip():
    assert properties.run_orientation_flip(60) >= 60


def test_classes_add_over_orbit_entries():
    assert properties.run_entry_classes(5) >= 200


def test_verdict_stable_under_r_multiples():
    rng = rng_for("verdict-shift")
    for _ in range(40):
        q = rng.choice([5, 7])
        k = make_field(q)
        inp = random_hyperelliptic(k, 3, rng)
        try:
            fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        r = rng.choice([2, 3])
        D = random_divisor(fiber, gens, r, rng)
        E = random_divisor(fiber, gens, 1, rng)
        v1 = divisibility_verdict(D, r, frame, phi, gens)
        v2 = divisibility_verdict(D + E.scale(r), r, frame, phi, gens)
        assert v1.outcome == v2.outcome


def test_translate_to_degree_zero():
    inp, (fiber, frame, phi, gens) = b3_instance()
    L = families.hyperelliptic_canonical_divisor(inp, fiber)
    D0 = translate_to_degree_zero(L, 2)
    assert D0.multidegree == (0, 0)
    with pytest.raises(NotDivRDivisor):
        translate_to_degree_zero(
            SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 1)]), 2)


def _pointwise(scale, a, b, rts):
    """The Mobius factor scale * (t - a)/(t - b) multiplied over the roots."""
    acc = scale ** len(rts)
    for rho in rts:
        num = acc.field.one() if a is INF else rho - a
        den = acc.field.one() if b is INF else rho - b
        acc = acc * num / den
    return acc


@pytest.mark.parametrize("q", [5, 9, 25, 27, 49])
def test_mobius_product_over_roots_is_a_resultant(q):
    # s^n H(a)/H(b), with the sign cases at infinity, against the product
    # over the roots of H, all in one field that holds them
    [(p, m)] = factorize(q).items()
    k = make_field(p, m)
    rng = rng_for(f"mobius-resultant-{q}")
    checks = 0
    while checks < 16:
        n = rng.randrange(1, 6)
        H = Poly(k, [k.from_int(rng.randrange(q)) for _ in range(n)] + [k.one()])
        split = 1
        for f, _ in factor(H):
            split = lcm(split, f.degree)
        E = extension(k, lcm(split, rng.choice([1, 2, 3])))
        a, b = [INF if rng.randrange(4) == 0 else E.from_int(rng.randrange(E.q))
                for _ in range(2)]
        if a == b or (a is INF and b is INF):
            continue
        HE = H.map_coeffs(embed(k, E), E)
        if any(x is not INF and HE(x).is_zero() for x in (a, b)):
            continue
        s_num = E.from_int(rng.randrange(1, E.q))
        s_den = E.from_int(rng.randrange(1, E.q))
        h_a, h_b = [None if x is INF else HE(x) for x in (a, b)]
        num, den = MobiusFactor(0, a, b, s_num, s_den).over_roots(n, h_a, h_b)
        rts = roots_in_extension(H, E.m // k.m)
        assert len(rts) == n
        assert num / den == _pointwise(s_num / s_den, a, b, rts)
        checks += 1


def test_divisor_meets_node_exactly_when_h_vanishes_there():
    # g = x (x^2 + 1) over GF(7): the nodes 0 and +-i, the latter in GF(49)
    k = make_field(7)
    inp = families.validate_hyperelliptic(k, Poly(k, [0, 1, 0, 1]), Poly(k, [3]))
    fiber = families.hyperelliptic_fiber(inp)[0]
    # the rational node 0 stays in k, +-i are x and -x in GF(7)[x]/(x^2 + 1)
    assert [(a.field.m, a.to_int()) for a, _b in fiber.node_coords] == [(1, 0), (2, 7), (2, 42)]
    with pytest.raises(DivisorMeetsNode):
        SpecializedDivisor(fiber, [(0, Poly(k, [1, 0, 1]), 1)])  # the orbit of +-i
    with pytest.raises(DivisorMeetsNode):
        SpecializedDivisor(fiber, [(1, Poly(k, [0, 1]) * Poly(k, [2, 1]), -1)])
    D = SpecializedDivisor(fiber, [(0, Poly(k, [2, 0, 1]), 1), (1, Poly(k, [3, 1]), 2)])
    assert D.multidegree == (2, 2)
    # INF meets no node here; an entry must be INF, in k or a polynomial over k
    SpecializedDivisor(fiber, [(0, INF, 1)])
    with pytest.raises(descent.NotAnOrbit):
        SpecializedDivisor(fiber, [(0, fiber.E.gen(), 1)])


def test_frame_component_refuses_a_trivial_order():
    inp, (fiber, frame, *_rest) = b3_instance()
    with pytest.raises(descent.UnsupportedTorus):
        descent.FrameComponent(fiber, frame.components[0].cycle, [-7, 1])


def test_failed_shift_is_a_typed_error(monkeypatch):
    inp, (fiber, frame, phi, gens) = b3_instance()
    D = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 3),
                                   (1, fiber.standard_point(1), -1)])
    monkeypatch.setattr(descent.zmat, "solve_mod", lambda A, b, n: [0])
    with pytest.raises(NotDivRDivisor):
        divisibility_verdict(D, 2, frame, phi, gens)


def _literal_rows(D, r, frame, phi, gens):
    """{element of Phi[r]: the residues of D + sum_t (sol_t + p_t) f_t along
    every frame component}, by gamma_class of that divisor.  sol solves the
    multidegree congruence that the verdict's shift solves; the element
    with coefficient a_t on generator t, a multiple of order_t / gcd(r,
    order_t), takes the power p_t = a_t r / order_t."""
    cols = [gen.f_divisor.multidegree for gen in gens]
    sol = [0] * len(gens)
    if any(d % r for d in D.multidegree):
        sol = zmat.solve_mod([list(row) for row in zip(*cols)],
                             [-d for d in D.multidegree], r)
    rows = {}
    for coeffs in product(*[range(0, gen.order, gen.order // gcd(r, gen.order))
                            for gen in gens]):
        element = phi.identity()
        for a, gen in zip(coeffs, gens):
            if a:
                element = phi.add(element, phi.scale(gen.element, a))
        coefficients = [s + a * r // gen.order for s, a, gen in zip(sol, coeffs, gens)]
        divisor = D + descent.compensating_divisor(gens, coefficients, D.fiber)
        rows[element] = tuple(gamma_class(divisor, comp, r).residue
                              for comp in frame.components)
    return rows


def test_verdict_matches_the_rows_of_the_table():
    # the verdict adds the classes of D and of the generators' functions;
    # evaluating every row's divisor directly must give the same failure
    # table.  Every other divisor is moved by m times the multidegree of a
    # function divisor (standard points, not the function), so that r need
    # not divide its multidegree and the verdict shifts it first
    rng = rng_for("verdict-rows")
    checked = shifted = 0
    while checked < 40:
        k = make_field(rng.choice([7, 13]))
        inp = random_hyperelliptic(k, rng.choice([3, 4]), rng)
        try:
            fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        r = rng.choice([2, 3])
        D = random_divisor(fiber, gens, r, rng)
        if checked % 2:
            m = rng.randrange(1, r)
            D = D + SpecializedDivisor(fiber, [
                (comp, fiber.standard_point(comp), m * d)
                for comp, d in enumerate(rng.choice(gens).f_divisor.multidegree)])
        verdict = divisibility_verdict(D, r, frame, phi, gens)
        rows = _literal_rows(D, r, frame, phi, gens)
        if verdict.outcome == NOT_DIVISIBLE:
            assert verdict.failure_table == rows
        else:
            assert verdict.outcome == DIVISIBLE and not any(rows[verdict.witness])
        shifted += any(d % r for d in D.multidegree)
        checked += 1
    assert shifted >= 10


def test_torsion_presents_the_prime_to_p_part_of_each_generator():
    # when p divides the order of a component-group generator, the lift of
    # the generator times that p-part has the prime-to-p order n and reads
    # the connecting map at r = n.  No validated input gets there (p | 2d
    # is refused), so the inputs are built as they stand: d = 5 over GF(5),
    # the generator of order 5 drops out; d = 10 over GF(25), order 10
    # gives n = 2
    k = make_field(5)
    inp = families.HyperellipticInput(k, Poly(k, [0, -1, 0, 0, 0, 1]), Poly(k, [2, 0, 1]))
    assert families.torsion_bd_engine(inp) == [4, 4, 4, 4]
    k = make_field(5, 2)
    g = Poly(k, [1])
    for n in range(10):
        g = g * Poly(k, [-k.from_int(n), k.one()])
    inp = families.HyperellipticInput(k, g, Poly(k, [k.from_int(10), k.one()]))
    (gen,) = inp.fiber_data[3]
    assert gen.order == 10
    assert families.torsion_bd_engine(inp) == [24] * 8 + [48]


def test_each_entry_keeps_its_zero_pole_and_membership_checks(monkeypatch):
    # a class takes every entry's value, so an entry at a zero or pole of a
    # local function raises DivisorMeetsNode also when gcd(r, order) = 1 and
    # no residue symbol is taken; when gcd(r, order) > 1, an entry whose
    # value leaves the mu group raises DescentError.  g = x^3 + x + 1 is
    # irreducible over GF(7): one cycle, mu of order 57 in GF(7^3)
    inp, (fiber, frame, phi, gens) = b3_instance(gcoeffs=(1, 1, 0, 1), hcoeffs=(2, 1))
    (comp,) = frame.components
    assert comp.order == 57
    k = fiber.k
    D = SpecializedDivisor(fiber, [(0, k.from_int(2), 1), (0, k.from_int(3), -1)])
    assert gamma_class(D, comp.for_request(fiber), 2).modulus == 1
    zero = comp.field.zero()
    view = comp.for_request(fiber)
    monkeypatch.setattr(view, "node_value", lambda H, c: zero)
    with pytest.raises(DivisorMeetsNode):
        gamma_class(D, view, 2)
    outside = comp.field.gen()
    assert outside ** comp.order != comp.field.one()
    view = comp.for_request(fiber)
    monkeypatch.setattr(view, "entry_value", lambda c, H: outside)
    with pytest.raises(descent.DescentError, match="left the mu group"):
        gamma_class(D, view, 3)


def test_mu_generator_is_cached_once(monkeypatch):
    # the field keeps its elements of given orders: every residue symbol of
    # a frame component asks element_of_order again, the search runs at most
    # once per field and order, and the fiber keeps no copy.  A component
    # takes each entry's symbol once per request, so the three entries of L
    # ask once per component, and the second pass asks nothing
    from toricdescent import finite_field
    asked, searched = [], []
    ask, search = finite_field.element_of_order, finite_field._element_of_order

    def asking(field, n):
        asked.append((field, n))
        return ask(field, n)

    def searching(field, n):
        searched.append((field, n))
        return search(field, n)

    monkeypatch.setattr(finite_field, "element_of_order", asking)
    monkeypatch.setattr(finite_field, "_element_of_order", searching)
    inp, (fiber, frame, phi, gens) = b3_instance()
    assert not hasattr(fiber, "mu_generator")
    L = families.hyperelliptic_canonical_divisor(inp, fiber)
    for _ in range(2):
        for comp in frame.components:
            gamma_class(L, comp, 2)
    assert len(L.entries) == 3
    assert len(asked) == len(L.entries) * len(frame.components) == 6
    assert len(searched) == len(set(searched)) <= len(set(asked))


def test_validated_sums_and_scales_equal_full_construction():
    # sums and multiples on one fiber reuse validated entries; the result
    # must be what validating everything again gives, entries and
    # multidegree alike
    rng = rng_for("validated-sums")
    checked = 0
    while checked < 30:
        k = make_field(rng.choice([5, 7, 13]))
        inp = random_hyperelliptic(k, rng.choice([3, 4]), rng)
        try:
            fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        D = random_divisor(fiber, gens, 1, rng)
        E = random_divisor(fiber, gens, 1, rng) + gens[0].f_divisor
        for got, entries in [(D + E, D.entries + E.entries),
                             (D - E, D.entries + E.scale(-1).entries),
                             (D - D, ())] + [
                (D.scale(c), [(comp, H, m * c) for comp, H, m in D.entries])
                for c in (-3, -1, 0, 2)]:
            full = SpecializedDivisor(fiber, entries)
            assert (got.entries, got.multidegree) == (full.entries, full.multidegree)
            assert got.fiber is fiber
        checked += 1


def test_a_sum_across_fibers_validates_everything():
    # x = 0 is a node of y^2 = (x^3 - x)^2 + pi h, not of the curve whose
    # nodes are 2, 3 and 4: the entry t - 0 is valid on the second fiber
    # only, and adding it to a divisor on the first must refuse it
    _, (fiber1, *_rest) = b3_instance(q=7)
    _, (fiber2, *_rest) = b3_instance(q=7, gcoeffs=(-24, 26, -9, 1))
    zero = fiber2.k.zero()
    assert fiber2.meets_nodes(0, Poly(fiber2.k, [0, 1])) is False
    D1 = SpecializedDivisor(fiber1, [(0, fiber1.k.from_int(5), 1)])
    D2 = SpecializedDivisor(fiber2, [(0, zero, 1)])
    with pytest.raises(DivisorMeetsNode):
        D1 + D2
    # the point 5 is a node of neither
    assert (D2 + D1).fiber is fiber2 and (D2 + D1).multidegree == (2, 0)


def uncached_standard_point(fiber, component, extra_avoid=()):
    """The scan standard_point made on every call before it kept one per
    component."""
    polys = [H for H in extra_avoid if H is not INF]
    for x in fiber.rational_coordinates(component,
                                        fiber.component_node_coords(component)):
        if x is INF:
            if INF not in extra_avoid:
                return x
        elif all(not H(x).is_zero() for H in polys):
            return x
    raise descent.NoRationalBasePoint(f"component {component} has no free rational point")


@pytest.mark.parametrize("q, gcoeffs", [
    (7, (0, -1, 0, 1)),
    (5, (1, 1, 0, 1)),
    (13, (-6, 11, -6, 1)),
    (1048573, (-1, -1, 0, 1)),
])
def test_memoized_standard_point_equals_the_uncached_scan(q, gcoeffs):
    _, (fiber, *_rest) = b3_instance(q=q, gcoeffs=gcoeffs, hcoeffs=(2, 1))
    k = fiber.k
    rng = rng_for(f"standard-point-{q}")

    def line(c):
        return Poly(k, [-k.from_int(c), 1])

    for _ in range(40):
        comp = rng.randrange(2)
        # orbits that vanish at some of the first free coordinates, so the
        # scan has to run past them, and now and then INF
        avoid = [line(rng.randrange(8)) for _ in range(rng.randrange(4))]
        if rng.random() < 0.3:
            avoid.append(INF)
        assert fiber.standard_point(comp, avoid) == \
            uncached_standard_point(fiber, comp, avoid)
    # only the prefix some call needed is drawn, never a list of size q
    for found, _rest in fiber._scans:
        assert len(found) <= 16


def test_standard_point_refuses_when_every_point_is_avoided():
    _, (fiber, *_rest) = b3_instance(q=5, gcoeffs=(0, -1, 0, 1), hcoeffs=(3, 1))
    k = fiber.k
    everything = [Poly(k, [-k.from_int(c), 1]) for c in range(5)] + [INF]
    for comp in range(2):
        with pytest.raises(descent.NoRationalBasePoint):
            fiber.standard_point(comp, everything)
        with pytest.raises(descent.NoRationalBasePoint):
            uncached_standard_point(fiber, comp, everything)
