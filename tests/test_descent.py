import pytest

import properties
from conftest import random_divisor, random_hyperelliptic, rng_for
from toricdescent import descent, dual_graph, families
from toricdescent.descent import (
    DIVISIBLE, NOT_DIVISIBLE, NOT_IN_PIC_R, SpecializedDivisor,
    DivisorMeetsNode, NotDivRDivisor, divisibility_verdict, gamma_class,
    translate_to_degree_zero)
from toricdescent.descent import MobiusFactor
from toricdescent.finite_field import (INF, Poly, embed, embed_over, extension,
                                       factor, make_field, power_residue,
                                       roots_in_extension)
from toricdescent.zmat import factorize, lcm


def b3_instance(q=7, gcoeffs=(0, -1, 0, 1), hcoeffs=(2, 1)):
    k = make_field(q)
    inp = families.validate_hyperelliptic(k, Poly(k, list(gcoeffs)),
                                          Poly(k, list(hcoeffs)))
    return inp, families.hyperelliptic_fiber(inp)


def test_gamma_class_canonical_example():
    # split three-node curve over GF(7): the two loop classes of the even
    # canonical representative are h(0)h(1) = 6 (nonsquare) and h(0)h(-1) = 2
    # (a square)
    inp, (fiber, frame, phi, gens, M) = b3_instance()
    L = families.hyperelliptic_canonical_divisor(inp, fiber)
    k = fiber.k
    classes = []
    for comp in frame.components:
        cls = gamma_class(L, comp, 2)
        classes.append(cls)
        # the class is trivial exactly when the evaluation is a square
        assert cls.is_trivial() == power_residue(cls.value, 2)
    assert sorted(c.is_trivial() for c in classes) == [False, True]
    values = sorted(power_residue(c.value, 2) for c in classes)
    assert values == [False, True]


def test_gamma_class_requires_divisible_multidegree():
    inp, (fiber, frame, phi, gens, M) = b3_instance()
    bad = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 1)])
    with pytest.raises(NotDivRDivisor):
        gamma_class(bad, frame.components[0], 2)


def test_divisor_rejects_nodes():
    inp, (fiber, _, _, _, _) = b3_instance()
    node = fiber.node_coords[0][0]
    with pytest.raises(DivisorMeetsNode):
        SpecializedDivisor(fiber, [(0, fiber.embed.section(node), 1)])
    # an orbit meets a node when its polynomial vanishes there: g itself
    with pytest.raises(DivisorMeetsNode):
        SpecializedDivisor(fiber, [(1, inp.g, 1)])


def test_canonical_divisibility_verdicts():
    inp, (fiber, frame, phi, gens, M) = b3_instance(q=7)
    L = families.hyperelliptic_canonical_divisor(inp, fiber)
    verdict = divisibility_verdict(L, 2, frame, phi, gens, M)
    assert verdict.outcome == NOT_DIVISIBLE
    assert verdict.failure_table
    inp23, (fiber, frame, phi, gens, M) = b3_instance(q=23)
    L = families.hyperelliptic_canonical_divisor(inp23, fiber)
    verdict = divisibility_verdict(L, 2, frame, phi, gens, M)
    assert verdict.outcome == DIVISIBLE
    assert verdict.witness is not None
    assert divisibility_verdict(L, 1, frame, phi, gens, M).outcome == DIVISIBLE


def test_geometric_obstruction():
    inp, (fiber, frame, phi, gens, M) = b3_instance()
    odd = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 1),
                                     (1, fiber.standard_point(1), 2)])
    verdict = divisibility_verdict(odd, 2, frame, phi, gens, M)
    assert verdict.outcome == NOT_IN_PIC_R


def test_shift_into_divisible_multidegree():
    # multidegree (3, -3) + (1, 1) = (4, -2): not even, but reachable by the
    # principal compensators, so a verdict must still be produced
    inp, (fiber, frame, phi, gens, M) = b3_instance(q=7)
    L = families.hyperelliptic_canonical_divisor(inp, fiber)
    pt0 = fiber.standard_point(0)
    pt1 = fiber.standard_point(1)
    shifted = L + SpecializedDivisor(fiber, [(0, pt0, 3), (1, pt1, -3)])
    assert any(d % 2 for d in shifted.multidegree)
    verdict = divisibility_verdict(shifted, 2, frame, phi, gens, M)
    assert verdict.outcome in (DIVISIBLE, NOT_DIVISIBLE)


def test_base_point_independence():
    assert properties.run_base_point_independence(60) >= 60


def test_principal_triviality():
    assert properties.run_principal_triviality(60) >= 60


def test_nu_additivity():
    assert properties.run_nu_additivity(60) >= 60


def test_orientation_flip():
    assert properties.run_orientation_flip(60) >= 60


def test_verdict_stable_under_r_multiples():
    rng = rng_for("verdict-shift")
    for _ in range(40):
        q = rng.choice([5, 7])
        k = make_field(q)
        inp = random_hyperelliptic(k, 3, rng)
        try:
            fiber, frame, phi, gens, M = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        r = rng.choice([2, 3])
        D = random_divisor(fiber, gens, r, rng)
        E = random_divisor(fiber, gens, 1, rng)
        v1 = divisibility_verdict(D, r, frame, phi, gens, M)
        v2 = divisibility_verdict(D + E.scale(r), r, frame, phi, gens, M)
        assert v1.outcome == v2.outcome


def test_translate_to_degree_zero():
    inp, (fiber, frame, phi, gens, M) = b3_instance()
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
    # over the roots of H found in its splitting field
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
        E = extension(k, rng.choice([1, 2, 3]))
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
        big = extension(k, lcm(split, E.m // k.m))
        emb = embed_over(k, E, big)
        rts = roots_in_extension(H, big.m // k.m)
        assert len(rts) == n
        lift = [x if x is INF else emb(x) for x in (a, b)]
        assert emb(num / den) == _pointwise(emb(s_num) / emb(s_den), *lift, rts)
        checks += 1


def test_divisor_meets_node_exactly_when_h_vanishes_there():
    # g = x (x^2 + 1) over GF(7): the nodes 0 and +-i, the latter in GF(49)
    k = make_field(7)
    inp = families.validate_hyperelliptic(k, Poly(k, [0, 1, 0, 1]), Poly(k, [3]))
    fiber = families.hyperelliptic_fiber(inp)[0]
    assert fiber.E.m == 2
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
    inp, (fiber, frame, phi, gens, M) = b3_instance()
    D = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 3),
                                   (1, fiber.standard_point(1), -1)])
    monkeypatch.setattr(descent.zmat, "solve_mod", lambda A, b, n: [0])
    with pytest.raises(NotDivRDivisor):
        divisibility_verdict(D, 2, frame, phi, gens, M)


def test_verdict_matches_the_rows_of_the_table():
    # the verdict combines residues by additivity; evaluating every row's
    # shifted divisor directly must give the same failure table
    rng = rng_for("verdict-rows")
    checked = 0
    while checked < 20:
        k = make_field(rng.choice([7, 13]))
        inp = random_hyperelliptic(k, rng.choice([3, 4]), rng)
        try:
            fiber, frame, phi, gens, M = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        r = rng.choice([2, 3])
        D = random_divisor(fiber, gens, r, rng)
        verdict = divisibility_verdict(D, r, frame, phi, gens, M)
        rows = {}
        for element, powers, _rep in descent.phi_r_table(phi, gens, r, fiber):
            shifted = D + descent.compensating_divisor(gens, powers, fiber)
            rows[element] = tuple(gamma_class(shifted, comp, r).residue
                                  for comp in frame.components)
        if verdict.outcome == NOT_DIVISIBLE:
            assert verdict.failure_table == rows
        else:
            assert not any(rows[verdict.witness])
        checked += 1
