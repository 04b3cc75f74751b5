import pytest

import properties
from conftest import random_hyperelliptic, random_stable_divisor, rng_for
from toricdescent import descent, dual_graph, families
from toricdescent.descent import (
    DIVISIBLE, NOT_DIVISIBLE, NOT_IN_PIC_R, SpecializedDivisor,
    DivisorMeetsNode, NotDivRDivisor, divisibility_verdict, gamma_class,
    translate_to_degree_zero)
from toricdescent.finite_field import Poly, make_field, power_residue


def b3_instance(q=7, gcoeffs=(0, -1, 0, 1), hcoeffs=(2, 1)):
    k = make_field(q)
    inp = families.validate_hyperelliptic(k, Poly(k, list(gcoeffs)),
                                          Poly(k, list(hcoeffs)))
    return inp, families.hyperelliptic_fiber(inp)


def test_gamma_class_canonical_example():
    # split three-node curve over GF(7): the two loop classes of the even
    # canonical representative are h(0)h(1) = 6 (nonsquare) and h(0)h(-1) = 2
    # (a square)
    inp, (fiber, frame, phi, gens, M, h_roots) = b3_instance()
    L = families.hyperelliptic_canonical_divisor(inp, fiber, h_roots)
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
    inp, (fiber, frame, phi, gens, M, h_roots) = b3_instance()
    bad = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 1)])
    with pytest.raises(NotDivRDivisor):
        gamma_class(bad, frame.components[0], 2)


def test_divisor_rejects_nodes():
    inp, (fiber, _, _, _, _, _) = b3_instance()
    node = fiber.node_coords[0][0]
    with pytest.raises(DivisorMeetsNode):
        SpecializedDivisor(fiber, [(0, node, 1)])


def test_canonical_divisibility_verdicts():
    inp, (fiber, frame, phi, gens, M, h_roots) = b3_instance(q=7)
    L = families.hyperelliptic_canonical_divisor(inp, fiber, h_roots)
    verdict = divisibility_verdict(L, 2, frame, phi, gens, M)
    assert verdict.outcome == NOT_DIVISIBLE
    assert verdict.failure_table
    inp23, (fiber, frame, phi, gens, M, h_roots) = b3_instance(q=23)
    L = families.hyperelliptic_canonical_divisor(inp23, fiber, h_roots)
    verdict = divisibility_verdict(L, 2, frame, phi, gens, M)
    assert verdict.outcome == DIVISIBLE
    assert verdict.witness is not None
    assert divisibility_verdict(L, 1, frame, phi, gens, M).outcome == DIVISIBLE


def test_geometric_obstruction():
    inp, (fiber, frame, phi, gens, M, _) = b3_instance()
    odd = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 1),
                                     (1, fiber.standard_point(1), 2)])
    verdict = divisibility_verdict(odd, 2, frame, phi, gens, M)
    assert verdict.outcome == NOT_IN_PIC_R


def test_shift_into_divisible_multidegree():
    # multidegree (3, -3) + (1, 1) = (4, -2): not even, but reachable by the
    # principal compensators, so a verdict must still be produced
    inp, (fiber, frame, phi, gens, M, h_roots) = b3_instance(q=7)
    L = families.hyperelliptic_canonical_divisor(inp, fiber, h_roots)
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
            fiber, frame, phi, gens, M, h_roots = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        r = rng.choice([2, 3])
        D = random_stable_divisor(fiber, r, rng)
        E = random_stable_divisor(fiber, 1, rng)
        v1 = divisibility_verdict(D, r, frame, phi, gens, M)
        v2 = divisibility_verdict(D + E.scale(r), r, frame, phi, gens, M)
        assert v1.outcome == v2.outcome


def test_translate_to_degree_zero():
    inp, (fiber, frame, phi, gens, M, h_roots) = b3_instance()
    L = families.hyperelliptic_canonical_divisor(inp, fiber, h_roots)
    D0 = translate_to_degree_zero(L, 2)
    assert D0.multidegree == (0, 0)
    with pytest.raises(NotDivRDivisor):
        translate_to_degree_zero(
            SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 1)]), 2)
