import pytest

from conftest import random_hyperelliptic, random_stable_divisor, rng_for
from toricdescent import descent, dual_graph, families, oracle
from toricdescent.descent import DIVISIBLE, SpecializedDivisor, divisibility_verdict
from toricdescent.finite_field import Poly, make_field


def build(q, gcoeffs, hcoeffs):
    k = make_field(q)
    inp = families.validate_hyperelliptic(k, Poly(k, list(gcoeffs)),
                                          Poly(k, list(hcoeffs)))
    return inp, families.hyperelliptic_fiber(inp)


def test_enumerate_counts():
    # split three-node curve over GF(5): (q-1)^2 = 16 points
    _, (fiber, frame, *_rest) = build(5, (0, -1, 0, 1), (3, 1))
    torus = oracle.enumerate_torus(fiber)
    assert len(torus) == 16 == frame.torus_order()
    # two lines joined at the full orbit of an irreducible cubic over GF(2):
    # 4 + 2 + 1 = 7 points
    from toricdescent.descent import SpecialFiber, TorusFrame
    from toricdescent.dual_graph import DualGraph, principal_cycle_generators
    from toricdescent.finite_field import roots_in_extension
    k2 = make_field(2)
    rts = roots_in_extension(Poly(k2, [1, 1, 0, 1]), 3)
    edges = [(0, 1, r.to_int()) for r in rts]
    perm = [next(j for j, s in enumerate(rts) if s == r.frob(1)) for r in rts]
    graph = DualGraph(2, edges, edge_perm=perm)
    fiber = SpecialFiber(graph, k2, rts[0].field, [(r, r) for r in rts])
    frame = TorusFrame(fiber, principal_cycle_generators(graph))
    torus = oracle.enumerate_torus(fiber)
    assert len(torus) == 7 == frame.torus_order()


def test_enumerate_rejects_large():
    _, (fiber, *_rest) = build(5, (0, -1, 0, 1), (3, 1))
    with pytest.raises(oracle.TooLarge):
        oracle.enumerate_torus(fiber, limit=10)


def test_exponent_divides_order():
    for q, g, h in [(5, (0, -1, 0, 1), (3, 1)), (3, (1, 0, 1, 1), (1,))]:
        k = make_field(q)
        try:
            inp = families.validate_hyperelliptic(k, Poly(k, list(g)), Poly(k, list(h)))
        except families.FamilyError:
            continue
        fiber, frame, *_ = families.hyperelliptic_fiber(inp)
        torus = oracle.enumerate_torus(fiber)
        n = frame.torus_order()
        for pt in torus.points:
            assert torus.key(torus.power(pt, n)) == torus.key(torus.identity())


def test_chain_evaluate_hand_example():
    # split curve over GF(5) with nodes at 0, 1, 4: the divisor (2) - (3) on
    # the first line evaluates along the (node 1 vs node 0) loop to
    # (2-0)(3-1) / ((3-0)(2-1)) = 4/3 = 3 mod 5
    _, (fiber, frame, *_rest) = build(5, (0, -1, 0, 1), (3, 1))
    E = fiber.E
    D = SpecializedDivisor(fiber, [(0, E(2), 1), (0, E(3), -1)])
    loop = next(c for c in frame.components
                if c.cycle.vector in ((-1, 1, 0), (1, -1, 0)))
    value = oracle.chain_evaluate(loop.cycle, D, fiber)
    direct = loop.system.evaluate(D)
    assert value == direct
    assert value.to_int() in (3, 2)  # 4/3 = 3, or its inverse for the flip


def test_chain_requires_zero_multidegree():
    _, (fiber, frame, *_rest) = build(5, (0, -1, 0, 1), (3, 1))
    D = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 2)])
    with pytest.raises(oracle.NonzeroMultidegree):
        oracle.chain_evaluate(frame.components[0].cycle, D, fiber)


def test_chain_equals_system_on_random_divisors():
    rng = rng_for("chain-vs-system")
    checks = 0
    while checks < 300:
        q = rng.choice([3, 5, 7])
        d = rng.choice([3, 4])
        if (2 * d) % q == 0:
            continue
        k = make_field(q)
        inp = random_hyperelliptic(k, d, rng)
        try:
            fiber, frame, *_ = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        D = random_stable_divisor(fiber, 1, rng)
        D0 = descent.translate_to_degree_zero(D, 1)
        for comp in frame.components:
            assert oracle.chain_evaluate(comp.cycle, D0, fiber) == \
                comp.system.evaluate(D0)
            checks += 1
    assert checks >= 300


def test_exhaustive_agreement_smoke():
    rng = rng_for("oracle-smoke")
    agree = total = 0
    for q in (3, 5, 7):
        k = make_field(q)
        for d in (3, 4):
            if (2 * d) % q == 0:
                continue
            for r in (2, 3):
                if r % q == 0:
                    continue
                inp = random_hyperelliptic(k, d, rng)
                try:
                    fiber, frame, phi, gens, M, _ = families.hyperelliptic_fiber(inp)
                except dual_graph.NotSupported:
                    continue
                torus = oracle.enumerate_torus(fiber)
                lifts = oracle.nu_lift_vectors(fiber, torus, phi, gens, r)
                for _ in range(4):
                    D = random_stable_divisor(fiber, r, rng)
                    engine = divisibility_verdict(D, r, frame, phi, gens, M)
                    truth = oracle.exhaustive_divisibility(D, r, fiber, torus, lifts)
                    total += 1
                    agree += ((engine.outcome == DIVISIBLE) == truth)
    assert total >= 20 and agree == total


def test_enumerated_structure_matches_lattice_enumeration():
    # the graph-driven enumeration and the congruence-solving enumeration
    # must give groups of the same order and exponent
    from toricdescent.dual_graph import h1_basis
    from toricdescent.torus import enumerate_rational_points
    from toricdescent.zmat import lcm
    for q, g, h in [(5, (0, -1, 0, 1), (3, 1)), (7, (2, 1, 0, 1), (1,))]:
        k = make_field(q)
        try:
            inp = families.validate_hyperelliptic(k, Poly(k, list(g)),
                                                  Poly(k, list(h)))
        except families.FamilyError:
            continue
        fiber, frame, *_ = families.hyperelliptic_fiber(inp)
        torus = oracle.enumerate_torus(fiber)
        _, lattice, _ = h1_basis(fiber.graph)
        pts = enumerate_rational_points(lattice, q)
        assert len(torus) == len(pts)
        invariants = pts.invariants
        expected_exponent = invariants[-1] if invariants else 1
        exponent = 1
        for pt in torus.points:
            order = 1
            for v in pt:
                order = lcm(order, v.multiplicative_order() if not v == fiber.E.one()
                            else 1)
            exponent = lcm(exponent, order)
        assert exponent == expected_exponent


def test_identity_and_r1_trivially_divisible():
    _, (fiber, frame, phi, gens, M, _) = build(5, (0, -1, 0, 1), (3, 1))
    torus = oracle.enumerate_torus(fiber)
    lifts = oracle.nu_lift_vectors(fiber, torus, phi, gens, 2)
    empty = SpecializedDivisor(fiber, [])
    assert oracle.exhaustive_divisibility(empty, 2, fiber, torus, lifts)
    assert oracle.exhaustive_divisibility(empty, 1, fiber, torus, lifts)
