import pytest

from conftest import multiplicative_order, random_divisor, random_hyperelliptic, rng_for
from toricdescent import descent, dual_graph, families, oracle
from toricdescent.descent import DIVISIBLE, SpecializedDivisor, divisibility_verdict
from toricdescent.finite_field import INF, Poly, make_field


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
    value = oracle.chain_evaluate(loop.cycle, oracle.divisor_points(D, fiber), fiber)
    direct = loop.system.evaluate(D)
    assert value == direct
    assert value.to_int() in (3, 2)  # 4/3 = 3, or its inverse for the flip


def test_chain_requires_zero_multidegree():
    _, (fiber, frame, *_rest) = build(5, (0, -1, 0, 1), (3, 1))
    D = SpecializedDivisor(fiber, [(0, fiber.standard_point(0), 2)])
    with pytest.raises(oracle.NonzeroMultidegree):
        oracle.chain_evaluate(frame.components[0].cycle,
                              oracle.divisor_points(D, fiber), fiber)


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
            fiber, frame, phi, gens, M = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        D = random_divisor(fiber, gens, 1, rng)
        # one fiber that holds the nodes and the divisor's points: the
        # oracle evaluates on the points, the engine by resultants at the
        # nodes, in the same field
        D0 = descent.translate_to_degree_zero(D, 1)
        degree = oracle.field_degree([inp.g] + [H for _c, H, _m in D0.entries])
        big = oracle.hyperelliptic_special_fiber(inp, degree)
        big_frame = descent.TorusFrame(big, dual_graph.principal_cycle_generators(big.graph))
        points = oracle.divisor_points(D0, big)
        D0 = SpecializedDivisor(big, D0.entries)
        for comp in big_frame.components:
            assert oracle.chain_evaluate(comp.cycle, points, big) == \
                comp.system.evaluate(D0)
            checks += 1
    assert checks >= 300


def smoke_cases():
    """The smoke set: (fiber data, r, prepare's output, four random divisors)
    for random curves over q in {3, 5, 7}, d in {3, 4} and r in {2, 3}."""
    rng = rng_for("oracle-smoke")
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
                    data = families.hyperelliptic_fiber(inp)
                except dual_graph.NotSupported:
                    continue
                fiber, _frame, phi, gens, _M = data
                prepared = oracle.prepare(inp, phi, gens, r)
                divisors = [oracle.random_divisor(fiber, r, rng, prepared[0])
                            for _ in range(4)]
                yield data, r, prepared, divisors


def test_exhaustive_agreement_smoke():
    agree = total = 0
    for (_fiber, frame, phi, gens, M), r, prepared, divisors in smoke_cases():
        _degree, ofiber, torus, subgroup = prepared
        for D in divisors:
            engine = divisibility_verdict(D, r, frame, phi, gens, M)
            truth = oracle.exhaustive_divisibility(D, r, ofiber, torus, subgroup)
            total += 1
            agree += ((engine.outcome == DIVISIBLE) == truth)
    assert total >= 20 and agree == total


def closure_per_trial(torus, lifts, r):
    """The subgroup as the oracle once built it inside every trial: closure
    from the identity under the r-th powers of the component generators and
    every lift, duplicates included."""
    generators = [torus.power(pt, r) for pt in torus.component_generators]
    generators += [vec for _el, vec in lifts]
    subgroup = {torus.key(torus.identity())}
    frontier = [torus.identity()]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = torus.mul(cur, g)
            key = torus.key(nxt)
            if key not in subgroup:
                subgroup.add(key)
                frontier.append(nxt)
    return subgroup


def test_subgroup_equals_per_trial_closure():
    cases = 0
    for (fiber, _frame, phi, gens, _M), r, prepared, divisors in smoke_cases():
        _degree, ofiber, torus, subgroup = prepared
        lifts = oracle.nu_lift_vectors(ofiber, torus, phi, gens, r)
        reference = closure_per_trial(torus, lifts, r)
        assert subgroup == reference
        for D in divisors:
            points = oracle.divisor_points(descent.translate_to_degree_zero(D, r), ofiber)
            x = tuple(oracle.chain_evaluate(cyc, points, ofiber) for cyc in torus.cycles)
            assert oracle.exhaustive_divisibility(D, r, ofiber, torus, subgroup) == \
                (torus.key(x) in reference)
        cases += 1
    assert cases >= 5


def test_one_closure_per_request(monkeypatch, capsys):
    # every EnumeratedTorus.mul of a request belongs to the closure; a
    # request with 20 trials makes exactly as many as one prepare does
    from toricdescent import cli
    calls = []
    mul = oracle.EnumeratedTorus.mul
    monkeypatch.setattr(oracle.EnumeratedTorus, "mul",
                        lambda self, a, b: calls.append(1) or mul(self, a, b))
    inp, (_fiber, _frame, phi, gens, _M) = build(5, (0, -1, 0, 1), (3, 1))
    oracle.prepare(inp, phi, gens, 2)
    per_closure = len(calls)
    calls.clear()
    trials = []
    exhaustive = oracle.exhaustive_divisibility
    monkeypatch.setattr(oracle, "exhaustive_divisibility",
                        lambda *args: trials.append(1) or exhaustive(*args))
    assert cli.run_line(["oracle", "--q", "5", "--g", "x^3-x", "--h", "x+3",
                         "--trials", "20", "--json"]) == 0
    capsys.readouterr()
    assert len(trials) == 20
    assert per_closure > 0 and len(calls) == per_closure


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
                order = lcm(order, multiplicative_order(v))
            exponent = lcm(exponent, order)
        assert exponent == expected_exponent


def test_identity_and_r1_trivially_divisible():
    inp, (fiber, frame, phi, gens, M) = build(5, (0, -1, 0, 1), (3, 1))
    _degree, ofiber, torus, subgroup = oracle.prepare(inp, phi, gens, 2)
    # the zeros of h = x + 3 add nothing to the nodes' field k, where the
    # oracle builds a fiber of its own
    assert ofiber is not fiber and ofiber.E == fiber.E == fiber.k
    empty = SpecializedDivisor(fiber, [])
    assert oracle.exhaustive_divisibility(empty, 2, ofiber, torus, subgroup)
    assert oracle.exhaustive_divisibility(empty, 1, ofiber, torus, subgroup)


def test_lift_over_a_tower_keeps_the_nodes_on_g():
    # over GF(25), g = x^3 + t x + 7 (t generating GF(25)) irreducible and
    # h = x^2 + x + 20 irreducible: the nodes lie in GF(25^3), the zeros of
    # h in GF(25^2), so the oracle builds its own fiber over GF(25^6), with
    # the nodes found there as roots of g under k's own embedding; its
    # verdicts agree with the engine's, which works in k[x]/(g), a field of
    # degree 6 over GF(5) whose modulus is a norm of a shift of g
    from toricdescent.finite_field import embed, factor
    k = make_field(5, 2)
    g = Poly(k, [k.from_int(7), k.gen(), 0, 1])
    h = Poly(k, [k.from_int(20), 1, 1])
    assert [f.degree for f, _ in factor(g) + factor(h)] == [3, 2]
    inp = families.validate_hyperelliptic(k, g, h)
    fiber, frame, phi, gens, M = families.hyperelliptic_fiber(inp)
    degree, ofiber, _torus, _subgroup = oracle.prepare(inp, phi, gens, 2)
    assert (degree, fiber.E.m, ofiber.E.m) == (6, 6, 12)
    assert fiber.E.given_modulus and not ofiber.E.given_modulus
    node = fiber.node_coords[0][0]
    g_node = g.map_coeffs(embed(k, node.field), node.field)
    assert node.field is fiber.E and all(g_node(a).is_zero() for a, _b in fiber.node_coords)
    assert ofiber is oracle.hyperelliptic_special_fiber(inp, 6)
    g_big = g.map_coeffs(embed(k, ofiber.E), ofiber.E)
    assert all(g_big(a).is_zero() for a, _b in ofiber.node_coords)
    # the torus has 651 = 3 * 7 * 31 points: every class is 2-divisible,
    # and 3-divisibility is a real question
    rng = rng_for("oracle-tower")
    outcomes = {2: set(), 3: set()}
    quadratic_orbits = 0
    for r in (2, 3):
        _degree, _ofiber, torus, subgroup = oracle.prepare(inp, phi, gens, r)
        for _ in range(12):
            D = oracle.random_divisor(fiber, r, rng, degree)
            quadratic_orbits += sum(1 for _c, H, _m in D.entries
                                    if H is not INF and H.degree == 2)
            engine = divisibility_verdict(D, r, frame, phi, gens, M)
            truth = oracle.exhaustive_divisibility(D, r, ofiber, torus, subgroup)
            assert (engine.outcome == DIVISIBLE) == truth
            outcomes[r].add(truth)
    assert quadratic_orbits > 0 and outcomes == {2: {True}, 3: {True, False}}


def test_random_orbits_are_irreducible_over_k():
    from toricdescent.finite_field import factor
    rng = rng_for("random-orbits")
    for p, m in ((3, 1), (5, 1), (3, 2), (5, 2), (3, 3)):
        k = make_field(p, m)
        for t in (1, 2, 2, 2):
            H = oracle._random_orbit(k, t, rng)
            assert H.degree == t and H.lead() == k.one()
            assert factor(H) == [(H, 1)]


def test_random_divisor_refuses_characteristic_2():
    from toricdescent.descent import SpecialFiber
    from toricdescent.dual_graph import DualGraph
    k2 = make_field(2)
    fiber = SpecialFiber(DualGraph(2, [(0, 1, 0)]), k2, k2, [(k2.zero(), k2.zero())])
    with pytest.raises(oracle.EvenCharacteristic):
        oracle.random_divisor(fiber, 2, rng_for("char-2"), 2)


def test_verify_equivariance_survives_python_O():
    # over GF(5) with g irreducible, Frobenius permutes the cycles, and a
    # point with the same non-rational value on every cycle is not
    # equivariant; the check must raise even with asserts stripped
    import subprocess
    import sys
    code = ("from toricdescent import families, oracle\n"
            "from toricdescent.finite_field import Poly, make_field\n"
            "k = make_field(5)\n"
            "inp = families.validate_hyperelliptic(k, Poly(k, [1, 1, 0, 1]), Poly(k, [3, 1]))\n"
            "torus = oracle.enumerate_torus(families.hyperelliptic_fiber(inp)[0])\n"
            "torus.points[-1] = (torus.fiber.E.gen(),) * len(torus.cycles)\n"
            "try:\n"
            "    oracle._verify_equivariance(torus)\n"
            "except oracle.NotEquivariant:\n"
            "    raise SystemExit(7)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 7, proc.stderr
