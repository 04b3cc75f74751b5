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
    torus = oracle.enumerate_torus(fiber.graph, fiber.k, fiber.E)
    assert len(torus) == 16 == frame.torus_order()
    # two lines joined at the full orbit of an irreducible cubic over GF(2):
    # 4 + 2 + 1 = 7 points
    from toricdescent.descent import SpecialFiber, TorusFrame
    from toricdescent.dual_graph import DualGraph
    from toricdescent.finite_field import roots_in_extension
    k2 = make_field(2)
    rts = roots_in_extension(Poly(k2, [1, 1, 0, 1]), 3)
    edges = [(0, 1, r.to_int()) for r in rts]
    perm = [next(j for j, s in enumerate(rts) if s == r.frob(1)) for r in rts]
    graph = DualGraph(2, edges, edge_perm=perm)
    fiber = SpecialFiber(graph, k2, rts[0].field, [(r, r) for r in rts])
    frame = TorusFrame(fiber)
    torus = oracle.enumerate_torus(fiber.graph, fiber.k, fiber.E)
    assert len(torus) == 7 == frame.torus_order()


def test_enumerate_rejects_large():
    _, (fiber, *_rest) = build(5, (0, -1, 0, 1), (3, 1))
    with pytest.raises(oracle.TooLarge):
        oracle.enumerate_torus(fiber.graph, fiber.k, fiber.E, limit=10)
    # the cap is inclusive: (5 - 1)^2 = 16 points enumerate at limit 16
    assert len(oracle.enumerate_torus(fiber.graph, fiber.k, fiber.E, limit=16)) == 16
    with pytest.raises(oracle.TooLarge, match="torus has 16 points, enumeration limit 15"):
        oracle.enumerate_torus(fiber.graph, fiber.k, fiber.E, limit=15)


def test_exponent_divides_order():
    for q, g, h in [(5, (0, -1, 0, 1), (3, 1)), (3, (1, 0, 1, 1), (1,))]:
        k = make_field(q)
        try:
            inp = families.validate_hyperelliptic(k, Poly(k, list(g)), Poly(k, list(h)))
        except families.FamilyError:
            continue
        fiber, frame, *_ = families.hyperelliptic_fiber(inp)
        torus = oracle.enumerate_torus(fiber.graph, fiber.k, fiber.E)
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
    direct = loop.evaluate(D)
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
            fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        D = random_divisor(fiber, gens, 1, rng)
        # one fiber that holds the nodes and the divisor's points: the
        # oracle evaluates on the points, the engine by resultants at the
        # nodes, in the same field
        D0 = descent.translate_to_degree_zero(D, 1)
        degree = oracle.field_degree([inp.g] + [H for _c, H, _m in D0.entries])
        big = oracle.hyperelliptic_special_fiber(inp, degree)
        big_frame = descent.TorusFrame(big)
        points = oracle.divisor_points(D0, big)
        D0 = SpecializedDivisor(big, D0.entries)
        for comp in big_frame.components:
            assert oracle.chain_evaluate(comp.cycle, points, big) == \
                comp.evaluate(D0)
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
                fiber, _frame, phi, gens = data
                prepared = oracle.prepare(inp, phi, gens, r)
                divisors = [oracle.random_divisor(fiber, r, rng, prepared[0])
                            for _ in range(4)]
                yield data, r, prepared, divisors


def test_exhaustive_agreement_smoke():
    agree = total = 0
    for (_fiber, frame, phi, gens), r, prepared, divisors in smoke_cases():
        _degree, ofiber, torus, subgroup = prepared
        for D in divisors:
            engine = divisibility_verdict(D, r, frame, phi, gens)
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
    for (fiber, _frame, phi, gens), r, prepared, divisors in smoke_cases():
        _degree, ofiber, torus, subgroup = prepared
        lifts = oracle.nu_lift_vectors(torus, phi, gens, r)
        reference = closure_per_trial(torus, lifts, r)
        # the subgroup is closed on exponent vectors; mapped back through
        # the enumeration it must be the field-tuple closure, point for point
        mapped = [torus.key(torus.point_at(pos)) for pos in subgroup]
        assert len(mapped) == len(subgroup) and set(mapped) == reference
        for D in divisors:
            points = oracle.divisor_points(descent.translate_to_degree_zero(D, r), ofiber)
            x = tuple(oracle.chain_evaluate(cyc, points, ofiber) for cyc in torus.cycles)
            assert oracle.exhaustive_divisibility(D, r, ofiber, torus, subgroup) == \
                (torus.key(x) in reference)
        cases += 1
    assert cases >= 5


def test_one_closure_per_request(monkeypatch, capsys):
    # the subgroup is closed once per request, in prepare, and no trial
    # closes it again: a request with 20 trials makes one closure
    from toricdescent import cli
    closures = []
    closure = oracle._closure

    def counted_closure(orders, generators):
        closures.append(closure(orders, generators))
        return closures[-1]

    monkeypatch.setattr(oracle, "_closure", counted_closure)
    trials = []
    exhaustive = oracle.exhaustive_divisibility

    def trial(*args):
        before = len(closures)
        trials.append(exhaustive(*args))
        assert len(closures) == before
        return trials[-1]

    monkeypatch.setattr(oracle, "exhaustive_divisibility", trial)
    assert cli.run_line(["oracle", "--q", "5", "--g", "x^3-x", "--h", "x+3",
                         "--trials", "20", "--json"]) == 0
    capsys.readouterr()
    assert len(trials) == 20 and len(closures) == 1
    # r = 2 on the split torus (Z/4)^2: the four squares at least
    assert 4 <= len(closures[0]) <= 16


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
        torus = oracle.enumerate_torus(fiber.graph, fiber.k, fiber.E)
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
    inp, (fiber, frame, phi, gens) = build(5, (0, -1, 0, 1), (3, 1))
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
    fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
    degree, ofiber, _torus, _subgroup = oracle.prepare(inp, phi, gens, 2)
    assert (degree, fiber.E.m, ofiber.E.m) == (6, 6, 12)
    assert fiber.E.given_modulus and not ofiber.E.given_modulus
    node = fiber.node_coords[0][0]
    g_node = g.map_coeffs(embed(k, node.field), node.field)
    assert node.field is fiber.E and all(g_node(a).is_zero() for a, _b in fiber.node_coords)
    assert ofiber.node_coords == oracle.hyperelliptic_special_fiber(inp, 6).node_coords
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
            engine = divisibility_verdict(D, r, frame, phi, gens)
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


def test_random_divisor_draws_are_pinned():
    # the entries (component, coefficients of H or None for INF,
    # multiplicity) of the first 20 seeded divisors on three fibers, and the
    # generator's next 32 bits after them: building the divisor once keeps
    # both the draws and the divisor
    import json
    from pathlib import Path
    with open(Path(__file__).parent / "data" / "random_divisor_pin.json") as fh:
        cases = json.load(fh)
    assert [case["q"] for case in cases] == [3, 7, 11]
    for case in cases:
        inp, (fiber, *_rest) = build(case["q"], case["g"], case["h"])
        rng = rng_for(f"random-divisor-pin-{case['q']}")
        drawn = []
        for _ in range(20):
            D = oracle.random_divisor(fiber, case["r"], rng, case["degree"])
            drawn.append([[c, None if H is INF else [x.to_int() for x in H.coeffs], m]
                          for c, H, m in D.entries])
        assert drawn == case["divisors"]
        assert rng.getrandbits(32) == case["next_bits"]


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
            "fiber = families.hyperelliptic_fiber(inp)[0]\n"
            "torus = oracle.enumerate_torus(fiber.graph, fiber.k, fiber.E)\n"
            "torus.points[-1] = (torus.E.gen(),) * len(torus.cycles)\n"
            "try:\n"
            "    oracle._verify_equivariance(torus)\n"
            "except oracle.NotEquivariant:\n"
            "    raise SystemExit(7)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 7, proc.stderr


# ---------------------------------------------------------------------------
# chain evaluation against the per-point ratio form it replaced


def _ratio_per_point(fiber, comp, enter_edge, leave_edge, point):
    """The unnormalized degree-1 parameter (zero at the entering node, pole
    at the leaving node) at a point of the component, one division per
    point."""
    a = fiber.node_coordinate(enter_edge, comp)
    b = fiber.node_coordinate(leave_edge, comp)
    if point is INF:
        if a is INF or b is INF:
            raise descent.DivisorMeetsNode("divisor point at an infinite node")
        return fiber.E.one()
    if a is INF:
        out = None if point == b else (point - b).inverse()
    elif b is INF:
        out = point - a
        out = None if out.is_zero() else out
    else:
        out = None if (point == a or point == b) else (point - a) / (point - b)
    if out is None or out.is_zero():
        raise descent.DivisorMeetsNode("divisor point at a node of the chain")
    return out


def chain_evaluate_per_point(cycle, points, fiber):
    """The chain-of-ratios evaluation as the oracle once computed it: the
    chain decomposed on every call, f_next at each shared node as a
    product of (0 - t(y))^mult with one division per point."""
    deg = [0] * fiber.graph.num_vertices
    for comp, _point, mult in points:
        deg[comp] += mult
    if any(deg):
        raise oracle.NonzeroMultidegree(f"chain evaluation needs zero multidegree, got {deg}")
    E = fiber.E
    total = E.one()
    for walk in dual_graph.chain_decomposition(cycle):
        n = len(walk)
        for idx in range(n):
            nxt = (idx + 1) % n
            comp, enter_edge, _leave = walk[nxt]
            acc = E.one()
            for c, point, mult in points:
                if c == comp:
                    t_y = _ratio_per_point(fiber, comp, enter_edge, walk[nxt][2], point)
                    acc = acc * (E.zero() - t_y) ** mult
            total = total * acc
    return total


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except descent.DivisorMeetsNode:
        return "meets a node"


def _random_points(fiber, rng):
    """Points of zero multidegree on every component: random values of the
    fiber's field, INF, and now and then a node coordinate of the component
    (which must raise DivisorMeetsNode wherever a chain passes it)."""
    E = fiber.E
    points = []
    for comp in range(fiber.graph.num_vertices):
        nodes = fiber.component_node_coords(comp)
        total = 0
        for _ in range(rng.randrange(0, 4)):
            roll = rng.random()
            if roll < 0.15:
                y = INF
            elif roll < 0.25:
                y = rng.choice(nodes)
            else:
                y = E.from_int(rng.randrange(E.q))
            mult = rng.choice([-2, -1, 1, 2, 3])
            points.append((comp, y, mult))
            total += mult
        if total:
            points.append((comp, E.from_int(rng.randrange(E.q)), -total))
    return points


def test_chain_evaluate_equals_the_per_point_form():
    # seeded fibers at tiny q: hyperelliptic ones (finite nodes) and genus-4
    # ones, whose node [1:0:0:0] sits at INF on two components, with INF
    # points on every component
    from conftest import random_genus4
    rng = rng_for("chain-per-point")
    fibers = []
    while len(fibers) < 6:
        k = make_field(rng.choice([5, 7]))
        inp = random_hyperelliptic(k, rng.choice([3, 4]), rng)
        try:
            fiber, frame, *_ = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        if all(a.field == fiber.E for a, _b in fiber.node_coords):
            fibers.append((fiber, [comp.cycle for comp in frame.components]))
    for q in (5, 7, 13):
        fiber, frame, *_ = families.genus4_fiber(random_genus4(make_field(q), rng))
        fibers.append((fiber, [comp.cycle for comp in frame.components]))
    assert any(INF in fiber.component_node_coords(1) for fiber, _ in fibers)
    values = meets = inf_points = 0
    for fiber, cycles in fibers:
        for _ in range(40):
            points = _random_points(fiber, rng)
            inf_points += any(y is INF for _c, y, _m in points)
            for cycle in cycles:
                expected = _outcome(chain_evaluate_per_point, cycle, points, fiber)
                assert _outcome(oracle.chain_evaluate, cycle, points, fiber) == expected
                meets += expected == "meets a node"
                values += expected != "meets a node"
    assert values > 300 and meets > 30 and inf_points > 50


def test_chain_evaluate_raises_at_a_node():
    _, (fiber, frame, *_rest) = build(5, (0, -1, 0, 1), (3, 1))
    E = fiber.E
    for cycle in (comp.cycle for comp in frame.components):
        walks = dual_graph.chain_decomposition(cycle)
        comp, enter_edge, _leave = walks[0][0]
        node = fiber.node_coordinate(enter_edge, comp)
        free = next(x for x in map(E.from_int, range(5))
                    if x not in fiber.component_node_coords(comp))
        with pytest.raises(descent.DivisorMeetsNode):
            oracle.chain_evaluate(cycle, [(comp, node, 1), (comp, free, -1)], fiber)


# ---------------------------------------------------------------------------
# exponent coordinates: every value tuple is looked up, never assumed


def test_position_lookup_and_point_at_invert_each_other():
    inp, (_fiber, _frame, phi, gens) = build(5, (1, 1, 0, 1), (3, 1))
    _degree, _ofiber, torus, _subgroup = oracle.prepare(inp, phi, gens, 2)
    assert len(torus) == 31 and torus.orders == (31,)
    for index, point in enumerate(torus.points):
        position = torus.position(point)
        assert torus.point_at(position) is point and position == (index,)
    # products of points add exponent vectors modulo the orders
    a, b = torus.points[7], torus.points[30]
    assert torus.position(torus.mul(a, b)) == ((7 + 30) % 31,)


def test_tuples_outside_the_torus_raise(monkeypatch):
    inp, (fiber, frame, phi, gens) = build(5, (1, 1, 0, 1), (3, 1))
    degree, ofiber, torus, subgroup = oracle.prepare(inp, phi, gens, 2)
    E = ofiber.E
    # not equivariant: the same non-rational value on every cycle
    with pytest.raises(oracle.NotATorusPoint):
        torus.position((E.gen(),) * len(torus.cycles))
    with pytest.raises(oracle.NotATorusPoint):
        torus.position((E.zero(),) * len(torus.cycles))
    # an evaluation outside the torus
    D = oracle.random_divisor(fiber, 2, rng_for("outside"), degree)
    monkeypatch.setattr(torus, "parameter_products",
                        lambda entries: (E.zero(),) * len(torus.cycles))
    with pytest.raises(oracle.NotATorusPoint):
        oracle.exhaustive_divisibility(D, 2, ofiber, torus, subgroup)
    monkeypatch.undo()
    # a connecting-map lift outside the torus
    lifts = oracle.nu_lift_vectors
    monkeypatch.setattr(
        oracle, "nu_lift_vectors",
        lambda *args: [(el, (E.gen(),) * len(vec)) for el, vec in lifts(*args)])
    inp2, (_f, _fr, phi2, gens2) = build(5, (1, 1, 0, 1), (3, 1))
    with pytest.raises(oracle.NotATorusPoint):
        oracle.prepare(inp2, phi2, gens2, 2)


def test_a_fiber_with_other_nodes_than_the_torus_view_is_refused():
    # a trial reads its points off the torus view's fiber, so the fiber it
    # is given must have the same nodes: x^3+x+1 and x^3+x^2+1 over GF(5)
    # share one torus but not their nodes
    inp, (fiber, _frame, phi, gens) = build(5, (1, 1, 0, 1), (3, 1))
    degree, ofiber, torus, subgroup = oracle.prepare(inp, phi, gens, 2)
    inp2, (_fiber2, _frame2, phi2, gens2) = build(5, (1, 0, 1, 1), (3, 1))
    _degree2, ofiber2, torus2, _subgroup2 = oracle.prepare(inp2, phi2, gens2, 2)
    assert torus2.points is torus.points and ofiber2.node_coords != ofiber.node_coords
    D = oracle.random_divisor(fiber, 2, rng_for("other-nodes"), degree)
    oracle.exhaustive_divisibility(D, 2, ofiber, torus, subgroup)
    with pytest.raises(oracle.OracleError, match="other nodes"):
        oracle.exhaustive_divisibility(D, 2, ofiber2, torus, subgroup)


def test_a_repeated_enumerated_point_raises(monkeypatch):
    # a root of unity of too small an order enumerates some points twice
    _, (fiber, *_rest) = build(5, (0, -1, 0, 1), (3, 1))
    monkeypatch.setattr(oracle, "element_of_order", lambda field, n: -field.one())
    with pytest.raises(oracle.NotATorusPoint):
        oracle.enumerate_torus(fiber.graph, fiber.k, fiber.E)


# ---------------------------------------------------------------------------
# per-request work, and the trial count


def _counting(monkeypatch, owner, name, calls):
    """Count every call of the function owner.name, under every name that
    binds it in a module of the package."""
    import sys
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("toricdescent."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("line, g", [
    ("oracle --q 5 --g x^3-x --h x+3", (0, -1, 0, 1)),
    ("oracle --q 7 --g x^3+x+1 --h x+2 --r 3", (1, 1, 0, 1)),
    ("oracle --q 3 --g x^4+x+2 --h x^2+1", (2, 1, 0, 0, 1)),
])
def test_one_factorization_of_gbar_per_request(monkeypatch, capsys, line, g):
    # the engine's fiber, the node degree and the oracle's own fiber share
    # the input's one factorization of the reduction of g
    import sys
    from toricdescent import cli
    from toricdescent.finite_field import factor
    factored = []

    def recorded(f, *args, **kwargs):
        factored.append(f)
        return factor(f, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("toricdescent."):
            for attr, value in list(vars(module).items()):
                if value is factor:
                    monkeypatch.setattr(module, attr, recorded)
    assert cli.run_line(line.split() + ["--json"]) == 0
    capsys.readouterr()
    q = int(line.split()[2])
    gbar = Poly(make_field(q), list(g))
    assert sum(f == gbar for f in factored) == 1


@pytest.mark.parametrize("line", [
    "oracle --q 5 --g x^3-x --h x+3",
    "oracle --q 7 --g x^3+x+1 --h x+2 --r 3",
    "oracle --q 3 --g x^4+x+2 --h x^2+1",
])
def test_trials_add_no_per_request_work(monkeypatch, capsys, cold_shape_caches, line):
    # each run is a cold request: the shared tori and shapes are emptied
    # before it, so its one enumeration and its Smith forms are counted
    from collections import Counter
    from toricdescent import cli
    from toricdescent import zmat
    counts = {}
    for trials in ("20", "1"):
        for cache in cold_shape_caches:
            cache.cache_clear()
        calls = Counter()
        with monkeypatch.context() as patch:
            _counting(patch, zmat, "smith_normal_form", calls)
            _counting(patch, dual_graph, "chain_decomposition", calls)
            _counting(patch, oracle, "enumerate_torus", calls)
            assert cli.run_line(line.split() + ["--trials", trials, "--json"]) == 0
        counts[trials] = calls
    capsys.readouterr()
    assert counts["20"] == counts["1"]
    assert counts["20"]["enumerate_torus"] == 1
    assert counts["20"]["smith_normal_form"] > 0 and counts["20"]["chain_decomposition"] > 0


@pytest.mark.parametrize("line", [
    "oracle --q 5 --g x^3-x --h x+3",
    "oracle --q 7 --g x^3+x+1 --h x+2 --r 3",
    "oracle --q 3 --g x^4+x+2 --h x^2+1",
])
def test_a_request_evaluates_each_orbit_entry_once(monkeypatch, capsys, line):
    # a class is the sum over the orbit entries of its divisor: one request
    # takes each (frame component, entry) value once by resultants, its
    # residue symbol once per g, and each entry's chain products once in
    # the oracle, whatever the verdicts, shifts and lifts share.  The memos
    # go with the request: a second identical line does the same work and
    # prints the same bytes
    from collections import Counter
    from math import gcd
    from toricdescent import cli
    argv = line.split() + ["--trials", "20", "--json"]
    classes, products = [], []
    gamma = descent.FrameComponent.gamma
    parameter_products = oracle.EnumeratedTorus.parameter_products

    def recorded_class(component, divisor, r):
        classes.append((component, divisor.entries, r))
        return gamma(component, divisor, r)

    def recorded_products(torus, entries):
        products.append((len(torus.walks), list(entries)))
        return parameter_products(torus, entries)

    runs = []
    for _ in range(2):
        calls = Counter()
        classes.clear()
        products.clear()
        with monkeypatch.context() as patch:
            patch.setattr(descent.FrameComponent, "gamma", recorded_class)
            patch.setattr(oracle.EnumeratedTorus, "parameter_products", recorded_products)
            for owner, name in ((descent, "product_of_factors"), (descent, "residue_symbol"),
                                (oracle, "_parameter_product")):
                _counting(patch, owner, name, calls)
            assert cli.run_line(argv) == 0
        values = {(id(comp), c, H) for comp, entries, _r in classes for c, H, _m in entries}
        symbols = {(id(comp), c, H, gcd(r, comp.order)) for comp, entries, r in classes
                   for c, H, _m in entries if gcd(r, comp.order) > 1}
        (cycles,) = {n for n, _entries in products}
        chains = {(c, H) for _n, entries in products for c, H, _m in entries}
        assert calls == Counter({"product_of_factors": len(values),
                                 "residue_symbol": len(symbols),
                                 "_parameter_product": cycles * len(chains)})
        # the trials redraw orbits: fewer values than entries classed
        assert len(values) < sum(len(entries) for _comp, entries, _r in classes)
        runs.append((calls, capsys.readouterr().out))
    (first, first_out), (second, second_out) = runs
    assert second == first and second_out == first_out


def test_trial_counts_outside_the_range_are_refused_before_any_work(monkeypatch, capsys):
    from toricdescent import cli
    built = []
    monkeypatch.setattr(families, "hyperelliptic_fiber",
                        lambda inp: built.append(inp) or 1 / 0)
    base = ["oracle", "--q", "5", "--g", "x^3-x", "--h", "x+3", "--json"]
    for trials in (-5, -1, oracle.TRIALS_LIMIT + 1, 10 ** 9):
        assert cli.run_line(base + ["--trials", str(trials)]) == cli.EXIT_SYNTAX
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid input: --trials")
    assert built == []


def test_trial_counts_at_the_ends_of_the_range(capsys):
    import json
    from toricdescent import cli
    base = ["oracle", "--q", "5", "--g", "x^3-x", "--h", "x+3", "--json"]
    for trials in (0, oracle.TRIALS_LIMIT):
        assert cli.run_line(base + ["--trials", str(trials)]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == report["agreements"] == trials
        assert report["torus_points"] == 16


# ---------------------------------------------------------------------------
# the shared tori: one per residue field, oracle field and graph


@pytest.mark.parametrize("line", [
    "oracle --q 5 --g x^3-x --h x+3",
    "oracle --q 7 --g x^3+x+1 --h x+2 --r 3",
    "oracle --q 3 --g x^4+x+2 --h x^2+1",
])
def test_a_repeated_oracle_line_builds_no_torus(monkeypatch, capsys, cold_shape_caches,
                                                line):
    # the second request finds its torus enumerated and verified: it lists
    # no point and computes no cycle basis and no Smith form
    from collections import Counter
    from toricdescent import cli, zmat
    argv = line.split() + ["--trials", "20", "--json"]
    counted = [(oracle, "enumerate_torus"), (oracle, "orbit_cycle_basis"),
               (zmat, "smith_normal_form")]
    runs = []
    for _ in range(2):
        calls = Counter()
        with monkeypatch.context() as patch:
            for owner, name in counted:
                _counting(patch, owner, name, calls)
            assert cli.run_line(argv) == 0
        runs.append((calls, capsys.readouterr().out))
    (cold, cold_out), (warm, warm_out) = runs
    assert warm_out == cold_out
    assert all(cold[name] > 0 for _owner, name in counted)
    assert warm == Counter()


def _tower_inputs():
    """Two inputs whose oracle fibers share GF(5^12) and the shape graph of
    one node orbit of degree 3 but not k: an input of the acceptance oracle
    check over GF(5) (nodes of degree 3, zeros of h of degree 4) and the
    tower input over GF(25) (nodes of degree 3, zeros of h of degree 2)."""
    k5 = make_field(5)
    k25 = make_field(5, 2)
    return [
        families.validate_hyperelliptic(k5, Poly(k5, [1, 4, 3, 1]), Poly(k5, [3, 1, 4, 3, 1])),
        families.validate_hyperelliptic(k25, Poly(k25, [k25.from_int(7), k25.gen(), 0, 1]),
                                        Poly(k25, [k25.from_int(20), 1, 1])),
    ]


@pytest.mark.parametrize("first", [0, 1], ids=["GF(5) first", "GF(25) first"])
def test_tori_are_keyed_by_the_residue_field(cold_shape_caches, first):
    # the Frobenius is the q-power map, so the same field and permutation
    # reached from different k give different tori; both agree with the
    # engine, whichever comes first
    inputs = _tower_inputs()
    keys = []
    rng = rng_for("torus-keys")
    for inp in inputs[first:] + inputs[:first]:
        fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        degree, ofiber, torus, subgroup = oracle.prepare(inp, phi, gens, 2)
        keys.append((ofiber.graph, ofiber.k, ofiber.E))
        for _ in range(12):
            D = oracle.random_divisor(fiber, 2, rng, degree)
            engine = divisibility_verdict(D, 2, frame, phi, gens)
            assert (engine.outcome == DIVISIBLE) == \
                oracle.exhaustive_divisibility(D, 2, ofiber, torus, subgroup)
    (graph_a, k_a, E_a), (graph_b, k_b, E_b) = keys
    assert graph_a is graph_b and graph_a.edge_perm == (1, 2, 0)
    assert E_a == E_b and E_a.m == 12 and k_a != k_b
    assert oracle._shared_torus.cache_info().currsize == 2


def test_the_torus_cache_stops_growing_at_its_size(cold_shape_caches):
    # the split two-edge shape over GF(p) for more primes than the cache
    # keeps: rank-1 tori of p - 1 points each
    from toricdescent.finite_field import is_prime
    primes = [p for p in range(3, 1000) if is_prime(p)][:oracle.TORUS_CACHE_SIZE + 2]
    graph = families._two_line_graph(2, ())
    for p in primes:
        k = make_field(p)
        assert len(oracle._shared_torus(graph, k, k)) == p - 1
    info = oracle._shared_torus.cache_info()
    assert info.maxsize == info.currsize == oracle.TORUS_CACHE_SIZE
    assert info.misses == len(primes)


def test_a_torus_past_the_point_cap_is_built_but_not_kept(monkeypatch, cold_shape_caches):
    # the split torus over GF(5) has 16 points: under a cap of 10 each
    # request enumerates its own, above it the requests share one
    inp, (_fiber, _frame, phi, gens) = build(5, (0, -1, 0, 1), (3, 1))
    shared = [oracle.prepare(inp, phi, gens, 2)[2] for _ in range(2)]
    assert shared[0].points is shared[1].points
    for cache in cold_shape_caches:
        cache.cache_clear()
    monkeypatch.setattr(oracle, "TORUS_CACHE_POINTS", 10)
    own = []
    for _ in range(2):
        _degree, ofiber, torus, _subgroup = oracle.prepare(inp, phi, gens, 2)
        assert len(torus) == 16
        assert oracle._shared_torus(ofiber.graph, ofiber.k, ofiber.E) is None
        own.append(torus)
    assert own[0].points is not own[1].points
    assert oracle._shared_torus.cache_info().currsize == 1


@pytest.mark.parametrize("g, shape", [
    ((0, -1, 0, 1), (1, 1, 1)),
    ((0, 2, 0, 1), (1, 2)),
    ((1, 1, 0, 1), (3,)),
    ((1, 0, 0, 0, 1), (2, 2)),
], ids=["1+1+1", "1+2", "3", "2+2"])
def test_the_oracle_fiber_is_built_on_the_shape_graph(g, shape):
    # the oracle lists its own nodes in the edge order of the engine's
    # shape graph: the rational nodes, then each orbit from its
    # smallest-encoding root on by q-th powers (SpecialFiber checks them
    # against the graph's Frobenius action); (2, 2) is a shape no
    # decomposition rule covers, but its fiber is built all the same
    k = make_field(5)
    inp = families.validate_hyperelliptic(k, Poly(k, list(g)), Poly(k, [3, 1]))
    assert tuple(f.degree for f in inp.factors) == shape
    ofiber = oracle.hyperelliptic_special_fiber(inp, oracle.node_degree(inp))
    assert ofiber.graph is inp.graph
    nodes = [a for a, _b in ofiber.node_coords]
    start = len(inp.rational_nodes)
    for degree in shape[start:]:
        orbit = nodes[start:start + degree]
        assert orbit[0].to_int() == min(x.to_int() for x in orbit)
        assert [x.frob(1) for x in orbit] == orbit[1:] + orbit[:1]
        start += degree


def test_two_curves_of_one_shape_share_one_torus(cold_shape_caches):
    # x^3 + x^2 + 1 and x^3 + 4x^2 + x + 1 are irreducible over GF(5); their
    # roots in GF(125), ranked by encoding, are permuted by the Frobenius in
    # different orders, yet the torus reads only the shape, k and the field
    tori = []
    for g in ((1, 0, 1, 1), (1, 1, 4, 1)):
        inp, (_fiber, _frame, phi, gens) = build(5, g, (3, 1))
        _degree, ofiber, torus, _subgroup = oracle.prepare(inp, phi, gens, 2)
        assert ofiber.E.m == 3
        tori.append(torus)
    assert tori[0].points is tori[1].points and len(tori[0]) == 31
    assert oracle._shared_torus.cache_info().currsize == 1
