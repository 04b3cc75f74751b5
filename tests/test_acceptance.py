"""Acceptance criteria, one test per criterion.

Every criterion is exact (integer arithmetic end to end); each test prints a
single PASS line with its scale so the gate is auditable from the log.
"""

import time

import properties

from conftest import (norm_lattice, project_with_base, random_genus4,
                      random_hyperelliptic, rng_for, roots, split_lattice)
from toricdescent import descent, dual_graph, families, oracle
from toricdescent.descent import DIVISIBLE, divisibility_verdict, translate_to_degree_zero
from toricdescent.dual_graph import component_group
from toricdescent.families import (
    ROW_NAMES, genus4_cuberoot, genus4_direct_table, genus4_table_eval,
    theta_bd, torsion_bd, validate_hyperelliptic)
from toricdescent.finite_field import Poly, is_prime, make_field
from toricdescent.torus import (CharacterLattice, enumerate_rational_points,
                                principal_component, torus_order)
from toricdescent.zmat import group_invariants, lcm


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_component_groups():
    t0 = time.time()
    assert component_group([[-3, 3], [3, -3]]).invariant_factors == [3]
    for d in range(3, 9):
        assert component_group([[-d, d], [d, -d]]).invariant_factors == [d]
    phi = component_group([[-4, 2, 2], [2, -4, 2], [2, 2, -4]])
    assert phi.invariant_factors == [2, 6]
    d1 = phi.project((0, 1, -1))
    d2 = project_with_base(phi, (1, -1, 2), 0)
    assert phi.element_order(d1) == 6 and phi.element_order(d2) == 2
    span = {phi.add(phi.scale(d1, a), phi.scale(d2, b))
            for a in range(6) for b in range(2)}
    assert len(span) == 12
    dt = time.time() - t0
    assert dt < 1.0
    _report("1 component groups", f"matrices for 2..8 nodes plus the triangle, {dt:.2f}s")


def test_criterion_2_torus_orders_vs_enumeration():
    t0 = time.time()
    fixtures = []
    for rank in (1, 2, 3, 4):
        fixtures.append((split_lattice(rank), [
            [1 if i == j else 0 for i in range(rank)] for j in range(rank)]))
    for g in (2, 3, 4):
        fixtures.append((norm_lattice(g), [[1] + [0] * (g - 1)]))
    fixtures.append((CharacterLattice([[0, -1], [1, -1]]), [[1, 0]]))
    checked = 0
    for q in (2, 3, 4, 5, 7, 9):
        for lattice, gens in fixtures:
            pts = enumerate_rational_points(lattice, q)
            assert len(pts) == torus_order(lattice, q)
            comps = [principal_component(lattice, chi) for chi in gens]
            images = set()
            for p in pts.points:
                images.add(tuple(pts.value(p, chi).to_int() for chi in gens))
            assert len(images) == len(pts)  # injective, hence bijective
            for chi, comp in zip(gens, comps):
                n = comp.order_over(q)
                values = {pts.value(p, chi).to_int() for p in pts.points}
                assert len(values) == n
                assert all(pts.value(p, chi) ** n == pts.host.one()
                           for p in pts.points)
            checked += 1
    dt = time.time() - t0
    assert dt < 30.0
    _report("2 torus orders vs enumeration",
            f"{checked} lattice/field pairs, {dt:.1f}s")


def test_criterion_3_theta_rule_over_primes():
    t0 = time.time()
    count = 0
    for p in range(5, 201):
        if not is_prime(p):
            continue
        k = make_field(p)
        g = Poly(k, [0, -1, 0, 1])
        inp = validate_hyperelliptic(k, g, Poly(k, [2, 1]), qp_mode=True)
        expected = p % 24 in (1, 23)
        assert theta_bd(inp) == expected, p
        inp1 = validate_hyperelliptic(k, g, Poly(k, [1]), qp_mode=True)
        assert theta_bd(inp1) is True
        count += 1
    dt = time.time() - t0
    assert dt < 10.0
    _report("3 theta rule", f"{count} primes in [5, 200], {dt:.1f}s")


def _cubic_with_shape(k, shape):
    """Deterministic monic cubic with the requested number of rational roots
    (3, 1, or 0), separable, plus a coprime h."""
    from toricdescent.finite_field import poly_from_int
    if shape == "split":
        g = Poly(k, [0, -1, 0, 1])
        if len(roots(g)) == 3:
            return g
    for n in range(k.q ** 3, 2 * k.q ** 3):
        g = poly_from_int(k, n)
        if g.degree != 3 or g.lead() != k.one():
            continue
        if g.gcd(g.derivative()).degree != 0:
            continue
        nroots = len(roots(g))
        if (shape, nroots) in (("split", 3), ("one", 1), ("none", 0)):
            return g
    raise AssertionError("no cubic of the requested shape")


def test_criterion_4_torsion_formulas():
    t0 = time.time()
    checked = 0
    for q in (5, 7, 11, 13):
        k = make_field(q)
        for shape, f_q in (("split", (q - 1) ** 2),
                           ("one", q * q - 1),
                           ("none", q * q + q + 1)):
            g = _cubic_with_shape(k, shape)
            h = next(Poly(k, [c, 1]) for c in range(1, q)
                     if g.gcd(Poly(k, [c, 1])).degree == 0)
            inp = validate_hyperelliptic(k, g, h)
            out = torsion_bd(inp)
            order = 1
            for v in out:
                order *= v
            assert order == 3 * f_q, (q, shape, out)
            checked += 1
    k7 = make_field(7)
    inp = validate_hyperelliptic(k7, Poly(k7, [0, -1, 0, 1]), Poly(k7, [2, 1]))
    assert torsion_bd(inp) == group_invariants([18, 6]) == [6, 18]
    dt = time.time() - t0
    assert dt < 10.0
    _report("4 torsion formulas", f"{checked} shape/field cases plus the exact "
            f"[6, 18] instance, {dt:.1f}s")


def test_criterion_5_genus4_tables():
    t0 = time.time()
    checked = 0
    for q in (7, 11, 13):
        k = make_field(q)
        rng = rng_for(f"acceptance-tables-{q}")
        for _ in range(100):
            inp = random_genus4(k, rng)
            f1, i1, closed = genus4_table_eval(inp)
            f2, i2, direct = genus4_direct_table(inp)
            assert f1 == f2 and i1 == i2
            for name in ROW_NAMES:
                assert closed[name] == direct[name], (q, name)
            one = f1.one()
            assert closed["div(X+Y)"] == (-one, -one, -i1, i1)
            checked += 1
    dt = time.time() - t0
    assert dt < 60.0
    _report("5 genus-4 tables", f"{checked} random cubics, closed forms equal "
            f"direct local-function evaluation, {dt:.1f}s")


def test_criterion_6_cube_root_rule():
    t0 = time.time()
    checked = 0
    for p in (5, 17, 29, 41):
        assert p % 12 == 5
        k = make_field(p)
        rng = rng_for(f"acceptance-cube-{p}")
        for _ in range(50):
            inp = random_genus4(k, rng, r=3)
            assert genus4_cuberoot(inp) is True
            checked += 1
    dt = time.time() - t0
    assert dt < 60.0
    _report("6 cube-root rule", f"{checked} random cubics over four residue "
            f"fields, all rational, {dt:.1f}s")


def test_criterion_7_oracle_agreement():
    t0 = time.time()
    rng = rng_for("acceptance-oracle")
    instances = 0
    verdicts = 0
    while instances < 200:
        q = rng.choice([3, 5, 7])
        d = rng.choice([3, 4])
        if (2 * d) % q == 0:
            continue
        r = rng.choice([2, 3])
        if r % q == 0:
            continue
        k = make_field(q)
        inp = random_hyperelliptic(k, d, rng)
        try:
            fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        degree, ofiber, torus, subgroup = oracle.prepare(inp, phi, gens, r)
        D = oracle.random_divisor(fiber, r, rng, degree)
        engine = divisibility_verdict(D, r, frame, phi, gens)
        truth = oracle.exhaustive_divisibility(D, r, ofiber, torus, subgroup)
        assert (engine.outcome == DIVISIBLE) == truth
        instances += 1
        verdicts += 1
    # chain evaluation equals the streamlined evaluation, 1000 divisors
    comparisons = 0
    while comparisons < 1000:
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
        # one fiber for both, over the oracle's field: the engine's frame
        # evaluates there by resultants, the oracle on the points
        degree = lcm(oracle.node_degree(inp), oracle.field_degree(
            [H for gen in gens for _c, H, _m in gen.f_divisor.entries]))
        ofiber = oracle.hyperelliptic_special_fiber(inp, degree)
        oframe = descent.TorusFrame(ofiber)
        for _ in range(5):
            D0 = translate_to_degree_zero(oracle.random_divisor(ofiber, 1, rng, degree), 1)
            points = oracle.divisor_points(D0, ofiber)
            for comp in oframe.components:
                assert oracle.chain_evaluate(comp.cycle, points, ofiber) == \
                    comp.evaluate(D0)
                comparisons += 1
    dt = time.time() - t0
    assert dt < 300.0
    _report("7 oracle agreement", f"{instances} instances 100% agreement, "
            f"{comparisons} chain comparisons, {dt:.1f}s")


def test_criterion_8_invariant_suites():
    t0 = time.time()
    counts = {
        "base-point independence": properties.run_base_point_independence(500),
        "principal triviality": properties.run_principal_triviality(500),
        "nu additivity": properties.run_nu_additivity(500),
        "orientation flip": properties.run_orientation_flip(500),
        "smith certificates": properties.run_smith_certificates(500),
    }
    assert all(v >= 500 for v in counts.values())
    dt = time.time() - t0
    assert dt < 300.0
    _report("8 invariant suites", ", ".join(f"{k} x{v}" for k, v in counts.items())
            + f", {dt:.1f}s")
