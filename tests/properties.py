"""Reusable property suites, parametrized by case count: module tests run
them small, the acceptance suite runs them at full scale."""

from conftest import random_divisor, random_hyperelliptic, rng_for
from toricdescent import descent, dual_graph, families, zmat
from toricdescent.descent import (SpecializedDivisor, compensating_divisor, compute_nu,
                                  divisibility_verdict, gamma_class, phi_r_table)
from toricdescent.finite_field import INF, make_field


def run_base_point_independence(cases):
    rng = rng_for("base-point")
    done = 0
    while done < cases:
        q = rng.choice([5, 7])
        d = rng.choice([3, 4])
        if (2 * d) % q == 0:
            continue
        k = make_field(q)
        inp = random_hyperelliptic(k, d, rng)
        try:
            fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        r = rng.choice([2, 3])
        D = random_divisor(fiber, gens, r, rng)
        for comp in frame.components:
            c0 = gamma_class(D, comp, r)
            alt = descent.FrameComponent(fiber, comp.cycle, comp.char_poly,
                                         base_rank=1)
            c1 = gamma_class(D, alt, r)
            assert c0.residue == c1.residue and c0.modulus == c1.modulus
            done += 1
    return done


def run_principal_triviality(cases):
    rng = rng_for("principal-trivial")
    done = 0
    while done < cases:
        q = rng.choice([5, 7, 11])
        k = make_field(q)
        d = rng.choice([3, 4])
        if (2 * d) % q == 0:
            continue
        inp = random_hyperelliptic(k, d, rng)
        try:
            fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        nodes = set(fiber.component_node_coords(0))
        pts = []
        total = 0
        for _ in range(rng.randrange(1, 4)):
            c = k.from_int(rng.randrange(q))
            if c in nodes:
                continue
            mult = rng.choice([-2, -1, 1, 2])
            pts.extend([(0, c, mult), (1, c, mult),
                        (0, INF, -mult), (1, INF, -mult)])
            total += 1
        if not total:
            continue
        D = SpecializedDivisor(fiber, pts)
        assert D.multidegree == (0, 0)
        for comp in frame.components:
            assert comp.evaluate(D) == comp.field.one()
            done += 1
    return done


def run_nu_additivity(cases):
    rng = rng_for("nu-additive")
    done = 0
    while done < cases:
        q = rng.choice([5, 7, 11, 13])
        k = make_field(q)
        inp = random_hyperelliptic(k, 3, rng)
        try:
            fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        r = 3
        rows = {}
        for element, powers, rep in phi_r_table(phi, gens, r, fiber):
            fdiv = compensating_divisor(gens, powers, fiber)
            rows[element] = compute_nu(rep, fdiv, frame, r)
        for el1 in rows:
            for el2 in rows:
                el3 = phi.add(el1, el2)
                for c1, c2, c3 in zip(rows[el1], rows[el2], rows[el3]):
                    assert (c1.residue + c2.residue) % c3.modulus == c3.residue
                done += 1
        assert all(c.residue == 0 for c in rows[phi.identity()])
    return done


def run_orientation_flip(cases):
    rng = rng_for("orientation")
    done = 0
    while done < cases:
        q = rng.choice([5, 7])
        k = make_field(q)
        d = rng.choice([3, 4])
        if (2 * d) % q == 0:
            continue
        inp = random_hyperelliptic(k, d, rng)
        try:
            fiber, frame, phi, gens = families.hyperelliptic_fiber(inp)
        except dual_graph.NotSupported:
            continue
        D = random_divisor(fiber, gens, 2, rng)
        for comp in frame.components:
            flipped = descent.FrameComponent(fiber, -comp.cycle, comp.char_poly)
            v = comp.evaluate(D)
            w = flipped.evaluate(D)
            assert (v * w) ** comp.order == comp.field.one()
            cls = gamma_class(D, comp, 2)
            cls_flip = gamma_class(D, flipped, 2)
            assert (cls.residue + cls_flip.residue) % cls.modulus == 0
            done += 1
        flipped_frame = descent.TorusFrame(fiber, [-c.cycle for c in frame.components])
        v1 = divisibility_verdict(D, 2, frame, phi, gens)
        v2 = divisibility_verdict(D, 2, flipped_frame, phi, gens)
        assert v1.outcome == v2.outcome
    return done


def run_smith_certificates(cases):
    rng = rng_for("snf-cert")
    for _ in range(cases):
        n, m = rng.randrange(1, 6), rng.randrange(1, 6)
        A = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        U, D, V = zmat.smith_normal_form(A)
        assert abs(zmat.det(U)) == 1 and abs(zmat.det(V)) == 1
        assert zmat.mat_mul(zmat.mat_mul(U, A), V) == D
        diag = [D[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0
    return cases
