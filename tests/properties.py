"""Reusable property suites, parametrized by case count: module tests run
them small, the acceptance suite runs them at full scale."""

import copy

from conftest import random_divisor, random_genus4, random_hyperelliptic, rng_for
from toricdescent import descent, dual_graph, families, oracle, zmat
from toricdescent.descent import (SpecializedDivisor, compensating_divisor,
                                  divisibility_verdict, gamma_class, phi_r_table)
from toricdescent.finite_field import INF, make_field, residue_symbol


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
        for element, powers in phi_r_table(phi, gens, r):
            fdiv = compensating_divisor(gens, powers, fiber)
            rows[element] = [gamma_class(fdiv, comp, r) for comp in frame.components]
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
        # the frame of the reversed cycles, built from its components
        flipped_frame = copy.copy(frame)
        flipped_frame.components = []
        for comp in frame.components:
            flipped = descent.FrameComponent(fiber, -comp.cycle, comp.char_poly)
            flipped_frame.components.append(flipped)
            v = comp.evaluate(D)
            w = flipped.evaluate(D)
            assert (v * w) ** comp.order == comp.field.one()
            cls = gamma_class(D, comp, 2)
            cls_flip = gamma_class(D, flipped, 2)
            assert (cls.residue + cls_flip.residue) % cls.modulus == 0
            done += 1
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


def _entry_fibers(rng):
    """Seeded fibers for run_entry_classes: two hyperelliptic ones of every
    two-line shape (the degrees of the factors of g) with a principal
    decomposition rule at q <= 13, as (fiber data, input, values of r), then
    genus-4 ones over GF(5), GF(7), GF(13) and GF(25), with no input (the
    oracle reads two-line fibers only)."""
    shapes = {3: [(1, 1, 1), (1, 2), (3,)],
              4: [(1, 1, 1, 1), (1, 1, 2), (1, 3), (4,)]}
    # (p, m) with q = p^m <= 13 and p prime to 2d
    fields = {3: [(5, 1), (7, 1), (11, 1), (13, 1)],
              4: [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]}
    for d, wanted in shapes.items():
        for shape in wanted:
            found = 0
            while found < 2:
                k = make_field(*rng.choice(fields[d]))
                inp = random_hyperelliptic(k, d, rng)
                if tuple(sorted(f.degree for f in inp.factors)) != shape:
                    continue
                try:
                    data = families.hyperelliptic_fiber(inp)
                except dual_graph.NotSupported:
                    continue
                # the oracle finds every point in one field: keep it small
                entries = [H for gen in data[3] for _c, H, _m in gen.f_divisor.entries]
                degree = zmat.lcm(oracle.node_degree(inp), oracle.field_degree(entries))
                if k.q ** degree > 4096:
                    continue
                found += 1
                yield data, inp, sorted({2, 3, d})
    for p, m in ((5, 1), (7, 1), (13, 1), (5, 2)):
        inp = random_genus4(make_field(p, m), rng)
        yield inp.fiber_data[:4], None, (2, 3)


def run_entry_classes(divisors_per_fiber):
    """Every orbit entry of random divisors, and of those plus INF minus a
    finite standard point on each component where INF is no node, evaluates
    into the mu group of each frame component; the class entry by entry
    (gamma_class) is the residue symbol of the value of the whole divisor by
    resultants (product_of_factors over all its entries); and the oracle's
    product of per-entry chain products is chain evaluation on the points
    of the divisor moved to multidegree zero."""
    rng = rng_for("entry-classes")
    done = fibers = swapped = 0
    for (fiber, frame, phi, gens), inp, rs in _entry_fibers(rng):
        swap = []
        for c in range(fiber.graph.num_vertices):
            if fiber.meets_nodes(c, INF):
                continue
            try:
                swap += [(c, INF, 1), (c, fiber.standard_point(c, (INF,)), -1)]
            except descent.NoRationalBasePoint:
                continue
        swap = SpecializedDivisor(fiber, swap)
        fibers += 1
        swapped += bool(swap.entries)
        for r in rs:
            if r % fiber.k.p == 0:
                continue
            prepared = oracle.prepare(inp, phi, gens, r) if inp is not None else None
            for _ in range(divisors_per_fiber):
                D = random_divisor(fiber, gens, r, rng)
                for divisor in (D, D + swap):
                    _check_entry_classes(divisor, frame, r)
                if prepared is not None:
                    _degree, ofiber, torus, _subgroup = prepared
                    shifted = descent.translate_to_degree_zero(D, r)
                    points = oracle.divisor_points(shifted, ofiber)
                    assert torus.parameter_products(shifted.entries) == tuple(
                        oracle.chain_evaluate(cycle, points, ofiber)
                        for cycle in torus.cycles)
                done += 1
    assert 2 * swapped > fibers
    return done


def _check_entry_classes(D, frame, r):
    for comp in frame.components:
        one = comp.field.one()
        for c, H, _m in D.entries:
            assert comp.entry_value(c, H) ** comp.order == one
        whole = descent.product_of_factors(comp.factors, D.entries, one, comp.node_value)
        assert comp.evaluate(D) == whole
        g = zmat.gcd(r, comp.order)
        expected = residue_symbol(whole, comp.order, g) if g > 1 else 0
        cls = gamma_class(D, comp, r)
        assert (cls.residue, cls.modulus) == (expected, g)
