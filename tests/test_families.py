import pytest

from conftest import random_genus4, random_hyperelliptic, record_calls, rng_for, roots
from toricdescent import descent, families, zmat
from toricdescent.families import (
    CharDividesTwoD, CommonFactorGH, CubicForm, DegreeTooLarge,
    EpsVanishesAtNode, CharTooSmall, FamilyError, ROW_NAMES,
    NotSeparableReduction, genus4_cuberoot, genus4_cuberoot_engine,
    genus4_direct_table, genus4_report, genus4_table_eval, genus4_theta,
    genus4_theta_engine, genus4_torsion, genus4_torsion_engine,
    hyperelliptic_report, theta_bd, theta_bd_engine, torsion_bd,
    torsion_bd_engine, validate_genus4, validate_hyperelliptic)
from toricdescent.finite_field import INF, Poly, factor, make_field, residue_field
from toricdescent.descent import UNDETERMINED
from toricdescent.zmat import group_invariants


def hyp(q, g, h, m=1, p=None):
    k = make_field(p or q, m) if p or m > 1 else make_field(q)
    return validate_hyperelliptic(k, Poly(k, list(g)), Poly(k, list(h)))


def eps0(k):
    return CubicForm(k, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 2, 1): 1})


# -- validation ---------------------------------------------------------------

def test_validate_hyperelliptic():
    assert hyp(7, (0, -1, 0, 1), (2, 1)).d == 3
    with pytest.raises(CommonFactorGH):
        hyp(7, (0, -1, 0, 1), (0, 1))  # shared root 0
    with pytest.raises(CharDividesTwoD):
        hyp(3, (0, -1, 0, 1), (2, 1))
    with pytest.raises(NotSeparableReduction):
        hyp(7, (0, 0, 1, 0, 0, 1), (1,))  # x^5 + x^2 has a double root
    with pytest.raises(DegreeTooLarge):
        hyp(7, (0, -1, 0, 1), tuple([1] * 8))  # degree 7 > 2d = 6
    with pytest.raises(FamilyError):
        hyp(7, (1, 1), (1,))  # degree below 3


def test_validate_genus4():
    K13 = make_field(13)
    inp = validate_genus4(K13, eps0(K13))
    assert inp.i_in_k
    K7 = make_field(7)
    assert not validate_genus4(K7, eps0(K7)).i_in_k
    with pytest.raises(EpsVanishesAtNode):
        validate_genus4(K13, CubicForm(K13, {(3, 0, 0, 0): 1}))  # dies at [0:1:0:0]
    with pytest.raises(CharTooSmall):
        validate_genus4(make_field(3), eps0(make_field(3)))
    one = K13.one()
    assert eps0(K13).evaluate((one, one, one, one)) == K13(3)


# -- theta --------------------------------------------------------------------

def test_theta_examples():
    assert theta_bd(hyp(7, (0, -1, 0, 1), (1,))) is True  # constant h
    assert theta_bd(hyp(7, (0, -1, 0, 1), (2, 1))) is False
    assert theta_bd(hyp(23, (0, -1, 0, 1), (2, 1))) is True
    # even degree: always
    assert theta_bd(hyp(7, (-1, 0, 0, 0, 1), (3, 1))) is True
    # irreducible reduction: always
    k5 = make_field(5)
    cubic = Poly(k5, [1, 1, 0, 1])
    assert not roots(cubic)
    assert theta_bd(validate_hyperelliptic(k5, cubic, Poly(k5, [1, 1]))) is True


def test_theta_alpha0_symmetry():
    rng = rng_for("alpha0-symmetry")
    count = 0
    while count < 40:
        q = rng.choice([5, 7, 11, 13])
        k = make_field(q)
        inp = random_hyperelliptic(k, 3, rng)
        rational = roots(inp.g)
        if len(rational) != 3:
            continue
        verdicts = {theta_bd(inp, alpha0_rank=i) for i in range(3)}
        assert len(verdicts) == 1
        count += 1


def test_theta_undetermined_gap():
    # odd degree, no rational node, reducible: outside the proved cases
    k7 = make_field(7)
    for g in _monic_polys_without_rational_roots(k7, 5):
        facs = factor(g)
        if len(facs) > 1:
            h = Poly(k7, [1])
            if g.gcd(h).degree == 0:
                inp = validate_hyperelliptic(k7, g, h)
                assert theta_bd(inp) == UNDETERMINED
                break
    else:
        pytest.skip("no fixture found")


def _monic_polys_without_rational_roots(k, d):
    from toricdescent.finite_field import poly_from_int
    for n in range(k.q ** d, 2 * k.q ** d):
        f = poly_from_int(k, n)
        if f.degree == d and f.lead() == k.one() and not roots(f):
            if f.gcd(f.derivative()).degree == 0:
                yield f


# -- torsion ------------------------------------------------------------------

def test_torsion_examples():
    assert torsion_bd(hyp(7, (0, -1, 0, 1), (2, 1))) == [6, 18]
    # cube ratios: h = 1 gives trivial ratios, so the extra factor splits off
    assert torsion_bd(hyp(7, (0, -1, 0, 1), (1,))) == group_invariants([6, 6, 3])


def test_torsion_one_rational_root_cases():
    # residue size 2 mod 3: the test is a power condition in the quadratic
    # extension
    k5 = make_field(5)
    for g, h, expected_orders in [
        # x^3 - 2 = (x - 3)(x^2 + 3x + 4) over GF(5)
        ((-2, 0, 0, 1), (1, 1), None),
    ]:
        gp = Poly(k5, list(g))
        assert len(roots(gp)) == 1
        inp = validate_hyperelliptic(k5, gp, Poly(k5, list(h)))
        out = torsion_bd(inp)
        assert out in (group_invariants([24, 3]), group_invariants([72]))
        assert out == torsion_bd_engine(inp)


def test_torsion_irreducible_case():
    k5 = make_field(5)
    cubic = Poly(k5, [1, 1, 0, 1])
    inp = validate_hyperelliptic(k5, cubic, Poly(k5, [1, 1]))
    out = torsion_bd(inp)
    # q = 5 is 2 mod 3, so the extra cyclic factor always splits off
    assert out == group_invariants([31, 3])
    assert out == torsion_bd_engine(inp)


def test_torsion_order_identity_split():
    rng = rng_for("torsion-order")
    count = 0
    while count < 30:
        q = rng.choice([5, 7, 11, 13])
        d = rng.choice([3, 4, 5])
        if (2 * d) % q == 0:
            continue
        k = make_field(q)
        inp = random_hyperelliptic(k, d, rng)
        if len(roots(inp.g)) != d or factor(inp.g)[0][1] != 1:
            continue
        out = torsion_bd(inp)
        total = 1
        for v in out:
            total *= v
        assert total == (q - 1) ** (d - 1) * d
        count += 1


def test_split_quartic_torsion_three_mod_four():
    # the closed form for split g holds for every d, not only d | q - 1:
    # gcd(d, q - 1) = 2 here
    inp = hyp(27, (2, 1, 1, 0, 1), (0, 1), m=3, p=3)
    assert torsion_bd(inp) == [26, 26, 104] == torsion_bd_engine(inp)
    rng = rng_for("split-quartic-3mod4")
    count = 0
    while count < 24:
        q = rng.choice([7, 11, 19, 27])
        p, m = (3, 3) if q == 27 else (q, 1)
        k = make_field(p, m)
        alphas = rng.sample(range(q), 4)
        g = Poly(k, [1])
        for a in alphas:
            g = g * Poly(k, [-k.from_int(a), k.one()])
        e = rng.randrange(0, 9)
        h = Poly(k, [k.from_int(rng.randrange(q)) for _ in range(e)]
                 + [k.from_int(rng.randrange(1, q))])
        try:
            inp = validate_hyperelliptic(k, g, h)
        except FamilyError:
            continue
        assert torsion_bd(inp) == torsion_bd_engine(inp), (q, g, h)
        count += 1


def test_engine_field_is_the_node_field():
    # irreducible quintic g with a sextic h over GF(11): the nodes need
    # GF(11^5); the zeros of h would have needed GF(11^30)
    k = make_field(11)
    g = next(f for f in _monic_polys_without_rational_roots(k, 5)
             if len(factor(f)) == 1)
    h = next(f for f in _monic_polys_without_rational_roots(k, 6)
             if len(factor(f)) == 1 and g.gcd(f).degree == 0)
    inp = validate_hyperelliptic(k, g, h)
    fiber = families.hyperelliptic_fiber(inp)[0]
    # one orbit: the class of x in GF(11)[x]/(g) and its q-power conjugates
    node_field = fiber.node_coords[0][0].field
    assert fiber.E is node_field and node_field.modulus == tuple(c.to_int() for c in g.coeffs)
    assert [a for a, _b in fiber.node_coords] == [
        node_field.gen().frob(j) for j in range(5)]
    assert theta_bd(inp) == theta_bd_engine(inp)
    assert torsion_bd(inp) == torsion_bd_engine(inp)
    # genus 4 at q = 3 mod 4: the nodes +-i need k(i) = GF(49)
    k7 = make_field(7)
    assert families.genus4_fiber(validate_genus4(k7, eps0(k7)))[0].E.m == 2


@pytest.mark.slow
def test_hyperelliptic_closed_vs_engine_500():
    rng = rng_for("bd-cross-check")
    done = 0
    while done < 500:
        q = rng.choice([5, 7, 9, 11, 13])
        d = rng.choice([3, 4, 5])
        p, m = (3, 2) if q == 9 else (q, 1)
        if (2 * d) % p == 0:
            continue
        k = make_field(p, m)
        inp = random_hyperelliptic(k, d, rng)
        tc = theta_bd(inp)
        te = theta_bd_engine(inp)
        if te != UNDETERMINED and tc != UNDETERMINED:
            assert tc == te, (q, d, inp.g, inp.h)
        try:
            oc = torsion_bd(inp)
            oe = torsion_bd_engine(inp)
            assert oc == oe, (q, d, inp.g, inp.h)
        except descent.UnsupportedTorus:
            pass
        done += 1


# -- genus 4 ------------------------------------------------------------------

def test_table_fixed_entries():
    for q in (7, 11, 13):
        K = make_field(q)
        inp = validate_genus4(K, eps0(K))
        field, i, rows = genus4_table_eval(inp)
        one = field.one()
        assert rows["div(X+Y)"] == (-one, -one, -i, i)


def test_table_example_values():
    K = make_field(13)
    inp = validate_genus4(K, eps0(K))
    field, i, rows = genus4_table_eval(inp)
    # eps0: value 3 at [1:1:1:1], -1 at [-1:-1:1:1], 1 at the two poles
    assert rows["div(Z-W)"][1] == field.one()                 # 1/1
    assert rows["div(Z-W)"][0] == field(-3) / field(-1)       # -3/(-1) = 3
    assert rows["div(Z-W)"][2] == field(3)


def test_direct_table_matches_closed_forms():
    rng = rng_for("table-smoke")
    for q in (7, 11, 13):
        K = make_field(q)
        for _ in range(5):
            inp = random_genus4(K, rng)
            f1, i1, closed = genus4_table_eval(inp)
            f2, i2, direct = genus4_direct_table(inp)
            assert f1 == f2 and i1 == i2
            for name in ROW_NAMES:
                assert closed[name] == direct[name], name


def test_direct_table_row_multiplicativity():
    rng = rng_for("table-mult")
    K = make_field(11)
    for _ in range(10):
        inp = random_genus4(K, rng)
        _, _, direct = genus4_direct_table(inp)
        lhs = direct["div((Z-W)/(Z+W))"]
        rhs = tuple(a / b for a, b in zip(direct["div(Z-W)"], direct["div(Z+W)"]))
        assert lhs == rhs


@pytest.mark.parametrize("q", [13, 7], ids=["i-in-k", "i-not-in-k"])
def test_genus4_sections_have_one_definition(q):
    # the direct table and the engine read the same section divisors, so
    # each is derived here once more: div(X+Y) from the linear form X + Y on
    # each component, padded with INF to the two points a section meets a
    # line in, and Z -+ W from the cubic along the parametrizations
    # [t^2 : 1 : t : t] and [t^2 : -1 : -t : t], at all q > 6 points of k
    k = make_field(q)
    structure = families._genus4_structure(k)
    xy = []
    for comp in range(3):
        restricted = families._restrict_linear(k, (k.one(), k.one(), k.zero(), k.zero()), comp)
        xy += [(comp, restricted.monic(), 1)] + [(comp, INF, 1)] * (2 - restricted.degree)
    assert descent.SpecializedDivisor(structure.fiber, xy).entries == structure.div_xy.entries
    rng = rng_for(f"genus4-sections:{q}")
    one = k.one()
    for _ in range(5):
        inp = random_genus4(k, rng)
        divisors = inp.fiber_data[4]
        assert divisors["div(X+Y)"].entries == structure.div_xy.entries
        lead = inp.eps.coeffs[(3, 0, 0, 0)]
        for name, comp, sign, restricted in (("div(Z-W)", 1, one, inp.eps.restrict_zw()),
                                             ("div(Z+W)", 2, -one, inp.eps.restrict_mzw())):
            ((c, H, m),) = divisors[name].entries
            assert (c, H, m) == (comp, restricted.monic(), 1) and H.degree == 6
            for t in k.elements():
                assert inp.eps.evaluate((t * t, sign, sign * t, t)) == lead * H(t)


def test_direct_table_reads_the_engine_node_values(monkeypatch):
    # at q = 13 (i in k) the engine's verdicts and torsion have evaluated
    # every section at every node its frame's four loops pass, and the
    # direct table's loops pass the same nodes: it reads H at a node from
    # the request's fiber and adds nothing to that memo
    k = make_field(13)
    rng = rng_for("direct-table-node-values")
    for _ in range(5):
        inp = random_genus4(k, rng)
        for engine in (genus4_theta_engine, genus4_cuberoot_engine, genus4_torsion_engine):
            engine(inp)
        fiber = inp.fiber_data[0]
        memo = dict(fiber._values)
        calls = _recording(monkeypatch, descent.SpecialFiber, "value")
        _, _, direct = genus4_direct_table(inp)
        monkeypatch.undo()
        assert calls and fiber._values == memo
        assert direct == genus4_table_eval(inp)[2]


def _derived_local_functions(field, i):
    """The genus-4 local functions derived from their linear forms
    (a, b, c, d) = aX + bY + cZ + dW: each ratio restricted to its component
    and reduced by the gcd to c (t - a)/(t - b), as (component, a, b,
    numerator of c, denominator of c)."""
    one, zero = field.one(), field.zero()

    def lf(component, num_form, den_form):
        num = families._restrict_linear(field, num_form, component)
        den = families._restrict_linear(field, den_form, component)
        common = num.gcd(den)
        if common.degree > 0:
            num, den = num // common, den // common
        assert num.degree <= 1 and den.degree <= 1 and num.degree + den.degree >= 1
        if num.degree == 0:
            return (component, INF, -den[0] / den[1], num[0], den[1])
        if den.degree == 0:
            return (component, -num[0] / num[1], INF, num[1], den[0])
        return (component, -num[0] / num[1], -den[0] / den[1], num[1], den[1])

    def gamma3(ii):
        return [lf(0, (-ii, zero, one, zero), (-one, zero, one, zero)),  # (Z-iX)/(Z-X)
                lf(1, (zero, -one, one, zero), (zero, zero, one, zero)),  # (Z-Y)/Z
                lf(2, (one, zero, zero, zero), (-ii, zero, one, zero))]  # X/(Z-iX)

    return {
        1: [lf(0, (one, zero, one, zero), (-one, zero, one, zero)),   # (Z+X)/(Z-X)
            lf(1, (-one, zero, one, zero), (one, zero, one, zero))],  # (Z-X)/(Z+X)
        2: [lf(1, (zero, -one, one, zero), (-one, zero, one, zero)),  # (Z-Y)/(Z-X)
            lf(2, (-one, zero, one, zero), (zero, one, one, zero))],  # (Z-X)/(Z+Y)
        3: gamma3(i),
        4: gamma3(-i),
    }


@pytest.mark.parametrize("q", [13, 7], ids=["i-in-k", "i-not-in-k"])
def test_genus4_local_functions_match_their_linear_forms(q):
    field, i = families._sqrt_of_minus_one(make_field(q))
    written = {loop: [(f.component, f.enter, f.leave, f.scale_num, f.scale_den)
                      for f in factors]
               for loop, factors in families._genus4_local_functions(field, i).items()}
    assert written == _derived_local_functions(field, i)


def test_genus4_theta_example():
    K13 = make_field(13)
    assert genus4_theta(validate_genus4(K13, eps0(K13))) is True
    assert genus4_theta_engine(validate_genus4(K13, eps0(K13))) is True


def test_genus4_cuberoot_rule_five_mod_twelve():
    rng = rng_for("cube-5mod12")
    for p in (5, 17):
        K = make_field(p)
        for _ in range(5):
            inp = random_genus4(K, rng, r=3)
            assert genus4_cuberoot(inp) is True


def test_genus4_torsion_order():
    rng = rng_for("g4-torsion-order")
    for q in (7, 13):
        K = make_field(q)
        for _ in range(5):
            inp = random_genus4(K, rng)
            out = genus4_torsion(inp)
            total = 1
            for v in out:
                total *= v
            f_q = (q - 1) ** 4 if q % 4 == 1 else (q - 1) ** 2 * (q * q - 1)
            assert total == 12 * f_q


@pytest.mark.slow
def test_genus4_closed_vs_engine_100_per_field():
    rng = rng_for("g4-cross-check")
    for q in (7, 11, 13):
        K = make_field(q)
        for _ in range(100):
            inp = random_genus4(K, rng)
            assert genus4_theta(inp) == genus4_theta_engine(inp)
            assert genus4_cuberoot(inp) == genus4_cuberoot_engine(inp)
            assert genus4_torsion(inp) == genus4_torsion_engine(inp)


# -- reports ------------------------------------------------------------------

def test_reports_are_json_ready():
    import json
    inp = hyp(7, (0, -1, 0, 1), (2, 1))
    rep = hyperelliptic_report(inp)
    assert rep["torsion"] == [6, 18]
    assert rep["engine_check"]["agree"] is True
    json.dumps(rep)
    K = make_field(7)
    rep = genus4_report(validate_genus4(K, eps0(K)))
    assert rep["phi"] == [2, 6]
    assert rep["engine_check"]["agree"] is True
    json.dumps(rep)


# -- typed errors on internal invariants (kept under python -O) ----------------


def test_repeated_factor_of_g_is_a_typed_error():
    k = make_field(7)
    # (x - 1)^2 (x - 2), past validation: the factor bookkeeping refuses it
    g = Poly(k, [-1, 1]) * Poly(k, [-1, 1]) * Poly(k, [-2, 1])
    inp = families.HyperellipticInput(k, g, Poly(k, [3]))
    with pytest.raises(NotSeparableReduction):
        theta_bd(inp)


def test_hyperelliptic_fiber_checks_the_node_orbits(monkeypatch):
    # g = x (x^2 + 1) over GF(7): a node field whose node has fewer than two
    # conjugates leaves coincident coordinates, which the fiber refuses
    from toricdescent.descent import MissingNodeCoordinates
    inp = hyp(7, (0, 1, 0, 1), (2, 1))

    def one_conjugate(g):
        field, _node = residue_field(g)
        return field, field.one()

    monkeypatch.setattr(families, "residue_field", one_conjugate)
    with pytest.raises(MissingNodeCoordinates):
        families.hyperelliptic_fiber(inp)


def test_genus4_fiber_section_degree_is_checked():
    # past validation: without X^3 the section along Z = W has degree 5, one
    # of its points at the node at infinity
    k = make_field(7)
    eps = CubicForm(k, {(0, 3, 0, 0): 1, (0, 0, 2, 1): 1, (1, 1, 1, 0): 1})
    with pytest.raises(families.UnexpectedRootCount):
        families.genus4_fiber(families.Genus4Input(k, eps))


def test_genus4_generator_check_is_a_typed_error(monkeypatch, cold_shape_caches):
    from toricdescent import cli
    # a triangle with three nodes per pair has component group Z/3 + Z/9:
    # the generators of orders 6 and 2 no longer split it.  The component
    # group is built once per field, so the caches are emptied around the
    # patch
    monkeypatch.setattr(families, "GENUS4_MATRIX", [[-6, 3, 3], [3, -6, 3], [3, 3, -6]])
    k = make_field(7)
    with pytest.raises(families.ComponentGroupMismatch):
        families.genus4_fiber(validate_genus4(k, eps0(k)))
    assert cli.run_line(["genus4", "--q", "7", "--eps", "X^3+Y^3+W*Z^2"]) == \
        cli.EXIT_HYPOTHESIS


def test_typed_errors_keep_their_exit_code_under_optimization():
    import subprocess
    import sys
    # the section-degree check of test_genus4_fiber_section_degree_is_checked,
    # reached through the CLI with validation and the closed forms skipped
    code = ("import sys\n"
            "from toricdescent import cli, families\n"
            "cli.validate_genus4 = lambda k, eps, r, qp_mode: families.Genus4Input(k, eps)\n"
            "cli.genus4_report = lambda inp, engine_check: families.genus4_fiber(inp)\n"
            "sys.exit(cli.run_line(['genus4', '--p', '7', '--eps', 'Y^3+Z^2*W+X*Y*Z']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert "hypothesis violated: a section does not meet its line" in proc.stderr


def _pinned_genus4_reports():
    import json
    from pathlib import Path
    with open(Path(__file__).parent / "data" / "genus4_reports.jsonl") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("record", _pinned_genus4_reports(),
                         ids=lambda rec: rec["line"].split(" --json")[0])
def test_genus4_report_is_pinned(record):
    """Reports at q = 3 mod 4, where i lies outside k, as the closed forms
    gave them when they pulled values back into k through a section of
    k -> k(i): at q = 343 and 1331 that section solved a linear system over
    GF(p).  The k-rationality tests now run in k(i) by powers.  The lines
    at q = 5, 13, 25, 29, 49 and 121 have i in k: the four split loops,
    loop 4 and the first branch of genus4_torsion.  At q = 5 and 25 the
    other cubics vanish at a node, so those lines use another."""
    import io
    from toricdescent import cli
    out = io.StringIO()
    code = cli.run_line(record["line"].split(), stream=out)
    assert (code, out.getvalue()) == (record["exit"], record["output"])


# -- per-request work ---------------------------------------------------------


def _recording(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name, patched on owner."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


@pytest.mark.parametrize("engine", [[], ["--no-engine-check"]], ids=["check", "no-check"])
@pytest.mark.parametrize("q", ["7", "13"])
def test_eps_is_evaluated_once_per_node(monkeypatch, capsys, q, engine):
    # validation computes the cubic at the six nodes from its coefficients
    # (eps_at_nodes), and the table and the torsion (which needs eps at
    # [i:i:-1:1] when i is not in k) read those values: at q = 7, i lies in
    # the quadratic extension, at q = 13 in k.  No request evaluates the
    # cubic term by term (CubicForm.evaluate is the reference only)
    from toricdescent import cli
    calls = _recording(monkeypatch, CubicForm, "evaluate")
    argv = ["genus4", "--q", q, "--eps", "X^3+Y^3+W*Z^2", "--json"] + engine
    assert cli.run_line(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("q", [5, 13, 25, 7, 11, 27, 1031])
def test_eps_at_nodes_matches_evaluate(q):
    # the closed form against the term-by-term value of the cubic over k(i)
    # at the six points, on seeded cubics (some coefficients zero, some
    # cubics vanishing at a node), at q = 1 and q = 3 mod 4
    p = {25: 5, 27: 3}.get(q, q)
    k = make_field(p, {25: 2, 27: 3}.get(q, 1))
    rng = rng_for(f"eps-at-nodes:{q}")
    for trial in range(40):
        coeffs = {e: rng.randrange(k.q) if rng.random() < 0.7 else 0
                  for e in families.MONOMIALS}
        if trial == 0:
            coeffs = {(0, 3, 0, 0): 1}  # vanishes at [1:0:0:0]
        inp = families.Genus4Input(k, CubicForm(k, {e: k.from_int(c)
                                                    for e, c in coeffs.items()}))
        field, i = inp.sqrt_minus_one
        one, zero = field.one(), field.zero()
        points = [(one, one, one, one), (-one, -one, one, one), (i, i, -one, one),
                  (-i, -i, -one, one), (one, zero, zero, zero), (zero, one, zero, zero)]
        lifted = CubicForm(field, {e: inp.structure.lift(c) for e, c in inp.eps.coeffs.items()})
        expected = [lifted.evaluate(point) for point in points]
        assert inp.eps_at_nodes == expected
        assert all(value.field == field for value in inp.eps_at_nodes)


@pytest.mark.parametrize("engine", [[], ["--no-engine-check"]], ids=["check", "no-check"])
@pytest.mark.parametrize("line", [
    "hyperelliptic --p 7 --g x^3-x --h x+2",
    # x (x + 1) (x^2 - x + 1) over GF(5): torsion_bd asks the engine
    "hyperelliptic --p 5 --g x^4+x --h x+2",
    "genus4 --q 7 --eps X^3+Y^3+W*Z^2",
])
def test_one_component_group_per_family_request(monkeypatch, capsys, cold_shape_caches,
                                                line, engine):
    # the fiber builder and the report share the component group, which the
    # shape's graph or the field's genus-4 structure keeps: a cold request
    # builds it once, a repeated shape or field not at all
    from toricdescent import cli, dual_graph
    calls = _recording(monkeypatch, dual_graph.ComponentGroup, "__init__")
    counts = []
    for _ in range(2):
        assert cli.run_line(line.split() + ["--json"] + engine) == cli.EXIT_OK
        counts.append(len(calls))
    capsys.readouterr()
    assert counts == [1, 1]


@pytest.mark.parametrize("line, forms", [
    # the component group and the torsion presentation: the frame reads its
    # generators off the edge orbits, with no orbit recurrence
    ("hyperelliptic --p 7 --g x^3-x --h x+2", 2),
    ("genus4 --q 7 --eps X^3+Y^3+W*Z^2", 2),
])
def test_smith_forms_per_family_request(monkeypatch, capsys, cold_shape_caches, line, forms):
    # the component group's one Smith form answers every fibral-lattice
    # test, and its inverse certificate is never built for a report.  The
    # component group is kept per shape or field, so a repeated request
    # computes only its torsion presentation
    from toricdescent import cli
    calls = record_calls(monkeypatch, zmat.smith_normal_form)
    counts = []
    for _ in range(2):
        calls.clear()
        assert cli.run_line(line.split() + ["--json"]) == cli.EXIT_OK
        counts.append(len(calls))
    capsys.readouterr()
    assert counts == [forms, 1]


def _genus4_memo_sizes(structure):
    """The sizes of every memo on a genus-4 structure's shared objects."""
    fiber, frame = structure.fiber, structure.frame
    return (len(vars(structure)), len(vars(fiber.graph)), len(fiber._values),
            len(fiber._meets), fiber._scans,
            [(len(comp._entry_values), len(comp._entry_symbols)) for comp in frame.components],
            len(vars(structure.phi)))


def test_shared_structure_keeps_no_request_memo(cold_shape_caches):
    # 200 genus-4 reports with distinct seeded cubics over one field, then
    # 200 hyperelliptic reports and oracle runs of one orbit pattern: the
    # shared fiber, frame, graph and torus keep what the first request left,
    # and each cache holds one entry
    from toricdescent import oracle
    graphs, structures, tori = cold_shape_caches
    k = make_field(11)
    rng = rng_for("shared-structure-memos")
    seen = set()
    sizes = []
    while len(seen) < 200:
        inp = random_genus4(k, rng)
        vector = tuple(c.to_int() for c in inp.eps.vector())
        if vector in seen:
            continue
        seen.add(vector)
        assert genus4_report(inp)["engine_check"]["agree"] is True
        sizes.append(_genus4_memo_sizes(inp.structure))
    assert sizes == sizes[:1] * 200
    assert structures.cache_info().currsize == 1
    assert graphs.cache_info().currsize == 0

    k = make_field(13)
    graph_sizes = []
    inputs = []
    done = 0
    while done < 200:
        inp = random_hyperelliptic(k, 4, rng)
        if [f.degree for f in inp.factors] != [1, 1, 2]:
            continue
        assert hyperelliptic_report(inp)["engine_check"]["agree"] is True
        inputs.append(inp)
        fiber, frame, phi, gens = inp.fiber_data
        for _ in range(2):
            div = oracle.random_divisor(fiber, 2, rng, 2)
            descent.divisibility_verdict(div, 2, frame, phi, gens)
        graph_sizes.append((len(vars(inp.graph)), len(vars(phi))))
        done += 1
    assert graph_sizes == graph_sizes[:1] * 200
    assert graphs.cache_info().currsize == 1
    assert structures.cache_info().currsize == 1

    # oracle runs on the first 20 of those inputs whose oracle field is
    # GF(13^2): the one shared torus keeps no entry_products memo
    torus_vars = []
    for inp in inputs:
        fiber, frame, phi, gens = inp.fiber_data
        if oracle.field_degree([H for gen in gens for _c, H, _m in gen.f_divisor.entries]) > 2:
            continue
        degree, ofiber, torus, subgroup = oracle.prepare(inp, phi, gens, 2)
        for _ in range(2):
            div = oracle.random_divisor(fiber, 2, rng, degree)
            oracle.exhaustive_divisibility(div, 2, ofiber, torus, subgroup)
        assert torus._entry_products
        shared = oracle._shared_torus(inp.graph, ofiber.k, ofiber.E)
        torus_vars.append(sorted(vars(shared)))
        if len(torus_vars) == 20:
            break
    assert torus_vars == torus_vars[:1] * 20
    assert "_entry_products" not in torus_vars[0]
    assert tori.cache_info().currsize == 1


def test_pinned_char_polys_count_the_torus_points():
    # every pinned hyperelliptic and genus-4 report: the characteristic
    # polynomial at q is the torus order, and a decomposition's orders
    # multiply to it
    import json
    import math
    from pathlib import Path
    from toricdescent.parsing import parse_univariate
    from toricdescent.zmat import poly_eval_int
    families_seen = {"hyperelliptic": 0, "genus4": 0}
    decomposed = 0
    for name in ("genus4_reports.jsonl", "hyperelliptic_reports.jsonl"):
        with open(Path(__file__).parent / "data" / name) as fh:
            outputs = [json.loads(line)["output"] for line in fh]
        for output in outputs:
            if not output.startswith("{"):
                continue
            report = json.loads(output)
            if report.get("family") not in families_seen:
                continue
            families_seen[report["family"]] += 1
            torus, q = report["torus"], report["input"]["q"]
            assert poly_eval_int(parse_univariate(torus["char_poly"]), q) == torus["order"]
            if torus["decomposition"] is not None:
                orders = [summand["order"] for summand in torus["decomposition"]]
                assert math.prod(orders) == torus["order"]
                decomposed += 1
    assert min(families_seen.values()) > 20 and decomposed > 100, (families_seen, decomposed)


def test_repeated_shapes_and_fields_replay_the_pinned_reports(capsys, cold_shape_caches):
    # the pinned genus-4, hyperelliptic and oracle lines, twice over in one
    # process in a seeded shuffled order: requests that find their shape or
    # field already built answer with the same bytes as cold ones
    import io
    import json
    from pathlib import Path
    from toricdescent import cli
    records = []
    for name in ("genus4_reports.jsonl", "hyperelliptic_reports.jsonl"):
        with open(Path(__file__).parent / "data" / name) as fh:
            records += [json.loads(line) for line in fh]
    rng = rng_for("warm-replay")
    answers = {}
    for _ in range(2):
        order = list(range(len(records)))
        rng.shuffle(order)
        for index in order:
            record = records[index]
            out = io.StringIO()
            code = cli.run_line(record["line"].split(), stream=out)
            answer = (code, out.getvalue(), capsys.readouterr().err)
            assert answer[:2] == (record["exit"], record["output"]), record["line"]
            assert answers.setdefault(index, answer) == answer, record["line"]
    assert len(answers) == len(records)


def test_no_node_field_without_a_decomposition_rule(monkeypatch, capsys):
    # two node orbits of degree 2 and no rational node: the graph is refused
    # from the orbit degrees, before any node field is built
    from toricdescent import cli
    calls = record_calls(monkeypatch, residue_field)
    argv = ["hyperelliptic", "--q", "9", "--g", "x^4+2*x^3+x^2+1", "--h", "2*x^2+x", "--json"]
    assert cli.run_line(argv) == cli.EXIT_UNDETERMINED
    assert capsys.readouterr().out == (
        '{"dual_graph":{"node_orbit_degrees":[2,2],"nodes":4,"vertices":2},'
        '"engine_check":{"agree":null,"theta":null},"family":"hyperelliptic",'
        '"input":{"base_field":"local field with this residue field",'
        '"g":"x^4+2*x^3+x^2+1","h":"2*x^2+x","p":3,"q":9,"r":2},"phi":[4],'
        '"schema_version":1,"torsion":null,"torus":{"char_poly":"x^3+x^2-x-1",'
        '"decomposition":null,"order":800},"undetermined_reasons":["no-rational-node: '
        'no rational node and several edge orbits"],"valid":true,'
        '"verdicts":{"theta":true},"warnings":[]}\n')
    assert calls == []
