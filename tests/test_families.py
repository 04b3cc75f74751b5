import pytest

from conftest import random_genus4, random_hyperelliptic, rng_for
from toricdescent import descent, families
from toricdescent.families import (
    CharDividesTwoD, CommonFactorGH, CubicForm, DegreeTooLarge,
    EpsVanishesAtNode, CharTooSmall, FamilyError, ROW_NAMES,
    NotSeparableReduction, genus4_cuberoot, genus4_cuberoot_engine,
    genus4_direct_table, genus4_report, genus4_table_eval, genus4_theta,
    genus4_theta_engine, genus4_torsion, genus4_torsion_engine,
    hyperelliptic_report, theta_bd, theta_bd_engine, torsion_bd,
    torsion_bd_engine, validate_genus4, validate_hyperelliptic)
from toricdescent.finite_field import Poly, factor, make_field, roots
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
    assert fiber.E.m == 5
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


def test_sqrt_of_minus_one_root_count_is_checked(monkeypatch):
    monkeypatch.setattr(families, "roots", lambda f: [])
    with pytest.raises(families.UnexpectedRootCount):
        families._sqrt_of_minus_one(make_field(7))


def test_hyperelliptic_fiber_root_count_is_checked(monkeypatch):
    inp = hyp(7, (0, -1, 0, 1), (2, 1))
    monkeypatch.setattr(families, "roots_in_extension", lambda f, s, factors=None: [])
    with pytest.raises(families.UnexpectedRootCount):
        families.hyperelliptic_fiber(inp)


def test_genus4_fiber_section_degree_is_checked():
    # past validation: without X^3 the section along Z = W has degree 5, one
    # of its points at the node at infinity
    k = make_field(7)
    eps = CubicForm(k, {(0, 3, 0, 0): 1, (0, 0, 2, 1): 1, (1, 1, 1, 0): 1})
    with pytest.raises(families.UnexpectedRootCount):
        families.genus4_fiber(families.Genus4Input(k, eps))


def test_cubic_form_coefficient_count_is_checked():
    with pytest.raises(families.WrongCoefficientCount):
        CubicForm.from_vector(make_field(7), [1] * 19)


def test_genus4_generator_check_is_a_typed_error(monkeypatch):
    from toricdescent import cli
    # a triangle with three nodes per pair has component group Z/3 + Z/9:
    # the generators of orders 6 and 2 no longer split it
    monkeypatch.setattr(families, "GENUS4_MATRIX", [[-6, 3, 3], [3, -6, 3], [3, 3, -6]])
    k = make_field(7)
    with pytest.raises(families.ComponentGroupMismatch):
        families.genus4_fiber(validate_genus4(k, eps0(k)))
    assert cli.run_line(["genus4", "--q", "7", "--eps", "X^3+Y^3+W*Z^2"]) == \
        cli.EXIT_HYPOTHESIS


def test_typed_errors_keep_their_exit_code_under_optimization():
    import subprocess
    import sys
    code = ("import sys\n"
            "from toricdescent import cli, families\n"
            "families.roots = lambda f: []\n"
            "sys.exit(cli.run_line(['genus4', '--p', '7', '--eps', 'X^3+Y^3+W*Z^2']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert "hypothesis violated" in proc.stderr
