import subprocess
import sys

import pytest

from conftest import (multiplicative_order, norm_lattice, random_unimodular, rng_for,
                      split_lattice)
from toricdescent import torus, zmat
from toricdescent.torus import (
    CharacterLattice, EnumerationLimitExceeded, TorusError,
    enumerate_rational_points, mu_group, principal_component, torus_order,
    verify_principal_decomposition)

B3_IRRED = [[0, -1], [1, -1]]


def test_char_poly_examples():
    assert split_lattice(1).char_poly == [-1, 1]
    g = 3
    assert norm_lattice(g).char_poly == [-1, 0, 0, 1]
    assert CharacterLattice(B3_IRRED).char_poly == [1, 1, 1]


def test_torus_order_examples():
    assert torus_order(split_lattice(4), 5) == 4 ** 4
    assert torus_order(norm_lattice(2), 3) == 8
    assert torus_order(CharacterLattice(B3_IRRED), 7) == 57


def test_lattice_validation():
    with pytest.raises(TorusError):
        CharacterLattice([[2, 0], [0, 1]])  # determinant 2
    with pytest.raises(TorusError):
        CharacterLattice([[1, 1], [0, 1]])  # infinite order


def test_order_invariant_under_basis_change():
    rng = rng_for("basis-change")
    fixtures = [split_lattice(2), norm_lattice(3), CharacterLattice(B3_IRRED)]
    for lattice in fixtures:
        g = lattice.rank
        f = lattice.char_poly
        for _ in range(50):
            U = random_unimodular(g, rng)
            Uinv = zmat.mat_inverse_unimodular(U)
            conj = zmat.mat_mul(zmat.mat_mul(U, lattice.frobenius), Uinv)
            assert CharacterLattice(conj).char_poly == f


def test_principal_component_and_verification():
    norm2 = norm_lattice(2)
    comp = principal_component(norm2, [1, 0])
    assert comp.rank == 2 and comp.char_poly == [-1, 0, 1]
    ok, cert, _ = verify_principal_decomposition(split_lattice(2), [[1, 0], [0, 1]])
    assert ok and abs(zmat.det(cert)) == 1
    ok, _, comps = verify_principal_decomposition(norm2, [[1, 0]])
    assert ok and [c.char_poly for c in comps] == [[-1, 0, 1]]
    ok, cert, _ = verify_principal_decomposition(norm2, [[2, 0]])
    assert not ok and abs(zmat.det(cert)) > 1  # proper sublattice


def test_mu_group_examples():
    assert mu_group(principal_component(split_lattice(1), [1]), 7).order == 6
    mg = mu_group(principal_component(norm_lattice(2), [1, 0]), 3)
    assert (mg.order, mg.host) == (8, "GF(3^2)")
    mg = mu_group(principal_component(CharacterLattice(B3_IRRED), [1, 0]), 2)
    assert (mg.order, mg.host) == (7, "GF(2^3)")
    mg = mu_group(principal_component(norm_lattice(2), [1, 0]), 49)
    assert (mg.order, mg.host) == (49 ** 2 - 1, "GF(7^4)")


def test_mu_group_names_hosts_past_the_field_limit():
    # the host field is named, never built, so its size is not limited
    mg = mu_group(principal_component(norm_lattice(2), [1, 0]), 1031)
    assert (mg.order, mg.host) == (1031 ** 2 - 1, "GF(1031^2)")
    mg = mu_group(principal_component(split_lattice(1), [1]), 2000003)
    assert (mg.order, mg.host) == (2000002, "GF(2000003)")
    mg = mu_group(principal_component(norm_lattice(3), [1, 0, 0]), 2000003)
    assert (mg.order, mg.host) == (2000003 ** 3 - 1, "GF(2000003^3)")


def test_not_principal():
    # rank-2 trivial action is not generated by a single character
    ok, rows, _ = verify_principal_decomposition(split_lattice(2), [[1, 1]])
    assert not ok and rows == [[1, 1]]


def test_enumeration_matches_order():
    fixtures = [split_lattice(1), split_lattice(2), norm_lattice(2),
                norm_lattice(3), CharacterLattice(B3_IRRED)]
    for q in (2, 3, 4, 5):
        for lattice in fixtures:
            pts = enumerate_rational_points(lattice, q)
            assert len(pts) == torus_order(lattice, q)


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitExceeded):
        enumerate_rational_points(split_lattice(4), 49, limit=10 ** 4)


def test_component_character_is_injective_with_cyclic_image():
    for q in (2, 3, 5):
        for lattice, chi in [(norm_lattice(2), [1, 0]),
                             (CharacterLattice(B3_IRRED), [1, 0]),
                             (split_lattice(1), [1])]:
            comp = principal_component(lattice, chi)
            pts = enumerate_rational_points(lattice, q)
            values = [pts.value(p, chi) for p in pts.points]
            n = comp.order_over(q)
            assert len({v.to_int() for v in values}) == n == len(pts)
            assert all(v ** n == pts.host.one() for v in values)


def test_sum_of_characters_is_isomorphism():
    # a decomposable fixture: split x norm inside rank 3
    F = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    lattice = CharacterLattice(F)
    gens = [[1, 0, 0], [0, 1, 0]]
    ok, _, comps = verify_principal_decomposition(lattice, gens)
    assert ok
    for q in (2, 3, 5):
        pts = enumerate_rational_points(lattice, q)
        images = {tuple(pts.value(p, chi).to_int() for chi in gens)
                  for p in pts.points}
        assert len(images) == len(pts)
        orders = [c.order_over(q) for c in comps]
        assert len(pts) == orders[0] * orders[1]


def test_norm_map_bijective_on_power_classes():
    # norm tori with r | q - 1: the induced map between the power-class
    # groups of the extension and base unit groups is a bijection
    from toricdescent.finite_field import make_field
    for q, g, r in [(5, 2, 2), (7, 2, 3), (7, 3, 2), (13, 2, 3)]:
        assert (q - 1) % r == 0
        K = make_field(q)
        L = make_field(q, g)
        classes = {}
        for x in L.elements():
            if x.is_zero():
                continue
            # the norm x^((q^g-1)/(q-1)) lies in the prime field GF(q)
            norm = x ** ((L.q - 1) // (q - 1))
            assert not any(norm.coeffs[1:])
            cls = _power_class(K(norm.coeffs[0]), r)
            classes.setdefault(_power_class(x, r), set()).add(cls)
        # well-defined and injective on classes
        assert all(len(v) == 1 for v in classes.values())
        images = {next(iter(v)) for v in classes.values()}
        assert len(classes) == len(images) == zmat.gcd(r, q - 1)


def _power_class(x, r):
    from toricdescent.finite_field import residue_symbol
    n = x.field.q - 1
    return residue_symbol(x, n, zmat.gcd(r, n))


def test_prime_power_against_trial_division():
    from toricdescent.torus import prime_power
    for q in range(-3, 10 ** 4):
        fac = zmat.factorize(q) if q >= 2 else {}
        if len(fac) == 1:
            assert prime_power(q) == next(iter(fac.items()))
        else:
            with pytest.raises(TorusError):
                prime_power(q)


def test_prime_power_of_large_numbers():
    from toricdescent.torus import MILLER_RABIN_BOUND, prime_power
    assert prime_power(10 ** 18 + 3) == (10 ** 18 + 3, 1)
    assert prime_power(1000003 ** 5) == (1000003, 5)
    assert prime_power(3 ** 5000) == (3, 5000)
    assert prime_power(2 ** 14000) == (2, 14000)
    assert prime_power(2 ** 61 - 1) == (2 ** 61 - 1, 1)
    for composite in (10 ** 18 + 1, (10 ** 9 + 7) * (10 ** 9 + 9), 3215031751,
                      (2 ** 61 - 1) ** 2 * 3):
        with pytest.raises(TorusError):
            prime_power(composite)
    # past the proven range of the fixed bases: refused, not guessed
    with pytest.raises(TorusError, match="primality-test bound"):
        prime_power(2 ** 89 - 1)
    assert 2 ** 89 - 1 > MILLER_RABIN_BOUND


def test_enumeration_builds_its_host_field_only_to_evaluate(monkeypatch):
    built = []
    extension = torus.extension
    monkeypatch.setattr(torus, "extension",
                        lambda field, s: built.append((field.p, s)) or extension(field, s))
    lattice = CharacterLattice(B3_IRRED)
    pts = enumerate_rational_points(lattice, 103)
    assert (len(pts), pts.invariants, built) == (10713, [10713], [])
    # the host GF(103^3) lies above the field-size limit; evaluation builds it
    # anyway, since it only takes powers of a primitive root there
    values = {pts.value(p, [1, 0]).to_int() for p in pts.points[:50]}
    assert built == [(103, 3)] and pts.host.q == 103 ** 3 and len(values) == 50
    assert all(pts.value(p, [1, 0]) ** 10713 == pts.host.one() for p in pts.points[:5])


def test_enumeration_count_check_survives_python_O():
    code = ("from toricdescent import torus\n"
            "from toricdescent.torus import CharacterLattice, PointCountMismatch\n"
            "torus.torus_order = lambda lattice, q: 8\n"
            "try:\n"
            "    torus.enumerate_rational_points(CharacterLattice([[1]]), 8)\n"
            "except PointCountMismatch as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the congruence has 7 solutions, the torus 8 points\n"


def test_enumeration_count_mismatch_is_an_internal_error_in_the_cli():
    """A wrong point count is the program disagreeing with itself: the CLI
    exits 1 with the traceback, as for any internal fault, not 2."""
    code = ("from toricdescent import cli, torus\n"
            "torus.torus_order = lambda lattice, q: 8\n"
            "cli.main(['torus', '--lattice', '{\"rank\":1,\"frobenius\":[[1]]}',\n"
            "          '--q', '8', '--enumerate'])\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "torus.PointCountMismatch: the congruence has 7 solutions" in proc.stderr
    assert "invalid input" not in proc.stderr


@pytest.mark.parametrize("line, recurrences", [
    # g = x (x - 1) (x^3 - 2): two rational nodes and an orbit of degree 3
    ("hyperelliptic --p 7 --g x^5-x^4-2*x^2+2*x --h x+2", 0),
    # one full node orbit of degree 3
    ("hyperelliptic --p 7 --g x^3+x+1 --h x+2", 0),
    ("genus4 --q 7 --eps X^3+Y^3+W*Z^2", 0),
    ("genus4 --q 13 --eps X^3+Y^3+W*Z^2", 0),
    ("oracle --q 5 --g x^3-x --h x+3", 0),
    ("oracle --q 7 --g x^3+x+1 --h x+2 --r 3", 0),
    ("oracle --q 3 --g x^4+x+2 --h x^2+1", 0),
    # the torus command checks the decomposition of the lattice it is given
    ('torus --lattice {"frobenius":[[1,0,0],[0,0,1],[0,1,0]],'
     '"components":[[1,0,0],[0,1,0]]} --q 7', 2),
])
def test_a_cold_request_reads_its_torus_off_the_edge_orbits(
        monkeypatch, capsys, cold_shape_caches, line, recurrences):
    # the frame, the oracle's torus and the reports read the dual graph's
    # (cycle, char_poly) pairs: no family or oracle request builds the
    # Frobenius matrix on the cycle space or an orbit recurrence; the torus
    # command builds one recurrence per component
    from conftest import record_calls
    from toricdescent import cli
    from toricdescent.dual_graph import h1_basis
    components = record_calls(monkeypatch, torus.principal_component)
    bases = record_calls(monkeypatch, h1_basis)
    assert cli.run_line(line.split() + ["--json"]) == cli.EXIT_OK
    capsys.readouterr()
    assert (len(components), len(bases)) == (recurrences, 0)
