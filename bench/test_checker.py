"""Tests of the benchmark's own checker (python3 -m pytest bench).

The factorization is compared with brute-force root counts over GF(p^j),
and reports captured from the program are rejected once a torsion invariant
factor or a verdict is altered.
"""

import copy
import itertools
import json
import random

import pytest

import checker
import workloads


def _irreducible(p, j):
    """Monic irreducible of degree j <= 3 over GF(p): one without roots."""
    for tail in itertools.product(range(p), repeat=j):
        mu = list(tail) + [1]
        if all(checker.poly_eval(mu, x, p) for x in range(p)):
            return mu
    raise AssertionError("no irreducible polynomial")


def _brute_root_count(f, p, j):
    """Distinct roots of f (coefficients in GF(p)) in GF(p^j) = GF(p)[t]/mu,
    by trying every element."""
    mu = _irreducible(p, j) if j > 1 else [0, 1]
    count = 0
    for elem in itertools.product(range(p), repeat=j):
        acc = []
        for c in reversed(f):
            acc = checker.poly_mod(
                [a + b for a, b in itertools.zip_longest(
                    checker.poly_mulmod(acc, list(elem), mu, p), [c], fillvalue=0)],
                mu, p)
        count += not acc
    return count


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_degrees_match_brute_force_root_counts(p):
    rng = random.Random(p)
    for _ in range(40):
        deg = rng.randrange(1, 7)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        degrees = checker.factor_degrees(f, p)
        assert sum(degrees) == deg
        squarefree = len(checker.poly_gcd(f, checker.derivative(f, p), p)) == 1
        if not squarefree:
            continue
        for j in (1, 2, 3):
            over = checker.orbit_degrees(degrees, j)
            assert over.count(1) == _brute_root_count(f, p, j), (f, p, j)


def test_factor_degrees_of_powers():
    # (x + 1)^5 over GF(5) is x^5 + 1; (x^2 + 1)^2 (x + 2) over GF(3)
    assert checker.factor_degrees([1, 0, 0, 0, 0, 1], 5) == [1, 1, 1, 1, 1]
    assert checker.factor_degrees([2, 1, 4, 2, 2, 1], 3) == [1, 2, 2]


HYPERELLIPTIC_QP = json.loads(
    '{"dual_graph":{"node_orbit_degrees":[1,1,1],"nodes":3,"vertices":2},'
    '"engine_check":null,"family":"hyperelliptic","input":{"base_field":"Q_p",'
    '"g":"x^3+22*x","h":"x+2","p":23,"q":23,"r":2},"phi":[3],"schema_version":1,'
    '"torsion":[22,66],"torus":{"char_poly":"x^2-2*x+1","decomposition":[],'
    '"order":484},"undetermined_reasons":[],"valid":true,"verdicts":{"theta":true},'
    '"warnings":[]}')

HYPERELLIPTIC_ENGINE = json.loads(
    '{"dual_graph":{"node_orbit_degrees":[1,1,2],"nodes":4,"vertices":2},'
    '"engine_check":{"agree":true,"theta":true,"torsion":true},"family":"hyperelliptic",'
    '"input":{"base_field":"local field with this residue field","g":"x^4+3","h":"x+1",'
    '"p":7,"q":7,"r":2},"phi":[4],"schema_version":1,"torsion":[6,192],'
    '"torus":{"char_poly":"x^3-x^2-x+1","decomposition":[],"order":288},'
    '"undetermined_reasons":[],"valid":true,"verdicts":{"theta":true},"warnings":[]}')

GENUS4 = json.loads(
    '{"dual_graph":{"node_orbit_degrees":[1,1,1,1,1,1],"nodes":6,"vertices":3},'
    '"engine_check":null,"family":"genus4","input":{"base_field":'
    '"local field with this residue field","eps_vector":[],"p":29,"q":29,"r":3},'
    '"phi":[2,6],"schema_version":1,"torsion":[2,28,28,28,168],'
    '"torus":{"order":614656},"verdicts":{"cube_root":true,"theta":false}}')

ORACLE = json.loads('{"agreements":4,"command":"oracle","q":5,"r":2,"schema_version":1,'
                    '"torus_order":16,"torus_points":16,"trials":4}')

CASES = [
    (workloads.make_hyperelliptic(23, [0, -1, 0, 1], [2, 1], engine=False, qp=True,
                                  theta_rule=True), HYPERELLIPTIC_QP),
    (workloads.make_hyperelliptic(7, [3, 0, 0, 0, 1], [1, 1]), HYPERELLIPTIC_ENGINE),
    (workloads.make_genus4(29, workloads.FERMAT_EPS, r=3, engine=False), GENUS4),
    (dict(workloads.make_hyperelliptic(5, [0, -1, 0, 1], [3, 1]), family="oracle",
          trials=4), ORACLE),
]


@pytest.mark.parametrize("req, report", CASES)
def test_captured_reports_pass(req, report):
    assert checker.check(req, 0, report) == []


@pytest.mark.parametrize("req, report", CASES[:3])
def test_altered_torsion_factor_is_rejected(req, report):
    for index in range(len(report["torsion"])):
        bad = copy.deepcopy(report)
        bad["torsion"][index] *= 2
        assert checker.check(req, 0, bad)
    bad = copy.deepcopy(report)
    bad["torsion"] = sorted(bad["torsion"], reverse=True)
    assert checker.check(req, 0, bad)


@pytest.mark.parametrize("req, report, key", [
    (CASES[0][0], CASES[0][1], "theta"),
    (CASES[1][0], CASES[1][1], "theta"),
    (CASES[2][0], CASES[2][1], "cube_root"),
])
def test_altered_verdict_is_rejected(req, report, key):
    bad = copy.deepcopy(report)
    bad["verdicts"][key] = not bad["verdicts"][key]
    assert checker.check(req, 0, bad)


def test_altered_oracle_report_is_rejected():
    req, report = CASES[3]
    for key, value in [("agreements", 3), ("torus_points", 15), ("torus_order", 20)]:
        assert checker.check(req, 0, dict(report, **{key: value}))


def test_orbit_and_exit_code_rules():
    req, report = CASES[1]
    bad = copy.deepcopy(report)
    bad["dual_graph"]["node_orbit_degrees"] = [2, 2]
    assert checker.check(req, 0, bad)
    assert checker.check(req, 4, report)
    bad = copy.deepcopy(report)
    bad["engine_check"]["agree"] = False
    assert checker.check(req, 0, bad)


def test_generated_inputs_are_reproducible_and_valid():
    for name in workloads.ROUNDS:
        first = workloads.make_round(name, 7, 0)
        assert first == workloads.make_round(name, 7, 0)
        for req in first[0]:
            if req["family"] != "genus4":
                assert checker.hyperelliptic_valid(req["g"], req["h"], req["p"], req["r"])
            else:
                assert checker.genus4_regular(req["eps"], req["p"])

