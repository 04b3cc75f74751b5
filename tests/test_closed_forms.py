"""The hyperelliptic closed forms work over k: a power test modulo the
polynomial of each node orbit, never a splitting field."""

import io
import json
import random
from math import gcd

import pytest

from toricdescent import cli, families
from toricdescent.families import _is_power_mod
from toricdescent.finite_field import Poly, factor, make_field, poly_from_int
from toricdescent.parsing import parse_univariate


def _field(q):
    return {5: make_field(5), 7: make_field(7), 9: make_field(3, 2),
            25: make_field(5, 2)}[q]


def _first_irreducible(k, s):
    n = k.q ** s
    while True:
        g = poly_from_int(k, n)
        if factor(g) == [(g, 1)]:
            return g
        n += 1


@pytest.mark.parametrize("q", [5, 7, 9, 25])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_is_power_mod_against_enumerated_powers(q, s):
    k = _field(q)
    g = _first_irreducible(k, s)
    units = [poly_from_int(k, n) for n in range(1, k.q ** s)]
    # the same classes, written with higher-degree representatives
    shift = g * Poly(k, [1, 1])
    rng = random.Random(q * 10 + s)
    sample = units if len(units) <= 400 else rng.sample(units, 200)
    squares, cubes = set(), set()
    for f in units:
        square = (f * f) % g
        squares.add(square.encoding())
        cubes.add(((square * f) % g).encoding())
    for r, powers in ((2, squares), (3, cubes)):
        assert len(powers) == len(units) // gcd(r, len(units))
        for f in sample:
            expected = f.encoding() in powers
            assert _is_power_mod(f, r, g) == expected
            assert _is_power_mod(f + shift, r, g) == expected


def _stay_over_k(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a closed form left the field k")

    for name in ("extension", "embed", "residue_field"):
        monkeypatch.setattr(families, name, refuse)
    monkeypatch.setattr(Poly, "map_coeffs", refuse)


# (request, its report with --no-engine-check --json), as the closed forms
# computed them through the splitting field of g: theta and torsion at
# d = 3, shapes (1, 2) and (3), at q = 1 and q = 2 mod 3
D3_REPORTS = [
    ('--q 7 --g x^3+x --h x^2+x+1',
     '{"dual_graph":{"node_orbit_degrees":[1,2],"nodes":3,"vertices":2},"eng'
     'ine_check":null,"family":"hyperelliptic","input":{"base_field":"local '
     'field with this residue field","g":"x^3+x","h":"x^2+x+1","p":7,"q":7,"'
     'r":2},"phi":[3],"schema_version":1,"torsion":[3,48],"torus":{"char_pol'
     'y":"x^2-1","decomposition":[{"kind":"norm","order":48,"rank":2}],"orde'
     'r":48},"undetermined_reasons":[],"valid":true,"verdicts":{"theta":true'
     '},"warnings":[]}\n'),
    ('--q 7 --g x^3+x --h x^2+2*x+1',
     '{"dual_graph":{"node_orbit_degrees":[1,2],"nodes":3,"vertices":2},"eng'
     'ine_check":null,"family":"hyperelliptic","input":{"base_field":"local '
     'field with this residue field","g":"x^3+x","h":"x^2+2*x+1","p":7,"q":7'
     ',"r":2},"phi":[3],"schema_version":1,"torsion":[144],"torus":{"char_po'
     'ly":"x^2-1","decomposition":[{"kind":"norm","order":48,"rank":2}],"ord'
     'er":48},"undetermined_reasons":[],"valid":true,"verdicts":{"theta":tru'
     'e},"warnings":[]}\n'),
    ('--q 7 --g x^3+2 --h x^2',
     '{"dual_graph":{"node_orbit_degrees":[3],"nodes":3,"vertices":2},"engin'
     'e_check":null,"family":"hyperelliptic","input":{"base_field":"local fi'
     'eld with this residue field","g":"x^3+2","h":"x^2","p":7,"q":7,"r":2},'
     '"phi":[3],"schema_version":1,"torsion":[171],"torus":{"char_poly":"x^2'
     '+x+1","decomposition":[{"kind":"principal","order":57,"rank":2}],"orde'
     'r":57},"undetermined_reasons":[],"valid":true,"verdicts":{"theta":true'
     '},"warnings":[]}\n'),
    ('--q 7 --g x^3+2 --h x^2+3*x',
     '{"dual_graph":{"node_orbit_degrees":[3],"nodes":3,"vertices":2},"engin'
     'e_check":null,"family":"hyperelliptic","input":{"base_field":"local fi'
     'eld with this residue field","g":"x^3+2","h":"x^2+3*x","p":7,"q":7,"r"'
     ':2},"phi":[3],"schema_version":1,"torsion":[3,57],"torus":{"char_poly"'
     ':"x^2+x+1","decomposition":[{"kind":"principal","order":57,"rank":2}],'
     '"order":57},"undetermined_reasons":[],"valid":true,"verdicts":{"theta"'
     ':true},"warnings":[]}\n'),
    ('--q 13 --g x^3+x+1 --h x^2+2*x',
     '{"dual_graph":{"node_orbit_degrees":[1,2],"nodes":3,"vertices":2},"eng'
     'ine_check":null,"family":"hyperelliptic","input":{"base_field":"local '
     'field with this residue field","g":"x^3+x+1","h":"x^2+2*x","p":13,"q":'
     '13,"r":2},"phi":[3],"schema_version":1,"torsion":[504],"torus":{"char_'
     'poly":"x^2-1","decomposition":[{"kind":"norm","order":168,"rank":2}],"'
     'order":168},"undetermined_reasons":[],"valid":true,"verdicts":{"theta"'
     ':false},"warnings":[]}\n'),
    ('--q 5 --g x^3+1 --h x^2',
     '{"dual_graph":{"node_orbit_degrees":[1,2],"nodes":3,"vertices":2},"eng'
     'ine_check":null,"family":"hyperelliptic","input":{"base_field":"local '
     'field with this residue field","g":"x^3+1","h":"x^2","p":5,"q":5,"r":2'
     '},"phi":[3],"schema_version":1,"torsion":[72],"torus":{"char_poly":"x^'
     '2-1","decomposition":[{"kind":"norm","order":24,"rank":2}],"order":24}'
     ',"undetermined_reasons":[],"valid":true,"verdicts":{"theta":true},"war'
     'nings":[]}\n'),
    ('--q 5 --g x^3+1 --h x^2+2*x',
     '{"dual_graph":{"node_orbit_degrees":[1,2],"nodes":3,"vertices":2},"eng'
     'ine_check":null,"family":"hyperelliptic","input":{"base_field":"local '
     'field with this residue field","g":"x^3+1","h":"x^2+2*x","p":5,"q":5,"'
     'r":2},"phi":[3],"schema_version":1,"torsion":[72],"torus":{"char_poly"'
     ':"x^2-1","decomposition":[{"kind":"norm","order":24,"rank":2}],"order"'
     ':24},"undetermined_reasons":[],"valid":true,"verdicts":{"theta":false}'
     ',"warnings":[]}\n'),
    ('--q 5 --g x^3+x+1 --h x^2',
     '{"dual_graph":{"node_orbit_degrees":[3],"nodes":3,"vertices":2},"engin'
     'e_check":null,"family":"hyperelliptic","input":{"base_field":"local fi'
     'eld with this residue field","g":"x^3+x+1","h":"x^2","p":5,"q":5,"r":2'
     '},"phi":[3],"schema_version":1,"torsion":[93],"torus":{"char_poly":"x^'
     '2+x+1","decomposition":[{"kind":"principal","order":31,"rank":2}],"ord'
     'er":31},"undetermined_reasons":[],"valid":true,"verdicts":{"theta":tru'
     'e},"warnings":[]}\n'),
]

# theta at d = 5, shapes (1, 1, 3) and (1, 2, 2), the last input with
# h(alpha_0) a non-square in k; torsion there is the engine's, which still
# works in the splitting field
D5_REPORTS = [
    ('--q 7 --g x^5+x^4+5 --h x^2',
     '{"dual_graph":{"node_orbit_degrees":[1,1,3],"nodes":5,"vertices":2},"e'
     'ngine_check":null,"family":"hyperelliptic","input":{"base_field":"loca'
     'l field with this residue field","g":"x^5+x^4+5","h":"x^2","p":7,"q":7'
     ',"r":2},"phi":[5],"schema_version":1,"torsion":[6,1710],"torus":{"char'
     '_poly":"x^4-x^3-x+1","decomposition":[{"kind":"split","order":6,"rank"'
     ':1},{"kind":"norm","order":342,"rank":3}],"order":2052},"undetermined_'
     'reasons":[],"valid":true,"verdicts":{"theta":true},"warnings":[]}\n'),
    ('--q 7 --g x^5+x^4+5 --h x^2+x',
     '{"dual_graph":{"node_orbit_degrees":[1,1,3],"nodes":5,"vertices":2},"e'
     'ngine_check":null,"family":"hyperelliptic","input":{"base_field":"loca'
     'l field with this residue field","g":"x^5+x^4+5","h":"x^2+x","p":7,"q"'
     ':7,"r":2},"phi":[5],"schema_version":1,"torsion":[6,1710],"torus":{"ch'
     'ar_poly":"x^4-x^3-x+1","decomposition":[{"kind":"split","order":6,"ran'
     'k":1},{"kind":"norm","order":342,"rank":3}],"order":2052},"undetermine'
     'd_reasons":[],"valid":true,"verdicts":{"theta":false},"warnings":[]}\n'),
    ('--q 7 --g x^5+x^4+x+1 --h x^2',
     '{"dual_graph":{"node_orbit_degrees":[1,2,2],"nodes":5,"vertices":2},"e'
     'ngine_check":null,"family":"hyperelliptic","input":{"base_field":"loca'
     'l field with this residue field","g":"x^5+x^4+x+1","h":"x^2","p":7,"q"'
     ':7,"r":2},"phi":[5],"schema_version":1,"torsion":[48,240],"torus":{"ch'
     'ar_poly":"x^4-2*x^2+1","decomposition":[{"kind":"norm","order":48,"ran'
     'k":2},{"kind":"norm","order":48,"rank":2}],"order":2304},"undetermined'
     '_reasons":[],"valid":true,"verdicts":{"theta":true},"warnings":[]}\n'),
    ('--q 7 --g x^5+x^4+x+1 --h x^2+2*x',
     '{"dual_graph":{"node_orbit_degrees":[1,2,2],"nodes":5,"vertices":2},"e'
     'ngine_check":null,"family":"hyperelliptic","input":{"base_field":"loca'
     'l field with this residue field","g":"x^5+x^4+x+1","h":"x^2+2*x","p":7'
     ',"q":7,"r":2},"phi":[5],"schema_version":1,"torsion":[48,240],"torus":'
     '{"char_poly":"x^4-2*x^2+1","decomposition":[{"kind":"norm","order":48,'
     '"rank":2},{"kind":"norm","order":48,"rank":2}],"order":2304},"undeterm'
     'ined_reasons":[],"valid":true,"verdicts":{"theta":false},"warnings":[]'
     '}\n'),
    ('--q 7 --g x^5+x^4+5 --h x^2+5*x',
     '{"dual_graph":{"node_orbit_degrees":[1,1,3],"nodes":5,"vertices":2},"e'
     'ngine_check":null,"family":"hyperelliptic","input":{"base_field":"loca'
     'l field with this residue field","g":"x^5+x^4+5","h":"x^2+5*x","p":7,"'
     'q":7,"r":2},"phi":[5],"schema_version":1,"torsion":[6,1710],"torus":{"'
     'char_poly":"x^4-x^3-x+1","decomposition":[{"kind":"split","order":6,"r'
     'ank":1},{"kind":"norm","order":342,"rank":3}],"order":2052},"undetermi'
     'ned_reasons":[],"valid":true,"verdicts":{"theta":true},"warnings":[]}\n'),
]


def _report(line):
    out = io.StringIO()
    argv = ["hyperelliptic"] + line.split() + ["--no-engine-check", "--json"]
    assert cli.run_line(argv, stream=out) == cli.EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("line, expected", D3_REPORTS,
                         ids=[line for line, _ in D3_REPORTS])
def test_d3_closed_forms_answer_over_k(monkeypatch, line, expected):
    _stay_over_k(monkeypatch)
    assert _report(line) == expected


@pytest.mark.parametrize("line, expected", D5_REPORTS,
                         ids=[line for line, _ in D5_REPORTS])
def test_d5_theta_answers_over_k(monkeypatch, line, expected):
    assert _report(line) == expected
    q, g, h = line.split()[1::2]
    k = make_field(int(q))
    inp = families.validate_hyperelliptic(k, Poly(k, parse_univariate(g)),
                                          Poly(k, parse_univariate(h)))
    _stay_over_k(monkeypatch)
    assert families.theta_bd(inp) == json.loads(expected)["verdicts"]["theta"]
