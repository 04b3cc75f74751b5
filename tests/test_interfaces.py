"""Serialization formats, environment knobs, and report contracts."""

import io
import json
import os
import subprocess
import sys

import pytest

from conftest import rng_for
from toricdescent import cli
from toricdescent.families import (CubicForm, genus4_report, genus4_theta,
                                   genus4_theta_engine, genus4_torsion,
                                   genus4_torsion_engine, hyperelliptic_report,
                                   validate_genus4, validate_hyperelliptic)
from toricdescent.finite_field import Poly, SizeLimitExceeded, make_field


def test_field_limit_environment(monkeypatch):
    monkeypatch.setenv("TORICDESCENT_FIELD_LIMIT", "100")
    with pytest.raises(SizeLimitExceeded):
        make_field(101)
    assert make_field(97).q == 97
    monkeypatch.delenv("TORICDESCENT_FIELD_LIMIT")
    assert make_field(101).q == 101


def test_undetermined_exit_code():
    # odd degree, reducible reduction, no rational node: (x^2+1)(x^3+2) mod 7
    out = io.StringIO()
    parser = cli.build_parser()
    args = parser.parse_args(["hyperelliptic", "--q", "7",
                              "--g", "x^5+x^3+2*x^2+2", "--h", "1", "--json"])
    code = cli.dispatch(args, stream=out)
    assert code == cli.EXIT_UNDETERMINED
    report = json.loads(out.getvalue())
    assert report["verdicts"]["theta"] == "Undetermined"
    assert report["torsion"] is None
    assert any("no-rational-node" in r for r in report["undetermined_reasons"])


def test_eps_vanishing_exit_code():
    out = io.StringIO()
    parser = cli.build_parser()
    args = parser.parse_args(["genus4", "--q", "13", "--eps", "X^3"])
    code = cli.dispatch(args, stream=out)
    assert code == cli.EXIT_HYPOTHESIS


def test_qp_mode_warning():
    k = make_field(23)
    inp = validate_hyperelliptic(k, Poly(k, [0, -1, 0, 1]), Poly(k, [2, 1]),
                                 qp_mode=True)
    rep = hyperelliptic_report(inp, engine_check=False)
    assert any("prime-to-p" in w for w in rep["warnings"])
    assert rep["input"]["base_field"] == "Q_p"


def test_prime_power_residue_field_genus4():
    # q = 25: square root of -1 exists since 25 = 1 mod 4
    k = make_field(5, 2)
    rng = rng_for("q25-genus4")
    from conftest import random_genus4
    inp = random_genus4(k, rng)
    assert inp.i_in_k
    assert genus4_theta(inp) == genus4_theta_engine(inp)
    assert genus4_torsion(inp) == genus4_torsion_engine(inp)
    rep = genus4_report(inp, engine_check=False)
    assert rep["input"]["q"] == 25 and rep["input"]["p"] == 5


def test_prime_power_residue_field_cli():
    out = io.StringIO()
    parser = cli.build_parser()
    args = parser.parse_args(["hyperelliptic", "--q", "9", "--g", "x^4+1",
                              "--h", "x+1", "--json", "--no-engine-check"])
    code = cli.dispatch(args, stream=out)
    assert code == 0
    rep = json.loads(out.getvalue())
    assert rep["input"]["q"] == 9 and rep["input"]["p"] == 3


def test_nonprimepower_q_rejected():
    out = io.StringIO()
    parser = cli.build_parser()
    args = parser.parse_args(["hyperelliptic", "--q", "12", "--g", "x^3-x",
                              "--h", "x+2"])
    code = cli.dispatch(args, stream=out)
    assert code == cli.EXIT_SYNTAX
    # q below 2 is refused the same way, for every command that takes --q
    for argv in (["hyperelliptic", "--g", "x^3-x", "--h", "x+2"],
                 ["genus4", "--eps", "X^3+Y^3+W*Z^2"],
                 ["oracle", "--g", "x^3-x", "--h", "x+2"]):
        for q in ("1", "0", "-3"):
            assert cli.run_line(argv + ["--q", q], stream=out) == cli.EXIT_SYNTAX
    assert out.getvalue() == ""
