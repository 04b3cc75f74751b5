import io
import json
import subprocess
import sys

import pytest

from toricdescent import cli, descent, oracle
from toricdescent.parsing import (ParseError, format_univariate,
                                  parse_cubic_form, parse_univariate)


def run_cli(argv):
    out = io.StringIO()
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    code = cli.dispatch(args, stream=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv + ["--json"])
    return code, json.loads(text)


def test_parse_univariate():
    assert parse_univariate("x^3-x") == [0, -1, 0, 1]
    assert parse_univariate("x+2") == [2, 1]
    assert parse_univariate("2*x^2+3") == [3, 0, 2]
    assert parse_univariate("-x") == [0, -1]
    with pytest.raises(ParseError):
        parse_univariate("x**3")
    with pytest.raises(ParseError):
        parse_univariate("2x")
    with pytest.raises(ParseError):
        parse_univariate("x^3-")
    err = None
    try:
        parse_univariate("x**3")
    except ParseError as exc:
        err = exc
    assert err.position == 2


def test_parse_cubic_form():
    terms = parse_cubic_form("X^3+Y^3+W*Z^2")
    assert terms == {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 2, 1): 1}
    vec_nonzero = sum(1 for v in terms.values() if v)
    assert vec_nonzero == 3
    with pytest.raises(ParseError):
        parse_cubic_form("X^2+Y")  # inhomogeneous


def test_format_roundtrip():
    for coeffs in ([0, -1, 0, 1], [2, 1], [3, 0, 2], [5], [0, 0, 7]):
        assert parse_univariate(format_univariate(coeffs)) == coeffs


def test_hyperelliptic_theta_rule_example():
    code, rep = run_json(["hyperelliptic", "--p", "23", "--g", "x^3-x",
                          "--h", "x+2", "--r", "2"])
    assert code == 0
    assert rep["verdicts"]["theta"] is True
    code, rep = run_json(["hyperelliptic", "--p", "7", "--g", "x^3-x",
                          "--h", "x+2"])
    assert code == 0
    assert rep["verdicts"]["theta"] is False
    assert rep["torsion"] == [6, 18]


def test_component_group_example():
    code, rep = run_json(["component-group", "--matrix",
                          "[[-4,2,2],[2,-4,2],[2,2,-4]]"])
    assert code == 0 and rep["phi"] == [2, 6]
    code, rep = run_json(["component-group", "--matrix", "[[-3,3],[3,-3]]",
                          "--r", "3"])
    assert rep["phi"] == [3] and len(rep["torsion"]["elements"]) == 3


def test_genus4_command():
    code, rep = run_json(["genus4", "--q", "13", "--eps", "X^3+Y^3+W*Z^2",
                          "--r", "3"])
    assert code == 0
    assert rep["verdicts"]["theta"] is True
    assert rep["verdicts"]["cube_root"] is False
    assert rep["engine_check"]["agree"] is True


def test_torus_command():
    lattice = '{"rank":2,"frobenius":[[0,-1],[1,-1]],"components":[[1,0]]}'
    code, rep = run_json(["torus", "--lattice", lattice, "--q", "7",
                          "--enumerate"])
    assert code == 0
    assert rep["order"] == 57 and rep["points"]["count"] == 57
    assert rep["decomposition"]["valid"] is True


def test_oracle_command():
    code, rep = run_json(["oracle", "--q", "5", "--g", "x^3-x", "--h", "x+3",
                          "--trials", "4"])
    assert code == 0
    assert rep["agreements"] == rep["trials"] == 4


def test_exit_codes():
    code, _ = run_cli(["hyperelliptic", "--p", "3", "--g", "x^3-x", "--h", "x+2"])
    assert code == cli.EXIT_HYPOTHESIS
    code, _ = run_cli(["hyperelliptic", "--p", "23", "--g", "x**3", "--h", "1"])
    assert code == cli.EXIT_SYNTAX
    # undetermined verdict: odd degree, reducible, no rational node
    code, rep = run_cli(["hyperelliptic", "--q", "7", "--g", "x^5+x^4+3",
                         "--h", "1", "--no-engine-check", "--json"])
    if code == cli.EXIT_UNDETERMINED:
        data = json.loads(rep)
        assert data["verdicts"]["theta"] == "Undetermined" or data["torsion"] is None


def test_json_determinism_and_roundtrip():
    argv = ["hyperelliptic", "--p", "23", "--g", "x^3-x", "--h", "x+2", "--json"]
    outputs = set()
    for _ in range(2):
        _, text = run_cli(argv)
        outputs.add(text)
        parsed = json.loads(text)
        assert json.loads(json.dumps(parsed)) == parsed
    assert len(outputs) == 1


def test_batch_mode(tmp_path):
    path = tmp_path / "requests.txt"
    path.write_text(
        "hyperelliptic --p 23 --g x^3-x --h x+2 --no-engine-check\n"
        "# a comment line\n"
        "component-group --matrix [[-3,3],[3,-3]]\n")
    out = io.StringIO()
    parser = cli.build_parser()
    args = parser.parse_args(["batch", str(path)])
    code = cli.dispatch(args, stream=out)
    lines = [json.loads(line) for line in out.getvalue().splitlines() if line]
    assert code == 0 and len(lines) == 2
    assert lines[0]["verdicts"]["theta"] is True
    assert lines[1]["phi"] == [3]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toricdescent.cli", "component-group",
         "--matrix", "[[-3,3],[3,-3]]", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["phi"] == [3]


def test_batch_keeps_one_line_per_request(tmp_path, capsys):
    path = tmp_path / "requests.txt"
    path.write_text(
        "hyperelliptic --p 23 --g x^3-x --h x+2 --no-engine-check\n"
        "hyperelliptic --p 3 --g x^3-x --h x+2\n"
        "\n"
        "# comments and blank lines are not requests\n"
        "hyperelliptic --p 23 --g x**3 --h 1\n"
        "component-group --matrix [[-3,3],[3,-3]]\n")
    out = io.StringIO()
    code = cli.run_line(["batch", str(path)], stream=out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(lines) == 4
    assert lines[0]["verdicts"]["theta"] is True
    assert lines[1] == {"schema_version": 1, "line": 2, "error": {
        "kind": "hypothesis", "exit_code": cli.EXIT_HYPOTHESIS,
        "message": lines[1]["error"]["message"]}}
    assert lines[1]["error"]["message"].startswith("hypothesis violated")
    assert lines[2]["line"] == 5 and lines[2]["error"]["kind"] == "syntax"
    assert lines[2]["error"]["exit_code"] == cli.EXIT_SYNTAX
    assert lines[3]["phi"] == [3]
    assert code == cli.EXIT_HYPOTHESIS
    assert "line 2:" in capsys.readouterr().err


def test_batch_contains_unexpected_errors(tmp_path, monkeypatch):
    path = tmp_path / "requests.txt"
    path.write_text("component-group --matrix [[-3,3],[3,-3]]\n"
                    "batch other.txt\n"
                    "no-such-command --x 1\n"
                    "torus --lattice {\"rank\":1,\"frobenius\":[[1]]} --q 7\n")

    def crash(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli.RUNNERS, "torus", crash)
    out = io.StringIO()
    code = cli.run_line(["batch", str(path)], stream=out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [line.get("error", {}).get("kind") for line in lines] == \
        [None, "syntax", "syntax", "internal"]
    assert lines[3]["error"] == {"kind": "internal", "exit_code": cli.EXIT_INTERNAL,
                                 "message": "internal error: ZeroDivisionError: boom"}
    assert code == cli.EXIT_SYNTAX


@pytest.mark.parametrize("exc, kind, code", [
    (descent.DivisorMeetsNode("h vanishes at a node"), "hypothesis", cli.EXIT_HYPOTHESIS),
    (descent.UnsupportedTorus("not principal"), "hypothesis", cli.EXIT_HYPOTHESIS),
    (oracle.TooLarge("too many points"), "invalid-input", cli.EXIT_SYNTAX),
    # the engine or the oracle disagreeing with itself is not bad input
    (oracle.NotATorusPoint("off the torus"), "internal", cli.EXIT_INTERNAL),
    (oracle.PointsOutsideField("roots elsewhere"), "internal", cli.EXIT_INTERNAL),
    (descent.DescentError("evaluation left the mu group"), "internal", cli.EXIT_INTERNAL),
])
def test_batch_error_kinds(tmp_path, monkeypatch, capsys, exc, kind, code):
    path = tmp_path / "requests.txt"
    path.write_text("torus --lattice {\"rank\":1,\"frobenius\":[[1]]} --q 7\n")

    def fail(args):
        raise exc

    monkeypatch.setitem(cli.RUNNERS, "torus", fail)
    out = io.StringIO()
    assert cli.run_line(["batch", str(path)], stream=out) == code
    record = json.loads(out.getvalue())
    assert (record["error"]["kind"], record["error"]["exit_code"]) == (kind, code)
    capsys.readouterr()
