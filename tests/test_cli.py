import io
import json
import subprocess
import sys
import time

import pytest

from conftest import record_calls
from toricdescent import cli, descent, dual_graph, oracle, torus, zmat
from toricdescent.parsing import (DEGREE_LIMIT, ParseError, format_univariate,
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


def test_torsion_listing_limit_counts_phi_r_not_phi(tmp_path):
    limit = dual_graph.TORSION_LISTING_LIMIT
    code, rep = run_json(["component-group", "--matrix",
                          f"[[-{limit},{limit}],[{limit},-{limit}]]", "--r", str(limit)])
    assert code == 0 and len(rep["torsion"]["elements"]) == limit
    # Phi = Z/10^6 is listed only as far as its 2-torsion
    code, rep = run_json(["component-group", "--matrix",
                          "[[-1000000,1000000],[1000000,-1000000]]", "--r", "2"])
    assert code == 0 and [el["element"] for el in rep["torsion"]["elements"]] == [[0], [500000]]
    # one past the limit is refused, and a batch keeps its other lines
    n = limit + 1
    path = tmp_path / "requests.txt"
    path.write_text(f"component-group --matrix [[-{n},{n}],[{n},-{n}]] --r {n}\n"
                    "component-group --matrix [[-3,3],[3,-3]] --r 3\n")
    out = io.StringIO()
    assert cli.run_line(["batch", str(path)], stream=out) == cli.EXIT_SYNTAX
    refused, answered = [json.loads(line) for line in out.getvalue().splitlines()]
    assert refused["error"] == {
        "kind": "invalid-input", "exit_code": cli.EXIT_SYNTAX,
        "message": f"invalid input: the {n}-torsion has {n} elements, "
                   f"more than the listing limit {limit}"}
    assert len(answered["torsion"]["elements"]) == 3


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


@pytest.mark.parametrize("argv, expected", [
    (["oracle", "--q", "5", "--g", "x^3-x", "--h", "x+3", "--trials", "20"],
     '{"agreements":20,"command":"oracle","q":5,"r":2,"schema_version":1,'
     '"torus_order":16,"torus_points":16,"trials":20}\n'),
    (["oracle", "--q", "7", "--g", "x^4-x", "--h", "x^3+2", "--r", "3", "--trials", "20"],
     '{"agreements":20,"command":"oracle","q":7,"r":3,"schema_version":1,'
     '"torus_order":216,"torus_points":216,"trials":20}\n'),
])
def test_oracle_report_is_pinned(argv, expected):
    # reports as the oracle gave them when it closed the subgroup per trial
    assert run_cli(argv + ["--json"]) == (0, expected)


@pytest.mark.parametrize("lattice, q, host, order", [
    ('{"rank":2,"frobenius":[[0,1],[1,0]],"components":[[1,0]]}', 1031,
     "GF(1031^2)", 1031 ** 2 - 1),
    ('{"rank":1,"frobenius":[[1]],"components":[[1]]}', 2000003,
     "GF(2000003)", 2000002),
])
def test_torus_components_past_the_field_limit(lattice, q, host, order):
    # the mu group's host field is named, not built, so the field-size
    # limit does not apply to it
    code, rep = run_json(["torus", "--lattice", lattice, "--q", str(q)])
    assert code == 0 and rep["order"] == order
    [comp] = rep["decomposition"]["components"]
    assert (comp["host"], comp["order"]) == (host, order)


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
    (torus.PointCountMismatch("7 solutions, 8 points"), "internal", cli.EXIT_INTERNAL),
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


MALFORMED_MATRICES = [
    ["torus", "--q", "7", "--lattice", '{"rank":1}'],
    ["torus", "--q", "7", "--lattice", "[1]"],
    ["torus", "--q", "7", "--lattice", '{"frobenius":[["a"]]}'],
    ["torus", "--q", "7", "--lattice", '{"frobenius":5}'],
    ["torus", "--q", "7", "--lattice", '{"rank":1,"frobenius":[[1]],"components":"x"}'],
    ["torus", "--q", "7", "--lattice", '{"rank":1,"frobenius":[[1]],"components":[[1,2]]}'],
    ["torus", "--q", "7", "--lattice", '{"rank":"x","frobenius":[1]}'],
    ["torus", "--q", "7", "--lattice", '{"rank":2,"frobenius":[[1]]}'],
    ["component-group", "--matrix", "[1]"],
    ["component-group", "--matrix", '[["a"]]'],
    ["component-group", "--matrix", '{"x":1}'],
    ["component-group", "--matrix", "[[-1.5]]"],
]


@pytest.mark.parametrize("argv", MALFORMED_MATRICES, ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_malformed_matrices_are_syntax_errors(argv, capsys):
    out = io.StringIO()
    assert cli.run_line(argv + ["--json"], stream=out) == cli.EXIT_SYNTAX
    assert out.getvalue() == ""
    assert capsys.readouterr().err.startswith("syntax error: ")


def test_malformed_matrices_are_syntax_errors_in_batch(tmp_path, capsys):
    import shlex
    path = tmp_path / "requests.txt"
    path.write_text("".join(shlex.join(argv) + "\n" for argv in MALFORMED_MATRICES))
    out = io.StringIO()
    assert cli.run_line(["batch", str(path)], stream=out) == cli.EXIT_SYNTAX
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [(r["line"], r["error"]["kind"], r["error"]["exit_code"]) for r in records] == \
        [(n, "syntax", cli.EXIT_SYNTAX) for n in range(1, len(MALFORMED_MATRICES) + 1)]
    capsys.readouterr()


def test_parser_is_built_once_and_keeps_no_request_state():
    argv = ["hyperelliptic", "--q", "7", "--g", "x^3-x", "--h", "x+2", "--json"]
    first, second = io.StringIO(), io.StringIO()
    assert cli.run_line(argv + ["--no-engine-check", "--r", "3"], stream=first) == 0
    parser = cli._parser()
    assert cli.run_line(argv, stream=second) == 0
    assert cli._parser() is parser
    one, two = json.loads(first.getvalue()), json.loads(second.getvalue())
    assert (one["input"]["r"], one["engine_check"]) == (3, None)
    # the second request gets its own defaults: r = 2 and the engine check
    assert two["input"]["r"] == 2
    assert two["engine_check"]["agree"] is True


TORUS_RANK_ONE = ["torus", "--lattice", '{"rank":1,"frobenius":[[1]]}']


@pytest.mark.parametrize("q", ["1", "0", "-3", "6"])
def test_torus_refuses_q_that_is_not_a_prime_power(q, capsys):
    argv = TORUS_RANK_ONE + ["--q", q, "--json"]
    out = io.StringIO()
    assert cli.run_line(argv, stream=out) == cli.EXIT_SYNTAX
    assert cli.run_line(argv + ["--enumerate"], stream=out) == cli.EXIT_SYNTAX
    assert out.getvalue() == ""
    err = capsys.readouterr().err.splitlines()
    assert err == [f"invalid input: {q} is not a prime power"] * 2


def test_torus_order_refuses_a_count_that_is_not_positive():
    from toricdescent.torus import (CharacterLattice, TorusError, principal_component,
                                    torus_order)
    lattice = CharacterLattice([[1]])
    for q in (1, 0, -3):
        with pytest.raises(TorusError):
            torus_order(lattice, q)
        with pytest.raises(TorusError):
            principal_component(lattice, [1]).order_over(q)


def test_torus_refusals_survive_python_O():
    code = ("import sys\n"
            "from toricdescent import cli\n"
            "from toricdescent.torus import CharacterLattice, TorusError, torus_order\n"
            "try:\n"
            "    torus_order(CharacterLattice([[1]]), 0)\n"
            "except TorusError:\n"
            "    raise SystemExit(cli.run_line(sys.argv[1:]))\n")
    for q in ("0", "1", "6"):
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, *TORUS_RANK_ONE, "--q", q, "--json"],
            capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_SYNTAX, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == f"invalid input: {q} is not a prime power\n"


def test_cli_answers_without_numpy():
    # a README example, answered by a process in which numpy cannot be imported
    argv = ["hyperelliptic", "--p", "23", "--g", "x^3-x", "--h", "x+2", "--r", "2", "--json"]
    expected = io.StringIO()
    assert cli.run_line(argv, stream=expected) == 0
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from toricdescent import cli\n"
            "raise SystemExit(cli.run_line(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.getvalue()


def test_oracle_without_a_decomposition_rule_is_undetermined(tmp_path, capsys):
    # valid input, but no rational node and two edge orbits: hyperelliptic
    # answers Undetermined on it, and so does the oracle
    request = "oracle --q 7 --g x^4+3*x^2+2 --h x+1"
    assert cli.run_line(request.split()) == cli.EXIT_UNDETERMINED
    assert capsys.readouterr().err == \
        "undetermined: no rational node and several edge orbits\n"
    assert cli.run_line(["hyperelliptic"] + request.split()[1:]) == cli.EXIT_UNDETERMINED
    path = tmp_path / "requests.txt"
    path.write_text(request + "\n")
    out = io.StringIO()
    assert cli.run_line(["batch", str(path)], stream=out) == cli.EXIT_UNDETERMINED
    assert json.loads(out.getvalue())["error"] == {
        "kind": "undetermined", "exit_code": cli.EXIT_UNDETERMINED,
        "message": "undetermined: no rational node and several edge orbits"}
    capsys.readouterr()


@pytest.mark.parametrize("r", ["0", "-3"])
def test_torsion_order_that_is_not_positive_is_refused(r, capsys):
    # --r 0 is refused like any other order below 1, not read as no --r
    argv = ["component-group", "--matrix", "[[-3,3],[3,-3]]", "--r", r, "--json"]
    out = io.StringIO()
    assert cli.run_line(argv, stream=out) == cli.EXIT_SYNTAX
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "invalid input: torsion order must be positive\n"


def test_refused_component_group_lines_keep_their_batch_neighbours(tmp_path, capsys):
    path = tmp_path / "requests.txt"
    path.write_text("component-group --matrix [[-3,3],[3,-3]] --r 0\n"
                    "component-group --matrix [[-3,3],[3,-3]] --r -3\n"
                    "component-group --matrix [] --r 2\n"
                    "component-group --matrix [[-3,3],[3,-3]] --r 3\n")
    out = io.StringIO()
    assert cli.run_line(["batch", str(path)], stream=out) == cli.EXIT_SYNTAX
    *refused, answered = [json.loads(line) for line in out.getvalue().splitlines()]
    messages = ["torsion order must be positive"] * 2 + ["intersection matrix must not be empty"]
    assert [record["error"] for record in refused] == [
        {"kind": "invalid-input", "exit_code": cli.EXIT_SYNTAX,
         "message": f"invalid input: {message}"} for message in messages]
    assert len(answered["torsion"]["elements"]) == 3
    capsys.readouterr()


def test_p_zero_is_refused_not_an_internal_error(capsys):
    argv = ["hyperelliptic", "--p", "0", "--g", "x^3-x", "--h", "x+2"]
    assert cli.run_line(argv) == cli.EXIT_SYNTAX
    assert capsys.readouterr().err == "invalid input: 0 is not prime\n"


@pytest.mark.parametrize("command", [
    ["hyperelliptic", "--p", "23", "--h", "x", "--no-engine-check", "--g"],
    ["hyperelliptic", "--p", "23", "--g", "x^3-x", "--h"],
    ["oracle", "--q", "5", "--h", "x", "--g"],
])
def test_degree_over_the_limit_is_refused_before_allocation(command, capsys):
    assert parse_univariate(f"x^{DEGREE_LIMIT}") == [0] * DEGREE_LIMIT + [1]
    for degree in (DEGREE_LIMIT + 1, 3000000, 10 ** 40):
        out = io.StringIO()
        start = time.perf_counter()
        assert cli.run_line(command + [f"x^{degree}+1"], stream=out) == cli.EXIT_SYNTAX
        assert time.perf_counter() - start < 0.5
        assert out.getvalue() == ""
        assert capsys.readouterr().err == (
            f"invalid input: degree {degree} exceeds the degree limit {DEGREE_LIMIT}\n")


def test_integer_literal_beyond_the_int_string_limit_is_a_syntax_error(capsys):
    argv = ["hyperelliptic", "--p", "23", "--g", "1" * 5000 + "*x^3-x", "--h", "x"]
    assert cli.run_line(argv, stream=io.StringIO()) == cli.EXIT_SYNTAX
    assert capsys.readouterr().err == (
        "syntax error: integer literal too long (at position 0)\n")


def test_parser_signs_come_from_the_separators():
    # the term loop stops early only at + or -, which sets the next sign
    assert parse_univariate("x^2-3*x+2-x") == [2, -4, 1]
    assert parse_univariate("-x^2+x") == [0, 1, -1]
    for text in ("x^2+", "x^2-", "x^2*", "x^2 x", "x^2+*x"):
        with pytest.raises(ParseError):
            parse_univariate(text)


def test_torus_enumerates_a_small_torus_over_a_large_host_field():
    # GF(103^3) is above the field-size limit, the torus (10713 points) is not
    argv = ["torus", "--lattice", '{"rank":2,"frobenius":[[0,-1],[1,-1]]}',
            "--q", "103", "--enumerate"]
    code, report = run_json(argv)
    assert code == cli.EXIT_OK
    assert report["order"] == report["points"]["count"] == 10713
    assert report["points"]["invariants"] == [10713]


def test_torus_report_computes_one_characteristic_polynomial(monkeypatch):
    # the report's char_poly, its order and the point count all read the
    # lattice's one characteristic polynomial
    calls = record_calls(monkeypatch, zmat.charpoly)
    argv = ["torus", "--lattice", '{"rank":2,"frobenius":[[0,-1],[1,-1]],"components":[[1,0]]}',
            "--q", "7", "--enumerate"]
    code, report = run_json(argv)
    assert code == cli.EXIT_OK
    assert report["char_poly"] == "x^2+x+1" and report["points"]["count"] == 57
    assert len(calls) == 1


def _pinned_lattice_reports():
    from pathlib import Path
    with open(Path(__file__).parent / "data" / "lattice_reports.jsonl") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("record", _pinned_lattice_reports(),
                         ids=lambda rec: rec["line"])
def test_lattice_report_is_pinned(record, capsys):
    """torus and component-group lines with their exit code, report and
    refusal message, as the Gauss-Jordan solver and inverse over Fractions
    and the interpolated characteristic polynomial gave them: the README
    examples, rank-deficient and non-principal components, enumeration at
    q = 2, 7, 9 and 49, the refusals, and seeded Laplacians with --r."""
    out = io.StringIO()
    code = cli.run_line(record["line"].split(), stream=out)
    assert (code, out.getvalue()) == (record["exit"], record["output"])
    assert capsys.readouterr().err == record["stderr"]


def _pinned_hyperelliptic_reports():
    from pathlib import Path
    with open(Path(__file__).parent / "data" / "hyperelliptic_reports.jsonl") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("record", _pinned_hyperelliptic_reports(),
                         ids=lambda rec: rec["line"])
def test_hyperelliptic_and_oracle_report_is_pinned(record, capsys):
    """hyperelliptic and oracle lines with their exit code and report, as
    the engine in the splitting field of the nodes gave them: the lines of
    the benchmark's snapshot at seeds 1 and 7 (rounds 0 and 1 of every
    workload, fault rows included) and the degree sweep x^D - x - 1 over
    GF(23) at D = 16 and 24."""
    out = io.StringIO()
    code = cli.run_line(record["line"].split(), stream=out)
    assert (code, out.getvalue()) == (record["exit"], record["output"])
    assert capsys.readouterr().err == record["stderr"]


def test_torus_lattice_of_order_past_the_bound_stays_invalid_input(capsys):
    # a permutation matrix with cycles of lengths 5 and 13: order 65
    rank = 18
    perm = [(j + 1) % 5 for j in range(5)] + [5 + (j + 1) % 13 for j in range(13)]
    rows = [[1 if perm[j] == i else 0 for j in range(rank)] for i in range(rank)]
    lattice = json.dumps({"rank": rank, "frobenius": rows}, separators=(",", ":"))
    assert cli.run_line(["torus", "--lattice", lattice, "--q", "7"],
                        stream=io.StringIO()) == cli.EXIT_SYNTAX
    assert capsys.readouterr().err == (
        "invalid input: frobenius order exceeds the bound 64\n")
