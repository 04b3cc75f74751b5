"""Closed forms stay polynomial in log p up to the 2^20 field limit.

Each test times inputs whose cost used to grow linearly with p (splitting
shifts taken from GF(p), the binomial scan of the modulus search) or with
the square root of a torus order (trial division of q^s - 1).  The bounds
are 5-50 times the times measured on a 2 GHz core; a linear-in-p cost at
p ~ 10^6 overshoots them by orders of magnitude, and a CLI request is
stopped at HARD_STOP_FACTOR times its bound, so that it fails in seconds.
"""

import io
import json
import signal
import time

import pytest

from toricdescent import cli, families
from toricdescent.finite_field import Embedding, _cached_field, make_field

PRIMES = [10007, 1000003]


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


@pytest.mark.parametrize("p", PRIMES)
def test_sqrt_of_minus_one_in_quadratic_extension(p):
    assert p % 4 == 3  # -1 is a non-square in GF(p): i lives in GF(p^2)
    (field, i), dt = _timed(lambda: families._sqrt_of_minus_one(make_field(p)))
    assert field.m == 2 and (i * i + 1).is_zero()
    assert dt < 5.0


@pytest.mark.parametrize("p", PRIMES)
def test_embedding_of_quadratic_into_quartic_extension(p):
    sub, big = _cached_field(p, 2), _cached_field(p, 4)
    emb, dt = _timed(lambda: Embedding(sub, big))
    theta = sub.gen()
    assert emb(theta * theta + theta) == emb(theta) * emb(theta) + emb(theta)
    assert emb(theta).frob(2) == emb(theta) != emb(theta).frob(1)
    assert dt < 5.0


class Overrun(BaseException):
    """Raised by the hard stop; a BaseException, so no handler in the
    program under test can swallow it."""


#: a request is stopped at this many times its time bound, so an overrun
#: fails in seconds instead of hanging the suite
HARD_STOP_FACTOR = 4


def _run(line, bound):
    """Exit code, stdout and wall time of one CLI request, stopped by
    SIGALRM at HARD_STOP_FACTOR * bound seconds."""
    def stop(_signum, _frame):
        raise Overrun(f"{line!r} ran past {HARD_STOP_FACTOR * bound} s")

    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, HARD_STOP_FACTOR * bound)
    try:
        code, dt = _timed(lambda: cli.run_line(line.split(), stream=out))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), dt


@pytest.mark.parametrize("p", [1013, 10007, 1000003])
def test_genus4_cli_with_engine_check(p):
    code, text, dt = _run(f"genus4 --p {p} --eps X^3+Y^3+W*Z^2 --json", 10.0)
    report = json.loads(text)
    assert code == 0 and report["engine_check"]["agree"] is True
    assert dt < 10.0


def test_genus4_cli_report_at_1013_is_unchanged():
    """The report as the former linear-in-p splitter computed it, in about
    90 s on a 2 GHz core."""
    code, text, _dt = _run("genus4 --p 1013 --eps X^3+Y^3+W*Z^2 --json", 10.0)
    assert code == 0
    assert text == GENUS4_1013


def test_hyperelliptic_cli_irreducible_cubic_at_10007():
    code, text, dt = _run("hyperelliptic --p 10007 --g x^3-x-1 --h x+2 --json", 5.0)
    report = json.loads(text)
    assert code == 0 and report["dual_graph"]["node_orbit_degrees"] == [3]
    assert report["engine_check"]["agree"] is True
    assert dt < 5.0


def test_hyperelliptic_cli_irreducible_cubic_closed_form_near_the_limit():
    # torsion Z/(3 (q^2 + q + 1)) at q = 1000121: its invariant factors come
    # from gcd and lcm, with nothing factored
    code, text, dt = _run("hyperelliptic --p 1000121 --g x^3-x-1 --h x+2 "
                          "--no-engine-check --json", 2.0)
    report = json.loads(text)
    q = 1000121
    assert code == 0 and report["dual_graph"]["node_orbit_degrees"] == [3]
    assert report["torsion"] in ([3 * (q * q + q + 1)], [3, q * q + q + 1])
    assert dt < 2.0


def test_hyperelliptic_cli_quintic_at_65537():
    # g = (quadratic)(cubic) over GF(65537): reducible with no rational node,
    # so the verdicts are undetermined (exit 4), but promptly
    code, text, dt = _run("hyperelliptic --p 65537 --g x^5-x-1 --h x^7+3 --json", 10.0)
    report = json.loads(text)
    assert code == cli.EXIT_UNDETERMINED
    assert report["dual_graph"]["node_orbit_degrees"] == [2, 3]
    assert dt < 10.0


GENUS4_1013 = (
    '{"dual_graph":{"node_orbit_degrees":[1,1,1,1,1,1],"nodes":6,"vertices"'
    ':3},"engine_check":{"agree":true,"cube_root":true,"table":true,"theta"'
    ':true,"torsion":true},"family":"genus4","input":{"base_field":"Q_p","e'
    'ps_vector":[1,0,0,0,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0],"p":1013,"q":1013'
    ',"r":2},"phi":[2,6],"schema_version":1,"tables":{"field":"GF(1013)","i'
    '":45,"rows":{"div((X+Y)/(Z+W))":[1012,1,89,922],"div((Z+W)^2/(Z-W))":['
    '338,1,727,124],"div((Z-W)/(X+Y))":[1010,1012,135,878],"div((Z-W)/(Z+W)'
    ')":[3,1012,872,129],"div((Z^2-W^2)/(X+Y))":[1010,1,148,256],"div(X+Y)"'
    ':[1012,1012,968,45],"div(Z+W)":[1,1012,819,801],"div(Z-W)":[3,1,3,3]}}'
    ',"torsion":[1012,1012,2024,6072],"torus":{"char_poly":"x^4-4*x^3+6*x^2'
    '-4*x+1","decomposition":[{"kind":"split","order":1012,"rank":1},{"kind'
    '":"split","order":1012,"rank":1},{"kind":"split","order":1012,"rank":1'
    '},{"kind":"split","order":1012,"rank":1}],"order":1048870932736},"unde'
    'termined_reasons":[],"valid":true,"verdicts":{"cube_root":true,"theta"'
    ':false},"warnings":["base field Q_p: reported torsion is the '
    'prime-to-p part; it is the full rational torsion when the component '
    'group has no p-torsion (automatic here: the component group has order '
    '12 and p >= 5)"]}'
    "\n")


@pytest.mark.parametrize("line", [
    "hyperelliptic --q 1000000000000000003 --g x^3-x --h x+2",
    "hyperelliptic --q 100000000000031 --g x^3-x --h x+2",
    "hyperelliptic --p 100000000000031 --g x^3-x --h x+2",
    "genus4 --q 1000000000000000003 --eps X^3+Y^3+W*Z^2",
    "oracle --q 1000000000000000003 --g x^3-x --h x+2",
])
def test_fields_past_the_limit_are_refused_before_factoring(line, capsys):
    # trial division of q or p would take seconds to minutes here
    code, text, dt = _run(line, 0.5)
    assert (code, text) == (cli.EXIT_SYNTAX, "")
    assert "exceeds the field-size limit" in capsys.readouterr().err
    assert dt < 0.5


def test_torus_q_near_10_to_18_answers_promptly():
    code, text, dt = _run('torus --lattice {"rank":1,"frobenius":[[1]]} '
                          '--q 1000000000000000003 --json', 0.5)
    assert code == 0 and json.loads(text)["order"] == 10 ** 18 + 2
    assert dt < 0.5


#: tori of about 10^6 points, the enumeration limit: the count and the
#: invariants come from the Smith diagonal, with no point listed
ENUMERATE_REQUESTS = [
    ('{"rank":1,"frobenius":[[1]]} --q 999983',
     {"char_poly": "x-1", "order": 999982,
      "points": {"count": 999982, "invariants": [999982]}, "q": 999983, "rank": 1}),
    ('{"rank":2,"frobenius":[[1,0],[0,1]]} --q 997',
     {"char_poly": "x^2-2*x+1", "order": 992016,
      "points": {"count": 992016, "invariants": [996, 996]}, "q": 997, "rank": 2}),
    ('{"rank":2,"frobenius":[[0,-1],[1,-1]]} --q 997',
     {"char_poly": "x^2+x+1", "order": 995007,
      "points": {"count": 995007, "invariants": [995007]}, "q": 997, "rank": 2}),
]


@pytest.mark.parametrize("args, expected", ENUMERATE_REQUESTS)
def test_torus_enumerate_reports_a_million_points_promptly(args, expected):
    code, text, dt = _run(f"torus --lattice {args} --enumerate --json", 1.0)
    assert code == 0
    assert json.loads(text) == {"command": "torus", "schema_version": 1, **expected}
    assert dt < 1.0


def test_torus_q_of_4000_digits_is_refused_promptly(capsys):
    # the largest q argparse reads has about 4300 digits
    code, _text, dt = _run('torus --lattice {"rank":1,"frobenius":[[1]]} '
                           f'--q {10 ** 4000 + 1}', 5.0)
    assert code == cli.EXIT_SYNTAX
    assert "primality-test bound" in capsys.readouterr().err
    assert dt < 5.0


#: node orbits (1, 5) and (1, 7) over GF(1048573): the torus orders are
#: q^5 - 1 and q^7 - 1, of 31 and 43 digits, which a generator of the whole
#: group would have to factor
BIG_ORBIT_REQUESTS = [
    f"hyperelliptic --p 1048573 --g {g} --h x+2 --r {r} --json"
    for g in ("x^6-x^2-x", "x^8-x^2-6*x") for r in (2, 3)]


@pytest.mark.parametrize("line", BIG_ORBIT_REQUESTS)
def test_large_torus_orders_are_not_factored(line):
    code, text, dt = _run(line, 2.0)
    report = json.loads(text)
    assert code == 0 and report["engine_check"]["agree"] is True
    assert report["dual_graph"]["node_orbit_degrees"] in ([1, 5], [1, 7])
    assert dt < 2.0


def test_only_small_numbers_are_factored(monkeypatch, cold_shape_caches):
    # a class needs a primitive gcd(r, n)-th root of unity, not a generator
    # of the whole group of order n, so factorize sees small numbers only
    from toricdescent import finite_field
    seen = []

    def factorize(n):
        seen.append(n)
        assert n <= 2 ** 20, f"factorize({n})"
        return original(n)

    original = finite_field.factorize
    monkeypatch.setattr(finite_field, "factorize", factorize)
    # fresh fields and genus-4 structures: each field keeps its own elements
    # of given orders
    finite_field._cached_field.cache_clear()
    for line in BIG_ORBIT_REQUESTS + ["genus4 --p 1000003 --eps X^3+Y^3+W*Z^2 --json"]:
        code, _text, _dt = _run(line, 10.0)
        assert code == 0
    assert seen and max(seen) <= 2 ** 20


#: x^D - x - 1 over GF(23): D, factor degrees, exit code.  The engine works
#: in one field per node orbit, so the cost follows the largest orbit, not
#: the lcm of the orbit degrees (56, 24, 390, 47 and 13800); the splitting
#: field took 31 s at D = 16 and 12 s at D = 24 on a 2-vCPU VM, and ran past
#: 20 s at D = 48 and 64.  D = 32 has no rational node and several orbits,
#: D = 64 a Frobenius order past the bound: both exit 4.
DEGREE_SWEEP = [
    (16, [1, 7, 8], cli.EXIT_OK),
    (24, [24], cli.EXIT_OK),
    (32, [3, 5, 5, 6, 13], cli.EXIT_UNDETERMINED),
    (48, [1, 47], cli.EXIT_OK),
    (64, [1, 1, 6, 8, 23, 25], cli.EXIT_UNDETERMINED),
]


@pytest.mark.parametrize("degree, orbits, exit_code", DEGREE_SWEEP)
def test_degree_sweep_answers_within_the_request_budget(degree, orbits, exit_code):
    code, text, dt = _run(f"hyperelliptic --p 23 --g x^{degree}-x-1 --h x+2 --json", 2.0)
    report = json.loads(text)
    assert code == exit_code
    assert report["dual_graph"]["node_orbit_degrees"] == orbits
    assert report["verdicts"]["theta"] is True  # d even
    if code == cli.EXIT_OK:
        assert report["engine_check"]["agree"] is True
    assert dt < 2.0


def test_frobenius_order_past_the_bound_is_undetermined():
    # D = 64: the lcm 13800 of the orbit degrees is the Galois generator's
    # order on the cycle space, read off the edge permutation before any of
    # the 63 x 63 matrix products the lattice check would make
    code, text, _dt = _run("hyperelliptic --p 23 --g x^64-x-1 --h x+2 --json", 2.0)
    report = json.loads(text)
    assert code == cli.EXIT_UNDETERMINED
    assert report["torsion"] is None
    assert report["undetermined_reasons"] == [
        "frobenius order 13800 exceeds the bound 64"]
    assert report["engine_check"] == {"agree": None, "theta": None}


def test_frobenius_order_is_refused_before_any_node_field(monkeypatch):
    # the orbits of degree 6, 8, 23 and 25 would each build a residue field
    # (twice: the theta verdict and the torsion each ask for the fiber)
    line = "hyperelliptic --p 23 --g x^64-x-1 --h x+2 --json"
    _code, text, _dt = _run(line, 2.0)
    degrees = []
    residue_field = families.residue_field

    def counted(g):
        degrees.append(g.degree)
        return residue_field(g)

    monkeypatch.setattr(families, "residue_field", counted)
    code, counted_text, _dt = _run(line, 2.0)
    assert code == cli.EXIT_UNDETERMINED
    assert degrees == []
    assert counted_text == text


def _cyclic_permutation(rank):
    """A --lattice argument: the cyclic permutation of rank coordinates,
    of Frobenius order rank and characteristic polynomial x^rank - 1."""
    rows = [[int(j == (i + 1) % rank) for j in range(rank)] for i in range(rank)]
    return json.dumps({"rank": rank, "frobenius": rows}, separators=(",", ":"))


def test_torus_lattice_of_a_rank_64_cyclic_permutation_answers_promptly():
    # 64 products for the order and 64 for the characteristic polynomial,
    # each a row per row of the permutation (3.2 s as dot products)
    code, text, dt = _run(f"torus --lattice {_cyclic_permutation(64)} --q 7 --json", 1.0)
    assert code == 0
    assert json.loads(text) == {"command": "torus", "schema_version": 1, "q": 7,
                                "rank": 64, "char_poly": "x^64-1", "order": 7 ** 64 - 1}
    assert dt < 1.0


def test_torus_lattice_of_a_rank_80_cyclic_permutation_is_refused_promptly(capsys):
    code, text, dt = _run(f"torus --lattice {_cyclic_permutation(80)} --q 7 --json", 1.0)
    assert (code, text) == (cli.EXIT_SYNTAX, "")
    assert "frobenius order exceeds the bound 64" in capsys.readouterr().err
    assert dt < 1.0


def test_oversized_torsion_listing_is_refused_before_listing(capsys):
    # Z/10^6 at r = 10^6 took 13 s and wrote 51 MB when every element was
    # listed; |Phi[r]| comes from the Smith diagonal first
    n = 10 ** 6
    code, text, dt = _run(f"component-group --matrix [[-{n},{n}],[{n},-{n}]] "
                          f"--r {n} --json", 1.0)
    assert (code, text) == (cli.EXIT_SYNTAX, "")
    assert "more than the listing limit 10000" in capsys.readouterr().err
    assert dt < 1.0


def _cycle_laplacian(vertices):
    """A --matrix argument: the intersection matrix of a cycle of lines,
    whose component group is Z/vertices."""
    rows = [[-2 if j == i else int((j - i) % vertices in (1, vertices - 1))
             for j in range(vertices)] for i in range(vertices)]
    return json.dumps(rows, separators=(",", ":"))


def test_largest_accepted_intersection_matrix_answers_promptly():
    from toricdescent.parsing import MATRIX_ROW_LIMIT
    n = MATRIX_ROW_LIMIT
    code, text, dt = _run(f"component-group --matrix {_cycle_laplacian(n)} --json", 1.0)
    assert code == 0
    report = json.loads(text)
    assert (report["phi"], report["order"]) == ([n], n)
    assert dt < 1.0


def test_intersection_matrix_past_the_row_limit_is_refused_before_arithmetic(
        monkeypatch, capsys):
    # 400 rows took 3.4 s and 800 rows 27.5 s; the row count is checked
    # right after the JSON is read
    from toricdescent import dual_graph
    from toricdescent.parsing import MATRIX_ROW_LIMIT
    calls = []
    monkeypatch.setattr(dual_graph, "smith_normal_form",
                        lambda *args: calls.append(args))
    for n in (MATRIX_ROW_LIMIT + 1, 800):
        code, text, dt = _run(f"component-group --matrix {_cycle_laplacian(n)} --json", 1.0)
        assert (code, text) == (cli.EXIT_SYNTAX, "")
        assert capsys.readouterr().err == (
            f"invalid input: matrix has {n} rows, more than the row limit "
            f"{MATRIX_ROW_LIMIT}\n")
        assert dt < 1.0
    assert calls == []
