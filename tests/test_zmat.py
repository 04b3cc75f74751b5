import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import random_unimodular, rng_for
from toricdescent import zmat


def _per_prime_invariants(orders):
    """Reference: the invariant factors from the exponents of every prime,
    sorted per prime and recombined slot by slot."""
    primary = {}
    for n in orders:
        for p, e in zmat.factorize(n).items():
            primary.setdefault(p, []).append(e)
    width = max((len(v) for v in primary.values()), default=0)
    factors = []
    for slot in range(width):
        d = 1
        for p, exps in primary.items():
            exps = sorted(exps, reverse=True) + [0] * width
            d *= p ** exps[slot]
        factors.append(d)
    return sorted(factors)


def test_group_invariants_match_per_prime_exponents():
    rng = rng_for("group-invariants")
    for _ in range(500):
        orders = [rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 24, 25, 36, 49, 60,
                              rng.randrange(1, 2000)])
                  for _ in range(rng.randrange(0, 7))]
        out = zmat.group_invariants(orders)
        assert out == _per_prime_invariants(orders)
        assert all(b % a == 0 for a, b in zip(out, out[1:]))
    assert zmat.group_invariants([18, 6]) == [6, 18]
    assert zmat.group_invariants([1, 1]) == []


def test_group_invariants_of_large_orders_factor_nothing():
    # 10^15 + 37 is prime: trial division takes seconds to find that, the
    # gcd/lcm normal form microseconds
    big = 10 ** 15 + 37
    t0 = time.perf_counter()
    assert zmat.group_invariants([big, 3]) == [3 * big]
    assert zmat.group_invariants([6 * big, 2, big]) == [2 * big, 6 * big]
    assert time.perf_counter() - t0 < 0.1


def test_contract_checks_survive_python_O():
    """Each argument check in zmat raises ZmatError, also under python -O,
    which strips asserts; the quotient by a divisor comes out whole."""
    code = """
from toricdescent import zmat
cases = [
    lambda: zmat.mat_mul([[1, 2]], [[1, 0], [0, 1], [1, 1]]),
    lambda: zmat.mat_vec([[1, 2], [3]], [1, 1]),
    lambda: zmat.solve_mod([[1, 0], [0, 1]], [1], 5),
    lambda: zmat.solve_mod([[1, 0], [0, 1]], [1, 1], 0),
    lambda: zmat.factorize(0),
    lambda: zmat.poly_divexact_int([1, 0, 1], [-1, 1]),
    lambda: zmat.poly_divexact_int([2, 3], [0, 2]),
    lambda: zmat.solve_int([[1, 0], [0, 1]], [1]),
    lambda: zmat.mat_inverse_unimodular([[1, 2], [2, 4]]),
    lambda: zmat.mat_inverse_unimodular([[2, 0], [0, 1]]),
]
for case in cases:
    try:
        case()
    except zmat.ZmatError:
        print("refused")
print(zmat.poly_divexact_int([-1, 0, 0, 1], [-1, 1]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n" * 10 + "[1, 1, 1]\n"


def _random_matrix(rows, cols, rng, bound=3):
    return [[rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(rows)]


def test_charpoly_matches_determinants():
    """det(x*I - A) at several integers x, by Bareiss, against the
    Faddeev-LeVerrier coefficients."""
    rng = rng_for("charpoly")
    assert zmat.charpoly([]) == [1]
    for _ in range(300):
        n = rng.randrange(1, 8)
        A = _random_matrix(n, n, rng, bound=rng.choice([1, 3, 9]))
        f = zmat.charpoly(A)
        assert len(f) == n + 1 and f[-1] == 1
        for x in (-3, -1, 0, 1, 2, 7):
            xI_A = [[(x if i == j else 0) - A[i][j] for j in range(n)] for i in range(n)]
            assert zmat.poly_eval_int(f, x) == zmat.det(xI_A)


def _rational_solution(A, b):
    """Reference: one solution of A x = b over Q by Gauss-Jordan elimination
    on Fractions, with free coordinates 0, or None outside the span."""
    rows, cols = len(A), len(A[0])
    M = [[Fraction(v) for v in row] + [Fraction(c)] for row, c in zip(A, b)]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        M[r] = [v / M[r][c] for v in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                M[i] = [a - M[i][c] * v for a, v in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    if any(M[i][cols] != 0 for i in range(r, rows)):
        return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = M[i][cols]
    return x, len(pivots)


def test_solve_int_matches_a_rational_reference():
    """Three kinds of system: b outside the rational span, inside it with
    only non-integer solutions, and integrally solvable.  A = A0 T with T of
    determinant 1, 2 or 3, so A misses points of its rational span that A0
    reaches; solutions are compared exactly where the reference finds the
    columns independent."""
    rng = rng_for("solve-int")
    kinds = {"out of span": 0, "rational only": 0, "integral": 0}
    for _ in range(1500):
        cols = rng.randrange(1, 5)
        rows = cols + rng.randrange(0, 3)
        A0 = _random_matrix(rows, cols, rng, bound=2)
        T = zmat.identity(cols)
        T[0][0] = rng.choice([1, 2, 3])
        i, j = rng.randrange(cols), rng.randrange(cols)
        if i != j:
            T[i][j] = rng.randrange(-2, 3)
        A = zmat.mat_mul(A0, T)
        if rng.random() < 0.3:
            b = [rng.randrange(-5, 6) for _ in range(rows)]
        else:
            b = zmat.mat_vec(A0, [rng.randrange(-4, 5) for _ in range(cols)])
        ref = _rational_solution(A, b)
        in_span, x = zmat.solve_int(A, b)
        assert in_span == (ref is not None)
        if x is not None:
            assert zmat.mat_vec(A, x) == b
        if ref is None:
            kinds["out of span"] += 1
            continue
        solution, rank = ref
        if rank < cols:
            continue
        # independent columns: the solution is unique
        if all(v.denominator == 1 for v in solution):
            kinds["integral"] += 1
            assert x == [int(v) for v in solution]
        else:
            kinds["rational only"] += 1
            assert x is None
    assert min(kinds.values()) >= 100, kinds


def test_solve_int_edge_shapes():
    assert zmat.solve_int([], []) == (True, [])
    assert zmat.solve_int([[0], [0]], [0, 0]) == (True, [0])
    assert zmat.solve_int([[0], [0]], [0, 1]) == (False, None)
    assert zmat.solve_int([[2, 4]], [3]) == (True, None)
    in_span, x = zmat.solve_int([[2, 4]], [6])
    assert in_span and 2 * x[0] + 4 * x[1] == 6
    with pytest.raises(zmat.ZmatError):
        zmat.solve_int([[1, 2]], [1, 2])


def test_solve_mod_edge_shapes():
    # modulo 1 every system is solved, by zero
    assert zmat.solve_mod([[2]], [3], 1) == [0]
    assert zmat.solve_mod([[2]], [1], 4) is None  # 2x = 1 mod 4
    assert zmat.solve_mod([[2]], [2], 4) in ([1], [3])
    # more rows than columns: the extra row of U b must vanish mod n
    assert zmat.solve_mod([[1], [1]], [0, 1], 5) is None
    assert zmat.solve_mod([[1], [1]], [2, 2], 5) == [2]


def test_unimodular_inverse():
    rng = rng_for("unimodular-inverse")
    for _ in range(300):
        n = rng.randrange(1, 7)
        U = random_unimodular(n, rng)
        assert zmat.mat_mul(zmat.mat_inverse_unimodular(U), U) == zmat.identity(n)
    assert zmat.mat_inverse_unimodular([]) == []
    assert zmat.mat_inverse_unimodular([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert zmat.mat_inverse_unimodular([[2, 1], [3, 1]]) == [[-1, 1], [3, -2]]
    for bad in ([[1, 2], [2, 4]], [[2, 0], [0, 1]], [[1, 1], [-1, 1]], [[0]], [[1, 0]]):
        with pytest.raises(zmat.ZmatError):
            zmat.mat_inverse_unimodular(bad)
