import subprocess
import sys
import time

from conftest import rng_for
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
    assert proc.stdout == "refused\n" * 7 + "[1, 1, 1]\n"
