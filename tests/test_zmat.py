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
