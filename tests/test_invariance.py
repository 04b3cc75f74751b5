"""Isomorphic inputs get the same answers, at every field size.

A substitution that maps a curve to an isomorphic one must keep the exit
code, the verdicts, the torsion, the component group, the torus order and
the engine check.  These relations reach the factoring, node-field,
embedding and node-value layers at primes up to the 2^20 field limit, where
the oracle cannot go, with no second implementation.  They do not show
that an answer is right: the oracle and the torsion-order identity do.

- hyperelliptic: x -> x + c in g and h;
- genus 4: X <-> Y, and Z <-> W, in the cubic (both keep the quadric
  XY = ZW and the three lines of the special fiber).
"""

import io
import json

import pytest

from conftest import rng_for
from toricdescent import cli, families
from toricdescent.finite_field import is_prime
from toricdescent.parsing import format_univariate

#: the prime windows of the benchmark's prime-sweep workload, up to the
#: 2^20 field limit
WINDOWS = [(50, 200), (200, 1000), (1000, 10 ** 4), (10 ** 4, 5 * 10 ** 4),
           (5 * 10 ** 4, 2 * 10 ** 5), (2 * 10 ** 5, 6 * 10 ** 5), (6 * 10 ** 5, 2 ** 20)]

#: pairs drawn per window and relation
PAIRS = 8


def _answer(argv):
    """(exit code, the parts of the report an isomorphism keeps)."""
    out = io.StringIO()
    code = cli.run_line(argv + ["--json"], stream=out)
    if code not in (cli.EXIT_OK, cli.EXIT_UNDETERMINED):
        return code, None
    report = json.loads(out.getvalue())
    return code, (report["verdicts"], report["torsion"], report["phi"],
                  report["torus"]["order"], report["engine_check"])


def _prime(rng, window):
    while True:
        p = rng.randrange(*window)
        if is_prime(p):
            return p


def _shifted(coeffs, c, p):
    """f(x + c) mod p for f given by its coefficients, low first (Horner)."""
    out = []
    for a in reversed(coeffs):
        # out = out * (x + c) + a
        out = [(lo * c + hi) % p for lo, hi in zip(out + [0], [0] + out)]
        out[0] = (out[0] + a) % p
    return out


def test_shift_is_a_taylor_shift():
    # (x + 2)^2 + 1 = x^2 + 4x + 5
    assert _shifted([1, 0, 1], 2, 7) == [5, 4, 1]
    assert _shifted([3], 5, 7) == [3]


@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: f"p<{w[1]}")
def test_hyperelliptic_answers_are_invariant_under_translation(window):
    rng = rng_for(f"invariance-hyperelliptic:{window}")
    for _ in range(PAIRS):
        p = _prime(rng, window)
        d = rng.randint(3, 6)
        g = [rng.randrange(p) for _ in range(d)] + [1]
        h = [rng.randrange(p) for _ in range(rng.randint(0, 2 * d))] + [rng.randrange(1, p)]
        c = rng.randrange(1, p)
        answers = [_answer(["hyperelliptic", "--p", str(p), "--g", format_univariate(gg),
                            "--h", format_univariate(hh)])
                   for gg, hh in ((g, h), (_shifted(g, c, p), _shifted(h, c, p)))]
        assert answers[0] == answers[1], (p, g, h, c)


def _format_cubic(coeffs):
    terms = []
    for expo, c in coeffs.items():
        if c:
            powers = [v if e == 1 else f"{v}^{e}" for v, e in zip("XYZW", expo) if e]
            terms.append("*".join(([str(c)] if c != 1 else []) + powers))
    return "+".join(terms)


@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: f"p<{w[1]}")
def test_genus4_answers_are_invariant_under_the_quadric_swaps(window):
    rng = rng_for(f"invariance-genus4:{window}")
    swaps = (lambda a, b, c, d: (b, a, c, d), lambda a, b, c, d: (a, b, d, c))
    for _ in range(PAIRS):
        p = _prime(rng, window)
        eps = {e: rng.randrange(p) for e in families.MONOMIALS}
        r = rng.choice(["2", "3"])
        base = _answer(["genus4", "--p", str(p), "--eps", _format_cubic(eps), "--r", r])
        for swap in swaps:
            swapped = {swap(*e): c for e, c in eps.items()}
            assert _answer(["genus4", "--p", str(p), "--eps", _format_cubic(swapped),
                            "--r", r]) == base, (p, eps, swap((0, 1, 2, 3)))
