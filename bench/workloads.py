"""Seeded request generators for the three workloads.

A workload is a fixed list of slots.  A round draws one request per slot from
`random.Random(f"{workload}:{seed}:{round}")`, so the same seed gives the same
requests, and every round has the same make-up: the same families, fields,
degrees and evaluation-field degrees, with fresh coefficients or primes.  The
cost of a request depends mostly on those slot properties, so fixing them per
slot keeps the spread between seeds small while the inputs still change.

Only inputs that satisfy the family hypotheses are kept, decided by the
arithmetic in `checker`; the program receives only the CLI lines.
"""

import itertools
import random

import checker

#: wall-clock budget of one request, in seconds
BUDGET_S = 2.0

MONOMIALS = sorted((t for t in itertools.product(range(4), repeat=4) if sum(t) == 3),
                   reverse=True)


def format_poly(coeffs):
    """Integer coefficient list (low first) as CLI text in x."""
    out = ""
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        sign = "-" if c < 0 else ("+" if out else "")
        c = abs(c)
        if not mono:
            out += f"{sign}{c}"
        elif c == 1:
            out += f"{sign}{mono}"
        else:
            out += f"{sign}{c}*{mono}"
    return out or "0"


def format_cubic(eps):
    terms = []
    for expo in MONOMIALS:
        c = eps.get(expo, 0)
        if not c:
            continue
        factors = [] if c == 1 else [str(c)]
        for var, e in zip("XYZW", expo):
            if e:
                factors.append(var if e == 1 else f"{var}^{e}")
        terms.append("*".join(factors))
    return "+".join(terms)


def _orbits(poly, p, m):
    return tuple(checker.orbit_degrees(checker.factor_degrees(poly, p), m))


def hyperelliptic_request(rng, q, d, pattern, e, s, r=2, engine=True):
    """Monic g of degree d whose factor degrees over GF(q) are `pattern`, and
    h of degree e, such that the evaluation field has degree s over GF(q)."""
    p, m = checker.prime_power(q)
    for _ in range(100000):
        g = [rng.randrange(p) for _ in range(d)] + [1]
        h = [rng.randrange(p) for _ in range(e)] + [rng.randrange(1, p)]
        if (checker.hyperelliptic_valid(g, h, p, r)
                and _orbits(g, p, m) == pattern
                and checker.hyperelliptic_eval_degree(g, h, p, m) == s):
            return make_hyperelliptic(q, g, h, r=r, engine=engine)
    raise RuntimeError(f"no hyperelliptic input for q={q} d={d} {pattern} e={e} s={s}")


def make_hyperelliptic(q, g, h, r=2, engine=True, qp=False, theta_rule=None):
    p, m = checker.prime_power(q)
    argv = ["hyperelliptic", "--p" if qp else "--q", str(q),
            "--g", format_poly(g), "--h", format_poly(h), "--r", str(r)]
    if not engine:
        argv.append("--no-engine-check")
    return {"family": "hyperelliptic", "p": p, "m": m, "q": q, "g": g, "h": h,
            "r": r, "qp": qp, "engine": engine, "theta_rule": theta_rule,
            "argv": argv + ["--json"]}


def genus4_request(rng, q, r, s, engine=True):
    """Dense cubic with coefficients in [0, p) that is regular at the six
    nodes and gives an evaluation field of degree s over GF(q)."""
    p, m = checker.prime_power(q)
    for _ in range(100000):
        eps = {expo: rng.randrange(p) for expo in MONOMIALS}
        eps = {k: v for k, v in eps.items() if v}
        if (checker.genus4_regular(eps, p)
                and checker.genus4_eval_degree(eps, p, m) == s):
            return make_genus4(q, eps, r=r, engine=engine)
    raise RuntimeError(f"no genus-4 input for q={q} s={s}")


def make_genus4(q, eps, r=2, engine=True, qp=False):
    p, m = checker.prime_power(q)
    argv = ["genus4", "--p" if qp else "--q", str(q), "--eps", format_cubic(eps),
            "--r", str(r)]
    if not engine:
        argv.append("--no-engine-check")
    return {"family": "genus4", "p": p, "m": m, "q": q, "eps": eps, "r": r,
            "qp": qp, "engine": engine, "argv": argv + ["--json"]}


def oracle_request(rng, q, d, pattern, e, s, r, trials=20):
    req = hyperelliptic_request(rng, q, d, pattern, e, s, r=r)
    argv = ["oracle", "--q", str(q), "--g", format_poly(req["g"]),
            "--h", format_poly(req["h"]), "--r", str(r), "--trials", str(trials),
            "--seed", str(rng.randrange(10 ** 6)), "--json"]
    return dict(req, family="oracle", trials=trials, argv=argv)


# ---------------------------------------------------------------------------
# small-q-reports: everyday reports over small residue fields, engine on.
# Slot: (q, d, factor degrees of g over GF(q), deg h, evaluation degree s)
# for the hyperelliptic family, (q, r, s) for genus 4.  Split quartics over
# q = 3 mod 4 are left out of the seeded slots: the closed-form and engine
# torsion disagree on some of them (see SMALL_Q_FAULTS).

SMALL_Q_HYPERELLIPTIC = [
    (5, 3, (1, 1, 1), 2, 1),
    (7, 3, (1, 2), 3, 6),
    (9, 4, (2, 2), 2, 2),
    (11, 3, (3,), 1, 3),
    (13, 4, (1, 1, 1, 1), 4, 2),
    (13, 5, (5,), 3, 15),
    (17, 4, (4,), 2, 4),
    (19, 5, (1, 4), 2, 4),
    (25, 3, (1, 1, 1), 4, 2),
    (27, 5, (5,), 2, 10),
    (49, 3, (3,), 5, 3),
    (7, 5, (1, 1, 3), 5, 6),
    (11, 5, (5,), 6, 30),
    (19, 3, (1, 1, 1), 3, 2),
]

SMALL_Q_GENUS4 = [
    (5, 2, 6),
    (13, 3, 6),
    (25, 2, 3),
    (7, 3, 30),
    (17, 2, 12),
    (11, 2, 10),
]

#: fixed requests that fail on every run because of a fault in the program
SMALL_Q_FAULTS = [
    # split quartic over GF(27): closed-form torsion [2, 26, 26, 52], engine
    # torsion [26, 26, 104]; the report says engine_check.agree = false
    make_hyperelliptic(27, [2, 1, 1, 0, 1], [0, 1]),
]


def small_q_round(rng):
    reqs = [hyperelliptic_request(rng, *slot) for slot in SMALL_Q_HYPERELLIPTIC]
    reqs += [genus4_request(rng, q, r, s) for q, r, s in SMALL_Q_GENUS4]
    return reqs, SMALL_Q_FAULTS


# ---------------------------------------------------------------------------
# prime-sweep: fixed curves over seeded primes up to the 2^20 field limit,
# closed forms only.  Slot: (curve, prime window, condition on p).  Shapes
# whose cost is linear in p today (non-split reductions, genus 4 with
# p = 3 mod 4) stay in small windows so that they finish well inside the
# budget; the two fault rows show the same path at p = 10007.

FIELD_LIMIT = 2 ** 20

X3_X = [0, -1, 0, 1]
X3_X_1 = [-1, -1, 0, 1]
X4_X_1 = [-1, -1, 0, 0, 1]
FERMAT_EPS = {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 2, 1): 1}

WIDE = [(50, 200), (200, 1000), (1000, 10 ** 4), (10 ** 4, 5 * 10 ** 4),
        (5 * 10 ** 4, 2 * 10 ** 5), (2 * 10 ** 5, 6 * 10 ** 5), (6 * 10 ** 5, FIELD_LIMIT)]


PRIME_SWEEP_HYPERELLIPTIC = (
    [(X3_X, h, window, None) for h in ([2, 1], [1]) for window in WIDE]
    + [(g, [2, 1], window, split) for g, split in [(X3_X_1, (1, 1, 1)), (X4_X_1, (1, 1, 1, 1))]
       for window in WIDE]
    + [(X3_X_1, [2, 1], (50, 100), (1, 2)),
       (X3_X_1, [2, 1], (50, 100), (3,)),
       (X4_X_1, [2, 1], (30, 80), (1, 3)),
       (X4_X_1, [2, 1], (30, 80), (1, 1, 2)),
       (X4_X_1, [2, 1], (30, 80), (4,)),
       (X4_X_1, [2, 1], (30, 100), (2, 2))]
)

PRIME_SWEEP_GENUS4 = ([(r, window, 1) for r in (2, 3) for window in WIDE]
                      + [(r, (40, 50), 3) for r in (2, 3)])

PRIME_SWEEP_FAULTS = [
    # roots in GF(p^2) and GF(p^3) take about p splitting tries: > 60 s
    make_hyperelliptic(10007, X3_X_1, [2, 1], engine=False, qp=True),
    # sqrt(-1) in GF(p^2) for p = 3 mod 4 takes about p tries: > 60 s
    make_genus4(10007, FERMAT_EPS, engine=False, qp=True),
]


def _prime_in(rng, window, accept):
    lo, hi = window
    for _ in range(100000):
        p = rng.randrange(lo, hi)
        if checker.is_prime(p) and accept(p):
            return p
    raise RuntimeError(f"no prime in {window}")


def prime_sweep_round(rng):
    reqs = []
    for g, h, window, shape in PRIME_SWEEP_HYPERELLIPTIC:
        p = _prime_in(rng, window, lambda p: checker.hyperelliptic_valid(g, h, p, 2)
                      and shape in (None, tuple(checker.factor_degrees(g, p))))
        # theta over Q_p for x^3 - x: always with h = 1, else iff p = +-1 mod 24
        rule = (h == [1] or p % 24 in (1, 23)) if g == X3_X else None
        reqs.append(make_hyperelliptic(p, g, h, engine=False, qp=True, theta_rule=rule))
    for r, window, residue in PRIME_SWEEP_GENUS4:
        p = _prime_in(rng, window, lambda p: p % 4 == residue
                      and checker.genus4_regular(FERMAT_EPS, p))
        reqs.append(make_genus4(p, FERMAT_EPS, r=r, engine=False, qp=True))
    return reqs, PRIME_SWEEP_FAULTS


# ---------------------------------------------------------------------------
# oracle-crosscheck: engine verdicts against the brute-force oracle in tiny
# fields.  Slot: (q, d, factor degrees of g, deg h, evaluation degree s, r).
# Reducible g without a root in GF(q) is outside the engine and left out.

ORACLE_SLOTS = [
    (3, 4, (1, 3), 1, 3, 2),
    (3, 4, (4,), 2, 4, 2),
    (5, 3, (1, 1, 1), 2, 2, 2),
    (5, 3, (1, 2), 2, 2, 3),
    (5, 3, (3,), 0, 3, 3),
    (5, 4, (1, 3), 1, 3, 2),
    (5, 4, (1, 1, 2), 2, 2, 3),
    (7, 3, (1, 2), 1, 2, 2),
    (7, 3, (3,), 1, 3, 3),
    (7, 3, (1, 1, 1), 3, 3, 3),
    (7, 4, (1, 1, 1, 1), 1, 1, 2),
    (7, 4, (1, 3), 1, 3, 3),
    (11, 3, (1, 2), 2, 2, 2),
    (11, 3, (3,), 1, 3, 3),
]

ORACLE_TRIALS = 20


def oracle_round(rng):
    reqs = [oracle_request(rng, q, d, pattern, e, s, r, trials=ORACLE_TRIALS)
            for q, d, pattern, e, s, r in ORACLE_SLOTS]
    return reqs, []


ROUNDS = {
    "small-q-reports": small_q_round,
    "prime-sweep": prime_sweep_round,
    "oracle-crosscheck": oracle_round,
}

#: workloads measured on cold caches: each request draws its own prime, and
#: run.py clears the program's caches before every request, so that running
#: a request again (as a traced run does) costs what it cost the first time
COLD = {"prime-sweep"}


def make_round(workload, seed, index):
    """(seeded requests, fault requests) of one round; index -1 is the
    warm-up round."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return ROUNDS[workload](rng)
