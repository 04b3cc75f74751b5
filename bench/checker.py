"""Arithmetic kept apart from the program under test, and the checks that
judge its reports.

Nothing here imports `toricdescent`.  Polynomials are lists of ints, low
coefficient first, over GF(p) for a prime p.  Every generated input has
integer coefficients, so its factorization over GF(p^m) follows from the one
over GF(p): an irreducible factor of degree e over GF(p) splits over GF(p^m)
into gcd(e, m) factors of degree e / gcd(e, m).
"""

from math import gcd, prod


# ---------------------------------------------------------------------------
# polynomials over GF(p)


def trim(a, p):
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_mod(a, f, p):
    """Remainder of a modulo f (f nonzero, reduced)."""
    a = trim(a, p)
    df = len(f) - 1
    inv = pow(f[-1], -1, p)
    while len(a) - 1 >= df:
        c = a[-1] * inv % p
        shift = len(a) - 1 - df
        for i, fc in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fc) % p
        a = trim(a, p)
    return a


def poly_divmod(a, f, p):
    a = trim(a, p)
    df = len(f) - 1
    inv = pow(f[-1], -1, p)
    quo = [0] * max(0, len(a) - df)
    while len(a) - 1 >= df:
        c = a[-1] * inv % p
        shift = len(a) - 1 - df
        quo[shift] = c
        for i, fc in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fc) % p
        a = trim(a, p)
    return trim(quo, p), a


def poly_mulmod(a, b, f, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_mod(out, f, p)


def poly_powmod(a, e, f, p):
    result = [1]
    base = poly_mod(a, f, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, base, f, p)
        e >>= 1
        if e:
            base = poly_mulmod(base, base, f, p)
    return result


def monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def poly_gcd(a, b, p):
    a, b = trim(a, p), trim(b, p)
    while b:
        a, b = b, poly_mod(a, b, p)
    return monic(a, p) if a else a


def derivative(a, p):
    return trim([i * a[i] for i in range(1, len(a))], p)


def poly_sub(a, b, p):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                 for i in range(n)], p)


def poly_eval(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def squarefree_parts(f, p):
    """(squarefree monic part, multiplicity) pairs whose product is monic(f)."""
    f = monic(trim(f, p), p)
    out = []

    def decompose(g, mult):
        if len(g) <= 1:
            return
        dg = derivative(g, p)
        if not dg:
            # g(x) = r(x^p); over GF(p) the p-th root of r's coefficients is
            # themselves
            decompose(g[::p], mult * p)
            return
        c = poly_gcd(g, dg, p)
        w = poly_divmod(g, c, p)[0]
        k = 1
        while len(w) > 1:
            y = poly_gcd(w, c, p)
            z = poly_divmod(w, y, p)[0]
            if len(z) > 1:
                out.append((monic(z, p), mult * k))
            w = y
            c = poly_divmod(c, y, p)[0]
            k += 1
        if len(c) > 1:
            decompose(monic(c, p), mult)

    decompose(f, 1)
    return out


def distinct_degree(f, p):
    """Degrees of the irreducible factors of a monic squarefree f over GF(p)."""
    degrees = []
    g = f
    x = [0, 1]
    xp = x
    d = 0
    while len(g) > 1:
        d += 1
        if 2 * d > len(g) - 1:
            degrees.append(len(g) - 1)
            break
        xp = poly_powmod(xp, p, g, p)
        h = poly_gcd(g, poly_sub(xp, x, p), p)
        if len(h) > 1:
            degrees.extend([d] * ((len(h) - 1) // d))
            g = poly_divmod(g, h, p)[0]
            xp = poly_mod(xp, g, p)
    return degrees


def factor_degrees(f, p):
    """Sorted degrees, with multiplicity, of the irreducible factors of a
    nonzero f over GF(p)."""
    f = trim(f, p)
    if not f:
        raise ValueError("zero polynomial")
    out = []
    for part, mult in squarefree_parts(f, p):
        out.extend(distinct_degree(part, p) * mult)
    return sorted(out)


def orbit_degrees(degrees_over_p, m):
    """Factor degrees over GF(p^m) from those over GF(p)."""
    out = []
    for e in degrees_over_p:
        g = gcd(e, m)
        out.extend([e // g] * g)
    return sorted(out)


def lcm_all(values):
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(q):
    """(p, m) with q = p^m, or None."""
    if q < 2:
        return None
    p = next((d for d in range(2, int(q ** 0.5) + 1) if q % d == 0), q)
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    return (p, m) if q == 1 else None


# ---------------------------------------------------------------------------
# family data


def hyperelliptic_torus_order(q, orbits):
    """|T(k)| for the two-line fiber: the product of q^e - 1 over the node
    orbits, divided by q - 1."""
    return prod(q ** e - 1 for e in orbits) // (q - 1)


def genus4_torus_order(q):
    return (q - 1) ** 4 if q % 4 == 1 else (q - 1) ** 2 * (q * q - 1)


def prime_to(n, p):
    while n % p == 0:
        n //= p
    return n


def sqrt_minus_one(p):
    """A square root of -1 in GF(p), p = 1 mod 4."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return pow(c, (p - 1) // 4, p)


#: nodes of the genus-4 special fiber, coordinates as (a, b) meaning a + b*i
GENUS4_NODES = [
    ((1, 0), (1, 0), (1, 0), (1, 0)),
    ((-1, 0), (-1, 0), (1, 0), (1, 0)),
    ((0, 1), (0, 1), (-1, 0), (1, 0)),
    ((0, -1), (0, -1), (-1, 0), (1, 0)),
    ((1, 0), (0, 0), (0, 0), (0, 0)),
    ((0, 0), (1, 0), (0, 0), (0, 0)),
]


def _gauss_mul(x, y, p):
    return ((x[0] * y[0] - x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def cubic_at(eps, point, p):
    """eps(point) as a + b*i over GF(p), i^2 = -1; eps maps exponent tuples
    (a, b, c, d) of X^a Y^b Z^c W^d to integer coefficients."""
    acc = (0, 0)
    for expo, coeff in eps.items():
        term = (coeff % p, 0)
        for base, e in zip(point, expo):
            for _ in range(e):
                term = _gauss_mul(term, base, p)
        acc = ((acc[0] + term[0]) % p, (acc[1] + term[1]) % p)
    return acc


def genus4_regular(eps, p):
    """The cubic is nonzero at the six nodes of the special fiber (over any
    extension of GF(p))."""
    i0 = sqrt_minus_one(p) if p % 4 == 1 else None
    for point in GENUS4_NODES:
        a, b = cubic_at(eps, point, p)
        if i0 is None:
            if a == 0 and b == 0:
                return False
        elif (a + b * i0) % p == 0 or (a - b * i0) % p == 0:
            return False
    return True


def genus4_sections(eps, p):
    """t^3 eps(t, 1/t, 1, 1) and t^3 eps(t, -1/t, -1, 1): the cubic along
    the lines Z = W and Z = -W of the quadric XY = ZW."""
    zw = [0] * 7
    mzw = [0] * 7
    for (a, b, c, _d), coeff in eps.items():
        zw[3 + a - b] += coeff
        mzw[3 + a - b] += coeff * (-1) ** (b + c)
    return trim(zw, p), trim(mzw, p)


def hyperelliptic_eval_degree(g, h, p, m):
    """Degree over GF(q) of the field the engine evaluates in: the lcm of
    the degrees of the factors of g and h over GF(q)."""
    return lcm_all(orbit_degrees(factor_degrees(g, p), m)
                   + orbit_degrees(factor_degrees(h, p), m))


def genus4_eval_degree(eps, p, m):
    q = p ** m
    out = [1 if q % 4 == 1 else 2]
    for section in genus4_sections(eps, p):
        out.extend(orbit_degrees(factor_degrees(section, p), m))
    return lcm_all(out)


def hyperelliptic_valid(g, h, p, r):
    """Family hypotheses for integer g (monic) and h reduced at p."""
    gb, hb = trim(g, p), trim(h, p)
    d = len(gb) - 1
    return (d >= 3 and gb[-1] == 1 and (2 * d) % p != 0 and r % p != 0
            and hb and len(hb) - 1 <= 2 * d
            and len(poly_gcd(gb, derivative(gb, p), p)) == 1
            and len(poly_gcd(gb, hb, p)) == 1)


# ---------------------------------------------------------------------------
# report checks


def _chain(factors):
    return all(b % a == 0 for a, b in zip(factors, factors[1:]))


def _torsion_problems(torsion, expected_order):
    if not isinstance(torsion, list) or not all(isinstance(v, int) and v > 1
                                                for v in torsion):
        return [f"torsion {torsion!r} is not a list of invariant factors"]
    out = []
    if prod(torsion) != expected_order:
        out.append(f"torsion product {prod(torsion)} != {expected_order}")
    if not _chain(torsion):
        out.append(f"torsion {torsion} is not a divisibility chain")
    return out


def check_hyperelliptic(req, code, report):
    """Problems with a hyperelliptic report; empty when it is correct."""
    p, m, q = req["p"], req["m"], req["q"]
    g, h = req["g"], req["h"]
    d = len(trim(g, p)) - 1
    orbits = orbit_degrees(factor_degrees(g, p), m)
    no_root_reducible = len(orbits) > 1 and 1 not in orbits
    out = []
    if code not in (0, 4) or (code == 4) != no_root_reducible:
        return [f"exit {code}; reducible without a rational root: {no_root_reducible}"]
    if report is None:
        return ["no report"]
    inp = report["input"]
    if (inp["p"], inp["q"], inp["r"]) != (p, q, req["r"]):
        out.append(f"input echo {inp}")
    if inp["base_field"] != ("Q_p" if req["qp"] else "local field with this residue field"):
        out.append(f"base field {inp['base_field']!r}")
    graph = report["dual_graph"]
    if (graph["vertices"], graph["nodes"]) != (2, d):
        out.append(f"dual graph {graph}")
    if graph["node_orbit_degrees"] != orbits:
        out.append(f"node orbits {graph['node_orbit_degrees']} != {orbits}")
    if report["phi"] != [d]:
        out.append(f"phi {report['phi']} != [{d}]")
    torus_order = hyperelliptic_torus_order(q, orbits)
    if report["torus"]["order"] != torus_order:
        out.append(f"torus order {report['torus']['order']} != {torus_order}")
    theta = report["verdicts"]["theta"]
    if (d % 2 == 0 or len(orbits) == 1) and theta is not True:
        out.append(f"theta {theta!r} where d is even or g is irreducible")
    if req.get("theta_rule") is not None and theta != req["theta_rule"]:
        out.append(f"theta {theta!r} != {req['theta_rule']!r} (rule over Q_p)")
    if code == 0:
        out += _torsion_problems(report["torsion"], torus_order * prime_to(d, p))
        if theta not in (True, False):
            out.append(f"theta {theta!r} with exit 0")
    checks = report["engine_check"]
    if req["engine"]:
        agree = checks and checks.get("agree")
        if agree is not True and not (code == 4 and agree is None):
            out.append(f"engine check {checks}")
    elif checks is not None:
        out.append("engine check ran although disabled")
    return out


def check_genus4(req, code, report):
    p, q = req["p"], req["q"]
    if code != 0:
        return [f"exit {code}"]
    out = []
    inp = report["input"]
    if (inp["p"], inp["q"], inp["r"]) != (p, q, req["r"]):
        out.append(f"input echo {inp}")
    orbits = [1, 1, 1, 1] + ([1, 1] if q % 4 == 1 else [2])
    if report["dual_graph"]["node_orbit_degrees"] != orbits:
        out.append(f"node orbits {report['dual_graph']['node_orbit_degrees']}")
    if sorted(report["phi"]) != [2, 6]:
        out.append(f"phi {report['phi']}")
    torus_order = genus4_torus_order(q)
    if report["torus"]["order"] != torus_order:
        out.append(f"torus order {report['torus']['order']} != {torus_order}")
    out += _torsion_problems(report["torsion"], torus_order * 12)
    verdicts = report["verdicts"]
    if verdicts["theta"] not in (True, False) or verdicts["cube_root"] not in (True, False):
        out.append(f"verdicts {verdicts}")
    if q % 12 == 5 and verdicts["cube_root"] is not True:
        out.append("cube root not rational although q = 5 mod 12")
    checks = report["engine_check"]
    if req["engine"]:
        if not checks or checks.get("agree") is not True:
            out.append(f"engine check {checks}")
    elif checks is not None:
        out.append("engine check ran although disabled")
    return out


def check_oracle(req, code, report):
    if code != 0:
        return [f"exit {code}"]
    p, m, q = req["p"], req["m"], req["q"]
    torus_order = hyperelliptic_torus_order(q, orbit_degrees(factor_degrees(req["g"], p), m))
    out = []
    if (report["q"], report["r"], report["trials"]) != (q, req["r"], req["trials"]):
        out.append(f"echo {report}")
    if report["agreements"] != req["trials"]:
        out.append(f"{report['agreements']} of {req['trials']} trials agree")
    if report["torus_points"] != torus_order or report["torus_order"] != torus_order:
        out.append(f"torus {report['torus_points']} points, order "
                   f"{report['torus_order']}, expected {torus_order}")
    return out


CHECKS = {"hyperelliptic": check_hyperelliptic, "genus4": check_genus4,
          "oracle": check_oracle}


def check(req, code, report):
    """Problems with the program's answer to a generated request."""
    try:
        return CHECKS[req["family"]](req, code, report)
    except (KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
