import pytest

from conftest import rng_for
from toricdescent import finite_field
from toricdescent.finite_field import (
    ConjugatesNotDistinct, FieldError, MixedFields, NotASubfield,
    NotInSubgroup, NotPrime, OrderDoesNotDivide, Poly, SizeLimitExceeded,
    ZeroElement, ZeroPolynomial, _smallest_irreducible, coprimality_check,
    element_of_order, embed, extension, factor, make_field, norm_to_subfield,
    poly_from_int, power_residue, residue_symbol, roots_in_extension)


def brute_irreducible(p, m):
    """Reference modulus search: enumerate monic degree-m polynomials in
    encoding order and root/factor-test them by brute force."""
    k = make_field(p)
    n = 0
    while True:
        cand = Poly(k, [((n // p ** i) % p) for i in range(m)] + [1])
        n += 1
        if cand.coeffs[0].is_zero():
            continue
        # brute irreducibility for m = 2, 3: no roots is enough; for higher m
        # check divisibility by all lower-degree monics
        reducible = False
        for enc in range(p, p ** m):
            div = poly_from_int(k, enc)
            if 0 < div.degree < m and div.lead() == k.one() and (cand % div).is_zero():
                reducible = True
                break
        if not reducible:
            return tuple(c.to_int() for c in cand.coeffs)


def test_make_field_smallest_modulus():
    assert make_field(5, 1).modulus == (0, 1)
    assert make_field(3, 2).modulus == brute_irreducible(3, 2) == (1, 0, 1)
    assert make_field(2, 3).modulus == brute_irreducible(2, 3)
    assert make_field(7, 2).modulus == brute_irreducible(7, 2)


def test_make_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(SizeLimitExceeded):
        make_field(2, 25)
    assert make_field(2, 25, limit=None).q == 2 ** 25


def test_norm_of_generator_generates_subfield():
    K9 = make_field(3, 2)
    g = K9.from_coeffs([1, 1])  # multiplicative generator of GF(9)
    assert g.multiplicative_order() == 8
    K3 = make_field(3)
    assert norm_to_subfield(g, 1) == K3(-1)
    assert norm_to_subfield(K9.one(), 1) == K3.one()
    assert norm_to_subfield(K9.zero(), 1) == K3.zero()


def test_norm_multiplicative_and_lands_in_subfield():
    rng = rng_for("norm-mult")
    K = make_field(3, 4)
    for _ in range(60):
        a = K.from_int(rng.randrange(K.q))
        b = K.from_int(rng.randrange(K.q))
        e = embed(make_field(3, 2), K)
        na = e(norm_to_subfield(a, 2))
        nb = e(norm_to_subfield(b, 2))
        nab = e(norm_to_subfield(a * b, 2))
        assert nab == na * nb
        assert na ** (3 ** 2) == na  # fixed by the subfield Frobenius


def test_power_residue_matches_enumeration():
    for p, m in [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2), (2, 4), (7, 2)]:
        K = make_field(p, m)
        for r in range(1, 7):
            actual = {x.to_int() for x in K.elements()
                      if not x.is_zero() and power_residue(x, r)}
            expected = {(y ** r).to_int() for y in K.elements() if not y.is_zero()}
            assert actual == expected, (p, m, r)


def test_power_residue_examples():
    K7 = make_field(7)
    assert not power_residue(K7(3), 2)
    assert {x for x in range(1, 7) if power_residue(K7(x), 2)} == {1, 2, 4}
    K5 = make_field(5)
    assert all(power_residue(K5(x), 3) for x in range(1, 5))
    assert power_residue(K7(6), 3)
    assert {x for x in range(1, 7) if power_residue(K7(x), 3)} == {1, 6}
    with pytest.raises(ZeroElement):
        power_residue(K7.zero(), 2)


def test_factor_examples():
    K5 = make_field(5)
    x3_minus_x = Poly(K5, [0, -1, 0, 1])
    fac = factor(x3_minus_x)
    assert [( [c.to_int() for c in f.coeffs], m) for f, m in fac] == \
        [([0, 1], 1), ([1, 1], 1), ([4, 1], 1)]
    cubic = Poly(K5, [1, 1, 0, 1])
    assert [v.to_int() for v in (cubic(K5(t)) for t in range(5))] == [1, 3, 1, 1, 4]
    assert factor(cubic) == [(cubic, 1)]
    sq = factor(Poly(K5, [1, 0, 1]))
    assert [[c.to_int() for c in f.coeffs] for f, _ in sq] == [[2, 1], [3, 1]]
    with pytest.raises(ZeroPolynomial):
        factor(Poly(K5, []))


def test_factor_remultiplies():
    rng = rng_for("factor-remultiply")
    for p, m in [(2, 1), (3, 1), (5, 1), (7, 1), (3, 2)]:
        K = make_field(p, m)
        for _ in range(500):
            f = poly_from_int(K, rng.randrange(K.q, K.q ** 9))
            prod = Poly(K, [f.lead()])
            for g, mult in factor(f):
                assert g.lead() == K.one()
                for _ in range(mult):
                    prod = prod * g
            assert prod == f


def test_roots_in_extension():
    K3 = make_field(3)
    f = Poly(K3, [1, 0, 1])
    rs = roots_in_extension(f, 2)
    assert len(rs) == 2
    assert rs[0].frob(1) == rs[1]  # Galois conjugates
    assert all((r * r + 1).is_zero() for r in rs)
    assert roots_in_extension(f, 1) == []
    K7 = make_field(7)
    assert [r.to_int() for r in roots_in_extension(Poly(K7, [-1, 1]), 1)] == [1]


def test_roots_in_extension_counts_multiplicity():
    rng = rng_for("roots-mult")
    K = make_field(5)
    for _ in range(40):
        f = poly_from_int(K, rng.randrange(K.q, K.q ** 6))
        degs = [g.degree for g, _ in factor(f)]
        s = 1
        for d in degs:
            from toricdescent.zmat import lcm
            s = lcm(s, d)
        rs = roots_in_extension(f, s)
        assert len(rs) == f.degree


def test_coprimality():
    K7 = make_field(7)
    assert coprimality_check(Poly(K7, [0, -1, 0, 1]), Poly(K7, [-1, 0, 3]))
    assert not coprimality_check(Poly(K7, [0, -1, 0, 1]), Poly(K7, [0, 1]))
    assert coprimality_check(Poly(K7, [0, -1, 0, 1]), Poly(K7, [1]))


def test_unit_group_order_exhaustive():
    for p, m in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 4)]:
        K = make_field(p, m)
        if K.q > 49:
            continue
        for x in K.elements():
            if not x.is_zero():
                assert x ** (K.q - 1) == K.one()


def test_embedding_is_field_homomorphism():
    rng = rng_for("embedding-hom")
    sub = make_field(3, 2)
    big = extension(sub, 3)
    e = embed(sub, big)
    for _ in range(50):
        a = sub.from_int(rng.randrange(sub.q))
        b = sub.from_int(rng.randrange(sub.q))
        assert e(a + b) == e(a) + e(b)
        assert e(a * b) == e(a) * e(b)
        assert e.section(e(a)) == a
    with pytest.raises(NotASubfield):
        e.section(big.gen())
    with pytest.raises(NotASubfield):
        embed(make_field(3, 2), make_field(3, 3))


def test_residue_symbol_and_element_of_order():
    E = extension(make_field(7), 4)
    for n in (2, 3, 6, 16, 25, 400):
        assert (E.q - 1) % n == 0
        eta = element_of_order(E, n)
        assert eta ** n == E.one()
        from toricdescent.zmat import factorize
        for prm in factorize(n):
            assert eta ** (n // prm) != E.one()
        rng = rng_for(f"dlog-{n}")
        for _ in range(10):
            a = rng.randrange(n)
            for g in (d for d in range(1, n + 1) if n % d == 0 and d <= 50):
                assert residue_symbol(eta ** a, eta, n, g) == a % g


def test_residue_symbol_matches_enumeration():
    for p, m in [(7, 1), (13, 1), (3, 2), (5, 2), (7, 2)]:
        K = make_field(p, m)
        n = K.q - 1
        zeta = element_of_order(K, n)
        log = {}
        cur = K.one()
        for a in range(n):
            log[cur.to_int()] = a
            cur = cur * zeta
        for g in (d for d in range(1, n + 1) if n % d == 0):
            for x in K.elements():
                if not x.is_zero():
                    assert residue_symbol(x, zeta, n, g) == log[x.to_int()] % g
        # a proper subgroup: members get their log mod g, the rest are refused
        sub = n // 2
        eta = element_of_order(K, sub)
        members = {(eta ** a).to_int(): a for a in range(sub)}
        for x in K.elements():
            if x.is_zero():
                continue
            if x.to_int() in members:
                assert residue_symbol(x, eta, sub, sub) == members[x.to_int()]
            else:
                with pytest.raises(NotInSubgroup):
                    residue_symbol(x, eta, sub, sub)
    with pytest.raises(OrderDoesNotDivide):
        residue_symbol(K.one(), zeta, n, n + 1)


def test_field_arithmetic_basics():
    K = make_field(3, 2)
    x = K.gen()
    assert (x * x).to_int() == K(-1).to_int()  # modulus x^2 + 1
    assert (x / x) == K.one()
    with pytest.raises(ZeroElement):
        K.zero().inverse()
    with pytest.raises(FieldError):
        K.one() + make_field(5).one()


# -- brute-force equivalence of the modulus search and the splitter --------------


def _brute_is_irreducible(f, p, divisors):
    """No monic divisor of degree at most deg(f)/2 (int lists, low first)."""
    for div in divisors:
        if 2 * (len(div) - 1) > len(f) - 1:
            break
        r = list(f)
        for i in range(len(r) - 1, len(div) - 2, -1):
            c = r[i]
            if c:
                for j, dv in enumerate(div):
                    r[i - len(div) + 1 + j] = (r[i - len(div) + 1 + j] - c * dv) % p
        if not any(r[:len(div) - 1]):
            return False
    return True


def _brute_first_irreducible(p, m):
    divisors = [[(n // p ** i) % p for i in range(d)] + [1]
                for d in range(1, m // 2 + 1) for n in range(p ** d)]
    n = 0
    while True:
        cand = [(n // p ** i) % p for i in range(m)] + [1]
        n += 1
        if cand[0] and _brute_is_irreducible(cand, p, divisors):
            return tuple(cand)


def test_smallest_irreducible_matches_brute_force():
    for p in (5, 7, 11, 13, 17):
        for m in (2, 3, 4, 6):
            assert _smallest_irreducible(p, m) == _brute_first_irreducible(p, m), (p, m)


def test_factor_of_frobenius_conjugates_matches_brute_force():
    """Products of Frobenius-conjugate irreducibles have coefficients in the
    prime field: the case a counter of shifts in GF(p) cannot split."""
    rng = rng_for("conjugate-factor")
    for p, m in [(3, 2), (5, 2), (3, 3), (7, 2), (11, 2)]:
        K = make_field(p, m)
        for _ in range(3):
            # the Frobenius orbit of a linear and of a quadratic irreducible
            while True:
                a = K.from_int(rng.randrange(K.q))
                if len({(a.frob(j)).to_int() for j in range(m)}) == m:
                    break
            while True:
                quad = Poly(K, [K.from_int(rng.randrange(K.q)),
                                K.from_int(rng.randrange(K.q)), 1])
                conj = [quad.map_coeffs(lambda c, j=j: c.frob(j), K) for j in range(m)]
                if (len({c.encoding() for c in conj}) == m
                        and not any(quad(x).is_zero() for x in K.elements())):
                    break
            F = Poly(K, [1])
            for j in range(m):
                F = F * Poly(K, [-a.frob(j), 1]) * conj[j]
            F = F * Poly(K, [-1, 1]) * Poly(K, [-1, 1])  # a rational double root
            facs = factor(F)
            prod = Poly(K, [1])
            for g, mult in facs:
                for _ in range(mult):
                    prod = prod * g
            assert prod == F
            linear = sorted((-g.coeffs[0]).to_int() for g, mult in facs
                            if g.degree == 1 for _ in range(mult))
            brute = sorted(x.to_int() for x in K.elements() if F(x).is_zero())
            assert sorted(set(linear)) == brute
            assert linear.count(1) == 2
            quadratics = [g for g, _ in facs if g.degree == 2]
            assert sorted(g.encoding() for g in quadratics) == \
                sorted(c.encoding() for c in conj)
            for g in quadratics:
                assert not any(g(x).is_zero() for x in K.elements())


# -- typed errors on reachable paths ---------------------------------------------


def test_embedding_refuses_elements_of_other_fields():
    e = embed(make_field(3, 2), make_field(3, 4))
    with pytest.raises(MixedFields):
        e(make_field(3).one())
    with pytest.raises(MixedFields):
        e.section(make_field(3, 2).one())


def test_conjugate_count_is_checked(monkeypatch):
    # a splitter that returned a root of the wrong field would repeat conjugates
    monkeypatch.setattr(finite_field, "_one_root", lambda f: f.field.one())
    with pytest.raises(ConjugatesNotDistinct):
        roots_in_extension(Poly(make_field(3), [1, 0, 1]), 2)


def test_element_of_order_refuses_non_divisors():
    with pytest.raises(OrderDoesNotDivide):
        element_of_order(make_field(7), 4)


def test_element_of_order_skips_the_prime_field():
    # no element of GF(p) has order p^2 - 1: the search starts past GF(p)
    # and finds the element the full counter would find
    for p in (7, 11):
        K = make_field(p, 2)
        eta = element_of_order(K, K.q - 1)
        assert eta == next(w for w in (K.from_int(c) for c in range(2, K.q))
                           if w.multiplicative_order() == K.q - 1)


def test_prime_keyed_caches_stay_bounded():
    import io

    from toricdescent import cli, finite_field

    caches = [finite_field._smallest_irreducible, finite_field._cached_field,
              finite_field._cached_embedding, finite_field.element_of_order]
    primes = [p for p in range(1000, 4000) if finite_field.is_prime(p)][:300]

    def report(p):
        out = io.StringIO()
        cli.run_line(["hyperelliptic", "--p", str(p), "--g", "x^3-x-1", "--h", "x+2",
                      "--no-engine-check", "--json"], stream=out)
        return out.getvalue()

    first = report(primes[0])
    for p in primes[1:]:
        report(p)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    # the fields of the first prime were evicted and come back unchanged
    assert finite_field._cached_field.cache_info().currsize == \
        finite_field.FIELD_CACHE_SIZE
    assert report(primes[0]) == first
