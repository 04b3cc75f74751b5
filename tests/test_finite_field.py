import importlib.util
from pathlib import Path

import pytest

from conftest import multiplicative_order, rng_for
from toricdescent import finite_field
from toricdescent.finite_field import (
    ConjugatesNotDistinct, FieldElement, FieldError, FiniteField, MixedFields,
    NotASubfield, NotInSubgroup, NotPrime, OrderDoesNotDivide, Poly, SizeLimitExceeded,
    ZeroElement, ZeroPolynomial, _smallest_irreducible,
    element_of_order, embed, extension, factor, make_field, poly_from_int,
    power_residue, residue_symbol, roots_in_extension)
from toricdescent.zmat import factorize, gcd


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
    assert extension(make_field(2), 25).q == 2 ** 25


def test_norm_of_generator_generates_subfield():
    # the norm from a quadratic extension of GF(q) is the power x^(q+1),
    # taken where x lives (the genus-4 closed forms take it so in k(i))
    K9 = make_field(3, 2)
    g = K9.from_coeffs([1, 1])  # multiplicative generator of GF(9)
    assert multiplicative_order(g) == 8
    assert g ** 4 == K9(-1)
    assert multiplicative_order(g ** 4) == 2  # generates GF(3)^x
    assert K9.one() ** 4 == K9.one()


def test_norm_multiplicative_and_lands_in_subfield():
    # GF(3^4) over GF(9): the norm is x^(1 + 9)
    rng = rng_for("norm-mult")
    K = make_field(3, 4)
    for _ in range(60):
        a = K.from_int(rng.randrange(K.q))
        b = K.from_int(rng.randrange(K.q))
        na, nb, nab = a ** 10, b ** 10, (a * b) ** 10
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
    f = Poly(K7, [0, -1, 0, 1])
    assert f.gcd(Poly(K7, [-1, 0, 3])).degree == 0
    assert f.gcd(Poly(K7, [0, 1])).degree == 1
    assert f.gcd(Poly(K7, [1])).degree == 0


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
        assert e(a).frob(2) == e(a)  # the image is fixed by x -> x^9
    with pytest.raises(NotASubfield):
        embed(make_field(3, 2), make_field(3, 3))


def test_residue_symbol_and_element_of_order():
    E = extension(make_field(7), 4)
    for n in (2, 3, 6, 16, 25, 400):
        assert (E.q - 1) % n == 0
        eta = element_of_order(E, n)
        assert eta ** n == E.one()
        for prm in factorize(n):
            assert eta ** (n // prm) != E.one()
        rng = rng_for(f"dlog-{n}")
        for g in (d for d in range(1, n + 1) if n % d == 0 and d <= 50):
            # the symbol of a generator of mu_n is a unit mod g, and every
            # other member's symbol is its log against eta times that unit
            unit = residue_symbol(eta, n, g)
            assert gcd(unit, g) == 1
            zeta = element_of_order(E, g)
            for _ in range(10):
                a = rng.randrange(n)
                x = eta ** a
                assert residue_symbol(x, n, g) == a * unit % g
                assert zeta ** residue_symbol(x, n, g) == x ** (n // g)


def test_residue_symbol_matches_enumeration():
    """Brute force over small fields: the symbol is a homomorphism from mu_n
    onto Z/g whose kernel is the g-th powers; outside mu_n it refuses."""
    for p, m in [(7, 1), (13, 1), (3, 2), (5, 2), (7, 2)]:
        K = make_field(p, m)
        n = K.q - 1
        units = [x for x in K.elements() if not x.is_zero()]
        for g in (d for d in range(1, n + 1) if n % d == 0):
            chi = {x.to_int(): residue_symbol(x, n, g) for x in units}
            for x in units:
                for y in units:
                    assert chi[(x * y).to_int()] == (chi[x.to_int()] + chi[y.to_int()]) % g
            assert set(chi.values()) == set(range(g))
            kernel = {key for key, value in chi.items() if value == 0}
            assert kernel == {(y ** g).to_int() for y in units}
        # a proper subgroup: members get their log against the fixed root
        # of order sub, the rest are refused
        sub = n // 2
        eta = element_of_order(K, sub)
        members = {(y ** 2).to_int() for y in units}
        for x in units:
            if x.to_int() in members:
                assert eta ** residue_symbol(x, sub, sub) == x
            else:
                with pytest.raises(NotInSubgroup):
                    residue_symbol(x, sub, sub)
    with pytest.raises(OrderDoesNotDivide):
        residue_symbol(K.one(), n, n + 1)


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


def test_conjugate_count_is_checked(monkeypatch):
    # a splitter that returned a root of the wrong field would repeat conjugates
    monkeypatch.setattr(finite_field, "_one_root", lambda f: f.field.one())
    with pytest.raises(ConjugatesNotDistinct):
        roots_in_extension(Poly(make_field(3), [1, 0, 1]), 2)


def search_element_of_order(field, n):
    """The search element_of_order makes for orders other than 1 and 2: the
    first w^((q-1)/n) of exact order n, w running through the encodings
    from 2, or from p when no power of GF(p)^x has order n."""
    primes = list(factorize(n))
    cof = (field.q - 1) // n
    p = field.p
    counter = 2 if ((p - 1) // gcd(p - 1, cof)) % n == 0 else p
    while True:
        w = field.from_int(counter)
        counter += 1
        if w.is_zero():
            continue
        eta = w ** cof
        if eta != field.one() and all(eta ** (n // prm) != field.one() for prm in primes):
            return eta


def test_element_of_order_two_is_minus_one_without_a_search(monkeypatch):
    from toricdescent.finite_field import residue_field
    # a degree-64 residue field: g is the first irreducible monic g of
    # degree 64 over GF(23) that random.Random(5) draws, 64 coefficients
    # randrange(23) low first (the 63rd draw)
    k = make_field(23)
    g = Poly(k, [12, 17, 14, 22, 16, 10, 19, 6, 5, 16, 1, 7, 22, 6, 17, 9, 16, 2,
                 1, 9, 5, 17, 19, 7, 18, 3, 12, 1, 9, 3, 6, 0, 12, 2, 13, 17, 10,
                 17, 16, 3, 1, 21, 13, 17, 20, 1, 16, 9, 16, 17, 22, 5, 21, 16, 22,
                 5, 7, 19, 8, 6, 14, 20, 19, 11, 1])
    assert factor(g) == [(g, 1)]
    K64, _node = residue_field(g)
    fields = [make_field(p) for p in (3, 5, 7, 11, 1048573)]
    fields += [make_field(3, 2), make_field(5, 3), make_field(7, 4), K64]
    # no power is raised: the answer is -1 at once
    powers = []
    power = FieldElement.__pow__
    monkeypatch.setattr(FieldElement, "__pow__",
                        lambda x, e: powers.append(e) or power(x, e))
    answers = []
    for K in fields:
        K._of_order.pop(2, None)
        answers.append(element_of_order(K, 2))
    assert powers == []
    monkeypatch.undo()
    for K, minus_one in zip(fields, answers):
        assert minus_one == -K.one() == search_element_of_order(K, 2)
        assert minus_one ** 2 == K.one() != minus_one
    # the shortcut sits behind the divisibility check: GF(2^m) has no
    # element of order 2
    with pytest.raises(OrderDoesNotDivide):
        element_of_order(make_field(2, 3), 2)


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
                           if multiplicative_order(w) == K.q - 1)


def test_prime_keyed_caches_stay_bounded():
    import io

    from toricdescent import cli, finite_field

    cache = finite_field._cached_field
    primes = [p for p in range(1000, 4000) if finite_field.is_prime(p)][:300]

    def report(p):
        out = io.StringIO()
        cli.run_line(["hyperelliptic", "--p", str(p), "--g", "x^3-x-1", "--h", "x+2",
                      "--no-engine-check", "--json"], stream=out)
        return out.getvalue()

    first = report(primes[0])
    for p in primes[1:]:
        report(p)
    # the embeddings live on the cached fields, so this one bound holds them
    # too; the fields of the first prime were evicted and come back unchanged
    info = cache.cache_info()
    assert info.currsize == info.maxsize == finite_field.FIELD_CACHE_SIZE
    assert report(primes[0]) == first


# -- element arithmetic against polynomial arithmetic over GF(p) -------------


@pytest.mark.parametrize("p, m", [(2, 4), (3, 3), (5, 2), (7, 1), (13, 6)])
def test_element_arithmetic_matches_polynomials_over_the_prime_field(p, m):
    K = extension(make_field(p), m)
    k = make_field(p)
    modulus = Poly(k, list(K.modulus))

    def as_poly(x):
        return Poly(k, list(x.coeffs))

    rng = rng_for(f"element-arithmetic-{p}-{m}")
    for _ in range(30):
        a, b = K.from_int(rng.randrange(K.q)), K.from_int(rng.randrange(K.q))
        assert as_poly(a * b) == (as_poly(a) * as_poly(b)) % modulus
        assert as_poly(a + b) == as_poly(a) + as_poly(b)
        for j in range(m + 1):
            assert a.frob(j) == a ** (p ** j)
        if not a.is_zero():
            assert a * a.inverse() == K.one()
            assert a.inverse().inverse() == a


@pytest.mark.parametrize("p, m", [(2, 4), (3, 3), (5, 2), (7, 1), (13, 6)])
def test_embedding_section_round_trips_and_refuses_off_the_image(p, m):
    """No section maps values back into a subfield; its image is recognized
    in place instead, as the fixed field of x -> x^|sub|.  The embedding is
    injective on it, and the generator of big lies outside it."""
    K = extension(make_field(p), m)
    pairs = [(make_field(p, s), K) for s in range(1, m) if m % s == 0]
    if m <= 3:
        pairs.append((K, extension(K, 2)))
    rng = rng_for(f"embedding-section-{p}-{m}")
    for sub, big in pairs:
        emb = embed(sub, big)
        images = {}
        for _ in range(10):
            x = sub.from_int(rng.randrange(sub.q))
            y = emb(x)
            assert y.frob(sub.m) == y
            assert images.setdefault(y.to_int(), x) == x
        # the generator of big generates it over GF(p): in no proper subfield
        assert big.gen().frob(sub.m) != big.gen()


# -- log/antilog tables ------------------------------------------------------

#: every field that builds tables: m > 1 and q <= TABLE_LIMIT
TABLE_FIELDS = [(p, m) for p in range(2, finite_field.TABLE_LIMIT)
                if finite_field.is_prime(p)
                for m in range(2, finite_field.TABLE_LIMIT.bit_length())
                if p ** m <= finite_field.TABLE_LIMIT]


def _tabled_and_plain(p, m):
    """GF(p^m) twice: one that has built its tables, and one that never
    will, so that it runs every operation on coefficient tuples."""
    tabled, plain = FiniteField(p, m), FiniteField(p, m)
    plain._muls_to_tables = 0
    one, x = tabled.one().coeffs, tabled.gen().coeffs
    while tabled._log is None:
        finite_field._mul(tabled, one, x)
    return tabled, plain


@pytest.mark.parametrize("p, m", TABLE_FIELDS)
def test_tables_agree_with_the_tuple_path(p, m):
    """Every pair and every element when q <= 343, a sample above."""
    tabled, plain = _tabled_and_plain(p, m)
    q = tabled.q
    zero = tabled.zero().coeffs
    if q <= 343:
        values = [tabled.from_int(n).coeffs for n in range(q)]
        pairs = [(a, b) for a in values for b in values]
    else:
        rng = rng_for(f"tables-{p}-{m}")
        pairs = [(tabled.from_int(rng.randrange(q)).coeffs,
                  tabled.from_int(rng.randrange(q)).coeffs) for _ in range(3000)]
        pairs += [(zero, a) for a, _ in pairs[:3]] + [(a, zero) for a, _ in pairs[:3]]
        values = [a for a, _ in pairs[:100]] + [zero]
    mul = finite_field._mul
    assert [mul(tabled, a, b) for a, b in pairs] == [mul(plain, a, b) for a, b in pairs]
    for v in values:
        x, y = FieldElement(tabled, v), FieldElement(plain, v)
        for e in (0, 1, 2, q - 2, q - 1, q, 5 * q + 3):
            assert (x ** e).coeffs == (y ** e).coeffs
        for k in (-1, 0, 1, m - 1, m, m + 1):
            assert x.frob(k).coeffs == y.frob(k).coeffs
        if any(v):
            assert finite_field._inv(tabled, v) == finite_field._inv(plain, v)
            assert (x ** -3).coeffs == (y ** -3).coeffs
        else:
            with pytest.raises(ZeroElement):
                x ** -1
    assert plain._log is None


def test_tables_are_built_on_the_q_th_product_and_only_up_to_table_limit():
    K = FiniteField(7, 3)
    one, x = K.one().coeffs, K.gen().coeffs
    for _ in range(K.q - 1):
        finite_field._mul(K, one, x)
    assert K._log is None and K._exp is None
    finite_field._mul(K, one, x)
    assert len(K._exp) == 2 * (K.q - 1) and len(K._log) == K.q
    assert K._log[K.zero().coeffs] == -1
    assert K._exp[0] == one and K._exp[1] == element_of_order(K, K.q - 1).coeffs
    # above the limit, and over a prime field, no number of products builds them
    for p, m in [(47, 2), (2, 12), (2003, 1)]:
        big = FiniteField(p, m)
        a, c = big.gen() + 1, big.gen() + 2
        for _ in range(3 * big.q):
            a = a * c
        assert big._log is None and big._exp is None


def test_all_tables_together_stay_small():
    """The fields that may build tables, and what building all of them
    costs.  Raising TABLE_LIMIT changes the first two figures."""
    import tracemalloc

    assert len(TABLE_FIELDS) == 31
    assert sum(p ** m for p, m in TABLE_FIELDS) == 15849
    fields = [FiniteField(p, m) for p, m in TABLE_FIELDS]
    for K in fields:
        element_of_order(K, K.q - 1)
        K._muls_to_tables = 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for K in fields:
            finite_field._build_tables(K)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 3 * 2 ** 20


# -- residue fields of node orbits -------------------------------------------


def _random_irreducible(k, s, rng):
    while True:
        g = Poly(k, [k.from_int(rng.randrange(k.q)) for _ in range(s)] + [1])
        if factor(g) == [(g, 1)]:
            return g


@pytest.mark.parametrize("q", ["seeded prime", 7, 9, 27, 49])
def test_residue_field_node_is_a_root_with_distinct_conjugates(q):
    from toricdescent.finite_field import is_prime, residue_field
    from toricdescent.torus import prime_power
    rng = rng_for(f"residue-field-{q}")
    if q == "seeded prime":
        q = rng.choice([n for n in range(5, 2000) if is_prime(n)])
    k = make_field(*prime_power(q))
    for s in (2, 3, 4, 5):
        g = _random_irreducible(k, s, rng)
        K, node = residue_field(g)
        assert (K.p, K.m, K.given_modulus) == (k.p, k.m * s, True)
        assert residue_field(g) == (K, node)  # deterministic
        g_K = g.map_coeffs(embed(k, K), K)
        conjugates = [node]
        for _ in range(s - 1):
            conjugates.append(conjugates[-1].frob(k.m))
        assert conjugates[-1].frob(k.m) == node
        assert len(set(conjugates)) == s
        assert all(g_K(c).is_zero() for c in conjugates)
        if k.m == 1:
            # the modulus is g and the node is the class of x
            assert K.modulus == tuple(c.to_int() for c in g.coeffs)
            assert node == K.gen()
        else:
            # k embeds as a subfield: its generator is a root of its modulus
            t = embed(k, K)(k.gen())
            assert Poly(K, list(k.modulus))(t).is_zero() and t.frob(k.m) == t


def test_conjugate_orbits_over_gf9_get_fields_of_their_own():
    # x^4 - x - 1 is irreducible over GF(3) and splits over GF(9) into two
    # conjugate quadratics with the same norm: the fields share a modulus but
    # embed GF(9) differently, so they are different fields
    from toricdescent.finite_field import residue_field
    f3 = Poly(make_field(3), [-1, -1, 0, 0, 1])
    assert factor(f3) == [(f3, 1)]
    k = make_field(3, 2)
    g1, g2 = [g for g, _ in factor(Poly(k, [-1, -1, 0, 0, 1]))]
    (K1, n1), (K2, n2) = residue_field(g1), residue_field(g2)
    assert K1.modulus == K2.modulus == tuple(c.to_int() for c in f3.coeffs)
    assert K1 != K2 and hash(K1) != hash(K2)
    for g, K, node in ((g1, K1, n1), (g2, K2, n2)):
        assert g.map_coeffs(embed(k, K), K)(node).is_zero()
    assert not g2.map_coeffs(embed(k, K1), K1)(n1).is_zero()


def test_fields_with_different_moduli_are_different_fields():
    # GF(7^2) over x^2 + 1 (the deterministic modulus) and over x^2 + x + 3
    default = extension(make_field(7), 2)
    assert default.modulus == (1, 0, 1)
    other = FiniteField(7, modulus=(3, 1, 1))
    assert (other.p, other.m, other.q) == (default.p, default.m, default.q)
    assert other != default and hash(other) != hash(default)
    assert FiniteField(7, modulus=(1, 0, 1)) == default
    assert hash(FiniteField(7, modulus=(1, 0, 1))) == hash(default)
    for n in (3, 4, 8, 48):
        a, b = element_of_order(default, n), element_of_order(other, n)
        assert a.field == default != b.field == other
        assert multiplicative_order(a) == multiplicative_order(b) == n
    with pytest.raises(MixedFields):
        default.gen() * other.gen()
    assert "mod [3, 1, 1]" in repr(other) and repr(default) == "GF(7^2)"


def test_residue_field_embeds_into_a_plain_field_by_its_own_embedding():
    # GF(5)[x]/(x^2 + 3) is a GF(25) whose modulus is not the deterministic
    # x^2 + 2; GF(5^4) keeps an embedding of it apart from the plain GF(25)'s
    from toricdescent.finite_field import residue_field
    k = make_field(5)
    g = Poly(k, [3, 0, 1])
    K, node = residue_field(g)
    assert K.modulus != make_field(5, 2).modulus
    big = make_field(5, 4)
    emb = embed(K, big)
    assert emb is embed(K, big) and emb is not embed(make_field(5, 2), big)
    assert g.map_coeffs(embed(k, big), big)(emb(node)).is_zero()
    assert emb(K.one()) == big.one()
    rng = rng_for("residue-field-into-plain")
    for _ in range(20):
        a, b = K.from_int(rng.randrange(K.q)), K.from_int(rng.randrange(K.q))
        assert emb(a + b) == emb(a) + emb(b)
        assert emb(a * b) == emb(a) * emb(b)
        assert (emb(a) == emb(b)) == (a == b)


@pytest.mark.parametrize("p, m", [(3, 2), (7, 2), (1048573, 2), (5, 3), (7, 3), (1000003, 3),
                                  (2, 4), (3, 4), (23, 4), (1048573, 4)])
def test_closed_form_products_match_the_schoolbook_loops(p, m):
    rng = rng_for(f"closed-form-{p}-{m}")
    K = FiniteField(p, m)
    K._muls_to_tables = 0  # stay on the tuple path
    for _ in range(300):
        a = tuple(rng.randrange(p) for _ in range(m))
        b = tuple(rng.randrange(p) for _ in range(m))
        acc = [0] * (2 * m - 1)
        finite_field._conv(acc, a, b)
        assert finite_field._mul(K, a, b) == finite_field._fold(K, acc)


def test_residue_fields_build_no_tables():
    from toricdescent.finite_field import residue_field
    k = make_field(7)
    K, node = residue_field(Poly(k, [2, 0, 0, 1]))  # x^3 + 2, GF(343)
    x = node
    for _ in range(3 * K.q):
        x = x * node
    assert K._log is None and x == node ** (3 * K.q + 1)


def _pow_mod_by_mulmod(k, base, e, mod, mulmod=finite_field._mulmod):
    """Reference for the ring power: square and multiply with _mulmod, a
    product and a division per step."""
    result = [1]
    base = finite_field._divmod(k, base, mod)[1]
    while e:
        if e & 1:
            result = mulmod(k, result, base, mod)
        e >>= 1
        base = mulmod(k, base, base, mod)
    return result


def _moduli(k, rng):
    """Monic moduli of degree 2, 3 and 4 over a prime field k: random ones,
    and reducible and non-squarefree products of random linear and
    quadratic factors."""
    x = Poly(k, [0, 1])

    def linear():
        return x - Poly(k, [rng.randrange(k.p)])

    def monic(d):
        return Poly(k, [rng.randrange(k.p) for _ in range(d)] + [1])

    a, b = linear(), linear()
    out = [monic(d) for d in (2, 3, 4) for _ in range(3)]
    out += [a * a, a * a * a, a * a * b, a * a * b * b, a * monic(2), monic(2) * monic(2),
            x * x, x * x * x * x]
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 23, 1048573])
def test_ring_power_matches_square_and_multiply(monkeypatch, p):
    k = make_field(p)
    rng = rng_for(f"ring-power-{p}")
    mulmods = []
    mulmod = finite_field._mulmod

    def counted_mulmod(f, a, b, mod):
        mulmods.append(len(mod) - 1)
        return mulmod(f, a, b, mod)

    monkeypatch.setattr(finite_field, "_mulmod", counted_mulmod)
    for mod in _moduli(k, rng):
        d = mod.degree
        bases = [[], [1], [0, 1], [rng.randrange(p) for _ in range(2 * d + 2)],
                 [rng.randrange(p) for _ in range(d)]]
        exponents = [0, 1, 2, p, (p ** d - 1) // 2, p ** d, rng.getrandbits(64),
                     rng.getrandbits(200)]
        for base in bases:
            for e in exponents:
                assert (finite_field._pow_mod(k, base, e, list(mod._c))
                        == _pow_mod_by_mulmod(k, base, e, list(mod._c))), (mod, base, e)
    # degrees 2 to 4 run in the ring, with no product and division
    assert mulmods == []
    # a modulus of degree 5 keeps _mulmod
    finite_field._pow_mod(k, [0, 1], p, [1, 1, 0, 0, 0, 1])
    assert mulmods and set(mulmods) == {5}


def test_no_shift_is_tried_twice_within_one_factorization(monkeypatch):
    """Both factors of a split continue the splitter's one shift sequence:
    a shift tried on f cannot split either factor, so it is not tried on
    them again.  Squarefree inputs, so that each degree d has one part."""
    tried = []
    split = finite_field._split

    def recording_split(f, d, h):
        tried.append((d, h))
        return split(f, d, h)

    monkeypatch.setattr(finite_field, "_split", recording_split)
    rng = rng_for("one-shift-sequence")
    cases = []
    for q in (2, 3, 5, 7, 9, 23):
        k = make_field(*((3, 2) if q == 9 else (q, 1)))
        # x^(q^n) - x: every monic irreducible of degree dividing n, once
        n = 4 if q == 2 else 2 if q <= 9 else 1
        cases.append(Poly(k, [0, -1] + [0] * (q ** n - 2) + [1]))
    k = make_field(1048573)
    x = Poly(k, [0, 1])
    roots = rng.sample(range(1048573), 8)
    f = Poly(k, [1])
    for r in roots:
        f = f * (x - Poly(k, [r]))
    cases.append(f)
    parts_split_twice = 0
    for f in cases:
        tried.clear()
        factors = factor(f)
        assert all(mult == 1 for _g, mult in factors)
        assert sum(g.degree for g, _m in factors) == f.degree
        assert len(tried) == len(set(tried)), f
        counts = {}
        for g, _m in factors:
            counts[g.degree] = counts.get(g.degree, 0) + 1
        parts_split_twice += any(c >= 3 for c in counts.values())
    # parts with three or more factors split a factor again
    assert parts_split_twice == len(cases)


def _bench_checker():
    """The benchmark's own arithmetic, which never imports the program."""
    path = Path(__file__).resolve().parents[1] / "bench" / "checker.py"
    spec = importlib.util.spec_from_file_location("bench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("p", [3, 5, 23, 1048573])
def test_factor_degrees_match_the_benchmark_checker(p):
    checker = _bench_checker()
    k = make_field(p)
    rng = rng_for(f"factor-vs-checker-{p}")
    for _ in range(60):
        # random polynomials of degree 1 to 8, and products with repeated
        # factors, which exercise the squarefree decomposition
        if rng.random() < 0.7:
            d = rng.randrange(1, 9)
            c = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        else:
            a = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [1]
            b = [rng.randrange(p) for _ in range(rng.randrange(1, 3))] + [rng.randrange(1, p)]
            f = Poly(k, a) * Poly(k, a) * Poly(k, b)
            c = [v.to_int() for v in f.coeffs]
        degrees = sorted(g.degree for g, mult in factor(Poly(k, c)) for _ in range(mult))
        assert degrees == checker.factor_degrees(c, p), c
