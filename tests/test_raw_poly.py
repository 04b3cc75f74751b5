"""Poly stores raw field values (ints when m = 1, coefficient tuples when
m > 1).  These tests hold it to a reference that keeps FieldElement
coefficients, with the multiply, divmod and pow_mod loops Poly used to run,
and pin the call counts that show the algorithms did not change."""

import io

import pytest

from conftest import rng_for
from toricdescent import cli, families, finite_field, oracle
from toricdescent.finite_field import FieldElement, MixedFields, Poly, extension, make_field

FIELDS = [(2, 4), (3, 3), (5, 2), (7, 1), (13, 6), (1000003, 1), (10007, 2)]


# ---------------------------------------------------------------------------
# reference: polynomials as lists of FieldElements, low coefficients first


def ref_trim(c):
    while c and c[-1].is_zero():
        c.pop()
    return c


def ref_add(a, b, sign=1):
    zero = (a or b)[0].field.zero() if (a or b) else None
    n = max(len(a), len(b))
    a = a + [zero] * (n - len(a))
    b = b + [zero] * (n - len(b))
    return ref_trim([x + y if sign > 0 else x - y for x, y in zip(a, b)])


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [a[0].field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b, i):
                out[j] = out[j] + x * y
    return ref_trim(out)


def ref_divmod(a, b):
    field = b[-1].field
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    inv = None if lead == field.one() else lead.inverse()
    low = b[:d]
    quot = [field.zero()] * max(0, len(r) - d)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i] if inv is None else r[i] * inv
        if not c.is_zero():
            quot[i - d] = c
            for j, y in enumerate(low, i - d):
                r[j] = r[j] - c * y
    return ref_trim(quot), ref_trim(r[:d])


def ref_monic(a):
    inv = a[-1].inverse()
    return [x * inv for x in a]


def ref_pow_mod(base, e, mod):
    mod = ref_monic(mod)
    result = [mod[-1].field.one()]
    base = ref_divmod(base, mod)[1]
    while e:
        if e & 1:
            result = ref_divmod(ref_mul(result, base), mod)[1]
        e >>= 1
        if e:
            base = ref_divmod(ref_mul(base, base), mod)[1]
    return result


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a) if a else a


def ref_encoding(a):
    n = 0
    for c in reversed(a):
        n = n * c.field.q + c.to_int()
    return n


def random_coeffs(K, rng, length):
    """length random elements, about a third of them zero, so that products
    and remainders meet zero terms and leading zeros get trimmed."""
    return [K.zero() if rng.random() < 0.3 else K.from_int(rng.randrange(K.q))
            for _ in range(length)]


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p, m", FIELDS)
def test_raw_poly_matches_the_field_element_reference(p, m):
    K = extension(make_field(p), m)
    rng = rng_for(f"raw-poly-{p}-{m}")
    for _ in range(40):
        a_list = random_coeffs(K, rng, rng.randrange(0, 9))
        b_list = random_coeffs(K, rng, rng.randrange(0, 7))
        a, b = Poly(K, a_list), Poly(K, b_list)
        a_ref, b_ref = ref_trim(list(a_list)), ref_trim(list(b_list))
        assert list(a.coeffs) == a_ref and list(b.coeffs) == b_ref
        assert list((a + b).coeffs) == ref_add(a_ref, b_ref)
        assert list((a - b).coeffs) == ref_add(a_ref, b_ref, sign=-1)
        assert list((-a).coeffs) == [-x for x in a_ref]
        assert list((a * b).coeffs) == ref_mul(a_ref, b_ref)
        assert list(a.derivative().coeffs) == ref_trim([c * i for i, c in enumerate(a_ref)][1:])
        assert a.encoding() == ref_encoding(a_ref)
        assert hash(a) == hash((p, m, tuple(c.to_int() for c in a_ref)))
        assert (a == b) == (a_ref == b_ref)
        assert a == Poly(K, a_ref) and hash(a) == hash(Poly(K, a_ref))
        assert list(a.gcd(b).coeffs) == ref_gcd(a_ref, b_ref)
        if b_ref:
            quot, rem = a.divmod(b)
            assert (list(quot.coeffs), list(rem.coeffs)) == ref_divmod(a_ref, b_ref)
            for e in (0, 1, 2, rng.randrange(K.q ** 2), K.q ** 3 + rng.randrange(K.q)):
                assert list(a.pow_mod(e, b).coeffs) == ref_pow_mod(a_ref, e, b_ref)
        x = K.from_int(rng.randrange(K.q))
        horner = K.zero()
        for c in reversed(a_ref):
            horner = horner * x + c
        assert a(x) == horner


@pytest.mark.parametrize("p, m", FIELDS)
def test_poly_hands_out_field_elements_of_its_field(p, m):
    K = extension(make_field(p), m)
    rng = rng_for(f"raw-poly-elements-{p}-{m}")
    f = Poly(K, [K.from_int(rng.randrange(K.q)) for _ in range(4)] + [K.one()])
    x = K.from_int(rng.randrange(K.q))
    handed = list(f.coeffs) + [f.lead(), f[0], f[3], f[f.degree + 5], f(x), f.scale(x)[0]]
    for c in handed:
        assert isinstance(c, FieldElement) and c.field is K
    assert f[f.degree + 5] == K.zero()
    assert f.lead() == K.one()


@pytest.mark.parametrize("p, m", [(7, 1), (5, 2)])
def test_field_element_power_matches_repeated_multiplication(p, m):
    K = make_field(p, m)
    rng = rng_for(f"element-power-{p}-{m}")
    for _ in range(20):
        a = K.from_int(rng.randrange(K.q))
        acc = K.one()
        for e in range(2 * K.q + 3):
            assert a ** e == acc
            acc = acc * a
        if not a.is_zero():
            assert a ** -3 == (a * a * a).inverse()


def test_coefficients_from_another_field_raise_mixed_fields():
    k5, k7, k25 = make_field(5), make_field(7), make_field(5, 2)
    with pytest.raises(MixedFields):
        Poly(k5, [1, k7.one()])
    with pytest.raises(MixedFields):
        Poly(k25, [k5.one()])
    f5, f7 = Poly(k5, [1, 1]), Poly(k7, [1, 1])
    for op in (lambda: f5 + f7, lambda: f5 - f7, lambda: f5 * f7, lambda: f5.divmod(f7),
               lambda: f5.gcd(f7), lambda: f5.pow_mod(3, f7), lambda: f5(k7.one()),
               lambda: f5.scale(k7.one())):
        with pytest.raises(MixedFields):
            op()


# Call counts on cold caches, taken on the FieldElement-coefficient Poly
# this replaced: (Poly.pow_mod calls, field inversions).  That Poly divided
# by a non-monic divisor through FieldElement.inverse; the raw one inverts
# the leading coefficient inside the division, so its inversions are
# FieldElement.inverse calls plus divisions by a non-monic divisor.  The
# genus-4 row is taken with i = +-element_of_order(k(i), 4), no root search,
# and with the engine's local functions written out, not reduced by gcd.
# The hyperelliptic row fell from 21 and 11 to 17 and 7 when the squarefree
# decomposition stopped at gcd(g, g') = 1, which skips its monic quotients.
# The genus-4 row fell from 85 to 82 when the engine's classes went entry by
# entry: each orbit entry takes one inverse once per request, and the entries
# the verdicts and the torsion share are not evaluated again.  It fell from
# 82 to 77 when the direct table came to evaluate the engine's section
# divisors, whose entries the fiber already holds monic, in place of five
# monic restrictions of its own.
PINNED = [
    (["genus4", "--p", "1000003", "--eps", "X^3+Y^3+W*Z^2"], 0, 77, 77),
    (["hyperelliptic", "--p", "1000121", "--g", "x^3-x-1", "--h", "x+2",
      "--no-engine-check"], 1, 17, 7),
]


@pytest.mark.parametrize("argv, pow_mods, inversions, inverse_calls", PINNED)
def test_pow_mod_and_inversion_counts_are_pinned(monkeypatch, argv, pow_mods,
                                                 inversions, inverse_calls):
    for module in (finite_field, families, oracle):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    counts = {"pow_mod": 0, "inverse": 0, "non_monic": 0}
    pow_mod, inverse, divmod_raw = (finite_field.Poly.pow_mod, FieldElement.inverse,
                                    finite_field._divmod)

    def counted_pow_mod(self, e, modulus):
        counts["pow_mod"] += 1
        return pow_mod(self, e, modulus)

    def counted_inverse(self):
        counts["inverse"] += 1
        return inverse(self)

    def counted_divmod(f, a, b):
        raw_one = 1 if f.m == 1 else f.one().coeffs
        counts["non_monic"] += b[-1] != raw_one
        return divmod_raw(f, a, b)

    monkeypatch.setattr(finite_field.Poly, "pow_mod", counted_pow_mod)
    monkeypatch.setattr(FieldElement, "inverse", counted_inverse)
    monkeypatch.setattr(finite_field, "_divmod", counted_divmod)
    assert cli.run_line(argv, stream=io.StringIO()) == cli.EXIT_OK
    assert counts["pow_mod"] == pow_mods
    assert counts["inverse"] == inverse_calls
    assert counts["inverse"] + counts["non_monic"] == inversions
