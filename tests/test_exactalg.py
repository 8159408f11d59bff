import random
from fractions import Fraction

import pytest

from permbinom.exactalg import (
    BiPolyRZ,
    Factorization,
    IntPoly,
    RatPoly,
    is_probable_prime,
    mp_divmod,
    mp_gcd,
    mp_irreducible,
    mp_mul,
    mp_resultant,
    primality_and_factor_check,
    rational_gcd,
    resultant_bivar_z,
    resultant_bivar_z_sylvester,
    resultant_univar,
    resultant_univar_euclid,
    to_modp,
)


def rand_intpoly(rng, max_deg=6, max_c=20, nonzero=True):
    while True:
        p = IntPoly([rng.randint(-max_c, max_c) for _ in range(rng.randint(1, max_deg + 1))])
        if not nonzero or not p.is_zero():
            return p


# ----------------------------------------------------------- polynomial core

def test_trim_and_zero():
    assert IntPoly([0, 0]).is_zero()
    assert IntPoly([1, 2, 0]).coeffs == (1, 2)
    assert IntPoly.zero().degree == -1


def test_arith_and_eval():
    f = IntPoly([1, 2, 3])  # 1 + 2x + 3x^2
    g = IntPoly([-1, 1])
    assert (f + g).coeffs == (0, 3, 3)
    assert (f * g).coeffs == (-1, -1, -1, 3)
    assert f.eval(2) == 17
    assert f.eval(Fraction(1, 2)) == Fraction(11, 4)


def test_content_primitive():
    assert IntPoly([4, 0, 2]).content() == 2  # content of 2z^2 + 4
    assert IntPoly.zero().content() == 0


def test_ratpoly_divmod_and_monic():
    f = RatPoly([1, 0, 1])
    g = RatPoly([1, 1])
    q, r = f.divmod(g)
    assert q * g + r == f
    assert RatPoly([2, 4]).monic().coeffs == (Fraction(1, 2), Fraction(1))


def _no_float(poly):
    flat = [c for cs in poly.coeffs for c in cs.coeffs] if isinstance(poly, BiPolyRZ) else poly.coeffs
    return not any(isinstance(c, float) for c in flat)


def test_shared_long_division_seeded():
    # one long division serves Z, Q and Q[r]: exact quotients, never a float
    rng = random.Random(31)

    def ints(deg):
        return [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]

    def rats(deg):
        return RatPoly([Fraction(c, rng.randint(1, 5)) for c in ints(deg)])

    def bipoly(deg):
        return BiPolyRZ([rats(rng.randint(0, 2)) for _ in range(deg)] + [rats(1)])

    for make in (lambda deg: IntPoly(ints(deg)), rats, bipoly):
        for _ in range(30):
            a, b = make(rng.randint(0, 4)), make(rng.randint(1, 3))
            q = (a * b).divexact(b)
            assert q == a and type(q) is type(a) and _no_float(q)
            with pytest.raises(ValueError):  # b divides a*b, so b^2 cannot divide a*b + 1
                (a * b + 1).divexact(b * b)
    for _ in range(30):
        a, b = rats(rng.randint(0, 6)), rats(rng.randint(0, 3))
        q, r = a.divmod(b)
        assert a == q * b + r and r.degree < b.degree and _no_float(q)
    with pytest.raises(ValueError):
        IntPoly([1, 2]).divexact(IntPoly([2, 2]))  # quotient 1/2 is not an integer


def test_ratpoly_clear_denominators():
    f = RatPoly([Fraction(1, 2), Fraction(3, 4)])
    scale, prim = f.clear_denominators()
    assert prim.coeffs == (2, 3)
    assert prim.to_rat() * RatPoly.const(scale) == f


def test_reduce_mod_denominator_error():
    with pytest.raises(ValueError):
        RatPoly([Fraction(1, 3)]).reduce_mod(3)


def test_bipoly_roundtrip():
    A = BiPolyRZ([RatPoly([1, 2]), RatPoly([0, 0, 1])])
    B = BiPolyRZ([RatPoly([5])])
    assert (A * B).coeffs[0] == RatPoly([5, 10])
    assert A.eval_r(2) == RatPoly([5, 4])
    assert A.degree == 1 and A.r_degree == 2


def test_bipoly_divexact():
    one_plus_z = BiPolyRZ([RatPoly.const(1), RatPoly.const(1)])
    A = one_plus_z * BiPolyRZ([RatPoly([1, 1]), RatPoly([3])])
    assert A.divexact(one_plus_z) == BiPolyRZ([RatPoly([1, 1]), RatPoly([3])])
    with pytest.raises(ValueError):
        BiPolyRZ([RatPoly([1])]).divexact(one_plus_z)


# --------------------------------------------------------------- resultants

def test_resultant_trivial():
    # evaluate one polynomial at the root of the other
    assert resultant_univar(IntPoly([-1, 1]), IntPoly([1, 1])) == 2


def test_resultant_zero_error():
    with pytest.raises(ValueError):
        resultant_univar(IntPoly.zero(), IntPoly([1, 1]))


def test_resultant_cross_methods_and_antisymmetry():
    rng = random.Random(2024)
    for _ in range(200):
        f = rand_intpoly(rng)
        g = rand_intpoly(rng)
        if f.degree < 1 or g.degree < 1:
            continue
        r = resultant_univar(f, g)
        assert Fraction(r) == resultant_univar_euclid(f, g)
        assert r == (-1) ** (f.degree * g.degree) * resultant_univar(g, f)


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(7)
    for _ in range(200):
        f = rand_intpoly(rng, max_deg=5)
        g = rand_intpoly(rng, max_deg=5)
        if f.degree < 1 or g.degree < 1:
            continue
        common = rational_gcd(f.to_rat(), g.to_rat())
        assert (resultant_univar(f, g) == 0) == (common.degree > 0)
        # force a common factor and confirm the resultant dies
        h = rand_intpoly(rng, max_deg=2)
        if h.degree >= 1:
            assert resultant_univar(f * h, g * h) == 0


def test_resultant_rational_scaling():
    f = RatPoly([Fraction(-1, 2), Fraction(1, 2)])  # (z-1)/2
    g = RatPoly([1, 1])
    assert resultant_univar(f, g) == Fraction(1)  # (1/2)^1 * 2


def test_bivar_resultant_small_and_direct_agree():
    # F = z - r, G = z + r: Res_z = 2r
    F = BiPolyRZ([RatPoly([0, -1]), RatPoly([1])])
    G = BiPolyRZ([RatPoly([0, 1]), RatPoly([1])])
    assert resultant_bivar_z(F, G) == RatPoly([0, 2])
    rng = random.Random(5)
    for _ in range(25):
        F = BiPolyRZ([RatPoly([rng.randint(-4, 4) for _ in range(3)]) for _ in range(rng.randint(2, 4))])
        G = BiPolyRZ([RatPoly([rng.randint(-4, 4) for _ in range(3)]) for _ in range(rng.randint(2, 4))])
        if F.degree < 1 or G.degree < 1:
            continue
        assert resultant_bivar_z(F, G) == resultant_bivar_z_sylvester(F, G)


def test_bivar_resultant_degenerate():
    const = BiPolyRZ([RatPoly([1, 1])])
    with pytest.raises(ValueError):
        resultant_bivar_z(const, const)


# ------------------------------------------------------------------- mod p

def test_modp_gcd_properties():
    rng = random.Random(11)
    for p in (3, 5, 181):
        for _ in range(100):
            f = to_modp(rand_intpoly(rng, max_deg=6), p)
            g = to_modp(rand_intpoly(rng, max_deg=6), p)
            if not f or not g:
                continue
            d = mp_gcd(f, g, p)
            if len(d) == 0:
                continue
            assert not mp_divmod(f, d, p)[1]
            assert not mp_divmod(g, d, p)[1]
            # any common divisor divides the gcd
            h = to_modp(rand_intpoly(rng, max_deg=2), p)
            if h:
                dd = mp_gcd(mp_mul(f, h, p), mp_mul(g, h, p), p)
                assert not mp_divmod(dd, mp_gcd(h, dd, p), p)[1]


def test_gcd_irred_modes():
    # x^2 + 1: irreducible mod 3, splits mod 5
    assert mp_irreducible(to_modp(IntPoly([1, 0, 1]), 3), 3)
    assert not mp_irreducible(to_modp(IntPoly([1, 0, 1]), 5), 5)
    assert not mp_divmod(to_modp(IntPoly([1, 0, 0, 1]), 5), to_modp(IntPoly([1, 1]), 5), 5)[1]
    g = mp_gcd(to_modp(IntPoly([-1, 0, 1]), 7), to_modp(IntPoly([1, 1]), 7), 7)
    assert IntPoly(g) == IntPoly([1, 1])


def test_mp_resultant_matches_integer_reduction():
    rng = random.Random(3)
    for p in (3, 5, 7):
        for _ in range(60):
            f = rand_intpoly(rng, max_deg=4)
            g = rand_intpoly(rng, max_deg=4)
            fm, gm = to_modp(f, p), to_modp(g, p)
            if len(fm) - 1 != f.degree or len(gm) - 1 != g.degree:
                continue  # degree drop changes the relation
            if f.degree < 1 or g.degree < 1:
                continue
            assert mp_resultant(fm, gm, p) == resultant_univar(f, g) % p


# --------------------------------------------------------------- primality

def test_probable_prime_basics():
    assert is_probable_prime(8681)
    assert is_probable_prime(185871968716987252172951795997086716801)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(1)
    assert is_probable_prime(2)


def test_primality_and_factor_check():
    assert primality_and_factor_check(8681) == "probable-prime"
    assert primality_and_factor_check(8680) == "composite"
    claim = Factorization(1, ((2, 20), (3, 4), (23, 1), (8681, 1)))
    assert claim.value() == 16958308220928
    assert primality_and_factor_check(16958308220928, claim) == "verified-probable"
    assert primality_and_factor_check(16958308220929, claim) == "product-mismatch"
    bad = Factorization(1, ((4, 1), (9, 1)))
    assert primality_and_factor_check(36, bad).startswith("composite-base")
    with pytest.raises(ValueError):
        primality_and_factor_check(0)


def test_factorization_reconstructs_polynomials():
    f = Factorization(-1, ((IntPoly([1, 1]), 2), (IntPoly([-1, 1]), 1)))
    assert f.value() == IntPoly([1, 1]) * IntPoly([1, 1]) * IntPoly([-1, 1]) * -1
