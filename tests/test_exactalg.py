import itertools
import math
import operator
import random
from fractions import Fraction
from functools import partial

import pytest

from permbinom import exactalg
from permbinom.exactalg import (
    MR_BASES,
    MR_BASES_DECIDE_BELOW,
    MR_PSI,
    BiPolyRZ,
    Factorization,
    IntPoly,
    _mr_witness,
    _newton,
    is_probable_prime,
    mp_divmod,
    mp_eval,
    mp_gcd,
    mp_irreducible,
    mp_monic,
    mp_mul,
    mp_resultant,
    primality_and_factor_check,
    resultant_bivar_z,
    resultant_univar,
    to_modp,
)
from permbinom.ff import PrimeField, build_subfield
from permbinom.registry import REG
from rational_twin import BiPolyRQ, RatPoly, to_rq
from rational_twin import resultant_bivar_z as resultant_bivar_z_rational
from resultant_twin import euclid_resultant, resultant_bivar_z_twin, resultant_univar_twin

EXT_FIELDS = tuple(build_subfield(p, m) for p, m in ((3, 2), (5, 2), (3, 3)))  # F_9, F_25, F_27


def rand_intpoly(rng, max_deg=6, max_c=20, nonzero=True):
    while True:
        p = IntPoly([rng.randint(-max_c, max_c) for _ in range(rng.randint(1, max_deg + 1))])
        if not nonzero or not p.is_zero():
            return p


def rand_fq_poly(rng, F, max_deg=6):
    """Random F indices, constant term first, trimmed (possibly zero)."""
    cs = [rng.randrange(F.order) for _ in range(rng.randint(1, max_deg + 1))]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _fq_eval(f, x, F):
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


# --------------------------- independent cross-check routes (Z, Q and Z[r])

def sylvester(f: list, g: list, zero) -> list[list]:
    """Sylvester matrix: coefficient lists given lowest degree first."""
    m, n = len(f) - 1, len(g) - 1
    frow, grow = f[::-1], g[::-1]
    return ([[zero] * i + frow + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + grow + [zero] * (m - 1 - i) for i in range(m)])


def bareiss_det(rows, one, divexact):
    """Fraction-free (Bareiss) determinant over an integral domain whose unit
    is one and whose exact quotient is divexact."""
    M = [row[:] for row in rows]
    n = len(M)
    sign, prev = 1, one
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return one - one
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pk = M[k][k]
        for i in range(k + 1, n):
            mik = M[i][k]
            for j in range(k + 1, n):
                M[i][j] = divexact(pk * M[i][j] - mik * M[k][j], prev)
        prev = pk
    det = M[-1][-1] if n else one
    return -det if sign < 0 else det


def resultant_sylvester_z(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) over Z as the Sylvester determinant; independent of the
    package's subresultant PRS."""
    return bareiss_det(sylvester(list(f.coeffs), list(g.coeffs), 0), 1, operator.floordiv)


def monic(f: RatPoly) -> RatPoly:
    return RatPoly(mp_monic(f.coeffs, RatPoly))


def rational_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd over Q by the Euclidean algorithm."""
    while not g.is_zero():
        f, g = g, f.divmod(g)[1]
    return monic(f) if not f.is_zero() else f


def resultant_bivar_z_sylvester(F: BiPolyRZ, G: BiPolyRZ) -> IntPoly:
    """Direct route: Bareiss elimination over the polynomial ring Z[r]."""
    if F.degree <= 0 or G.degree <= 0:
        return resultant_bivar_z(F, G)
    rows = sylvester(list(F.coeffs), list(G.coeffs), IntPoly.zero())
    return bareiss_det(rows, IntPoly.const(1), IntPoly.divexact)


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
    F = EXT_FIELDS[0]
    h = rand_fq_poly(random.Random(5), F, max_deg=8)
    assert [mp_eval(h, x, F) for x in range(F.order)] == [_fq_eval(h, x, F) for x in range(F.order)]


def test_mp_eval_over_a_prime_field_is_the_generic_horner(monkeypatch):
    # the int Horner over PrimeField against F.add/F.mul, empty polynomial
    # and x = 0 included; then the same evaluations with both methods gone
    rng = random.Random(41)
    cases = []
    for p in (2, 3, 1009, 2**31 - 1):
        F = PrimeField(p)
        for a in [[]] + [[rng.randrange(p) for _ in range(rng.randint(1, 12))] for _ in range(40)]:
            for x in (0, 1, p - 1, rng.randrange(p)):
                cases.append((a, x, F, _fq_eval(a, x, F)))
    assert all(mp_eval(a, x, F) == want for a, x, F, want in cases)
    for name in ("add", "mul"):
        monkeypatch.delattr(PrimeField, name)
    assert [mp_eval(a, x, F) for a, x, F, _ in cases] == [want for *_, want in cases]


def test_ratpoly_divmod_and_monic():
    f = RatPoly([1, 0, 1])
    g = RatPoly([1, 1])
    q, r = f.divmod(g)
    assert q * g + r == f
    assert monic(RatPoly([2, 4])).coeffs == (Fraction(1, 2), Fraction(1))


def _no_float(poly):
    flat = [c for cs in poly.coeffs for c in cs.coeffs] if isinstance(poly, BiPolyRZ) else poly.coeffs
    return not any(isinstance(c, float) for c in flat)


def test_shared_long_division_seeded():
    # one long division serves Z, Z[r] and the twins' Q and Q[r]: exact
    # quotients, never a float
    rng = random.Random(31)

    def ints(deg):
        return [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))]

    def rats(deg):
        return RatPoly([Fraction(c, rng.randint(1, 5)) for c in ints(deg)])

    def bipoly(deg):
        return BiPolyRQ([rats(rng.randint(0, 2)) for _ in range(deg)] + [rats(1)])

    def bipoly_zr(deg):
        return BiPolyRZ([IntPoly(ints(rng.randint(0, 2))) for _ in range(deg)] + [IntPoly(ints(0))])

    for make in (lambda deg: IntPoly(ints(deg)), rats, bipoly, bipoly_zr):
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


def _count_fractions(monkeypatch):
    """The argument tuples of every Fraction built from here on."""
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return made


def test_intpoly_div_is_the_checked_integer_quotient(monkeypatch):
    rng = random.Random(27)
    made = _count_fractions(monkeypatch)
    for _ in range(400):
        a, b = rng.randint(-10**6, 10**6), rng.choice((-1, 1)) * rng.randint(1, 50)
        for n in (a, a * b):
            if n % b == 0:
                assert IntPoly.div(n, b) == n // b and type(IntPoly.div(n, b)) is int
            else:
                with pytest.raises(ValueError):
                    IntPoly.div(n, b)
    assert made == []


def test_integer_quotients_build_no_fraction(monkeypatch):
    rng = random.Random(62)
    pairs = [(IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 4)]),
              IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [rng.randint(1, 4)]))
             for _ in range(30)]
    pairs += [(a * b, b) for a, b in pairs]
    made = _count_fractions(monkeypatch)
    for g in (REG.h15, REG.h35):
        mp_resultant(list(REG.h13.coeffs), list(g.coeffs), IntPoly)
        assert made == [], g.degree
    for a, b in pairs:
        try:
            a.divmod(b)
        except ValueError:  # lc(b) does not divide an intermediate coefficient
            pass
    assert made == []


def test_newton_refuses_a_non_integral_interpolant():
    assert _newton([0, 1, -1, 2], [2, 3, 3, 18]) == IntPoly([2, -2, 1, 2])
    with pytest.raises(ValueError):
        _newton([0, 1, 2], [0, 1, 3])  # (r^2 + r)/2 is not in Z[r]


def test_reduce_mod_denominator_error():
    # (1/3) and (2/9, 1) over their denominators; (1/2, -1, 3, 0) over 2
    with pytest.raises(ValueError):
        to_modp(IntPoly([1]), 3, 3)
    with pytest.raises(ValueError):
        to_modp([2, 9], 3, 9)
    assert to_modp([1, -2, 6, 0], 3, 2) == to_modp(IntPoly([-1, 2]), 3) == [2, 2]


def test_bipoly_roundtrip():
    A = BiPolyRZ([IntPoly([1, 2]), IntPoly([0, 0, 1])])
    B = BiPolyRZ([IntPoly([5])])
    assert (A * B).coeffs[0] == IntPoly([5, 10])
    assert A.eval_r(2) == IntPoly([5, 4])
    assert A.degree == 1 and A.r_degree == 2
    # at r = 2/3 over the one denominator 3^2: 9 (1 + 4/3) + 9 (4/9) z
    assert A.eval_r(2, 3) == IntPoly([21, 4]) == to_rq(A).eval_r(Fraction(2, 3)) * 9


def test_bipoly_divexact():
    one_plus_z = BiPolyRZ([IntPoly.const(1), IntPoly.const(1)])
    A = one_plus_z * BiPolyRZ([IntPoly([1, 1]), IntPoly([3])])
    assert A.divexact(one_plus_z) == BiPolyRZ([IntPoly([1, 1]), IntPoly([3])])
    with pytest.raises(ValueError):
        BiPolyRZ([IntPoly([1])]).divexact(one_plus_z)
    with pytest.raises(ValueError):  # 3 does not divide 1 + r
        A.divexact(one_plus_z * 3)


# --------------------------------------------------------------- resultants

def test_resultant_trivial():
    # evaluate one polynomial at the root of the other
    assert resultant_univar(IntPoly([-1, 1]), IntPoly([1, 1])) == 2


def test_resultant_zero_error():
    with pytest.raises(ValueError):
        resultant_univar(IntPoly.zero(), IntPoly([1, 1]))


def test_resultant_zero_polynomial_contract_is_shared():
    # both resultants refuse the zero polynomial with the same message,
    # whatever the other argument's z-degree
    zero, one_plus_z, r = BiPolyRZ([]), BiPolyRZ([IntPoly([1]), IntPoly([1])]), BiPolyRZ([IntPoly([0, 1])])
    calls = [partial(resultant_univar, IntPoly.zero(), IntPoly([1, 1])),
             partial(resultant_univar, IntPoly([2]), IntPoly.zero())]
    calls += [partial(resultant_bivar_z, *pair) for other in (one_plus_z, r) for pair in ((zero, other), (other, zero))]
    for call in calls:
        with pytest.raises(ValueError, match="^resultant of the zero polynomial$"):
            call()


def test_resultant_cross_methods_and_antisymmetry():
    rng = random.Random(2024)
    for _ in range(200):
        f = rand_intpoly(rng)
        g = rand_intpoly(rng)
        if f.degree < 1 or g.degree < 1:
            continue
        r = resultant_univar(f, g)
        assert type(r) is int and r == resultant_sylvester_z(f, g)
        assert r == (-1) ** (f.degree * g.degree) * resultant_univar(g, f)
        # Res(k f, l g) = k^deg g * l^deg f * Res(f, g), and over Q (the
        # rational twin) Res(f/k, g/l) = Res(f, g) / (k^deg g * l^deg f)
        k, l = rng.randint(1, 9), rng.randint(1, 9)
        assert resultant_univar(f * k, g * l) == k**g.degree * l**f.degree * resultant_sylvester_z(f, g)
        assert resultant_univar(f * k, g) == k**g.degree * r
        fk = RatPoly([Fraction(c, k) for c in f.coeffs])
        gl = RatPoly([Fraction(c, l) for c in g.coeffs])
        assert resultant_univar_twin(fk, gl) == Fraction(r, k**g.degree * l**f.degree)


def gap_chain(rng, P, coef, lead, steps):
    """A pair (a, b) of P polynomials built from the end of its Euclidean
    remainder sequence: a nonzero constant, then a divisor of degree 2 to 4
    (so the sequence ends with a degree gap), then 1 to steps quotients of
    degree 1 to 3.  coef() draws a coefficient, lead() a leading one that is
    never zero, so every step keeps its degree under any specialisation."""
    rems = [P([lead()]), P([coef() for _ in range(rng.randint(2, 4))] + [lead()])]
    for _ in range(rng.randint(1, steps)):
        rems.append(P([coef() for _ in range(rng.randint(1, 3))] + [lead()]) * rems[-1] + rems[-2])
    return rems[-1], rems[-2]


def test_resultant_sequence_ending_in_a_degree_gap():
    # the last divisor has degree 2 and the last remainder is a constant:
    # Res = 2^3 * 1, and the PRS must end with the h of its last step
    f, g = IntPoly([1, 1, 0, 1]), IntPoly([2, 0, 2])
    assert resultant_univar(f, g) == 8 == resultant_sylvester_z(f, g) == resultant_univar_twin(f, g)
    rng = random.Random(31)
    for _ in range(60):
        a, b = gap_chain(rng, IntPoly, lambda: rng.randint(-5, 5), lambda: rng.choice((1, -1, 2, -3, 5)), 3)
        k, l = rng.randint(1, 9), rng.randint(1, 9)
        for f, g in ((a, b), (b, a)):
            got = resultant_univar(f, g)
            assert type(got) is int and got == resultant_sylvester_z(f, g) == resultant_univar_twin(f, g) != 0
            fk, gl = RatPoly([Fraction(c, k) for c in f.coeffs]), RatPoly([Fraction(c, l) for c in g.coeffs])
            assert resultant_univar(f * k, g * l) == k**g.degree * l**f.degree * got
            assert resultant_univar_twin(fk, gl) == Fraction(got, k**g.degree * l**f.degree)


def test_bivar_resultant_sequence_ending_in_a_degree_gap():
    # at every integer r the specialised pair's remainder sequence ends in a
    # constant after a divisor of z-degree >= 2; the leading coefficients
    # (1 + r^2 and 2 - r + r^2 among them, so the resultant depends on r)
    # never vanish
    rng = random.Random(37)
    coef = lambda: IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 2))])
    lead = lambda: rng.choice((IntPoly([1]), IntPoly([-2]), IntPoly([3]), IntPoly([1, 0, 1]), IntPoly([2, -1, 1])))
    for _ in range(8):
        a, b = gap_chain(rng, BiPolyRZ, coef, lead, 1)
        for F, G in ((a, b), (b, a)):
            got = resultant_bivar_z(F, G)
            assert got == resultant_bivar_z_sylvester(F, G) == resultant_bivar_z_twin(F, G) != 0


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(7)
    for _ in range(200):
        f = rand_intpoly(rng, max_deg=5)
        g = rand_intpoly(rng, max_deg=5)
        if f.degree < 1 or g.degree < 1:
            continue
        common = rational_gcd(RatPoly(f.coeffs), RatPoly(g.coeffs))
        assert (resultant_univar(f, g) == 0) == (common.degree > 0)
        # force a common factor and confirm the resultant dies
        h = rand_intpoly(rng, max_deg=2)
        if h.degree >= 1:
            assert resultant_univar(f * h, g * h) == 0


def test_resultant_rational_scaling():
    f = RatPoly([Fraction(-1, 2), Fraction(1, 2)])  # (z-1)/2
    g = RatPoly([1, 1])
    assert resultant_univar_twin(f, g) == Fraction(1)  # (1/2)^1 * 2
    # over Z: Res(z - 1, z + 1) = 2 = 2^(deg g) Res((z - 1)/2, z + 1)
    assert resultant_univar(IntPoly([-1, 1]), IntPoly([1, 1])) == 2**g.degree * 1


def test_bivar_resultant_small_and_direct_agree():
    # F = z - r, G = z + r: Res_z = 2r
    F = BiPolyRZ([IntPoly([0, -1]), IntPoly([1])])
    G = BiPolyRZ([IntPoly([0, 1]), IntPoly([1])])
    assert resultant_bivar_z(F, G) == IntPoly([0, 2])
    rng = random.Random(5)
    for _ in range(25):
        F = BiPolyRZ([IntPoly([rng.randint(-4, 4) for _ in range(3)]) for _ in range(rng.randint(2, 4))])
        G = BiPolyRZ([IntPoly([rng.randint(-4, 4) for _ in range(3)]) for _ in range(rng.randint(2, 4))])
        if F.degree < 1 or G.degree < 1:
            continue
        assert resultant_bivar_z(F, G) == resultant_bivar_z_sylvester(F, G)


def test_bivar_resultant_degenerate():
    const = BiPolyRZ([IntPoly([1, 1])])
    with pytest.raises(ValueError):
        resultant_bivar_z(const, const)
    # a z-degree 0 argument gives its constant to the other's z-degree
    G = BiPolyRZ([IntPoly([1, 2]), IntPoly([0, 0, 3]), IntPoly([1, 3])])
    assert resultant_bivar_z(const, G) == IntPoly([1, 1]) ** 2
    assert resultant_bivar_z(G, BiPolyRZ([IntPoly([-1, 0, 2])])) == IntPoly([-1, 0, 2]) ** 2


def test_sec5_resultants_match_fraction_twin():
    # R13, R15, R35 and the two integer eliminants, integer route against
    # the rational route it replaced: the integer A3 and A5 are 3 and 5
    # times the cofactors of R13, R15 and R35, and Res_z(c F, d G) =
    # c^(deg_z G) d^(deg_z F) Res_z(F, G)
    A1, A3, A5 = REG.A1, REG.A3, REG.A5
    third, fifth = to_rq(A3) * Fraction(1, 3), to_rq(A5) * Fraction(1, 5)
    cases = ((A1, A3, A1, third, 3**A1.degree), (A1, A5, A1, fifth, 5**A1.degree),
             (A3, A5, third, fifth, 3**A5.degree * 5**A3.degree))
    for F, G, Fq, Gq, scale in cases:
        got = resultant_bivar_z(F, G)
        assert type(got) is IntPoly and got == resultant_bivar_z_twin(Fq, Gq) * scale
        assert got == resultant_bivar_z_rational(Fq, Gq) * scale
    for g in (REG.h15, REG.h35):
        got = resultant_univar(REG.h13, g)
        assert type(got) is int and got == resultant_univar_twin(REG.h13, g)


def test_bivar_resultant_skips_vanishing_leading_coefficients():
    # F's leading z-coefficient vanishes at r = 0, +-1 and 2, the first four
    # evaluation points, and G's at r = +-1
    F = BiPolyRZ([IntPoly([1, 2]), IntPoly([0, -1, 1]), IntPoly([0, -1, 0, 1]) * IntPoly([-2, 1])])
    G = BiPolyRZ([IntPoly([3, 0, -1]), IntPoly([2]), IntPoly([1, 1]), IntPoly([-1, 0, 1])])
    for a, b in ((F, G), (G, F), (F, F + G)):
        assert resultant_bivar_z(a, b) == resultant_bivar_z_sylvester(a, b) == resultant_bivar_z_twin(a, b)
    assert resultant_bivar_z(F, G) != 0


def _cleared(P, den):
    """den * P in Z[r][z] (or Z[z]), for a rational twin P whose
    denominators all divide den."""
    if isinstance(P, RatPoly):
        scaled = [c * den for c in P.coeffs]
        assert all(c.denominator == 1 for c in scaled)
        return IntPoly(int(c) for c in scaled)
    return BiPolyRZ(_cleared(c, den) for c in P.coeffs)


def test_bivar_resultant_coprime_denominators_match_twin():
    # D_F = 2^2 * 7 and D_G = 3^2 * 5, coprime, with z-degrees 2 and 3:
    # Res_z(D_F F, D_G G) over Z[r] is D_F^deg G D_G^deg F times the twins'
    # Res_z(F, G) over Q[r], so swapped scale exponents or a missed
    # denominator show
    F = BiPolyRQ([RatPoly([Fraction(1, 4), 1]), RatPoly([0, Fraction(3, 7)]), RatPoly([Fraction(-1, 2), 0, 1])])
    G = BiPolyRQ([RatPoly([2, Fraction(1, 9)]), RatPoly([Fraction(5, 3)]), RatPoly([0, 1]),
                  RatPoly([Fraction(-2, 5), Fraction(1, 3)])])
    for a, da, b, db in ((F, 28, G, 45), (G, 45, F, 28), (F, 28, F * G + G, 28 * 45)):
        A, B = _cleared(a, da), _cleared(b, db)
        got = resultant_bivar_z(A, B)
        want = resultant_bivar_z_twin(a, b)
        assert type(got) is IntPoly and got == want * (da**b.degree * db**a.degree)
        assert got == resultant_bivar_z_sylvester(A, B)
        assert want == resultant_bivar_z_rational(a, b)
    assert any(c.denominator != 1 for c in resultant_bivar_z_twin(F, G).coeffs)
    rng = random.Random(11)
    for _ in range(20):
        d1, d2 = rng.randint(1, 6), rng.randint(1, 6)
        F, G = (BiPolyRQ([RatPoly([Fraction(rng.randint(-4, 4), d) for _ in range(rng.randint(1, 3))])
                          for _ in range(rng.randint(2, 4))]) for d in (d1, d2))
        if F.degree >= 1 and G.degree >= 1:
            got = resultant_bivar_z(_cleared(F, d1), _cleared(G, d2))
            assert got == resultant_bivar_z_twin(F, G) * (d1**G.degree * d2**F.degree)
    f, g = RatPoly([Fraction(1, 4), Fraction(3, 7), 1]), RatPoly([Fraction(2, 9), 0, Fraction(5, 3), 1])
    got = resultant_univar(_cleared(f, 28), _cleared(g, 45))
    assert got == resultant_univar_twin(f, g) * (28**g.degree * 45**f.degree)


# ------------------------------------------------------- finite fields

def _check_gcd_properties(F, draw):
    for _ in range(100):
        f = draw(6)
        g = draw(6)
        if not f or not g:
            continue
        d = mp_gcd(f, g, F)
        if len(d) == 0:
            continue
        assert not mp_divmod(f, d, F)[1]
        assert not mp_divmod(g, d, F)[1]
        assert mp_gcd(f + [0, 0], g + [0], F) == d  # inputs may end in zeros
        # any common divisor divides the gcd
        h = draw(2)
        if h:
            dd = mp_gcd(mp_mul(f, h, F), mp_mul(g, h, F), F)
            assert not mp_divmod(dd, h, F)[1]


def test_modp_gcd_properties():
    rng = random.Random(11)
    for p in (3, 5, 181):
        _check_gcd_properties(build_subfield(p, 1), lambda d: to_modp(rand_intpoly(rng, max_deg=d), p))
    for F in EXT_FIELDS:
        _check_gcd_properties(F, lambda d: rand_fq_poly(rng, F, d))


def test_gcd_irred_modes():
    f3, f5, f7 = (build_subfield(p, 1) for p in (3, 5, 7))
    # x^2 + 1: irreducible mod 3, splits mod 5
    assert mp_irreducible(to_modp(IntPoly([1, 0, 1]), 3), f3)
    assert not mp_irreducible(to_modp(IntPoly([1, 0, 1]), 5), f5)
    assert not mp_divmod(to_modp(IntPoly([1, 0, 0, 1]), 5), to_modp(IntPoly([1, 1]), 5), f5)[1]
    g = mp_gcd(to_modp(IntPoly([-1, 0, 1]), 7), to_modp(IntPoly([1, 1]), 7), f7)
    assert IntPoly(g) == IntPoly([1, 1])
    rng = random.Random(13)
    for F in EXT_FIELDS:
        for _ in range(40):
            f, g = rand_fq_poly(rng, F, 3), rand_fq_poly(rng, F, 3)
            if len(f) < 2 or len(g) < 2:
                continue
            fg = mp_mul(f, g, F)
            assert not mp_irreducible(fg, F)
            quo, rem = mp_divmod(fg, g, F)
            assert quo == f and rem == []
            assert mp_gcd(fg, g, F) == [F.div(c, g[-1]) for c in g]


def test_irreducible_matches_root_search():
    # a quadratic or cubic is irreducible over F_q iff it has no root in
    # F_q; over F_9, F_25 and F_27 that needs Frobenius z -> z^q, not z^p
    cases = [(F, 2) for F in EXT_FIELDS] + [(EXT_FIELDS[0], 3)]
    irreducible = 0
    for F, deg in cases:
        q = F.order
        for low in itertools.product(range(q), repeat=deg):
            f = list(low) + [1]
            rootless = all(_fq_eval(f, x, F) for x in range(q))
            assert mp_irreducible(f, F) == rootless, (q, f)
            irreducible += rootless
    # (q^2 - q)/2 monic irreducible quadratics over each field, (9^3 - 9)/3 cubics over F_9
    assert irreducible == 36 + 300 + 351 + 240


def test_mp_resultant_over_intpoly_matches_sylvester():
    # the subresultant PRS over Z, in both argument orders; the first pair's
    # quotient 1/3 is not an integer, so a field-only route would raise there
    rng = random.Random(28)
    pairs = [(IntPoly([1, 0, 1]), IntPoly([2, 3]))]
    pairs += [(rand_intpoly(rng, max_deg=7), rand_intpoly(rng, max_deg=7)) for _ in range(150)]
    pairs += [gap_chain(rng, IntPoly, lambda: rng.randint(-5, 5), lambda: rng.choice((1, -1, 2, -3, 5)), 4)
              for _ in range(40)]
    for a, b in pairs:
        for f, g in ((a, b), (b, a)):
            got = mp_resultant(list(f.coeffs), list(g.coeffs), IntPoly)
            assert type(got) is int and got == resultant_sylvester_z(f, g), (f, g)


def test_mp_resultant_matches_integer_reduction():
    # over F_p and F_{p^k} the residues mod p are field indices, so an integer
    # pair whose degrees survive the reduction has Res mod p; random pairs over
    # F_8, F_9 and F_25 meet the Euclidean twin
    rng = random.Random(3)
    F8 = build_subfield(2, 3)
    fields = {3: (build_subfield(3, 1), EXT_FIELDS[0]), 5: (build_subfield(5, 1), EXT_FIELDS[1]),
              7: (build_subfield(7, 1),), 2: (F8,)}
    for p, Fs in fields.items():
        pairs = [(rand_intpoly(rng, max_deg=4), rand_intpoly(rng, max_deg=4)) for _ in range(60)]
        pairs += [gap_chain(rng, IntPoly, lambda: rng.randint(-5, 5), lambda: rng.choice((1, -1, 2, -3, 5)), 3)
                  for _ in range(30)]
        checked = 0
        for f, g in pairs:
            fm, gm = to_modp(f, p), to_modp(g, p)
            if len(fm) - 1 != f.degree or len(gm) - 1 != g.degree or f.degree < 1 or g.degree < 1:
                continue  # degree drop changes the relation
            for F in Fs:
                assert mp_resultant(fm, gm, F) == euclid_resultant(fm, gm, F) == resultant_sylvester_z(f, g) % p
                assert mp_resultant(gm, fm, F) == euclid_resultant(gm, fm, F) == resultant_sylvester_z(g, f) % p
            checked += 1
        assert checked >= 20, p
    for F in (F8,) + EXT_FIELDS[:2]:
        for _ in range(120):
            a, b = rand_fq_poly(rng, F), rand_fq_poly(rng, F)
            if a and b:
                assert mp_resultant(a, b, F) == euclid_resultant(a, b, F), (F.order, a, b)


# --------------------------------------------------------------- primality

def test_probable_prime_basics():
    assert is_probable_prime(8681)
    assert is_probable_prime(185871968716987252172951795997086716801)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(1)
    assert is_probable_prime(2)


def test_fixed_bases_decide_only_below_psi12():
    # psi_12 is a strong pseudoprime to all twelve fixed bases, so only the
    # seeded rounds, which run from psi_12 up, reject it
    n = MR_BASES_DECIDE_BELOW
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    assert all(n % a and not _mr_witness(a, d, s, n) for a in MR_BASES)
    assert not is_probable_prime(n)


def test_probable_prime_matches_a_sieve_and_rejects_every_psi():
    # each psi_k is composite and passes the first k bases, so a stop at
    # n <= psi_k in place of n < psi_k would call it prime
    n = 200_000
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    assert [k for k in range(n) if is_probable_prime(k) != sieve[k]] == []
    assert len(set(MR_PSI)) == 9 and MR_PSI[-1] == MR_BASES_DECIDE_BELOW
    for k, psi in enumerate(MR_PSI, 1):
        s = ((psi - 1) & (1 - psi)).bit_length() - 1  # 2^s exactly divides psi - 1
        assert not any(_mr_witness(a, (psi - 1) >> s, s, psi) for a in MR_BASES[:k]), k
        assert not is_probable_prime(psi), k


def test_probable_prime_runs_only_the_bases_it_needs(monkeypatch):
    # a prime below psi_k costs k witnesses: 1009 one, 2053 (past psi_1) two,
    # and psi_12 up all twelve plus the 20 seeded rounds
    calls = []
    monkeypatch.setattr(exactalg, "_mr_witness", lambda *args: calls.append(args) or _mr_witness(*args))
    for p, cost in ((1009, 1), (2053, 2), (185871968716987252172951795997086716801, 32)):
        calls.clear()
        assert is_probable_prime(p)
        assert len(calls) == cost, p


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
