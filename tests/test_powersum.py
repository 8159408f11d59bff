import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from permbinom import powersum
from permbinom.exactalg import BiPolyRZ, IntPoly, mp_eval, to_modp
from permbinom.ff import build_tower, build_subfield, enumerate_elements
from permbinom.powersum import (
    CDPair,
    PowerSumIndex,
    binom_intmod,
    bracket_coeffs,
    bracket_coeffs_deficient,
    bracket_row,
    cd_pair,
    identity_value,
    power_sum_brute,
    power_sum_t1_closed,
    power_sum_t2_closed,
    theta_modp_poly,
    theta_symbolic,
    verify_identities,
)
import rational_twin


# ---------------------------------------------------------------- binomials

def binom_rational(x, k: int) -> Fraction:
    """binom(x, k) = x(x-1)...(x-k+1)/k! for exact rational x: the Fraction
    reference for the package's integer and residue binomials."""
    if k < 0:
        raise ValueError("negative lower index")
    x = Fraction(x)
    num = Fraction(1)
    for j in range(k):
        num *= x - j
    return num / math.factorial(k)


def binom_residue(x, k: int, p: int) -> int:
    """Falling-factorial binomial with x a residue mod p (or a rational whose
    denominator is invertible mod p).  Needs k < p so that k! is invertible;
    an independent route to binom_intmod for small entries."""
    if k < 0:
        raise ValueError("negative lower index")
    if k >= p:
        raise ValueError(f"residue mode needs lower index < p (got k={k}, p={p})")
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise ValueError(f"denominator of {x} not invertible mod {p}")
        x = x.numerator * pow(x.denominator, -1, p)
    x %= p
    num = 1
    for j in range(k):
        num = num * (x - j) % p
    return num * pow(math.factorial(k), -1, p) % p


def test_binom_rational():
    assert binom_rational(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_rational(5, 2) == 10
    assert binom_rational(-1, 3) == -1
    with pytest.raises(ValueError):
        binom_rational(1, -1)


def test_binom_lucas_prime_power_upper():
    for p, l in ((3, 1), (3, 2), (5, 1), (7, 1)):
        n = p**l
        for k in range(2 * n + 1):
            expected = 1 if k in (0, n) else 0
            assert binom_intmod(n, k, p) == expected


def test_binom_lucas_vs_factorial():
    for p in (3, 5, 7):
        for n in range(40):
            for k in range(40):
                assert binom_intmod(n, k, p) == math.comb(n, k) % p


def test_binom_residue_agrees_with_lucas():
    for p in (3, 5, 7, 181):
        for x in range(min(p, 12)):
            for k in range(min(p, 9)):
                assert binom_residue(x, k, p) == binom_intmod(x, k, p)


def test_binom_residue_refuses_large_k():
    with pytest.raises(ValueError):
        binom_residue(1, 3, 3)
    with pytest.raises(ValueError):
        binom_residue(Fraction(1, 3), 1, 3)  # denominator hits p


def test_binom_residue_half_integer():
    # 1/2 means the inverse of 2 mod p
    p = 5
    inv2 = pow(2, -1, p)
    assert binom_residue(Fraction(1, 2), 2, p) == (inv2 * (inv2 - 1) * pow(2, -1, p)) % p


def test_binom_intmod_periodicity_and_negatives():
    rng = random.Random(17)
    for _ in range(400):
        p = rng.choice((3, 5, 7))
        n = rng.randint(-200, 200)
        k = rng.randint(0, 30)
        exact = binom_rational(n, k)
        assert exact.denominator == 1
        assert binom_intmod(n, k, p) == exact.numerator % p


def test_binom_flavours_direct():
    assert binom_rational(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_residue(2, 2, 5) == 1
    assert binom_intmod(7, 3, 5) == 0


# ------------------------------------------------------------- bracket rows

def test_bracket_row_matches_rational_reference():
    # exact integers binom(alpha,i) (-1)^i binom(i+shift, alpha), reduced
    # mod p only at the end; alpha >= p exercises the Lucas digit products,
    # and the shifts reach below zero and past the period p^L > alpha
    for p in (3, 5, 7):
        for alpha in range(1, 30, 2):
            period = p
            while period <= alpha:
                period *= p
            for shift in (-2 * period - 1, -alpha, -1, 0, 1, (p - 1) // 2,
                          alpha, period, period + 3, 3 * period + 2):
                expected = []
                for i in range(alpha + 1):
                    exact = binom_rational(alpha, i) * (-1) ** i * binom_rational(i + shift, alpha)
                    assert exact.denominator == 1
                    expected.append(exact.numerator % p)
                assert bracket_row(alpha, shift, p) == tuple(expected), (p, alpha, shift)


def test_bracket_entry_points_are_rows():
    assert bracket_coeffs(7, 4, 13, 5) == (bracket_row(7, 4, 5), bracket_row(7, 17, 5))
    assert bracket_coeffs_deficient(5, 25, 5) == bracket_row(5, 12, 5)


# -------------------------------------------------------------------- cd

def test_cd_pair_examples():
    assert cd_pair(1, 5, 31) == CDPair(1, 24, 2)
    assert cd_pair(1, 5, 5) == CDPair(2, 4, 2)     # d = q-1 branch
    assert cd_pair(5, 3, 31) == CDPair(1, 24, 2)
    # invariant holds on a grid
    for q in (3, 5, 7, 9):
        for alpha in range(1, q - 1, 2):
            for r in range(1, q * q - 1, 2):
                pair = cd_pair(alpha, r, q)
                assert (alpha + 1) * r - 2 * alpha == pair.c * (q + 1) - pair.d
                assert 0 <= pair.d <= q and pair.d % 2 == 0


def test_cd_pair_t1():
    # r = 1 mod (q+1) pins the remainder at q
    for q in (3, 4, 5, 9):
        for alpha in range(q):
            for k in range(3):
                r = 1 + k * (q + 1)
                assert cd_pair(alpha, r, q, 1).d == q
    pair = cd_pair(0, 3, 5, 1)
    assert 1 * 3 - 0 == pair.c * 6 - pair.d
    # invariant holds on a grid
    for q in (2, 3, 4, 5, 8, 9):
        for alpha in range(q):
            for r in range(1, q * q - 1):
                pair = cd_pair(alpha, r, q, 1)
                assert (alpha + 1) * r - alpha == pair.c * (q + 1) - pair.d
                assert 0 <= pair.d <= q and pair.t == 1


def test_cd_pair_rejects_bad_t_and_alpha():
    for t in (0, 3, 4):
        with pytest.raises(ValueError):
            cd_pair(1, 5, 7, t)
    for alpha in (0, 2, 4):
        with pytest.raises(ValueError):
            cd_pair(alpha, 5, 7, 2)
    with pytest.raises(ValueError):
        cd_pair(-1, 5, 7, 1)


def test_power_sum_index():
    s = PowerSumIndex.from_s(16, 5)
    assert (s.alpha, s.beta) == (1, 3)
    assert PowerSumIndex.useful(1, 5).s == 16
    with pytest.raises(ValueError):
        PowerSumIndex.from_s(24, 5)


# ------------------------------------------------------------ closed forms

def test_closed_zero_branches():
    fq, fq2 = build_tower(5, 1)
    a = fq2.element(7)
    # alpha even -> 0; alpha+beta != q-1 -> 0
    assert power_sum_t2_closed(3, a, PowerSumIndex.from_s(2, 5)) == 0
    assert power_sum_t2_closed(3, a, PowerSumIndex.from_s(3, 5)) == 0


def test_oracle_equivalence_small_exhaustive():
    # full sweep for q in {3, 5}: every admissible r, every a, both shapes
    for p in (3, 5):
        fq, fq2 = build_tower(p, 1)
        q = p
        for r in range(1, q * q - 1):
            if math.gcd(r, q - 1) != 1:
                continue
            for a in enumerate_elements(fq2, "nonzero"):
                for alpha in range(1, q - 1, 2):
                    s = PowerSumIndex.useful(alpha, q)
                    assert power_sum_t2_closed(r, a, s) == power_sum_brute(r, 2, a, s.s)
                for alpha in range(q):
                    s = PowerSumIndex.useful(alpha, q)
                    assert power_sum_t1_closed(r, a, s) == power_sum_brute(r, 1, a, s.s)


def test_d_equals_q_minus_1_branch():
    # q = 5, r = 5: alpha = 1 gives d = q-1
    fq, fq2 = build_tower(5, 1)
    assert cd_pair(1, 5, 5).d == 4
    s = PowerSumIndex.useful(1, 5)
    for a in enumerate_elements(fq2, "nonzero"):
        assert power_sum_t2_closed(5, a, s) == power_sum_brute(5, 2, a, s.s)


def test_alpha_at_least_p_path():
    # q = 9, p = 3: alpha in {3, 5, 7} needs the digit-product entries
    fq, fq2 = build_tower(3, 2)
    rng = random.Random(4)
    for _ in range(60):
        r = rng.choice([r for r in range(1, 80, 2) if math.gcd(r, 8) == 1])
        a = fq2.element(fq2.exp(rng.randrange(80)))
        alpha = rng.choice((3, 5, 7))
        s = PowerSumIndex.useful(alpha, 9)
        assert power_sum_t2_closed(r, a, s) == power_sum_brute(r, 2, a, s.s)


def test_t1_gcd_one_mod_qplus1_vanishes():
    # r = 1 mod (q+1): every sum is zero; nonzero a^(q+1) != 1 then permutes
    fq, fq2 = build_tower(3, 1)
    for a in enumerate_elements(fq2, "nonzero"):
        for alpha in range(3):
            s = PowerSumIndex.useful(alpha, 3)
            assert power_sum_t1_closed(5, a, s) == 0


def test_t1_alpha0_detects_bad_r():
    # q+1 does not divide r-1: the beta-heavy sum is nonzero
    fq, fq2 = build_tower(3, 1)
    a = fq2.element(fq2.gen_idx)
    s = PowerSumIndex.useful(0, 3)
    assert power_sum_t1_closed(3, a, s) != 0


def test_brute_counts_nonroots():
    # s = q^2 - 1 sums to the number of nonzero values of f, mod p
    fq, fq2 = build_tower(3, 1)
    a = fq2.one()
    val = power_sum_brute(1, 2, a, 8)
    # f(x) = x(1 + x^4): roots are 0 and the four solutions of x^4 = -1
    nonroots = sum(
        1 for x in enumerate_elements(fq2, "all")
        if (x * (a + x**4) if x.idx else fq2.zero()).idx != 0
    )
    assert nonroots == 4
    assert val == fq2.element(nonroots % 3)


def test_family_i_sums_vanish():
    # q = 5, r = 3, t = 2, norm-one a with (-a)^3 != 1: all sums vanish
    fq, fq2 = build_tower(5, 1)
    for a in enumerate_elements(fq2, "nonzero"):
        if a**6 == 1 and (-a) ** 3 != 1:
            for alpha in (1, 3):
                s = PowerSumIndex.useful(alpha, 5)
                assert power_sum_brute(3, 2, a, s.s) == 0


def test_closed_preconditions():
    fq, fq2 = build_tower(5, 1)
    a = fq2.element(3)
    with pytest.raises(ValueError):
        power_sum_t2_closed(2, a, 16)  # gcd(r, q-1) != 1
    with pytest.raises(ValueError):
        power_sum_t1_closed(3, fq2.zero(), 16)
    fq, fq2 = build_tower(2, 2)
    with pytest.raises(ValueError):
        power_sum_t2_closed(1, fq2.one(), 5)  # even q


# ---------------------------------------------------------------- brackets

def test_theta_symbolic_alpha1_by_hand():
    # 2 * theta(1): theta(1) = (3/2 - r) + (2 - r) z + (-5/2 + r) z^2 + (-3 + r) z^3
    th = theta_symbolic(1)
    expected = BiPolyRZ([
        IntPoly((3, -2)),
        IntPoly((4, -2)),
        IntPoly((-5, 2)),
        IntPoly((-6, 2)),
    ])
    assert th == expected


def test_theta_symbolic_is_the_scaled_rational_bracket():
    # the integer bracket is 2^alpha alpha! times the half-integer binomial
    # bracket it replaced, coefficient for coefficient
    for alpha in range(1, 10, 2):
        th = theta_symbolic(alpha)
        assert type(th) is BiPolyRZ and all(type(c) is IntPoly for c in th.coeffs)
        assert th == rational_twin.theta_symbolic(alpha) * (2**alpha * math.factorial(alpha)), alpha


def test_theta_symbolic_invariants():
    one_plus_z = BiPolyRZ([1, 1])
    for alpha in (1, 3, 5):
        th = theta_symbolic(alpha)
        assert th.degree == 2 * alpha + 1
        assert th.r_degree == alpha
        th.divexact(one_plus_z)  # raises if inexact
    # divisibility at alpha = 7 is recorded, not asserted
    th7 = theta_symbolic(7)
    try:
        th7.divexact(one_plus_z)
        divisible = True
    except ValueError:
        divisible = False
    print(f"(1+z) divides theta(7) over Q: {divisible}")


def test_theta_symbolic_vanishes_at_3_3():
    for alpha in range(1, 16, 2):
        assert theta_symbolic(alpha).eval_r(3).eval(3) == 0


def test_theta_numeric_181():
    fp = build_subfield(181, 1)
    assert mp_eval(theta_modp_poly(7, pow(2, -1, 181), 181), 65, fp) == 46  # d/2 = 1/2


def test_theta_numeric_matches_symbolic_reduction():
    # at r = 3 the symbolic bracket and the residue bracket agree mod p
    for p, alpha in ((5, 1), (5, 3), (7, 3), (11, 5)):
        th = theta_symbolic(alpha).eval_r(3)
        coeffs_sym = to_modp(th, p, 2**alpha * math.factorial(alpha))
        # the symbolic entries at r = 3 are i - 1 - alpha/2 and i - (alpha+1)/2
        period = p
        while period <= alpha:
            period *= p
        inv2 = pow(2, -1, period)
        dh = (-2 - alpha) * inv2 % period
        coeffs_res = theta_modp_poly(alpha, dh, p)
        assert coeffs_sym == coeffs_res


# --------------------------------------------------------------- identities

def test_identity_alpha1_by_hand():
    # 0 + 1/6 - 1/9 - 1/18 = 0
    terms = [
        binom_rational(0, 1) * Fraction(1, 3) ** 0,
        binom_rational(Fraction(1, 2), 1) * Fraction(1, 3) ** 1,
        -binom_rational(1, 1) * Fraction(1, 3) ** 2,
        -binom_rational(Fraction(3, 2), 1) * Fraction(1, 3) ** 3,
    ]
    assert terms == [0, Fraction(1, 6), Fraction(-1, 9), Fraction(-1, 18)]
    assert sum(terms) == 0
    assert identity_value(1, "id310") == 0


def test_identities_sweep():
    for rep in verify_identities(25):
        assert rep.ok


def test_identities_report_a_nonzero_value_as_fail(monkeypatch):
    value = powersum.identity_value

    def wrong_at_3(alpha, which):
        return Fraction(1, 7) if (alpha, which) == (3, "id311") else value(alpha, which)
    monkeypatch.setattr(powersum, "identity_value", wrong_at_3)
    passed, failed = verify_identities(5)
    assert passed.ok and passed.check_id == "identities.id310.max5"
    assert (failed.check_id, failed.status, failed.computed) == (
        "identities.id311.max5", "fail", "nonzero at [(3, Fraction(1, 7))]")


def test_identity_sum_matches_rational_reference():
    # the integer kernel against Fraction arithmetic, at x and offsets where
    # the sum does not vanish, so a kernel that returns 0 cannot pass
    def reference(alpha, x, n1, n2):
        return sum(math.comb(alpha, i) * (-1) ** i
                   * (binom_rational(Fraction(2 * i + n1, 2), alpha) * x ** (2 * i)
                      + binom_rational(Fraction(2 * i + n2, 2), alpha) * x ** (2 * i + 1))
                   for i in range(alpha + 1))

    cases = [(u, v, n1, n2) for u, v in ((1, 2), (-2, 5), (3, 7), (2, 1))
             for n1, n2 in ((0, 1), (-3, 4), (5, -1))]
    for alpha in range(1, 16, 2):
        for u, v, n1, n2 in cases:
            expected = reference(alpha, Fraction(u, v), n1, n2)
            assert expected != 0
            assert powersum._identity_sum(alpha, u, v, n1, n2) == expected, (alpha, u, v, n1, n2)


def identity_sum_twin(alpha, u, v, n1, n2):
    """powersum._identity_sum with every falling product taken afresh for
    each i by math.prod, O(alpha^2) factors per sum."""
    total = 0
    for i in range(alpha + 1):
        e, o = 2 * i + n1, 2 * i + n2
        total += (-1) ** i * math.comb(alpha, i) * u ** (2 * i) * v ** (2 * (alpha - i)) * (
            math.prod(range(e, e - 2 * alpha, -2)) * v + math.prod(range(o, o - 2 * alpha, -2)) * u)
    return Fraction(total, 2**alpha * math.factorial(alpha) * v ** (2 * alpha + 1))


def test_identity_sum_matches_product_twin():
    # the sliding windows against fresh products: both identities for every
    # odd alpha <= 99, then (n1, n2) shifted by 2k, where the even one's
    # windows still contain 0 but the sums no longer vanish
    nonzero = 0
    for alpha in range(1, 100, 2):
        for u, v, n1, n2 in ((1, 3, alpha - 1, alpha), (3, 1, -2 - alpha, -1 - alpha)):
            assert powersum._identity_sum(alpha, u, v, n1, n2) == identity_sum_twin(alpha, u, v, n1, n2) == 0
            for k in (-2, 1):
                want = identity_sum_twin(alpha, u, v, n1 + 2 * k, n2 + 2 * k)
                assert powersum._identity_sum(alpha, u, v, n1 + 2 * k, n2 + 2 * k) == want, (alpha, u, k)
                nonzero += want != 0
    assert nonzero > 150


def test_identity_sum_matches_product_twin_off_one():
    # u and v both != 1, so a running power of either side that steps wrongly
    # changes the sum; the identities' offsets shifted by 2k keep windows
    # that hold 0 next to windows that do not
    nonzero = 0
    for alpha in range(1, 100, 2):
        for u, v in ((2, 5), (-3, 2)):
            for n1, n2 in ((alpha - 1, alpha), (-2 - alpha, -1 - alpha)):
                for k in (-2, 1):
                    args = alpha, u, v, n1 + 2 * k, n2 + 2 * k
                    want = identity_sum_twin(*args)
                    assert powersum._identity_sum(*args) == want, args
                    nonzero += want != 0
    assert nonzero == 400


def test_power_sum_brute_counts_only_the_exponents_it_reaches():
    # a useful s reaches at most q + 1 exponents, so the counts stay far
    # below one entry per nonzero element of F_{101^2} (10200 of them)
    fq, fq2 = build_tower(101, 1)
    a = fq2.element(fq2.exp(3))
    useful = (PowerSumIndex.useful(alpha, 101) for alpha in range(1, 100, 2))
    s = next(s for s in useful if power_sum_t2_closed(7, a, s) != 0)
    tracemalloc.start()
    try:
        got = power_sum_brute(7, 2, a, s.s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == power_sum_t2_closed(7, a, s)
    assert peak < 16_000, peak
