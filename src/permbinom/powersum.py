"""Power sums of f(x) = x^r (a + x^(t(q-1))) over F_{q^2}, in closed form
and by brute force.

For exponents s = alpha + beta*q the sum vanishes unless alpha + beta = q-1
and alpha is in surviving_alphas(q, t) (for t = 2, alpha odd); each
surviving sum is, up to a nonzero prefactor, one bracket polynomial P(Z)
evaluated at one point: z = (-a)^(-q(q+1)/2) for t = 2, h = a^(-(q+1)) for
t = 1.  Which bracket terms survive is controlled by the
division-with-remainder pair (c, d) of (alpha+1)r - t*alpha by q+1.  Each
of these rules is stated once here; the permutation test and the search
call it.

bracket(alpha, r, q, t, p) gives (d, P), memoised per key and shared by
the few candidate z a sweep tests per q, by the fast tests of a catalog
replay and by the closed forms of one (r, q).  Every P is built from one
memoised row kernel, bracket_row(alpha, shift, p): the coefficients
binom(alpha,i)(-1)^i binom(i+shift, alpha) mod p.  The t = 2 even and odd
halves, the d = q-1 branch and the t = 1 bracket differ only in shift; for
t = 2, P(Z) = E(Z^2) + Z*O(Z^2) interleaves the halves.  P is evaluated at
a point of F_q by exactalg.mp_eval over the subfield.

Binomial coefficients mod p have one kernel, binom_intmod: Lucas' product
of base-p digits, exact for any integer upper entry, since binom(., k) mod p
depends on its argument only mod p^L once p^L > k.  The rational vanishing
identities are one integer sum over a common denominator; the Fraction and
residue falling-factorial binomials they are checked against live in the
tests.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exactalg import BiPolyRZ, IntPoly, mp_eval
from .ff import FieldCtx, FieldElement, check_quadratic_unit, compute_z
from .report import PASS, FAIL, CheckReport

__all__ = [
    "PowerSumIndex",
    "CDPair",
    "binom_intmod",
    "cd_pair",
    "surviving_alphas",
    "bracket_row",
    "bracket",
    "power_sum_closed",
    "power_sum_t2_closed",
    "power_sum_t1_closed",
    "power_sum_brute",
    "power_sum_on_class_row",
    "theta_modp_poly",
    "theta_symbolic",
    "identity_value",
    "verify_identities",
]


# ------------------------------------------------------------- binomials

def _period(k: int, p: int) -> int:
    """The smallest power p^L > k: binom(., k) mod p has period p^L."""
    period = p
    while period <= k:
        period *= p
    return period


def binom_intmod(n: int, k: int, p: int) -> int:
    """binom(n, k) mod p for any integer n (negative allowed): Lucas' product
    of base-p digits.  It reads only the digits k has, below p^L > k, and
    floor divmod gives them as the digits of n mod p^L, on which binom(., k)
    mod p depends, also for n < 0."""
    if k < 0:
        raise ValueError("negative lower index")
    out = 1
    while k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        out = out * (math.comb(nd, kd) % p) % p
    return out


# ------------------------------------------------------ (c, d) index pairs

class CDPair(namedtuple("CDPair", "c d t")):
    """Quotient/remainder data selecting the surviving bracket terms:
    (alpha+1)r - t*alpha = c(q+1) - d with 0 <= d < q+1, so c is the ceiling
    of the left side divided by q+1.  For t = 2, alpha is odd and d even.
    """

    __slots__ = ()


def cd_pair(alpha: int, r: int, q: int, t: int = 2) -> CDPair:
    if t not in (1, 2):
        raise ValueError(f"(c, d) pairs are defined for t in {{1, 2}}, got t={t}")
    if alpha < 0 or (t == 2 and alpha % 2 == 0):
        raise ValueError("alpha must be >= 0, and odd for t = 2")
    lhs = (alpha + 1) * r - t * alpha
    c = -((-lhs) // (q + 1))  # ceiling for either sign
    d = c * (q + 1) - lhs
    if not 0 <= d <= q:
        raise AssertionError("remainder out of range")  # pragma: no cover
    if t == 2 and d % 2:
        raise AssertionError("remainder must be even for t = 2")  # pragma: no cover
    return CDPair(c, d, t)


# --------------------------------------------------------- exponent index

class PowerSumIndex(namedtuple("PowerSumIndex", "s alpha beta")):
    """s = alpha + beta*q with 0 <= alpha, beta <= q-1 and 1 <= s <= q^2-2."""

    __slots__ = ()

    @classmethod
    def from_s(cls, s: int, q: int) -> "PowerSumIndex":
        if not 1 <= s <= q * q - 2:
            raise ValueError(f"s={s} out of range for q={q}")
        return cls(s, s % q, s // q)

    @classmethod
    def useful(cls, alpha: int, q: int) -> "PowerSumIndex":
        """The exponent with beta = q-1-alpha, the only family that can give
        a nonzero sum."""
        if not 0 <= alpha <= q - 1:
            raise ValueError("alpha out of range")
        return cls.from_s(alpha + (q - 1 - alpha) * q, q)


def surviving_alphas(q: int, t: int) -> range:
    """The alphas, ascending, whose useful sum can be nonzero: every
    alpha < q for t = 1, the odd alphas < q-1 for t = 2."""
    if t == 2:
        return range(1, q - 1, 2)
    if t == 1:
        return range(q)
    raise ValueError(f"the power-sum criterion covers t in {{1, 2}}, got t={t}")


# ----------------------------------------------------- bracket coefficients

BRACKET_ROW_CACHE = 256


@lru_cache(maxsize=BRACKET_ROW_CACHE)
def bracket_row(alpha: int, shift: int, p: int) -> tuple:
    """The bracket row binom(alpha,i) (-1)^i binom(i + shift, alpha) mod p,
    for i = 0..alpha.

    shift is an integer representative; any representative correct mod p^L
    with p^L > alpha gives the same row.  Memoised apart from bracket, as
    one (alpha, shift) serves brackets of different r.
    """
    out = []
    sign = 1
    for i in range(alpha + 1):
        row = binom_intmod(alpha, i, p)
        out.append(sign * row * binom_intmod(i + shift, alpha, p) % p if row else 0)
        sign = -sign
    return tuple(out)


def bracket_coeffs(alpha: int, dhalf: int, odd_offset: int, p: int):
    """Coefficient rows (evens, odds) of the t=2 bracket, reduced mod p:
    evens[i] multiplies z^(2i) and has shift dhalf, odds[i] multiplies
    z^(2i+1) and has shift dhalf + odd_offset."""
    return bracket_row(alpha, dhalf, p), bracket_row(alpha, dhalf + odd_offset, p)


def bracket_coeffs_deficient(alpha: int, q: int, p: int):
    """Even-power row of the d = q-1 branch: shift (q-1)/2."""
    return bracket_row(alpha, (q - 1) // 2, p)


def _interleave(evens, odds) -> tuple:
    """E(Z^2) + Z*O(Z^2) as one coefficient tuple; O may be empty."""
    out = [0] * (2 * len(evens))
    out[::2], out[1:2 * len(odds):2] = evens, odds
    return tuple(out)


@lru_cache(maxsize=BRACKET_ROW_CACHE)
def bracket(alpha: int, r: int, q: int, t: int, p: int) -> tuple:
    """(d, P): the useful sum at alpha is P(z) for t = 2, P(h) for t = 1,
    up to a nonzero prefactor, with P a coefficient tuple over F_p.

    For t = 2, P(Z) = E(Z^2) + Z*O(Z^2), with no odd half on the d = q-1
    branch; for t = 1, P is one row, and () where d = q and the sum
    vanishes.
    """
    d = cd_pair(alpha, r, q, t).d
    if t == 1:
        return d, () if d == q else bracket_row(alpha, d, p)
    if d == q - 1:
        return d, _interleave(bracket_coeffs_deficient(alpha, q, p), ())
    return d, _interleave(*bracket_coeffs(alpha, d // 2, (q + 1) // 2, p))


# ------------------------------------------------------------ closed forms

def _closed_alpha(r: int, t: int, a: FieldElement, s) -> int | None:
    """The checks both closed forms make, in order; then the alpha of s if
    its sum can be nonzero, None if the sum vanishes outright."""
    check_quadratic_unit(a)
    q = a.ctx.base.order
    if t == 2 and q % 2 == 0:
        raise ValueError("closed form requires odd q")
    if math.gcd(r, q - 1) != 1:
        raise ValueError("closed form requires gcd(r, q-1) = 1")
    idx = s if isinstance(s, PowerSumIndex) else PowerSumIndex.from_s(int(s), q)
    if idx.alpha + idx.beta == q - 1 and idx.alpha in surviving_alphas(q, t):
        return idx.alpha
    return None


def _scaled(a: FieldElement, e: int, value: int, parity: int) -> FieldElement:
    """a^e * value, negated when parity is odd: the last step of every closed form."""
    ctx2 = a.ctx
    out = ctx2.mul(ctx2.pow(a.idx, e % (ctx2.order - 1)), value)
    return FieldElement(ctx2, ctx2.neg(out) if parity % 2 else out)


def power_sum_closed(r: int, t: int, a: FieldElement, s) -> FieldElement:
    """The closed form for t in {1, 2}: power_sum_t2_closed or
    power_sum_t1_closed, looked up by name at each call."""
    if t == 2:
        return power_sum_t2_closed(r, a, s)
    if t == 1:
        return power_sum_t1_closed(r, a, s)
    raise ValueError(f"closed form covers t in {{1, 2}}, got t={t}")


def power_sum_t2_closed(r: int, a: FieldElement, s) -> FieldElement:
    """Sum of f(x)^s over F_{q^2} for f = x^r (a + x^(2(q-1))), in closed form.

    Requires q odd, gcd(r, q-1) = 1, a != 0.  Zero unless alpha is odd and
    alpha + beta = q-1; otherwise B(z) = E(z^2) + z*O(z^2) times
    (-1)^(d/2) a^(alpha+1-q(1+d/2)).  On the d = q-1 branch O = 0 and, as
    z = (-a)^(-q(q+1)/2), that is -z*E(z^2)*a^(alpha+1).
    """
    alpha = _closed_alpha(r, 2, a, s)
    ctx2 = a.ctx
    if alpha is None:
        return ctx2.zero()
    sub = ctx2.base
    q = sub.order
    z = compute_z(a).idx
    y = ctx2.mul(z, z)  # z^2 lies in F_q
    d, P = bracket(alpha, r, q, 2, ctx2.char)
    value = ctx2.add(mp_eval(P[::2], y, sub), ctx2.mul(z, mp_eval(P[1::2], y, sub)))
    return _scaled(a, alpha + 1 - q * (1 + d // 2), value, d // 2)


def power_sum_t1_closed(r: int, a: FieldElement, s) -> FieldElement:
    """Sum of g(x)^s over F_{q^2} for g = x^r (a + x^(q-1)), in closed form.

    Requires gcd(r, q-1) = 1, a != 0; valid for even q as well.  Zero unless
    alpha + beta = q-1 and the remainder d is < q.
    """
    alpha = _closed_alpha(r, 1, a, s)
    ctx2 = a.ctx
    if alpha is None:
        return ctx2.zero()
    sub = ctx2.base
    q = sub.order
    h = sub.inv(ctx2.pow(a.idx, q + 1))  # a^(-(q+1)), an element of F_q
    d, P = bracket(alpha, r, q, 1, sub.char)  # P = () where d = q: the sum is 0
    return _scaled(a, alpha + 1 - q * (1 + d), mp_eval(P, h, sub), alpha + d + 1)


def power_sum_brute(r: int, t: int, a: FieldElement, s: int) -> FieldElement:
    """The oracle: literally sum f(x)^s over every x in F_{q^2}.

    No algebraic shortcuts beyond the field arithmetic and integer arithmetic
    on exponents.  f(g^k) = g^(r*k) * (a + g^(t(q-1)k)), whose second factor
    depends only on k mod q+1, as t(q-1)(q+1) = 0 mod q^2-1; so one row of q+1
    logs from FieldCtx.class_logs serves the walk, class by class, k = k0 +
    (q+1)i for 0 <= i < q-1.  Within a class log f(x)^s steps by r*s*(q+1)
    and repeats with period L = (q-1)/gcd(r*s, q-1), so each of its L
    exponents j is counted gcd(r*s, q-1) times (L = 1 for every useful s);
    the sum of (count_j mod p) * g^j is taken with the field's add.
    """
    check_quadratic_unit(a)
    if r < 1 or t < 1 or s < 1:
        raise ValueError("r, t, s must be positive")
    ctx2 = a.ctx
    q = ctx2.base.order
    return power_sum_on_class_row(ctx2, r, s, ctx2.class_logs(a.idx, t * (q - 1), q + 1))


def power_sum_on_class_row(ctx2: FieldCtx, r: int, s: int, row: list[int]) -> FieldElement:
    """power_sum_brute(r, t, a, s) walked on the class row of its a and t,
    row = ctx2.class_logs(a, t(q-1), q+1), which depends on (a, t) alone:
    a caller summing over many (r, s) computes it once."""
    q = ctx2.base.order
    n = ctx2.order - 1
    repeats = math.gcd(r * s, q - 1)
    step = r * s * (q + 1)
    steps = range(0, step * ((q - 1) // repeats), step)
    counts = {}  # exponent j -> number of x with f(x)^s = g^j
    for k0, lf in enumerate(row):
        if lf < 0:  # f(x) = 0 on the whole class contributes nothing
            continue
        e0 = s * (r * k0 + lf)  # log f(g^k0)^s = s*(r*k0 + log(a + g^(t(q-1)k0)))
        for e in steps:
            j = (e0 + e) % n
            counts[j] = counts.get(j, 0) + repeats
    # x = 0 contributes f(0)^s = 0 since r >= 1, s >= 1
    total = 0
    for j, c in counts.items():
        c %= ctx2.char  # an index below p is that integer in F_p
        if c:
            total = ctx2.add(total, ctx2.mul(c, ctx2.exp(j)))
    return FieldElement(ctx2, total)


# ----------------------------------------------------------- theta brackets

def theta_symbolic(alpha: int) -> BiPolyRZ:
    """2^alpha alpha! times the bracket sum with its index data left symbolic
    in r (the c = 1 regime): a polynomial in z over Z[r] of z-degree
    2*alpha+1 and r-degree alpha.  The bracket's entries are n/2 - (alpha+1)r/2
    with n = 2i + 2alpha + 1 for z^(2i) and n = 2i + 2alpha + 2 for z^(2i+1),
    and 2^alpha alpha! binom(n/2 - (alpha+1)r/2, alpha) is the integer product
    of (n - 2j) - (alpha+1)r over j < alpha."""
    if alpha < 1 or alpha % 2 == 0:
        raise ValueError("alpha must be odd and >= 1")
    coeffs = []
    for k in range(2 * alpha + 2):
        i, n = k // 2, k + 2 * alpha + 1
        acc = IntPoly.const((-1) ** i * math.comb(alpha, i))
        for j in range(alpha):
            acc = acc * IntPoly((n - 2 * j, -(alpha + 1)))
        coeffs.append(acc)
    return BiPolyRZ(coeffs)


def theta_modp_poly(alpha: int, dhalf: int, p: int) -> list[int]:
    """The bracket as a polynomial in z over F_p, for a residue representative
    dhalf of d/2 (taken mod p^L with p^L > alpha)."""
    out = list(_interleave(*bracket_coeffs(alpha, dhalf, (_period(alpha, p) + 1) // 2, p)))
    while out and not out[-1]:
        out.pop()
    return out


# ------------------------------------------------- exact rational identities

def _identity_sum(alpha: int, u: int, v: int, n1: int, n2: int) -> Fraction:
    """sum_i binom(alpha,i) (-1)^i (binom(i + n1/2, alpha) x^(2i) + binom(i + n2/2,
    alpha) x^(2i+1)) at x = u/v.  As binom(n/2, alpha) = prod_{j<alpha}(n - 2j)
    / (2^alpha alpha!), it is one integer sum over 2^alpha alpha! v^(2alpha+1),
    each product a window f[i:i + alpha] that slides one factor in and one out,
    and w = (-1)^i binom(alpha,i) u^(2i) v^(2(alpha-i)) steps to the next i by
    one exact multiply-divide."""
    fe, fo = (range(n - 2 * alpha + 2, n + 2 * alpha + 3, 2) for n in (n1, n2))
    pe, po = (math.prod(c or 1 for c in f[:alpha]) for f in (fe, fo))  # zeros left out: // stays exact
    ze, zo = (f.index(0) if 0 in f else -1 for f in (fe, fo))  # window i holds 0 iff 0 <= z - i < alpha
    w, u2, v2, total = v ** (2 * alpha), u * u, v * v, 0
    for i in range(alpha + 1):
        total += w * ((0 if 0 <= ze - i < alpha else pe) * v + (0 if 0 <= zo - i < alpha else po) * u)
        w = -w * (alpha - i) * u2 // ((i + 1) * v2)
        pe = pe * (fe[i + alpha] or 1) // (fe[i] or 1)
        po = po * (fo[i + alpha] or 1) // (fo[i] or 1)
    return Fraction(total, 2**alpha * math.factorial(alpha) * v ** (2 * alpha + 1))


def identity_value(alpha: int, which: str) -> Fraction:
    """One of the two exact rational bracket identities (they vanish for all
    odd alpha; the first, at x = 1/3, drives the (r, z) = (1, 1/3) family, the
    second, at x = 3, the (3, 3) family)."""
    if alpha < 1 or alpha % 2 == 0:
        raise ValueError("alpha must be odd and >= 1")
    settings = {"id310": (1, 3, alpha - 1, alpha), "id311": (3, 1, -2 - alpha, -1 - alpha)}
    if which not in settings:
        raise ValueError(f"unknown identity {which!r}")
    return _identity_sum(alpha, *settings[which])


def verify_identities(alpha_max: int) -> list[CheckReport]:
    """Evaluate both identities for every odd alpha <= alpha_max and report
    exact vanishing."""
    reports = []
    for name in ("id310", "id311"):
        bad = []
        for alpha in range(1, alpha_max + 1, 2):
            v = identity_value(alpha, name)
            if v != 0:
                bad.append((alpha, v))
        if bad:
            reports.append(
                CheckReport(f"identities.{name}.max{alpha_max}", FAIL, "0 for all odd alpha",
                            f"nonzero at {bad[:3]}")
            )
        else:
            reports.append(
                CheckReport(f"identities.{name}.max{alpha_max}", PASS,
                            "0 for all odd alpha", "0 for all odd alpha")
            )
    return reports
