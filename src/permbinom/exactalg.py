"""Exact polynomial algebra over Z and finite fields, plus probable-prime
checks.

Dense representation throughout: a polynomial is its coefficient sequence,
lowest degree first, with no trailing zeros (the zero polynomial is the
empty sequence).  One set of mp_* functions (arithmetic, long division,
Horner evaluation, gcd, irreducibility, resultant) runs over a ring F
passed last: a finite-field context, whose polynomials are plain lists of
field indices, or one of the exact wrappers IntPoly / BiPolyRZ.  Each
wrapper class is its own coefficient ring (add, sub, mul, neg, and div, the
exact quotient of two coefficients), so the wrappers' arithmetic is the
mp_* functions over Python ints or, for BiPolyRZ (a polynomial in z over
Z[r]), IntPoly coefficients; Z is the one exact ring, with no fractions and
no floating point.  IntPoly.div is divmod, raising ValueError on a nonzero
remainder, so every quotient is checked.  A value at a rational r = x/den
is homogenised over one denominator (BiPolyRZ.eval_r).

One resultant algorithm, mp_resultant's subresultant PRS, serves Z (over
IntPoly) and finite fields; in two variables it runs at integer values of r,
followed by Newton interpolation, every quotient an IntPoly.div.  The
Sylvester-determinant, Euclidean and rational twins that cross-check them
live in tests/.
"""

from __future__ import annotations

import operator
import random
from collections import namedtuple

__all__ = [
    "IntPoly",
    "BiPolyRZ",
    "Factorization",
    "resultant_univar",
    "resultant_bivar_z",
    "to_modp",
    "render_coeffs",
    "mp_sub",
    "mp_mul",
    "mp_divmod",
    "mp_eval",
    "mp_monic",
    "mp_gcd",
    "mp_powmod",
    "mp_irreducible",
    "mp_resultant",
    "is_probable_prime",
    "primality_and_factor_check",
]


# ----------------------------------------------------------------- helpers

def _trim(cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


class _BasePoly:
    """Shared plumbing for the dense wrappers.  The class is also the
    coefficient ring the mp_* functions read: add, sub, mul, neg, pow, and
    each subclass's div, the exact quotient of two coefficients."""

    __slots__ = ("coeffs",)
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    pow = operator.pow

    def __init__(self, coeffs=()):
        self.coeffs = tuple(_trim([self._coerce(c) for c in coeffs]))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def const(cls, c):
        return cls((c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, _BasePoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == type(self).const(other)
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __add__(self, other):
        return self - (-self._wrap(other))

    __radd__ = __add__

    def __neg__(self):
        return type(self)(map(operator.neg, self.coeffs))

    def __sub__(self, other):
        return type(self)(mp_sub(self.coeffs, self._wrap(other).coeffs, type(self)))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        return type(self)(mp_mul(self.coeffs, self._wrap(other).coeffs, type(self)))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        out = type(self).const(1)
        for _ in range(e):
            out = out * self
        return out

    def _wrap(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, int):
            return type(self).const(other)
        raise TypeError(f"cannot mix {type(other).__name__} with {type(self).__name__}")

    def divmod(self, other):
        """Long division: (quotient, remainder) with deg remainder < deg other."""
        quo, rem = mp_divmod(self.coeffs, other.coeffs, type(self))
        return type(self)(quo), type(self)(rem)

    def divexact(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def eval(self, x):
        return mp_eval(self.coeffs, x, type(self))

    def render(self, var="r"):
        return render_coeffs(self.coeffs, var)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class IntPoly(_BasePoly):
    """Polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ()

    @staticmethod
    def _coerce(c):
        if not isinstance(c, int):
            raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        return c

    @staticmethod
    def div(a: int, b: int) -> int:
        """The exact integer quotient; ValueError on a nonzero remainder."""
        quo, rem = divmod(a, b)
        if rem:
            raise ValueError(f"{a} is not divisible by {b}")
        return quo


class BiPolyRZ(_BasePoly):
    """Polynomial in z whose coefficients are integer polynomials in r."""

    __slots__ = ()

    @staticmethod
    def _coerce(c):
        return c if isinstance(c, IntPoly) else IntPoly.const(c)

    @staticmethod
    def div(a, b):
        return a.divexact(b)

    @property
    def r_degree(self):
        return max((c.degree for c in self.coeffs), default=-1)

    def eval_r(self, x: int, den: int = 1) -> IntPoly:
        """den^d * self(x/den, z) with d = r_degree: the polynomial in z at the
        rational r = x/den over the one denominator den^d, homogenised as
        sum_k c_k x^k den^(d-k) so that it stays in Z[z]."""
        d = self.r_degree
        return IntPoly(sum(c * x**k * den ** (d - k) for k, c in enumerate(cs.coeffs)) for cs in self.coeffs)

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            zpow = "" if k == 0 else ("*z" if k == 1 else f"*z^{k}")
            parts.append(f"({c.render('r')}){zpow}")
        return " + ".join(parts)


# -------------------------------------------------------------- resultants

def resultant_univar(f: IntPoly, g: IntPoly) -> int:
    """Exact resultant of two polynomials over Z: mp_resultant over IntPoly."""
    return mp_resultant(f.coeffs, g.coeffs, IntPoly)


def resultant_bivar_z(F: BiPolyRZ, G: BiPolyRZ) -> IntPoly:
    """Resultant with respect to z of two polynomials in Z[r][z], in Z[r].

    mp_resultant at bound + 1 integer r (skipping points where either leading
    z-coefficient vanishes, which would drop the degree), then interpolated.
    """
    if not F or not G:
        raise ValueError("resultant of the zero polynomial")
    if F.degree == 0 and G.degree == 0:
        raise ValueError("both arguments have z-degree 0")
    bound = F.r_degree * G.degree + G.r_degree * F.degree
    xs, ys, x = [], [], 0
    while len(xs) <= bound:
        fx, gx = ([c.eval(x) for c in P.coeffs] for P in (F, G))
        if fx[-1] and gx[-1]:
            xs.append(x)
            ys.append(mp_resultant(fx, gx, IntPoly))
        x = (x <= 0) - x  # 0, 1, -1, 2, -2, ...
    return _newton(xs, ys)


def _newton(xs: list[int], ys: list[int]) -> IntPoly:
    """The polynomial in Z[r] through integer points: Newton's divided differences,
    each an exact IntPoly.div (ValueError if the interpolant is not in Z[r]),
    expanded from the innermost factor out."""
    cs = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            cs[i] = IntPoly.div(cs[i] - cs[i - 1], xs[i] - xs[i - j])
    out = IntPoly.zero()
    for x, c in zip(reversed(xs), reversed(cs)):
        out = out * IntPoly((-x, 1)) + c
    return out


# ----------------------------------------- polynomials over a finite field

def to_modp(f, p: int, den: int = 1) -> list[int]:
    """The residue list mod p of an IntPoly or a list of ints, over the
    denominator den; ValueError if den is not invertible mod p."""
    if den % p == 0:
        raise ValueError(f"denominator {den} not invertible mod {p}")
    inv = pow(den, -1, p)
    return _trim([c * inv % p for c in (f.coeffs if isinstance(f, _BasePoly) else f)])


def render_coeffs(coeffs, var: str = "r") -> str:
    """c0 + c1*var + c2*var^2 + ..., zero terms left out, each coefficient
    by its str."""
    parts = []
    for k, c in enumerate(coeffs):
        if c:
            parts.append(str(c) if k == 0 else f"{c}*{var}" if k == 1 else f"{c}*{var}^{k}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


# The mp_* functions take coefficient sequences, constant term first, over
# a ring F that supplies add, sub, mul, neg, pow and div.  mp_sub, mp_mul,
# mp_divmod, mp_eval, mp_monic and mp_resultant also serve the exact wrapper
# classes; mp_gcd, mp_powmod and mp_irreducible need a field of any order q,
# on its indices: an ff.PrimeField, whose indices are its residues, so to_modp
# output feeds in unchanged, or an ff.FieldCtx extension.

def mp_sub(a, b, F):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = F.sub(out[i], c)
    return _trim(out)


def mp_mul(a, b, F):
    if not a or not b:
        return []
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
    return _trim(out)


def mp_divmod(a, b, F):
    """Quotient and remainder of a by b, whose last coefficient is nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    add, mul = F.add, F.mul
    rem, dd, lead = list(a), len(b) - 1, b[-1]
    quo = [0] * max(0, len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = quo[k - dd] = rem.pop() if lead == 1 else F.div(rem.pop(), lead)
        if c:
            nc = F.neg(c)
            for i in range(dd):
                rem[k - dd + i] = add(rem[k - dd + i], mul(nc, b[i]))
    return _trim(quo), _trim(rem)


def mp_eval(a, x, F):
    """Horner evaluation of a at x."""
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def mp_monic(a, F):
    return [F.div(c, a[-1]) for c in a] if a else []


def mp_gcd(a, b, F):
    """The monic gcd; inputs may end in zeros; [] when both are zero."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, mp_divmod(a, b, F)[1]
    return mp_monic(a, F)


def mp_powmod(base, e, f, F):
    """base^e mod f by square and multiply."""
    result = [1]
    base = mp_divmod(base, f, F)[1]
    while e > 0:
        if e & 1:
            result = mp_divmod(mp_mul(result, base, F), f, F)[1]
        e >>= 1
        if e:
            base = mp_divmod(mp_mul(base, base, F), f, F)[1]
    return result


def mp_irreducible(f, F) -> bool:
    """Exact irreducibility over F = F_q: no factor of degree <= deg(f)/2.

    Uses gcds with z^(q^i) - z, whose roots are exactly the elements of the
    degree-i extensions of F.
    """
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if not f[0]:  # z divides f
        return False
    f = mp_monic(f, F)
    frob = [0, 1]
    for _ in range(n // 2):
        frob = mp_powmod(frob, F.order, f, F)
        if len(mp_gcd(f, mp_sub(frob, [0, 1], F), F)) > 1:
            return False
    return True


def mp_resultant(a, b, F):
    """Res(a, b) in F by the subresultant PRS (Collins 1967; Brown and Traub
    1971; Cohen, Alg. 3.3.7), pseudo-remainders from mp_divmod: every quotient
    is exact, so F may be Z (IntPoly, an int) or a finite field (an index)."""
    if not a or not b:
        raise ValueError("resultant of the zero polynomial")
    if len(a) < len(b):
        res = mp_resultant(b, a, F)
        return F.neg(res) if (len(a) - 1) * (len(b) - 1) % 2 else res
    s = g = h = 1
    mul, pw, div = F.mul, F.pow, F.div
    while len(b) > 1:
        d, s = len(a) - len(b), F.neg(s) if (len(a) - 1) * (len(b) - 1) % 2 else s
        lead, gh = pw(b[-1], d + 1), mul(g, pw(h, d))
        r = mp_divmod([mul(c, lead) for c in a], b, F)[1]
        if not r:
            return 0
        a, b, g, h = b, [div(c, gh) for c in r], b[-1], div(mul(pw(b[-1], d), h), pw(h, d))
    return div(mul(s, pw(b[0], len(a) - 1)), pw(h, max(len(a) - 2, 0)))


# ----------------------------------------------------------- primality

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k: every n below it that passes the first k bases above is prime
# (Sorenson and Webster 2015; OEIS A014233), so the seeded rounds only run
# from psi_12 up
MR_PSI = (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747, 3_474_749_660_383,
          341_550_071_728_321, 341_550_071_728_321, 3_825_123_056_546_413_051,
          3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461)
MR_BASES_DECIDE_BELOW = MR_PSI[-1]
MR_EXTRA_ROUNDS = 20


def _mr_witness(a: int, d: int, s: int, n: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the fixed small-prime bases, the first k of which
    decide every n below psi_k (so base 2 alone every n < 2047), plus, from
    MR_BASES_DECIDE_BELOW up, 20 rounds whose bases come from a generator
    seeded deterministically from n."""
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(MR_BASES, MR_PSI):
        if _mr_witness(a, d, s, n):
            return False
        if n < psi:
            return True
    rng = random.Random(n)
    for _ in range(MR_EXTRA_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _mr_witness(a, d, s, n):
            return False
    return True


class Factorization(namedtuple("Factorization", "unit factors")):
    """A claimed factorization: unit * prod(base^mult).

    Bases are integers or IntPoly; multiplicities are positive.  The product
    must reconstruct the original value exactly, which is testable.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.unit not in (1, -1):
            raise ValueError("unit must be +1 or -1")
        for _, mult in self.factors:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
        return self

    def value(self):
        acc = self.unit
        for base, mult in self.factors:
            acc = acc * base**mult
        return acc


def primality_and_factor_check(n: int, claimed: Factorization | None = None) -> str:
    """Probable-primality of n, or verification of a claimed factorization.

    Verdicts are 'probable' by construction: no certificate is produced.
    Claimed-factorization mode checks exact product reconstruction and
    probable-primality of every integer base.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    if claimed is None:
        return "probable-prime" if is_probable_prime(abs(n)) else "composite"
    if claimed.value() != n:
        return "product-mismatch"
    for base, _ in claimed.factors:
        if not isinstance(base, int):
            return "non-integer-base"
        if not is_probable_prime(base):
            return f"composite-base:{base}"
    return "verified-probable"
