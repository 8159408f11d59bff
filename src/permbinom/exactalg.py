"""Exact polynomial algebra over Z, Q and finite fields, plus probable-prime
checks.

Dense representation throughout: a polynomial is its coefficient sequence,
lowest degree first, with no trailing zeros (the zero polynomial is the
empty sequence).  One set of mp_* functions (arithmetic, long division,
Horner evaluation, gcd, irreducibility, resultant) runs over a ring F
passed last: a finite-field context, whose polynomials are plain lists of
field indices, or one of the exact wrappers IntPoly / RatPoly / BiPolyRZ.
Each wrapper class is its own coefficient ring (add, sub, mul, neg, and div,
the exact quotient of two coefficients), so the wrappers' arithmetic is the
mp_* functions over Python ints, fractions.Fraction or, for BiPolyRZ (a
polynomial in z over Q[r]), RatPoly coefficients; no floating point.

The univariate resultant is mp_resultant, the Euclidean remainder sequence
over any field, with Q given as RatPoly; the two-variable one (with respect
to z, coefficients in Q[r]) is evaluation at integer points and exact
Lagrange interpolation.  The independent Sylvester-determinant routes that
cross-check both live in the tests.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "IntPoly",
    "RatPoly",
    "BiPolyRZ",
    "Factorization",
    "resultant_univar",
    "resultant_bivar_z",
    "to_modp",
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
    div, the exact quotient of two coefficients."""

    __slots__ = ("coeffs",)
    _coerce = staticmethod(lambda c: c)
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    pow = operator.pow

    @classmethod
    def div(cls, a, b):
        """Through Fraction, so that an integer pair never reaches float
        division."""
        return cls._coerce(Fraction(a) / b)

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
        if isinstance(other, (int, Fraction)):
            return self == type(self).const(self._coerce(other))
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
        out = type(self).const(self._coerce(1))
        for _ in range(e):
            out = out * self
        return out

    def _wrap(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            return type(self).const(self._coerce(other))
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
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{k}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class IntPoly(_BasePoly):
    """Polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ()

    @staticmethod
    def _coerce(c):
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c}")
            return c.numerator
        if not isinstance(c, int):
            raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        return c

    def to_rat(self) -> "RatPoly":
        return RatPoly(Fraction(c) for c in self.coeffs)


class RatPoly(_BasePoly):
    """Polynomial with exact rational coefficients in lowest terms."""

    __slots__ = ()
    _coerce = staticmethod(Fraction)

    def monic(self) -> "RatPoly":
        return RatPoly(mp_monic(self.coeffs, RatPoly))


class BiPolyRZ(_BasePoly):
    """Polynomial in z whose coefficients are exact rational polynomials in r."""

    __slots__ = ()

    @staticmethod
    def _coerce(c):
        return c if isinstance(c, RatPoly) else RatPoly.const(c)

    @staticmethod
    def div(a, b):
        return a.divexact(b)

    @property
    def r_degree(self):
        return max((c.degree for c in self.coeffs), default=-1)

    def eval_r(self, x) -> RatPoly:
        """Substitute a rational value for r; the result is a polynomial in z."""
        return RatPoly([c.eval(Fraction(x)) for c in self.coeffs])

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

def resultant_univar(f, g):
    """Exact resultant of two univariate polynomials over Z or Q: the
    Euclidean sequence of mp_resultant with RatPoly as the field.

    Two IntPoly inputs give an int; otherwise the result is a Fraction.
    """
    res = Fraction(mp_resultant(RatPoly(f.coeffs).coeffs, RatPoly(g.coeffs).coeffs, RatPoly))
    if not (isinstance(f, IntPoly) and isinstance(g, IntPoly)):
        return res
    if res.denominator != 1:  # pragma: no cover - int inputs always land here
        raise AssertionError("integer resultant produced a fraction")
    return res.numerator


def resultant_bivar_z(F: BiPolyRZ, G: BiPolyRZ) -> RatPoly:
    """Resultant with respect to z of two polynomials in (r, z), exact over Q[r].

    Evaluates the univariate resultant at enough integer values of r (skipping
    points where either leading z-coefficient vanishes, which would drop the
    degree) and interpolates.
    """
    if F.degree <= 0 and G.degree <= 0:
        raise ValueError("both arguments have z-degree 0")
    if F.degree <= 0:
        c = F.coeffs[0] if F.coeffs else RatPoly.zero()
        return c**G.degree
    if G.degree <= 0:
        c = G.coeffs[0] if G.coeffs else RatPoly.zero()
        return c**F.degree
    bound = F.r_degree * G.degree + G.r_degree * F.degree
    lf, lg = F.lc, G.lc
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    x = 0
    while len(xs) < bound + 1:
        for cand in ([0] if x == 0 else [x, -x]):
            c = Fraction(cand)
            if lf.eval(c) == 0 or lg.eval(c) == 0:
                continue
            xs.append(c)
            ys.append(resultant_univar(F.eval_r(c), G.eval_r(c)))
            if len(xs) == bound + 1:
                break
        x += 1
    return _newton(xs, ys)


def _newton(xs: list[Fraction], ys: list[Fraction]) -> RatPoly:
    """The polynomial through (xs, ys): Newton's divided differences,
    expanded from the innermost factor of the nested form outwards."""
    cs = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - j])
    out = RatPoly.zero()
    for x, c in zip(reversed(xs), reversed(cs)):
        out = out * RatPoly((-x, 1)) + RatPoly.const(c)
    return out


# ----------------------------------------- polynomials over a finite field

def to_modp(f, p: int) -> list[int]:
    """Reduce an IntPoly, a RatPoly or a list of ints or Fractions to its
    residue list mod p; ValueError if a denominator is not invertible."""
    out = []
    for c in map(Fraction, f.coeffs if isinstance(f, _BasePoly) else f):
        if c.denominator % p == 0:
            raise ValueError(f"denominator of {c} not invertible mod {p}")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return _trim(out)


# The mp_* functions take coefficient sequences, constant term first, over
# a ring F that supplies add, sub, mul, neg, pow and div.  mp_sub, mp_mul,
# mp_divmod, mp_eval and mp_monic also serve the exact wrapper classes, and
# mp_resultant serves RatPoly (Q); the rest need a field context (a FieldCtx
# of any order q, on F indices).  A
# prime context's indices are its residues, so to_modp output feeds in
# unchanged.

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
        c = quo[k - dd] = F.div(rem.pop(), lead)
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
    f = mp_monic(f, F)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if not f[0]:  # z divides f
        return False
    frob = [0, 1]
    for _ in range(n // 2):
        frob = mp_powmod(frob, F.order, f, F)
        if len(mp_gcd(f, mp_sub(frob, [0, 1], F), F)) > 1:
            return False
    return True


def mp_resultant(a, b, F):
    """Resultant over any field F by the Euclidean remainder sequence: an F
    index for a field context, a rational number for F = RatPoly (Q)."""
    if not a or not b:
        raise ValueError("resultant of the zero polynomial")
    acc = 1
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return F.mul(acc, F.pow(b[0], m))
        r = mp_divmod(a, b, F)[1]
        if not r:
            return 0
        acc = F.mul(acc, F.pow(b[-1], m - (len(r) - 1)))
        if m * n % 2:
            acc = F.neg(acc)
        a, b = b, r


# ----------------------------------------------------------- primality

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
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
    """Miller-Rabin with the fixed small-prime bases plus 20 rounds whose
    bases come from a generator seeded deterministically from n."""
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        if _mr_witness(a, d, s, n):
            return False
    rng = random.Random(n)
    for _ in range(MR_EXTRA_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _mr_witness(a, d, s, n):
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """A claimed factorization: unit * prod(base^mult).

    Bases are integers or IntPoly; multiplicities are positive.  The product
    must reconstruct the original value exactly, which is testable.
    """

    unit: int
    factors: tuple

    def __post_init__(self):
        if self.unit not in (1, -1):
            raise ValueError("unit must be +1 or -1")
        for _, mult in self.factors:
            if mult < 1:
                raise ValueError("multiplicities must be positive")

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
