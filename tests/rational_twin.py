"""The rational twins of exactalg's integer algebra.

The package computes over Z alone: theta_symbolic is 2^alpha alpha! times the
bracket, BiPolyRZ.eval_r homogenises a rational r over one denominator, and
resultant_bivar_z takes integer inputs.  These twins keep the rational route
it replaced, over fractions.Fraction: RatPoly, the polynomial in z over Q[r]
(BiPolyRQ) with its eval_r at a rational r, the bracket with half-integer
binomial entries, and the resultant in (r, z) that clears denominators,
runs exactalg.mp_resultant on integers and divides the scale back out.
"""

import math
from fractions import Fraction

from permbinom.exactalg import BiPolyRZ, IntPoly, _BasePoly, _newton, mp_resultant


class RatPoly(_BasePoly):
    """Polynomial with exact rational coefficients in lowest terms."""

    __slots__ = ()
    _coerce = staticmethod(Fraction)
    div = staticmethod(lambda a, b: Fraction(a) / b)  # never float division

    def _wrap(self, other):
        return type(self)(other.coeffs) if isinstance(other, _BasePoly) else type(self).const(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self).const(other)
        return _BasePoly.__eq__(self, other)

    __hash__ = _BasePoly.__hash__


class BiPolyRQ(BiPolyRZ):
    """Polynomial in z whose coefficients are rational polynomials in r."""

    __slots__ = ()

    @staticmethod
    def _coerce(c):
        return RatPoly(c.coeffs) if isinstance(c, _BasePoly) else RatPoly.const(c)

    def _wrap(self, other):
        return type(self)(other.coeffs) if isinstance(other, BiPolyRZ) else type(self).const(other)

    def eval_r(self, x) -> RatPoly:
        """Substitute a rational value for r; the result is a polynomial in z."""
        return RatPoly([c.eval(Fraction(x)) for c in self.coeffs])


def to_rq(F) -> BiPolyRQ:
    """A BiPolyRZ, or a BiPolyRQ, as a BiPolyRQ."""
    return BiPolyRQ(F.coeffs)


def binom_affine_poly(c0: Fraction, c1: Fraction, k: int) -> RatPoly:
    """binom(c0 + c1*r, k) expanded as a polynomial in r over Q."""
    acc = RatPoly.const(1)
    for j in range(k):
        acc = acc * RatPoly((c0 - j, c1))
    return acc * RatPoly.const(Fraction(1, math.factorial(k)))


def theta_symbolic(alpha: int) -> BiPolyRQ:
    """The bracket sum with its index data left symbolic in r (the c = 1
    regime), exact over Q.  Entries are i + 1/2 + alpha - (alpha+1)r/2 for
    z^(2i) and i + 1 + alpha - (alpha+1)r/2 for z^(2i+1)."""
    half = Fraction(1, 2)
    slope = -Fraction(alpha + 1, 2)
    coeffs = []
    for i in range(alpha + 1):
        sgn = math.comb(alpha, i) * (-1) ** i
        coeffs.append(binom_affine_poly(Fraction(i) + half + alpha, slope, alpha) * sgn)
        coeffs.append(binom_affine_poly(Fraction(i + 1) + alpha, slope, alpha) * sgn)
    return BiPolyRQ(coeffs)


def clear(rows):
    """(D, rows * D in ints), D the lcm of the denominators of a nonzero polynomial."""
    if not rows or not rows[-1]:
        raise ValueError("resultant of the zero polynomial")
    d = math.lcm(*(Fraction(c).denominator for row in rows for c in row))
    return d, [[int(c * d) for c in row] for row in rows]


def resultant_bivar_z(F, G) -> RatPoly:
    """Res_z(F, G) over Q[r]: mp_resultant of D_F F and D_G G, in Z[r][z] by
    the lcms of their denominators, at bound + 1 integer r, interpolated,
    over D_F^deg G D_G^deg F."""
    F, G = to_rq(F), to_rq(G)
    (df, fz), (dg, gz) = clear([c.coeffs for c in F.coeffs]), clear([c.coeffs for c in G.coeffs])
    if F.degree == 0 and G.degree == 0:
        raise ValueError("both arguments have z-degree 0")
    bound = F.r_degree * G.degree + G.r_degree * F.degree
    xs, ys, x = [], [], 0
    while len(xs) <= bound:
        fx, gx = ([IntPoly(cs).eval(x) for cs in P] for P in (fz, gz))
        if fx[-1] and gx[-1]:
            xs.append(x)
            ys.append(mp_resultant(fx, gx, IntPoly))
        x = (x <= 0) - x  # 0, 1, -1, 2, -2, ...
    return RatPoly(_newton(xs, ys).coeffs) * RatPoly.const(Fraction(1, df**G.degree * dg**F.degree))
