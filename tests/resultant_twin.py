"""The Euclidean and Fraction twins of exactalg's resultants.

exactalg.mp_resultant is the subresultant PRS over Z or a finite field, and
resultant_univar and resultant_bivar_z run it and Newton interpolation on
integers.  The twin is independent of that kernel: euclid_resultant, the
Euclidean remainder sequence over any field (rational_twin.RatPoly as Q, or
a finite-field context), and on rational numbers throughout that resultant,
in two variables at integer values of r, interpolated by Newton's divided
differences in Fraction arithmetic.  Integer or rational inputs alike.
"""

from fractions import Fraction

from permbinom.exactalg import IntPoly, mp_divmod
from rational_twin import RatPoly, to_rq


def euclid_resultant(a, b, F):
    """Res(a, b) over a field F by the Euclidean remainder sequence: each step
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r), r = a mod b."""
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


def resultant_univar_twin(f, g):
    """Res(f, g) over Q: an int for two IntPoly inputs, else a Fraction."""
    res = Fraction(euclid_resultant(RatPoly(f.coeffs).coeffs, RatPoly(g.coeffs).coeffs, RatPoly))
    if isinstance(f, IntPoly) and isinstance(g, IntPoly):
        assert res.denominator == 1
        return res.numerator
    return res


def resultant_bivar_z_twin(F, G) -> RatPoly:
    """Res_z(F, G) over Q[r] from bound + 1 rational evaluations, skipping
    points where either leading z-coefficient vanishes."""
    F, G = to_rq(F), to_rq(G)
    if F.degree <= 0 and G.degree <= 0:
        raise ValueError("both arguments have z-degree 0")
    if F.degree <= 0:
        return (F.coeffs[0] if F.coeffs else RatPoly.zero()) ** G.degree
    if G.degree <= 0:
        return (G.coeffs[0] if G.coeffs else RatPoly.zero()) ** F.degree
    bound = F.r_degree * G.degree + G.r_degree * F.degree
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    x = 0
    while len(xs) < bound + 1:
        for cand in ([0] if x == 0 else [x, -x]):
            c = Fraction(cand)
            if F.lc.eval(c) == 0 or G.lc.eval(c) == 0:
                continue
            xs.append(c)
            ys.append(resultant_univar_twin(F.eval_r(c), G.eval_r(c)))
            if len(xs) == bound + 1:
                break
        x += 1
    return newton_twin(xs, ys)


def newton_twin(xs: list[Fraction], ys: list[Fraction]) -> RatPoly:
    """The polynomial through (xs, ys) by Fraction divided differences."""
    cs = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - j])
    out = RatPoly.zero()
    for x, c in zip(reversed(xs), reversed(cs)):
        out = out * RatPoly((-x, 1)) + RatPoly.const(c)
    return out
