"""The Fraction twin of exactalg's integer resultants.

exactalg.resultant_univar and resultant_bivar_z clear denominators and run
the subresultant PRS and Newton interpolation on integers.  The twin is the
route they replaced, on rational numbers throughout: mp_resultant's
Euclidean remainder sequence with RatPoly as the field, and in two
variables that resultant at integer values of r, interpolated by Newton's
divided differences in Fraction arithmetic.
"""

from fractions import Fraction

from permbinom.exactalg import BiPolyRZ, IntPoly, RatPoly, mp_resultant


def resultant_univar_twin(f, g):
    """Res(f, g) over Q: an int for two IntPoly inputs, else a Fraction."""
    res = Fraction(mp_resultant(RatPoly(f.coeffs).coeffs, RatPoly(g.coeffs).coeffs, RatPoly))
    if isinstance(f, IntPoly) and isinstance(g, IntPoly):
        assert res.denominator == 1
        return res.numerator
    return res


def resultant_bivar_z_twin(F: BiPolyRZ, G: BiPolyRZ) -> RatPoly:
    """Res_z(F, G) over Q[r] from bound + 1 rational evaluations, skipping
    points where either leading z-coefficient vanishes."""
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
