"""The Cantor-Zassenhaus twin of the sweep's closed-form roots.

ppcheck.t2_passing_z finds the F_q roots of the alpha = 1 bracket by
formula: z = -1, then a quadratic by Euler's criterion and Tonelli-Shanks.
The twin is the general route the sweep once took, for a polynomial of any
degree: the gcd with z^q - z, then splitting by (z + delta)^((q-1)/2) - 1
(Cantor and Zassenhaus, Math. Comp. 36, 1981) on exactalg's polynomial
functions over F_q.
"""

from permbinom.exactalg import mp_divmod, mp_gcd, mp_powmod, mp_sub


def fq_roots(f, sub) -> list:
    """The distinct roots of f in F_q (q odd), ascending.

    G = gcd(f, z^q - z) is the product of the distinct linear factors of f.
    G splits into gcd(G, (z + delta)^((q-1)/2) - 1) and its cofactor at the
    first delta in 0, g, g^2, ..., g^(q-1) = 1 that gives a proper factor;
    some delta in F_q separates any two distinct roots, and about half of
    them do.  (Index order would try all of F_p first, and when q is an even
    power of p every element of F_p is a square, so two roots in F_p are
    separated only at delta = -root.)  ValueError on the zero polynomial.
    """
    g = mp_gcd(f, (), sub)
    if not g:
        raise ValueError("roots of the zero polynomial")
    q = sub.order
    if len(g) > 2:  # a linear f has its root in F_q
        g = mp_gcd(g, mp_sub(mp_powmod([0, 1], q, g, sub), [0, 1], sub), sub)
    todo, roots = [g], []
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(sub.neg(g[0]))
        elif len(g) > 2:
            for k in range(q):
                delta = sub.exp(k) if k else 0
                h = mp_sub(mp_powmod([delta, 1], (q - 1) // 2, g, sub), [1], sub)
                part = mp_gcd(g, h, sub)
                if 1 < len(part) < len(g):
                    todo += [part, mp_divmod(g, part, sub)[0]]
                    break
            else:
                raise AssertionError(f"no delta splits {g} over F_{q}")
    return sorted(roots)
