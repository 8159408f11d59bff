"""The per-entry twin of FieldCtx._build_tables.

The field writes its exp/log tables by slice copies and whole-row integer
sums.  The twin is the build that did it entry by entry: the same heads
g^0, ..., g^(N-1), stepped by the matrix of x -> x*g over the base, then
each stride-N column exp[b::N] summed from rotated Python lists of
B^j * w^i, one per nonzero coordinate of g^b (w = g^N), and log as one
inverse pass over exp.
"""

import operator
from array import array
from functools import partial, reduce

from permbinom.exactalg import mp_divmod


def twin_tables(ctx) -> tuple[array, array]:
    """(exp, log) of an extension level, log[0] = -1, built entry by entry."""
    base, d, B, n = ctx.base, ctx.degree, ctx.base.order, ctx.order - 1
    N = n // (B - 1)
    add, mul = base.add, base.mul
    cols = [mp_divmod([0] * j + ctx.coeffs(ctx.gen_idx), ctx.modulus, base)[1] for j in range(d)]
    heads, c = [], [1] + [0] * (d - 1)
    for _ in range(N):
        heads.append(c)
        nxt = [0] * d
        for cj, col in zip(c, cols):
            if cj:
                for t, v in enumerate(col):
                    nxt[t] = add(nxt[t], mul(cj, v))
        c = nxt
    P = [1]
    for _ in range(B - 2):
        P.append(mul(P[-1], c[0]))
    ell = {v: l for l, v in enumerate(P)}
    weighted = [[B**j * v for v in P] for j in range(d)]
    exp = array("i", [0]) * n
    for b, head in enumerate(heads):
        rots = [wp[ell[cj]:] + wp[: ell[cj]] for wp, cj in zip(weighted, head) if cj]
        exp[b::N] = array("i", reduce(partial(map, operator.add), rots))
    log = array("i", [-1]) * ctx.order
    for k, v in enumerate(exp):
        log[v] = k
    return exp, log
