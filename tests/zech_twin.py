"""The table-backed twin of FieldCtx's Zech logs.

FieldCtx reads Z[k] = log(1 + g^k) as log[succ(exp[k])] where it adds.  The
twin is the Zech table the field once stored: adding 1 steps only the
lowest base-p digit of an index, v -> v + 1, or v - (p - 1) when
v % p = p - 1, so log(1 + v) over all v is log shifted down one place with
every p-th entry taken from the start of its digit block, gathered through
exp.  log[0] = -1 lands at the one k where 1 + g^k = 0.
"""

from array import array


def zech_table(ctx) -> array:
    """Z[k] = log(1 + g^k) for k < |F*|, -1 where 1 + g^k = 0."""
    p, log = ctx.char, ctx._log
    log_succ = log[1:]
    log_succ.append(-1)
    log_succ[p - 1 :: p] = log[::p]
    return array("i", map(log_succ.__getitem__, ctx._exp))
