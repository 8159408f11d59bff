"""The brute oracles against per-element references.

power_sum_brute and is_pp_brute walk F_{q^2}* by the q+1 classes of
x^(q-1), reading one Zech entry per class.  The references below read one
Zech entry per element, Z[j mod Q-1] for j = t(q-1)k - log a, and record
each image's first preimage in an array of Q entries; they share only the
exp/log tables with the package, and read Z from its table-backed twin.
"""

import random
import tracemalloc
from array import array
from itertools import compress

import pytest

from permbinom.ff import FieldElement, build_tower, enumerate_elements
from permbinom.ppcheck import BinomialParams, Collision, PPVerdict, is_pp_brute, is_pp_powersum
from permbinom.powersum import PowerSumIndex, power_sum_brute

from zech_twin import zech_table

# every prime power q <= 27, as (p, m)
FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
          (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)]


def power_sum_reference(r, t, a, s):
    """sum of f(x)^s, one Zech read per element, counts summed by Zech logs."""
    ctx2 = a.ctx
    q = ctx2.base.order
    n = ctx2.order - 1
    te = t * (q - 1) % n
    exp, log, zech = ctx2._exp, ctx2._log, zech_table(ctx2)
    la = log[a.idx]
    counts = [0] * n
    rs = r * s
    for e, j in zip(range(la * s, la * s + rs * n, rs), range(-la, te * n - la, te)):
        z = zech[j % n]
        if z >= 0:
            counts[(e + z * s) % n] += 1
    p = ctx2.char
    log_c = [log[c] for c in range(p)]
    acc = -1
    for j in compress(range(n), counts):
        c = counts[j] % p
        if not c:
            continue
        lt = log_c[c] + j
        if acc < 0:
            acc = lt % n
        else:
            z = zech[(lt - acc) % n]
            acc = -1 if z < 0 else (acc + z) % n
    return FieldElement(ctx2, 0 if acc < 0 else exp[acc])


def is_pp_reference(params):
    """Walk 0, g^0, g^1, ... keeping each image's first preimage; the first
    repeat is the witness."""
    ctx2 = params.ctx2
    Q = ctx2.order
    n = Q - 1
    q = params.q
    r, t, a_idx = params.r, params.t, params.a.idx
    te = t * (q - 1) % n
    preimage = array("i", [-1]) * Q  # log index of the first preimage; n means x = 0
    preimage[0] = n
    exp, zech = ctx2._exp, zech_table(ctx2)
    la = ctx2._log[a_idx]
    for k, rk, j in zip(range(n), range(la, la + r * n, r), range(-la, te * n - la, te)):
        z = zech[j % n]
        fx = 0 if z < 0 else exp[(rk + z) % n]
        prev = preimage[fx]
        if prev >= 0:
            x1 = ctx2.zero() if prev == n else ctx2.element(exp[prev])
            return PPVerdict(False, "brute", Collision(x1, ctx2.element(exp[k]), ctx2.element(fx)))
        preimage[fx] = k
    return PPVerdict(True, "brute")


def _coefficients(fq2, t, rng):
    """Every a for q <= 9; above that four seeded a, two of them making f
    vanish on a whole class (-a = x^(t(q-1)) for some x != 0)."""
    q = fq2.base.order
    if q <= 9:
        return list(enumerate_elements(fq2, "nonzero"))
    n = fq2.order - 1
    out = [fq2.element(fq2.exp(rng.randrange(n))) for _ in range(2)]
    out += [-fq2.element(fq2.exp(t * (q - 1) * rng.randrange(q + 1))) for _ in range(2)]
    return out


@pytest.mark.parametrize("p,m", FIELDS)
def test_brute_walks_match_per_element_references(p, m):
    _, fq2 = build_tower(p, m)
    q, Q = p**m, fq2.order
    rng = random.Random(Q)
    seen = {"collision_in_class": 0, "collision_across": 0, "zero_image": 0, "pp": 0}
    for t in (1, 2, 3):
        if t > q:
            continue
        for a in _coefficients(fq2, t, rng):
            for r in range(1, 2 * (q + 1)):
                ps = BinomialParams(a, r, t)
                got, want = is_pp_brute(ps), is_pp_reference(ps)
                assert got == want, (q, t, r, a.text, got, want)
                if got.is_pp:
                    seen["pp"] += 1
                elif got.witness.value == 0:
                    seen["zero_image"] += 1
                else:
                    k1, k2 = (fq2.dlog(x.idx) for x in (got.witness.x1, got.witness.x2))
                    seen["collision_in_class" if (k2 - k1) % (q + 1) == 0 else "collision_across"] += 1
                useful = PowerSumIndex.useful(rng.randrange(q), q).s
                for s in (useful, rng.randrange(1, Q - 1)):
                    assert power_sum_brute(r, t, a, s) == power_sum_reference(r, t, a, s), (q, t, r, a.text, s)
    # the grid reaches every kind of witness and both verdicts; at q = 2 a
    # class is one element, and no f of the grid permutes F_4
    kinds = {kind for kind, count in seen.items() if count}
    assert kinds == (set(seen) if q > 2 else {"collision_across", "zero_image"}), seen


def test_is_pp_brute_seen_map_is_one_byte_per_element():
    # a = g^(2(q-1)) has norm one and (-a)^((q+1)/2) != 1, and r = 7 has
    # gcd(r, q - 1) = gcd(r - 2, q + 1) = 1: the paper's family (i), so the
    # walk visits every element
    _, fq2 = build_tower(101, 1)
    q, Q = 101, fq2.order
    ps = BinomialParams(fq2.element(fq2.exp(2 * (q - 1))), 7, 2)
    assert is_pp_powersum(ps).is_pp
    tracemalloc.start()
    try:
        verdict = is_pp_brute(ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.is_pp
    assert peak < 2 * Q, peak
