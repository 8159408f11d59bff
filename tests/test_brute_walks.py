"""The brute oracles against per-element references.

power_sum_brute and is_pp_brute walk F_{q^2}* by the q+1 classes of
x^(q-1), reading one Zech entry per class; is_pp_brute decides a
permutation from the classes alone and walks elements only for a collision
witness.  The references below read one Zech entry per element,
Z[j mod Q-1] for j = t(q-1)k - log a, and record each image's first
preimage in an array of Q entries; they share only the exp/log tables with
the package, and read Z from its table-backed twin.
"""

import math
import random
import tracemalloc
from array import array
from itertools import compress

import pytest

from permbinom import ppcheck
from permbinom.ff import FieldElement, PrimePower, build_tower, enumerate_elements
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


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_is_pp_brute_permutation_allocates_no_seen_map():
    # a = g^(2(q-1)) has norm one and (-a)^((q+1)/2) != 1, and r = 5 has
    # gcd(r, q - 1) = gcd(r - 2, q + 1) = 1: the paper's family (i), decided
    # by its q + 1 classes without the Q - 1 byte map of the element walk
    _, fq2 = build_tower(1009, 1)
    q, Q = 1009, fq2.order
    ps = BinomialParams(fq2.element(fq2.exp(2 * (q - 1))), 5, 2)
    assert is_pp_powersum(ps).is_pp
    verdict, peak = _traced_peak(is_pp_brute, ps)
    assert verdict.is_pp
    assert peak < Q // 4, peak


def test_is_pp_brute_seen_map_is_one_byte_per_element():
    # a = g^(q-1) has norm one and -a is not a cube in mu_(q+1), and
    # gcd(r - t, q + 1) = 1 for (r, t) = (2, 3): the classes map to distinct
    # residues, but gcd(r, q - 1) = 2 pairs g^k with g^(k + (Q-1)/2), so the
    # walk marks half the field before its first collision
    _, fq2 = build_tower(101, 1)
    q, Q = 101, fq2.order
    ps = BinomialParams(fq2.element(fq2.exp(q - 1)), 2, 3)
    verdict, peak = _traced_peak(is_pp_brute, ps)
    assert not verdict.is_pp
    assert fq2.dlog(verdict.witness.x2.idx) == (Q - 1) // 2
    assert peak <= 2 * Q, peak
    assert verdict == is_pp_reference(ps)


def _family_members():
    """The permuting (q, r, t, a) that test_07_family_reproduction names: the
    t = 2 families for r = 1, 3 and q <= 13, the t = 1 family for q <= 13,
    and the norm-one criterion for q <= 9 and every t <= q."""
    for q in (3, 4, 5, 7, 8, 9, 11, 13):
        pp = PrimePower.from_q(q)
        _, fq2 = build_tower(pp.p, pp.m)
        one, three = fq2.one(), fq2.element(fq2.embed_int(3))
        for a in enumerate_elements(fq2, "nonzero"):
            norm_one = a ** (q + 1) == one
            if q % 2 and q > 3:
                w = (-a) ** ((q + 1) // 2)
                if w == -one or (three.idx and w == three):
                    yield BinomialParams(a, 1, 2)
                if q % 3 != 1 and (w == -one or (three.idx and w == three.inverse())):
                    yield BinomialParams(a, 3, 2)
            if not norm_one:
                for r in range(1, q * q - 1, q + 1):
                    if math.gcd(r, q - 1) == 1:
                        yield BinomialParams(a, r, 1)
            elif q <= 9:
                for t in range(1, q + 1):
                    if (-a) ** ((q + 1) // math.gcd(q + 1, t)) == one:
                        continue
                    for r in range(1, q * q - 1):
                        if math.gcd(r, q - 1) == math.gcd(r - t, q + 1) == 1:
                            yield BinomialParams(a, r, t)


def test_is_pp_brute_decides_permutations_by_classes(monkeypatch):
    """Every permuting verdict allocates no seen map (the class test decided
    it), and every other verdict comes from the element walk."""
    maps = []

    def counting_bytearray(*args):
        maps.append(args)
        return bytearray(*args)

    monkeypatch.setattr(ppcheck, "bytearray", counting_bytearray, raising=False)
    verdicts = 0
    for p, m in FIELDS:
        q = p**m
        if q > 9:
            continue
        _, fq2 = build_tower(p, m)
        for t in range(1, min(q, 3) + 1):
            for a in enumerate_elements(fq2, "nonzero"):
                for r in range(1, 2 * (q + 1)):
                    ps = BinomialParams(a, r, t)
                    before = len(maps)
                    got = is_pp_brute(ps)
                    assert len(maps) - before == (not got.is_pp), (q, t, r, a.text, got)
                    if got.is_pp:
                        verdicts += 1
                        assert got == is_pp_reference(ps), (q, t, r, a.text)
    assert verdicts
    members = list(_family_members())
    before = len(maps)
    for ps in members:
        assert is_pp_brute(ps) == PPVerdict(True, "brute"), ps
    assert len(maps) == before and len(members) > 1000, len(members)
