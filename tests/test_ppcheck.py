import itertools
import math
import random
from collections import Counter

import pytest

from permbinom import powersum, ppcheck
from permbinom.ff import PrimePower, build_subfield, build_tower, compute_z, enumerate_elements
from permbinom.ppcheck import (
    BinomialParams,
    Collision,
    NonzeroPowerSum,
    RootCountExcess,
    classify_family,
    expand_z_to_a,
    is_pp_brute,
    is_pp_powersum,
    t2_passing_z,
    t2_z_first_failure,
    thm21_bound,
)
from permbinom.powersum import PowerSumIndex, power_sum_closed, surviving_alphas
from permbinom.search import odd_prime_powers, thm21_desk_sweep


def params(p, m, r, t, a_idx):
    fq, fq2 = build_tower(p, m)
    return BinomialParams(fq2.element(a_idx), r, t)


def test_binomial_params_validation():
    fq, fq2 = build_tower(3, 1)
    with pytest.raises(ValueError):
        BinomialParams(fq2.zero(), 1, 2)
    with pytest.raises(ValueError):
        BinomialParams(fq2.one(), 0, 2)  # r < 1
    with pytest.raises(ValueError):
        BinomialParams(fq2.one(), 1, 4)  # t > q


# -------------------------------------------------------------- brute force

def test_brute_known_pp_q3_r1():
    # a^2 = -1 makes x(a + x^4) a permutation of F_9
    fq, fq2 = build_tower(3, 1)
    found = 0
    for a in enumerate_elements(fq2, "nonzero"):
        if a * a == -fq2.one():
            found += 1
            assert is_pp_brute(BinomialParams(a, 1, 2)).is_pp
    assert found == 2


def test_brute_collision_witness_rechecks():
    fq, fq2 = build_tower(3, 1)
    verdict = is_pp_brute(BinomialParams(fq2.one(), 2, 2))
    assert not verdict.is_pp
    w = verdict.witness
    assert isinstance(w, Collision)
    f = lambda x: x**2 * (fq2.one() + x**4)
    assert f(w.x1) == f(w.x2) == w.value


def test_brute_thm42_directions():
    fq, fq2 = build_tower(3, 1)
    for a in enumerate_elements(fq2, "nonzero"):
        expected = a**4 != 1
        assert is_pp_brute(BinomialParams(a, 1, 1)).is_pp == expected


def test_brute_family_i_q5():
    fq, fq2 = build_tower(5, 1)
    for a in enumerate_elements(fq2, "nonzero"):
        if a**6 == 1 and (-a) ** 3 != 1:
            assert is_pp_brute(BinomialParams(a, 3, 2)).is_pp


# ---------------------------------------------------------------- fast test

def test_powersum_equals_brute_exhaustive_small():
    # on F_{q^2}, f depends on r only through x -> x^r, so r > q^2-2 is valid
    for p, m in ((3, 1), (5, 1), (7, 1), (2, 2)):
        fq, fq2 = build_tower(p, m)
        q = fq.order
        for t in (1, 2):
            if t == 2 and q % 2 == 0:
                continue
            for r in range(1, 2 * (q * q - 1) + 2):
                for a in enumerate_elements(fq2, "nonzero"):
                    ps = BinomialParams(a, r, t)
                    assert is_pp_powersum(ps).is_pp == is_pp_brute(ps).is_pp


def test_powersum_verdict_matches_closed_forms():
    # the fast test's witness is the first surviving alpha with a nonzero
    # closed form, and a permutation has every surviving closed form zero
    cases = [(q, 2) for q in (3, 5, 7, 9, 11)] + [(q, 1) for q in (3, 4, 5, 7, 8, 9)]
    branches = set()
    for q, t in cases:
        pp = PrimePower.from_q(q)
        fq, fq2 = build_tower(pp.p, pp.m)
        alphas = surviving_alphas(q, t)
        for r in range(1, q * q - 1):
            if math.gcd(r, q - 1) != 1:
                continue
            for a in enumerate_elements(fq2, "nonzero"):
                v = is_pp_powersum(BinomialParams(a, r, t))
                sums = (power_sum_closed(r, t, a, PowerSumIndex.useful(al, q)) for al in alphas)
                if isinstance(v.witness, NonzeroPowerSum):
                    first = next(al for al, val in zip(alphas, sums) if val != 0)
                    assert (v.witness.alpha, v.witness.s) == (first, PowerSumIndex.useful(first, q).s)
                elif v.is_pp:
                    assert all(val == 0 for val in sums), (q, t, r, a.text)
                branches.add((t, type(v.witness).__name__))
    assert {(t, w) for t in (1, 2) for w in ("NoneType", "NonzeroPowerSum")} <= branches


def test_powersum_witnesses():
    # gcd failure is a verdict with a note, not an error
    v = is_pp_powersum(params(5, 1, 2, 2, 3))
    assert not v.is_pp and "gcd" in v.note
    # root-count excess
    fq, fq2 = build_tower(5, 1)
    for a in enumerate_elements(fq2, "nonzero"):
        if (-a) ** 3 == 1:
            v = is_pp_powersum(BinomialParams(a, 3, 2))
            assert isinstance(v.witness, RootCountExcess)
            break
    # nonvanishing sum carries a replayable exponent
    from permbinom.powersum import power_sum_brute

    hit = False
    for a in enumerate_elements(fq2, "nonzero"):
        v = is_pp_powersum(BinomialParams(a, 7, 2))
        if isinstance(v.witness, NonzeroPowerSum):
            assert power_sum_brute(7, 2, a, v.witness.s).idx != 0
            hit = True
            break
    assert hit


def test_powersum_preconditions():
    with pytest.raises(ValueError):
        is_pp_powersum(params(3, 1, 1, 3, 1))  # t = 3
    fq, fq2 = build_tower(2, 2)
    with pytest.raises(ValueError):
        is_pp_powersum(BinomialParams(fq2.one(), 1, 2))  # t = 2, even q


def test_result_17_q7_never_pp():
    # q = 7 is 1 mod 3: no r = 3 permutation binomials at all
    fq, fq2 = build_tower(7, 1)
    for a in enumerate_elements(fq2, "nonzero"):
        assert not is_pp_powersum(BinomialParams(a, 3, 2)).is_pp


# ------------------------------------------------------------------ families

def test_classify_examples():
    fq, fq2 = build_tower(5, 1)
    for a in enumerate_elements(fq2, "nonzero"):
        if a**6 == 1 and (-a) ** 3 != 1:
            assert classify_family(BinomialParams(a, 3, 2)).tag == "family_i"
    # family_iii: r = 1, t = 2, (-a)^((q+1)/2) = 3
    hits = 0
    for a in enumerate_elements(fq2, "nonzero"):
        if (-a) ** 3 == 3:
            tag = classify_family(BinomialParams(a, 1, 2))
            assert tag.tag == "family_iii"
            assert compute_z(a) * 3 == 1  # the paper's (r, z) = (1, 1/3)
            hits += 1
    assert hits == 3
    # family_iv: r = 3, t = 2, (-a)^((q+1)/2) = 1/3 = 2 in F_5
    for a in enumerate_elements(fq2, "nonzero"):
        if (-a) ** 3 == 2:
            assert classify_family(BinomialParams(a, 3, 2)).tag == "family_iv"
            assert compute_z(a) == 3  # the paper's (r, z) = (3, 3)
    # r enters only mod q^2-1: r = 25 is family (iii) and r = 27 family (iv)
    for a in enumerate_elements(fq2, "nonzero"):
        for r in (1, 3):
            assert classify_family(BinomialParams(a, r + 24, 2)) == classify_family(BinomialParams(a, r, 2))
    tags = {classify_family(BinomialParams(a, r, 2)).tag for a in enumerate_elements(fq2, "nonzero") for r in (25, 27)}
    assert {"family_iii", "family_iv"} <= tags
    fq, fq2 = build_tower(3, 1)
    for a in enumerate_elements(fq2, "nonzero"):
        if a**4 != 1:
            tag = classify_family(BinomialParams(a, 5, 1))
            assert tag.tag == "thm42"
            assert "family_ii" in tag.fired


def test_family_tags_imply_pp():
    for p, m in ((3, 1), (5, 1), (3, 2)):
        fq, fq2 = build_tower(p, m)
        q = fq.order
        for t in (1, 2):
            for r in range(1, q * q - 1):
                for a in enumerate_elements(fq2, "nonzero"):
                    tag = classify_family(BinomialParams(a, r, t))
                    if tag.tag not in ("not_pp", "sporadic"):
                        assert is_pp_brute(BinomialParams(a, r, t)).is_pp
                    if tag.tag == "not_pp":
                        assert not tag.fired  # a fired family is always a permutation


def test_sporadic_exists_q5_r5():
    fq, fq2 = build_tower(5, 1)
    tags = {classify_family(BinomialParams(a, 5, 2)).tag
            for a in enumerate_elements(fq2, "nonzero")}
    assert "sporadic" in tags


def test_family_tag_and_brute_verdict_are_fibre_invariant():
    # search tags a whole z-fibre from one brute walk on its smallest-index a;
    # here every a of every fibre, non-PP ones included, is walked and tagged
    for p, m, q in odd_prime_powers(13):
        fq, fq2 = build_tower(p, m)
        descs = [("sub", z) for z in range(1, q)]
        descs += [("ext", y) for y in range(1, q) if fq.dlog(y) % 2]
        for r in range(1, 2 * (q + 1)):
            if math.gcd(r, q - 1) != 1:
                continue
            for desc in descs:
                fibre = [BinomialParams(a, r, 2) for _, a in expand_z_to_a(fq2, desc)]
                tags = {classify_family(ps) for ps in fibre}
                verdicts = {is_pp_brute(ps).is_pp for ps in fibre}
                assert len(tags) == len(verdicts) == 1, (q, r, desc, tags)


def test_classify_t_above_2_norm_one_only():
    # t > 2: only the norm-one family applies
    fq, fq2 = build_tower(5, 1)
    for a in enumerate_elements(fq2, "nonzero"):
        if a**6 != 1:
            continue
        for t in (3, 4, 5):
            g = math.gcd(6, t)
            expected_pp = (
                math.gcd(3 - t, 6) == 1 and (-a) ** (6 // g) != 1
            )
            tag = classify_family(BinomialParams(a, 3, t))
            assert (tag.tag == "family_i") == expected_pp
            if not expected_pp:
                assert tag.tag == "not_pp"


def test_classify_consistency_sweep_q7_q11():
    # every family tag is a genuine permutation and vice versa
    for p in (7, 11):
        fq, fq2 = build_tower(p, 1)
        q = p
        for t in (1, 2):
            for r in range(1, q * q - 1):
                if math.gcd(r, q - 1) != 1:
                    continue
                for a in enumerate_elements(fq2, "nonzero"):
                    ps = BinomialParams(a, r, t)
                    tag = classify_family(ps)
                    pp = is_pp_brute(ps).is_pp
                    assert (tag.tag != "not_pp") == pp
                    if tag.fired:
                        assert pp


# -------------------------------------------------------------------- bound

def test_thm21_bound_cases():
    assert thm21_bound(13, 5) == 122  # 13 = 3 mod 5
    assert thm21_bound(5, 3) == 25    # p = 3
    assert thm21_bound(7, 5) == 31    # generic
    assert thm21_bound(9, 3) == 50    # 9 = 3 = 0 mod 3
    assert thm21_bound(7, 11) == 31   # generic: 4r-7 = 21 != 0 mod 11
    with pytest.raises(ValueError):
        thm21_bound(4, 5)
    with pytest.raises(ValueError):
        thm21_bound(5, 2)


def test_thm21_bound_seven_fourths_case():
    # r = 7/4 mod p taken literally: 4r - 7 = 0 mod p
    p = 13
    r = None
    for cand in range(5, 100, 2):
        if (4 * cand - 7) % p == 0 and (cand - 3) % p != 0:
            r = cand
            break
    assert r == 5
    assert thm21_bound(r, p) == 8 * r - 15


# ------------------------------------------------------------------ z-sweep

def test_bad_extension_degree_is_value_error():
    # checked where every tower is built, not left to the modulus search
    for call in (lambda: build_subfield(3, 0), lambda: build_tower(3, 0),
                 lambda: t2_passing_z(3, 0, 5)):
        with pytest.raises(ValueError, match="extension degree"):
            call()


def test_z_sweep_matches_per_a():
    for p, m, r in ((3, 1, 1), (5, 1, 5), (7, 1, 5), (3, 2, 7)):
        fq, fq2 = build_tower(p, m)
        q = fq.order
        if math.gcd(r, q - 1) != 1:
            continue
        for include in (False, True):
            sweep = set()
            for h in t2_passing_z(p, m, r, include)[0]:
                for k, a in expand_z_to_a(fq2, h):
                    sweep.add(a.idx)
            direct = set()
            for a in enumerate_elements(fq2, "nonzero"):
                if not include and a ** (q + 1) == 1:
                    continue
                if is_pp_powersum(BinomialParams(a, r, 2)).is_pp:
                    direct.add(a.idx)
            assert sweep == direct


def test_z_sweep_matches_brute_across_shared_p():
    # the brute walk shares no bracket code with the sweep; fields of one p
    # and both r alternate, so a bracket memo keyed without q or r would
    # serve one field's or one r's rows to the next
    fields = ((3, 1), (3, 2), (5, 1), (5, 2), (7, 1))
    towers = {pm: build_tower(*pm)[1] for pm in fields}
    hits = Counter()
    powersum.t2_rows.cache_clear()
    for include in (False, True):
        for r in (5, 7):
            for (p, m), fq2 in towers.items():
                q = fq2.base.order
                sweep = {a.idx for h in t2_passing_z(p, m, r, include)[0] for _, a in expand_z_to_a(fq2, h)}
                brute = {a.idx for a in enumerate_elements(fq2, "nonzero")
                         if (include or a ** (q + 1) != 1) and is_pp_brute(BinomialParams(a, r, 2)).is_pp}
                assert sweep == brute, (p, m, r, include)
                hits[include] += len(sweep)
    assert 0 < hits[False] < hits[True]


def test_expand_preimage_count():
    # the fibres of a -> z partition F_{q^2}*: every z in F_q* and both roots
    # of every nonsquare y, each with (q+1)/2 preimages
    for p, m in ((3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (5, 2)):
        fq, fq2 = build_tower(p, m)
        q = fq.order
        descs = [("sub", z) for z in range(1, q)]
        descs += [("ext", y) for y in range(1, q) if fq.pow(y, (q - 1) // 2) != 1]
        covered = []
        for kind, idx in descs:
            pre = expand_z_to_a(fq2, (kind, idx))
            assert [k for k, _ in pre] == sorted(k for k, _ in pre)
            per_root = Counter()
            for k, a in pre:
                assert fq2.dlog(a.idx) == k
                z = compute_z(a)
                if kind == "sub":
                    assert z.idx == idx
                else:
                    assert (z * z).idx == idx and not fq2.in_subfield(z.idx)
                per_root[z.idx] += 1
            roots = 1 if kind == "sub" else 2
            assert list(per_root.values()) == [(q + 1) // 2] * roots
            covered += [a.idx for _, a in pre]
        assert sorted(covered) == list(range(1, fq2.order))


# ------------------------------------------------- alpha = 1 candidate roots

ROOT_FIELDS = ((3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (13, 1))


def _horner(f, z, sub):
    acc = 0
    for c in reversed(f):
        acc = sub.add(sub.mul(acc, z), c)
    return acc


def _times_linear(f, u, sub):
    """f * (z - u), coefficient lists constant term first."""
    out = [0] * (len(f) + 1)
    for i, c in enumerate(f):
        out[i + 1] = sub.add(out[i + 1], c)
        out[i] = sub.sub(out[i], sub.mul(u, c))
    return out


def _root_cases(sub, rng):
    """Cubics with F_p coefficients (all of them, or a seeded sample), seeded
    cubics with F_q coefficients, repeated roots, irreducible factors."""
    p, q = sub.char, sub.order
    prime = list(itertools.product(range(p), repeat=4))
    cases = prime if len(prime) <= 625 else rng.sample(prime, 300)
    cases = [list(c) for c in cases if any(c)]
    cases += [[rng.randrange(q) for _ in range(3)] + [rng.randrange(1, q)] for _ in range(200)]
    u, v = rng.randrange(q), rng.randrange(q)
    nonsquare = sub.exp(1)
    cases += [
        _times_linear(_times_linear([sub.neg(v), 1], u, sub), u, sub),  # (z-u)^2 (z-v)
        _times_linear(_times_linear([sub.neg(u), 1], u, sub), u, sub),  # (z-u)^3
        [sub.neg(nonsquare), 0, 1],                                      # irreducible
        _times_linear([sub.neg(nonsquare), 0, 1], u, sub),               # one F_q root
        [1, 0, 0, 0],                                                    # constant
    ]
    return cases


def test_fq_roots_match_exhaustive_evaluation():
    rng = random.Random(20160101)
    for p, m in ROOT_FIELDS:
        sub = build_subfield(p, m)
        kinds = Counter()
        for f in _root_cases(sub, rng):
            want = [z for z in range(sub.order) if _horner(f, z, sub) == 0]
            assert ppcheck._fq_roots(f, sub) == want, (p, m, f)
            kinds[len(want)] += 1
        # the sample holds cubics with no root in F_q and with three distinct roots
        assert kinds[0] and kinds[3], (p, m, kinds)
    f3 = build_subfield(3, 1)
    assert ppcheck._fq_roots([0, 2, 0, 1], f3) == [0, 1, 2]  # z^3 - z over F_3
    for zero in ([], [0, 0, 0]):
        with pytest.raises(ValueError, match="zero polynomial"):
            ppcheck._fq_roots(zero, f3)


def test_fq_roots_split_in_few_trials(monkeypatch):
    # each delta separates two given roots about half the time, so splitting
    # k distinct roots takes about 2(k - 1) powers; a wrong exponent can
    # still find the roots, by trying delta = -u for every root u, at O(q)
    # powers a split
    powmod = ppcheck.mp_powmod
    tries = Counter()  # powers taken to split, not the z^q of the gcd
    monkeypatch.setattr(ppcheck, "mp_powmod",
                        lambda f, e, g, sub: tries.update([e != sub.order]) or powmod(f, e, g, sub))
    rng = random.Random(7)
    splits = 0
    for p, m in ((7, 2), (3, 4), (5, 3), (13, 1)):
        sub = build_subfield(p, m)
        for f in _root_cases(sub, rng):
            splits += max(0, len(ppcheck._fq_roots(f, sub)) - 1)
    assert 0 < splits < tries[True] <= 4 * splits, (tries, splits)


def _per_z_sweep(p, m, r, include_norm_one):
    """The slow twin of the sweep: every z of F_q* except 1 (and -1 unless
    include_norm_one), then every nonsquare y, each through the full bracket
    test; the hits, and the first failing alpha of every other z."""
    sub = build_subfield(p, m)
    q = sub.order
    hits, first = [], Counter()
    if math.gcd(r, q - 1) != 1:
        return hits, first
    minus_one = sub.neg(1)
    tests = [(("sub", z), sub.mul(z, z), z) for z in range(2, q)
             if include_norm_one or z != minus_one]
    tests += [(("ext", y), y, None) for y in sorted(sub.exp(k) for k in range(1, q - 1, 2))]
    for desc, y, z in tests:
        alpha = t2_z_first_failure(sub, q, r, y, z)
        if alpha is None:
            hits.append(desc)
        else:
            first[alpha] += 1
    return hits, first


def test_sweep_matches_per_z_twin():
    deficient = 0
    for p, m, q in odd_prime_powers(125):
        for r in range(1, 42, 2):
            if math.gcd(r, q - 1) == 1 and powersum.t2_rows(1, r, q, p)[0] == q - 1:
                deficient += 1  # alpha = 1 has no odd row
            for include in (False, True):
                hits, first = _per_z_sweep(p, m, r, include)
                got_hits, got_first = t2_passing_z(p, m, r, include)
                assert got_hits == hits, (q, r, include)
                assert got_first == first and list(got_first) == sorted(first), (q, r, include)
    assert deficient


def test_desk_sweep_first_failure_matches_twin():
    out = thm21_desk_sweep(5, q_cap_sq=10**4)
    first = Counter()
    swept = 0
    for p, m, q in odd_prime_powers(100):
        if math.gcd(5, q - 1) == 1 and q >= thm21_bound(5, p):
            swept += 1
            first += _per_z_sweep(p, m, 5, False)[1]
    assert out["q_swept"] == swept
    assert out["first_failure"] == dict(sorted(first.items()))
    assert thm21_desk_sweep(5, q_cap_sq=10**4, jobs=2) == out  # histograms cross the pool
    assert out["first_failure"][1] > sum(out["first_failure"].values()) // 2
