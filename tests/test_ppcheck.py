import math
from collections import Counter

import pytest

from permbinom import powersum
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
    thm21_bound,
)
from permbinom.powersum import PowerSumIndex, power_sum_closed, surviving_alphas


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
            for h in t2_passing_z(p, m, r, include):
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
    powersum._t2_rows.cache_clear()
    for include in (False, True):
        for r in (5, 7):
            for (p, m), fq2 in towers.items():
                q = fq2.base.order
                sweep = {a.idx for h in t2_passing_z(p, m, r, include) for _, a in expand_z_to_a(fq2, h)}
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
