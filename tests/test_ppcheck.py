import itertools
import math
import random
from collections import Counter

import pytest

from permbinom import exactalg, ff, powersum, ppcheck
from permbinom.exactalg import mp_gcd, mp_mul, mp_sub
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
from permbinom.powersum import (
    PowerSumIndex,
    bracket_coeffs,
    bracket_coeffs_deficient,
    bracket_row,
    cd_pair,
    power_sum_closed,
    surviving_alphas,
)
from permbinom.search import odd_prime_powers, thm21_desk_sweep
from cz_twin import fq_roots


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


def test_brute_reads_the_cap_on_every_call(monkeypatch):
    # the tower is cached from a higher cap; the walk is refused all the same
    fq, fq2 = build_tower(5, 1)
    monkeypatch.setenv("PERMBINOM_CAP", "24")
    with pytest.raises(ff.CapExceededError, match=r"q\^2 = 5\^2 exceeds the enumeration cap 24"):
        is_pp_brute(BinomialParams(fq2.element(1), 3, 2))


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


def test_powersum_divides_by_the_minimal_polynomial_of_z(monkeypatch):
    # a z outside F_q is decided by remainders modulo Z^2 - z^2, which z
    # must annihilate over F_{q^2}
    moduli = []
    first_failure_mod = ppcheck._first_failure_mod
    monkeypatch.setattr(ppcheck, "_first_failure_mod",
                        lambda q, r, mu, sub: moduli.append(mu) or first_failure_mod(q, r, mu, sub))
    outside = 0
    for p, m, r in ((3, 1, 5), (5, 1, 3), (7, 1, 5), (3, 2, 5)):
        fq, fq2 = build_tower(p, m)
        for a in enumerate_elements(fq2, "nonzero"):
            ps = BinomialParams(a, r, 2)
            moduli.clear()
            verdict = is_pp_powersum(ps)
            z = ps.z.idx
            if not moduli:
                assert fq2.in_subfield(z) or verdict.witness is not None
                continue
            (mu,) = moduli
            assert not fq2.in_subfield(z) and len(mu) == 3 and mu[2] == 1
            assert _horner(mu, z, fq2) == 0, (p, m, r, a.text, mu)
            assert verdict.witness.alpha == 1
            outside += 1
    assert outside == 80


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


def _z_image(fq2):
    """Every z of F_{q^2} with z^2 in F_q*: F_q* and both roots of each nonsquare."""
    return [z for z in range(1, fq2.order) if fq2.in_subfield(fq2.mul(z, z))]


def test_family_tag_and_brute_verdict_are_fibre_invariant():
    # search tags a whole z-fibre from one brute walk on its smallest-index a;
    # here every a of every fibre, non-PP ones included, is walked and tagged,
    # and the two roots of a nonsquare share their tag and verdict
    for p, m, q in odd_prime_powers(13):
        fq, fq2 = build_tower(p, m)
        zs = _z_image(fq2)
        for r in range(1, 2 * (q + 1)):
            if math.gcd(r, q - 1) != 1:
                continue
            fibre_of = {}
            for z in zs:
                fibre = [BinomialParams(a, r, 2) for _, a in expand_z_to_a(fq2, z)]
                tags = {classify_family(ps) for ps in fibre}
                verdicts = {is_pp_brute(ps).is_pp for ps in fibre}
                assert len(tags) == len(verdicts) == 1, (q, r, z, tags)
                fibre_of[z] = (tags, verdicts)
            for z in zs:
                if not fq2.in_subfield(z):
                    assert fibre_of[z] == fibre_of[fq2.neg(z)], (q, r, z)


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
    powersum.bracket.cache_clear()
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
        zs = _z_image(fq2)
        nonsquares = [y for y in range(1, q) if fq.pow(y, (q - 1) // 2) != 1]
        outside = [z for z in zs if not fq2.in_subfield(z)]
        assert zs[:q - 1] == list(range(1, q)) and len(outside) == 2 * len(nonsquares)
        assert sorted(fq2.mul(z, z) for z in outside) == sorted(2 * nonsquares)
        covered = []
        for z in zs:
            pre = expand_z_to_a(fq2, z)
            assert [k for k, _ in pre] == sorted(k for k, _ in pre)
            assert len(pre) == (q + 1) // 2
            for k, a in pre:
                assert fq2.dlog(a.idx) == k
                assert compute_z(a).idx == z
            covered += [a.idx for _, a in pre]
        assert sorted(covered) == list(range(1, fq2.order))


def test_expand_refuses_z_outside_the_image():
    # a z whose square lies outside F_q (the generator of F_{q^2}), or z = 0,
    # is the z of no a
    for p, m in ((3, 1), (5, 1), (3, 2)):
        fq, fq2 = build_tower(p, m)
        image = set(_z_image(fq2))
        assert not fq2.in_subfield(fq2.mul(fq2.gen_idx, fq2.gen_idx))
        for z in [0, fq2.gen_idx] + [z for z in range(1, fq2.order) if z not in image][:5]:
            with pytest.raises(ValueError):
                expand_z_to_a(fq2, z)


# ------------------------------------------------- alpha = 1 candidate roots

EXHAUSTIVE_ROOT_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2))
SAMPLED_ROOT_FIELDS = ((97, 1), (257, 1), (3, 4), (7, 2))


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
    """Every nonzero polynomial of degree <= 2 over F_q for q <= 25; above,
    a seeded sample of quadratics with random coefficients, double roots,
    two given roots and no root ((z - u)^2 - g*w^2, g a nonsquare), lines
    and constants, each scaled by a random leading coefficient."""
    q = sub.order
    if q <= 25:
        return [list(c) for c in itertools.product(range(q), repeat=3) if any(c)]
    cases = []
    for _ in range(60):
        u, v, w, lead = rng.randrange(q), rng.randrange(q), rng.randrange(1, q), rng.randrange(1, q)
        double = _times_linear(_times_linear([lead], u, sub), u, sub)
        irreducible = list(double)
        irreducible[0] = sub.sub(irreducible[0], sub.mul(lead, sub.mul(sub.gen_idx, sub.mul(w, w))))
        cases += [
            [rng.randrange(q), rng.randrange(q), lead],
            double,
            _times_linear(_times_linear([lead], u, sub), v, sub),
            irreducible,
            [rng.randrange(q), lead],
            [lead],
        ]
    return cases


def test_fq_roots_match_exhaustive_evaluation():
    # the sweep's closed-form roots of degree <= 2, against every z of F_q
    rng = random.Random(20160101)
    for p, m in EXHAUSTIVE_ROOT_FIELDS + SAMPLED_ROOT_FIELDS:
        sub = build_subfield(p, m)
        kinds = Counter()
        for f in _root_cases(sub, rng):
            want = [z for z in range(sub.order) if _horner(f, z, sub) == 0]
            assert ppcheck._small_roots(f, sub) == want, (p, m, f)
            kinds[max(i for i, c in enumerate(f) if c), len(want)] += 1
        # constants, lines, and quadratics with no, one (double) and two roots
        assert all(kinds[key] for key in ((0, 0), (1, 1), (2, 0), (2, 1), (2, 2))), (p, m, kinds)
        for zero in ([], [0], [0, 0, 0]):
            with pytest.raises(ValueError, match="zero polynomial"):
                ppcheck._small_roots(zero, sub)


def _interleave(evens, odds):
    """E(z^2) + z*O(z^2) as one coefficient list."""
    return [c for pair in itertools.zip_longest(evens, odds, fillvalue=0) for c in pair]


def test_bracket_poly_layout():
    # bracket(alpha, r, q, t, p) against its rows at cd_pair's d: for t = 2
    # the interleave of the even and odd halves, with no odd half on the
    # d = q-1 branch; for t = 1 the row at shift d, and () where d = q
    branches = Counter()
    for q in range(2, 28):
        try:
            p = PrimePower.from_q(q).p
        except ValueError:
            continue
        for t in (1, 2) if q % 2 else (1,):
            for r in range(1, 2 * (q + 1), 2):
                if math.gcd(r, q - 1) != 1:
                    continue
                for alpha in surviving_alphas(q, t):
                    d = cd_pair(alpha, r, q, t).d
                    edge = d == (q if t == 1 else q - 1)
                    if t == 1:
                        want = () if edge else bracket_row(alpha, d, p)
                    elif edge:
                        want = _interleave(bracket_coeffs_deficient(alpha, q, p), ())
                    else:
                        want = _interleave(*bracket_coeffs(alpha, d // 2, (q + 1) // 2, p))
                    assert powersum.bracket(alpha, r, q, t, p) == (d, tuple(want)), (q, r, t, alpha)
                    branches[t, edge] += 1
    assert len(branches) == 4, branches


def test_alpha1_bracket_is_z_plus_one_times_the_cofactor():
    # off the d = q-1 branch the rows (s, -(s+1)) put z = -1 among the roots
    # of B_1 = e0 + o0*z + e1*z^2 + o1*z^3, and B_1 = (z + 1)*Q with Q expanded
    # by hand; on it B_1 = E_1(z^2) and B_1(-1) = E_1(1) = -1
    off = deficient = 0
    for p, m, q in odd_prime_powers(125):
        fp = build_subfield(p, 1)
        for r in range(1, 42, 2):
            d, b1 = powersum.bracket(1, r, q, 2, p)
            if d != q - 1:
                off += 1
                e0, o0, e1, o1 = b1
                cofactor = [(o0 - e1 + o1) % p, (e1 - o1) % p, o1]
                assert not mp_sub(mp_mul([1, 1], cofactor, fp), b1, fp), (q, r)
            else:
                deficient += 1
                assert _horner(b1, p - 1, fp) == p - 1, (q, r)
    assert off > 500 and deficient


def test_no_nonsquare_passes_alpha_one():
    # a z outside F_q passes alpha = 1 iff y = z^2, a nonsquare, is a common
    # root of E_1 and O_1; over a full period of odd r the rows have one only
    # on the d = q-1 branch, where it is y = -1 and q = 1 mod 4 makes it a square
    pairs = deficient = 0
    for p, m, q in odd_prime_powers(1000):
        fp = build_subfield(p, 1)
        for r in range(1, 2 * (q + 1), 2):
            if math.gcd(r, q - 1) != 1:
                continue
            pairs += 1
            d, b1 = powersum.bracket(1, r, q, 2, p)
            common = mp_gcd(b1[::2], b1[1::2], fp)
            if len(common) > 1:
                deficient += 1
                assert common == [1, 1] and d == q - 1 and q % 4 == 1, (q, r, common)
    assert pairs == 60891 and deficient


def test_sweep_takes_no_polynomial_powers(monkeypatch):
    fields = [(p, m) for p, m, _ in odd_prime_powers(125)]
    for p, m in fields:  # a modulus search powers polynomials; the fields are memoised
        build_subfield(p, m)
    calls = Counter()
    powmod = exactalg.mp_powmod

    def counted(*args):
        calls[args[1]] += 1
        return powmod(*args)

    monkeypatch.setattr(exactalg, "mp_powmod", counted)
    monkeypatch.setattr(ppcheck, "mp_powmod", counted, raising=False)
    decided = sum(sum(t2_passing_z(p, m, r, True)[1].values()) for p, m in fields for r in (5, 7, 9))
    assert decided > 5000 and not calls, calls


@pytest.mark.parametrize("r", [5, 7, 9])
def test_sweep_candidates_match_cantor_zassenhaus_twin(r, monkeypatch):
    # every admissible prime q <= 3162 at or above the bound: the sweep tests
    # exactly the twin's roots of B_1 above 1, and the twin finds no
    # nonsquare root of gcd(E_1, O_1)
    qs = [q for p, m, q in odd_prime_powers(3162)
          if m == 1 and math.gcd(r, q - 1) == 1 and q >= thm21_bound(r, p)]
    tested = []
    first_failure = ppcheck.t2_z_first_failure
    monkeypatch.setattr(ppcheck, "t2_z_first_failure",
                        lambda sub, q, r, z: tested.append((sub.mul(z, z), z)) or first_failure(sub, q, r, z))
    candidates = 0
    for q in qs:
        sub = build_subfield(q, 1)
        b1 = powersum.bracket(1, r, q, 2, q)[1]
        ys = fq_roots(mp_gcd(b1[::2], b1[1::2], sub), sub)
        assert not [y for y in ys if y and sub.pow(y, (q - 1) // 2) != 1], q
        tested.clear()
        t2_passing_z(q, 1, r, True)
        want = [(sub.mul(z, z), z) for z in fq_roots(b1, sub) if z > 1]
        assert tested == want, q
        candidates += len(want)
    assert len(qs) > 200 and candidates > len(qs)


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
    for z in range(2, q):
        if include_norm_one or z != minus_one:
            alpha = t2_z_first_failure(sub, q, r, z)
            if alpha is None:
                hits.append(z)
            else:
                first[alpha] += 1
    # both roots of a nonsquare y lie outside F_q: a bracket vanishes there
    # iff E(y) = O(y) = 0, the even and odd halves of the bracket
    for y in sorted(sub.exp(k) for k in range(1, q - 1, 2)):
        for alpha in surviving_alphas(q, 2):
            b = powersum.bracket(alpha, r, q, 2, p)[1]
            if _horner(b[::2], y, sub) or _horner(b[1::2], y, sub):
                break
        else:
            alpha = None
        if alpha is None:
            hits.append(("nonsquare", y))  # named by no F_q index, so no sweep matches it
        else:
            first[alpha] += 1
    return hits, first


def test_sweep_matches_per_z_twin():
    deficient = 0
    for p, m, q in odd_prime_powers(125):
        for r in range(1, 42, 2):
            if math.gcd(r, q - 1) == 1 and powersum.bracket(1, r, q, 2, p)[0] == q - 1:
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


@pytest.mark.parametrize("q", [243, 343, 625, 729])
def test_sweep_matches_per_z_twin_past_125(q):
    # the twin works in F_q, the sweep in F_p: odd m (243, 343) leaves the
    # roots of an irreducible cofactor outside F_q, even m (625, 729) puts
    # both conjugates in it, here failing together at alpha = 3
    p, m = PrimePower.from_q(q)
    swept = 0
    for r in (5, 7, 9, 23, 43):
        for include in (False, True):
            hits, first = _per_z_sweep(p, m, r, include)
            got_hits, got_first = t2_passing_z(p, m, r, include)
            assert got_hits == hits, (q, r, include)
            assert got_first == first and list(got_first) == sorted(first), (q, r, include)
            swept += bool(first)
    assert swept >= 8


DESK_SWEEP_PINS = {  # r: (q_swept, first_failure) at q^2 <= 2*10^6, all confirmed
    5: (174, {1: 163972, 3: 169, 5: 4}),
    7: (191, {1: 186162, 3: 173, 5: 3}),
    9: (113, {1: 112756, 3: 96, 5: 1}),
}


@pytest.mark.parametrize("r", sorted(DESK_SWEEP_PINS))
def test_desk_sweep_pinned(r):
    out = thm21_desk_sweep(r, 2 * 10**6)
    assert (out["q_swept"], out["first_failure"]) == DESK_SWEEP_PINS[r]
    assert out["confirmed"] and not out["failures"]


def test_conjugate_pair_hits_are_named_in_fq():
    # q = 81, r = 23: B_1/(z + 1) is irreducible over F_3 and both of its
    # roots in F_81 pass every alpha
    assert t2_passing_z(3, 4, 23) == ([16, 22], {1: 116})
    assert all(not build_subfield(3, 4).in_subfield(z) for z in t2_passing_z(3, 4, 23)[0])


def test_desk_sweep_builds_no_extension_field(monkeypatch):
    # bracket rows are residues mod p, so every q = p^m is decided in F_p;
    # F_q would be built only to name a passing conjugate pair, and the
    # pairs these sweeps meet (q = 25, 49, 81, 289, 529, 625, 729, 961 and
    # 1369) all fail
    built = []
    subfield, init = ppcheck.build_subfield, ff.FieldCtx.__init__

    def recorded_init(self, *args):
        init(self, *args)
        built.append((self.char, self.abs_degree))

    monkeypatch.setattr(ppcheck, "build_subfield", lambda p, m: built.append((p, m)) or subfield(p, m))
    monkeypatch.setattr(ff.FieldCtx, "__init__", recorded_init)
    for r in (5, 7, 9):
        thm21_desk_sweep(r, 2 * 10**6)
    assert built and all(m == 1 for _, m in built), sorted(set(built))


def _norm_one_bracket_loop(sub, q, r, z):
    """The bracket loop at y = z^2 = 1, the twin of the closed-form verdict."""
    for alpha in surviving_alphas(q, 2):
        b = powersum.bracket(alpha, r, q, 2, sub.char)[1]
        if sub.add(_horner(b[::2], 1, sub), sub.mul(z, _horner(b[1::2], 1, sub))):
            return alpha
    return None


def test_norm_one_reads_no_bracket_row(monkeypatch):
    # z = +-1 is decided in closed form, without a single bracket row
    monkeypatch.setattr(ppcheck, "bracket", lambda *args: pytest.fail(f"bracket {args}"))
    for p, m, q in odd_prime_powers(81):
        sub = build_subfield(p, m)
        for r in (1, 5, 7):
            assert t2_z_first_failure(sub, q, r, 1) == 1
            assert t2_z_first_failure(sub, q, r, sub.neg(1)) in {None, *surviving_alphas(q, 2)}


def test_norm_one_closed_form_matches_bracket_loop():
    pairs, passing = 0, Counter()
    for p, m, q in odd_prime_powers(81):
        sub = build_subfield(p, m)
        for r in range(1, 2 * (q + 1), 2):
            if math.gcd(r, q - 1) != 1:
                continue
            pairs += 1
            for z in (1, sub.neg(1)):
                alpha = _norm_one_bracket_loop(sub, q, r, z)
                assert t2_z_first_failure(sub, q, r, z) == alpha, (q, r, z)
                passing[z == 1, alpha is None] += 1
    assert pairs == 742
    # z = 1 always fails; z = -1 both passes and fails at some alpha > 1
    assert passing[True, True] == 0 and passing[False, True] and passing[False, False]
