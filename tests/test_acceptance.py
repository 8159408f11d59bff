"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS line (visible with -s) and enforces its
stated wall-clock budget.  Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction
from pathlib import Path

from permbinom.exactalg import (
    BiPolyRZ,
    Factorization,
    RatPoly,
    primality_and_factor_check,
    resultant_bivar_z,
    resultant_univar,
)
from permbinom.ff import PrimePower, build_tower, enumerate_elements
from permbinom.powersum import theta_symbolic
from permbinom.ppcheck import BinomialParams, classify_family, is_pp_brute
from permbinom.refcheck import identities_check, sec6_suite, sec7_p3_check, sec7_p181_check
from permbinom.registry import REG
from permbinom.report import all_ok
from permbinom.search import cross_validate, search_exceptional, thm21_desk_sweep


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name}: {elapsed:.1f}s exceeded the {self.seconds}s budget"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.1f}s)")
        return False


def test_01_symbolic_regeneration():
    with _Budget("1 symbolic regeneration", 5):
        one_plus_z = BiPolyRZ([RatPoly.const(1), RatPoly.const(1)])
        for alpha, target in ((1, REG.A1), (3, REG.A3), (5, REG.A5)):
            th = theta_symbolic(alpha)
            assert th == one_plus_z * target * REG.theta_prefactors[alpha]
        # spot coefficient called out by the contract
        assert REG.A5.coeffs[10] == RatPoly((-591360, 1011008, -686880, 231840, -38880, 2592))


def test_02_resultants_exact():
    with _Budget("2 resultants", 60):
        def expand(pref, factors):
            acc = RatPoly.const(pref)
            for poly, mult in factors:
                acc = acc * poly.to_rat() ** mult
            return acc

        assert resultant_bivar_z(REG.A1, REG.A3 * Fraction(1, 3)) == expand(*REG.R13)
        assert resultant_bivar_z(REG.A1, REG.A5 * Fraction(1, 5)) == expand(*REG.R15)
        assert resultant_bivar_z(REG.A3 * Fraction(1, 3), REG.A5 * Fraction(1, 5)) == expand(*REG.R35)
        assert REG.h35.degree == 28 and len(REG.h35.coeffs) == 29

        r1 = resultant_univar(REG.h13, REG.h15)
        assert r1 == 2**20 * 3**4 * 23 * 8681
        assert primality_and_factor_check(r1, REG.res_h13_h15) == "verified-probable"

        r2 = resultant_univar(REG.h13, REG.h35)
        magnitude = 2**65 * 3**18 * 7 * 41 * 185871968716987252172951795997086716801
        # the displayed value is the magnitude; the resultant itself is
        # negative (see the decisions ledger)
        assert abs(r2) == magnitude and r2 < 0
        assert primality_and_factor_check(
            r2, Factorization(-1, REG.res_h13_h35.factors)) == "verified-probable"
        for base, _ in REG.res_h13_h15.factors + REG.res_h13_h35.factors:
            assert primality_and_factor_check(base) == "probable-prime"


def test_03_modular_checks():
    with _Budget("3 modular checks", 10):
        reports = sec7_p3_check() + sec7_p181_check()
        bad = [r for r in reports if not r.ok]
        assert not bad, bad


def test_04_identity_suite():
    with _Budget("4 identities", 30):
        assert all_ok(identities_check(99))


def test_05_oracle_equivalence():
    with _Budget("5 oracle equivalence", 600):
        reports = cross_validate([3, 5, 7, 9, 11, 13], modes=("oracle",))
        assert all_ok(reports), [r for r in reports if not r.ok]
        reports = cross_validate([25, 27, 49], samples=500, seed=1)
        assert all_ok(reports), [r for r in reports if not r.ok]


def test_06_pp_test_equivalence():
    with _Budget("6 pp-test equivalence", 600):
        reports = cross_validate([3, 4, 5, 7, 8, 9, 11, 13], modes=("pp",))
        real = [r for r in reports if "rejected" not in r.notes]
        assert all_ok(real), [r for r in real if not r.ok]


def test_07_family_reproduction():
    with _Budget("7 family reproduction", 900):
        # r = 1 and r = 3 with t = 2: permutation iff the half-norm value is
        # -1 or 3 (r = 1), resp. -1 or 1/3 with q != 1 mod 3 (r = 3)
        for q in (5, 7, 9, 11, 13):
            pp = PrimePower.from_q(q)
            fq, fq2 = build_tower(pp.p, pp.m)
            three = fq2.element(fq2.embed_int(3))
            for a in enumerate_elements(fq2, "nonzero"):
                w = (-a) ** ((q + 1) // 2)
                pp1 = is_pp_brute(BinomialParams(a, 1, 2)).is_pp
                expected1 = w == -fq2.one() or (three.idx and w == three)
                assert pp1 == bool(expected1), (q, 1, a.text)
                tag1 = classify_family(BinomialParams(a, 1, 2)).tag
                assert (tag1 != "not_pp") == pp1 and tag1 != "sporadic"
                pp3 = is_pp_brute(BinomialParams(a, 3, 2)).is_pp
                expected3 = q % 3 != 1 and (
                    w == -fq2.one() or (three.idx and w == three.inverse())
                )
                assert pp3 == bool(expected3), (q, 3, a.text)
                tag3 = classify_family(BinomialParams(a, 3, 2)).tag
                assert (tag3 != "not_pp") == pp3 and tag3 != "sporadic"

        # t = 1 exhaustively for q <= 13
        for q in (3, 4, 5, 7, 8, 9, 11, 13):
            pp = PrimePower.from_q(q)
            fq, fq2 = build_tower(pp.p, pp.m)
            for r in range(1, q * q - 1):
                for a in enumerate_elements(fq2, "nonzero"):
                    expected = (
                        math.gcd(r, q - 1) == 1
                        and (r - 1) % (q + 1) == 0
                        and a ** (q + 1) != 1
                    )
                    assert is_pp_brute(BinomialParams(a, r, 1)).is_pp == expected, (q, r, a.text)

        # norm-one criterion exhaustively for q <= 9, every t <= q
        for q in (3, 4, 5, 7, 8, 9):
            pp = PrimePower.from_q(q)
            fq, fq2 = build_tower(pp.p, pp.m)
            norm_one = [a for a in enumerate_elements(fq2, "nonzero") if a ** (q + 1) == 1]
            assert len(norm_one) == q + 1
            for t in range(1, q + 1):
                for r in range(1, q * q - 1):
                    for a in norm_one:
                        g = math.gcd(q + 1, t)
                        expected = (
                            math.gcd(r, q - 1) == 1
                            and math.gcd(r - t, q + 1) == 1
                            and (-a) ** ((q + 1) // g) != 1
                        )
                        got = is_pp_brute(BinomialParams(a, r, t)).is_pp
                        assert got == expected, (q, r, t, a.text)


def test_08_nonexistence_desk_scale():
    # no stated budget: the full mathematical claim is for all q, which is not
    # finitely checkable; this confirms the sampled ceiling q^2 <= 10^7
    t0 = time.monotonic()
    for r in (5, 7, 9):
        out = thm21_desk_sweep(r, q_cap_sq=10**7)
        assert out["confirmed"], out
        assert out["q_swept"] > 100
    print(f"ACCEPTANCE 8 nonexistence desk sweep: PASS ({time.monotonic()-t0:.1f}s)")


def test_09_prime_power_index_instances():
    with _Budget("9 prime-power-index identity", 60):
        reports = sec6_suite(ps=(5, 7, 11), ls=(1, 2))
        assert all_ok(reports), [r for r in reports if not r.ok]


def test_10_harness_determinism(tmp_path):
    t0 = time.monotonic()
    paths = [str(tmp_path / f"cat{i}.jsonl") for i in range(3)]
    search_exceptional(5, 25, jobs=1, out=paths[0])
    search_exceptional(5, 25, jobs=8, out=paths[1])
    search_exceptional(5, 25, jobs=1, out=paths[2])
    blobs = [Path(p).read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    print(f"ACCEPTANCE 10 harness determinism: PASS ({time.monotonic()-t0:.1f}s)")

