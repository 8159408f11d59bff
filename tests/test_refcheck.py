import hashlib
from fractions import Fraction

import pytest

from permbinom import refcheck
from permbinom.cli import main
from permbinom.exactalg import IntPoly, resultant_univar
from permbinom.refcheck import (
    Sec6Instance,
    identities_check,
    run_suite,
    sec5_check,
    sec5_r32_check,
    sec6_check,
    sec6_suite,
    sec7_p3_check,
    sec7_p181_check,
)
from permbinom.registry import REG, verify_checksums
from permbinom.report import all_ok
from rational_twin import to_rq


def failures(reports):
    return [r for r in reports if not r.ok]


def test_registry_checksums():
    assert verify_checksums() == []


def test_registry_shapes():
    assert REG.h13.degree == 2
    assert REG.h15.degree == 7
    assert REG.h35.degree == 28
    assert REG.h35.lc == 21119053438918950050070528
    assert REG.A5.degree == 10 and REG.A5.r_degree == 5
    assert REG.B5.degree == 10


def test_a1_specializations():
    # r = 3 collapses the degree-1 bracket cofactor to z - 3
    assert REG.A1.eval_r(3) == IntPoly((-3, 1))
    assert REG.A1.eval_r(3, 2) == IntPoly((0, 1, -3)) * 2  # 2 * -z(3z - 1), over 2^1


def test_homogenised_specializations_match_rational_twin():
    # den^d A(x/den, z), d the r-degree, against the twin's A(r) at the
    # rational r itself, for A1, A3 and A5 at r = 3/2 and 7/4
    for x, den in ((3, 2), (7, 4)):
        for A in (REG.A1, REG.A3, REG.A5):
            got = A.eval_r(x, den)
            assert type(got) is IntPoly
            assert got == to_rq(A).eval_r(Fraction(x, den)) * den**A.r_degree, (x, den, A.r_degree)


def test_sec5():
    reports = sec5_check()
    assert all_ok(reports), failures(reports)
    # the sign note on the large resultant is present
    (rep,) = [r for r in reports if r.check_id == "sec5.res.h13-h35"]
    assert "magnitude" in rep.notes


def test_sec5_r32():
    assert all_ok(sec5_r32_check())


def test_sec6_examples():
    # the two worked instances plus a deeper power
    for inst in (Sec6Instance(5, 1, 2, 125), Sec6Instance(7, 1, 2, 343),
                 Sec6Instance(5, 2, 2, 3125)):
        reports = sec6_check(inst)
        assert all_ok(reports), failures(reports)


def test_sec6_instance_validation():
    with pytest.raises(ValueError):
        Sec6Instance(5, 1, 1, 125)   # k odd makes r even
    with pytest.raises(ValueError):
        Sec6Instance(5, 1, 2, 121)   # not a power of 5
    with pytest.raises(ValueError):
        Sec6Instance(5, 1, 2, 25)    # below the quotient-1 threshold


def test_sec6_suite_counts():
    reports = sec6_suite(ps=(5,), ls=(1,), q_max=10**6)
    assert all_ok(reports), failures(reports)
    (cov,) = [r for r in reports if r.check_id == "sec6.coverage"]
    assert int(cov.computed) >= 2


def test_sec6_suite_does_not_read_the_cap(monkeypatch, capsys):
    # the instances are checked mod p and build no field
    monkeypatch.setenv("PERMBINOM_CAP", "1000")
    assert main(["verify", "--suite", "sec6"]) == 0
    assert capsys.readouterr().out.endswith("\n371/371 checks ok\n")


@pytest.mark.parametrize("cap", ["100", "2"])
def test_verify_all_does_not_read_the_cap(monkeypatch, capsys, cap):
    # every suite checks fixed instances; sec7 works on PrimeField(3) and
    # PrimeField(181), which hold no table, so no cap refuses q = 181
    monkeypatch.setenv("PERMBINOM_CAP", cap)
    assert main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out.endswith("\n428/428 checks ok\n")


def test_sec7_p3():
    reports = sec7_p3_check()
    assert all_ok(reports), failures(reports)
    (rep,) = [r for r in reports if r.check_id == "sec7p3.factor.a5"]
    assert "multiplicity 3" in rep.notes


def test_sec7_p181():
    assert all_ok(sec7_p181_check())


def test_identities_suite():
    assert all_ok(identities_check(31))


def test_run_suite_all_and_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")
    assert all_ok(run_suite("sec5r32"))


def test_every_registry_constant_is_read_by_a_suite(monkeypatch):
    # a transcribed constant no suite reads is never verified
    read = set()

    class Recorder:
        def __getattr__(self, name):
            read.add(name)
            return getattr(REG, name)

    monkeypatch.setattr(refcheck, "REG", Recorder())
    assert all_ok(run_suite("all"))
    assert sorted(set(vars(REG)) - read) == []


def test_sec7_p3_compares_the_transcribed_a1_cofactor(monkeypatch):
    monkeypatch.setattr(REG, "A1_at_4", IntPoly((1, 1, 1)))
    assert [r.check_id for r in failures(sec7_p3_check())] == ["sec7p3.divides.a3", "sec7p3.divides.a5"]


def test_non_integral_prefactor_scale_reports_fail(monkeypatch):
    # a prefactor whose denominator the integer scale does not clear is a
    # failing row, not an exception that stops the suite
    monkeypatch.setattr(REG, "theta_prefactors", {**REG.theta_prefactors, 3: Fraction(1, 47)})
    monkeypatch.setattr(REG, "R13", (Fraction(-512, 7), REG.R13[1]))
    assert [r.check_id for r in failures(sec5_check())] == ["sec5.theta.3", "sec5.theta.3.cofactor", "sec5.R13"]
    bad = failures(sec7_p3_check())
    assert bad and all(r.check_id.startswith("sec7p3.table.") for r in bad)
    assert "specialized=None" in bad[0].computed


def test_resultant_sign_finding():
    # the displayed magnitude of the big eliminant resultant is exact, and
    # the resultant itself is negative
    val = resultant_univar(REG.h13, REG.h35)
    assert val < 0
    assert -val == REG.res_h13_h35.value()


def test_p181_registry_is_checked_not_trusted():
    # perturb a copy of a factor and confirm the comparison would catch it
    from permbinom.exactalg import mp_mul, to_modp
    from permbinom.ff import build_subfield

    f181 = build_subfield(181, 1)
    scal, fs = REG.p181_A1
    good = [scal % 181]
    for f in fs:
        good = mp_mul(good, to_modp(f, 181), f181)
    bad = [scal % 181]
    for f in (fs[0], IntPoly((138, 1))):
        bad = mp_mul(bad, to_modp(f, 181), f181)
    assert good != bad


def test_verify_report_bytes_pinned(tmp_path, capsys):
    # the machine-readable report of every suite, byte for byte
    path = tmp_path / "all.jsonl"
    assert main(["verify", "--suite", "all", "--json", str(path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "287486524eef8551988756958db6f1e098733961ac5be7fc59b73af04b9bf22a"
