import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permbinom import ppcheck, search
from permbinom.cli import main
from permbinom.ff import build_tower, compute_z
from permbinom.ppcheck import BinomialParams, FamilyTag, PPVerdict, is_pp_brute, is_pp_powersum
from permbinom.report import all_ok
from permbinom.search import (
    catalog_to_csv,
    cross_validate,
    odd_prime_powers,
    read_catalog,
    search_exceptional,
    thm21_desk_sweep,
)


def test_odd_prime_powers():
    got = [q for (_, _, q) in odd_prime_powers(30)]
    assert got == [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
    assert odd_prime_powers(2) == []


def test_search_validation():
    with pytest.raises(ValueError):
        search_exceptional(4, 25)


def test_search_empty_range(tmp_path, monkeypatch, capsys):
    # a sweep of no q would confirm the bound vacuously, so it is refused
    out = str(tmp_path / "empty.jsonl")
    with pytest.raises(ValueError, match="no odd q"):
        search_exceptional(5, 2, out=out)
    err = _assert_usage_error(capsys, "search", "--r", "5", "--q-max", "2", "--out", out)
    assert "no odd q" in err
    monkeypatch.setenv("PERMBINOM_CAP", "8")  # 3^2 > 8: q = 3 is out of reach
    with pytest.raises(ValueError, match="no odd q"):
        search_exceptional(5, 13, out=out)
    assert not os.path.exists(out)


def test_search_brute_disagreement_raises(monkeypatch):
    # a z-level hit the brute walk rejects must not be catalogued as not_pp
    monkeypatch.setattr(ppcheck, "is_pp_brute", lambda params: PPVerdict(False, "brute"))
    with pytest.raises(AssertionError, match="brute"):
        search_exceptional(5, 20, include_norm_one=True)


def test_search_finds_family_records(tmp_path):
    out = str(tmp_path / "cat.jsonl")
    summary = search_exceptional(5, 25, include_norm_one=True, out=out)
    header, records, done = read_catalog(out)
    assert header["params"]["r"] == 5
    assert summary["records"] == len(records) > 0
    assert any(rec.family == "family_i" for rec in records)
    assert summary["bound_confirmed"]
    # keys are unique and sorted
    keys = [(r.q, r.r, r.t, r.a_index) for r in records]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_search_records_brute_confirm(tmp_path):
    out = str(tmp_path / "cat.jsonl")
    search_exceptional(5, 13, out=out)
    _, records, _ = read_catalog(out)
    assert records, "expected sporadic hits at small q for r = 5"
    for rec in records:
        fq, fq2 = build_tower(rec.p, rec.m)
        a = fq2.element(fq2.parse(rec.a))
        ps = BinomialParams(a, rec.r, rec.t)
        assert is_pp_brute(ps).is_pp
        assert is_pp_powersum(ps).is_pp == rec.is_pp
        assert fq2.dlog(a.idx) == rec.a_index
        assert ps.z.text == rec.z


def test_catalog_bytes_pinned(tmp_path):
    # a drift in any verdict, z text, family tag or key order changes the bytes
    out = tmp_path / "cat7.jsonl"
    summary = search_exceptional(7, 40, include_norm_one=True, out=str(out))
    assert summary["records"] == 146
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "0fd6b88f9c0b77b1708c1b4e43ab4509ba0239c9ecc3520dc596d2f6641ef505"


def test_search_determinism_and_jobs(tmp_path):
    p1 = str(tmp_path / "j1.jsonl")
    p2 = str(tmp_path / "j2.jsonl")
    p3 = str(tmp_path / "j1b.jsonl")
    search_exceptional(5, 25, jobs=1, out=p1)
    search_exceptional(5, 25, jobs=2, out=p2)
    search_exceptional(5, 25, jobs=1, out=p3)
    b1, b2, b3 = (Path(p).read_bytes() for p in (p1, p2, p3))
    assert b1 == b2 == b3


def test_search_resume(tmp_path):
    out = str(tmp_path / "cat.jsonl")
    search_exceptional(5, 13, out=out)
    full = Path(out).read_bytes()
    # truncate the done markers to simulate a partial run: drop the last q
    header, records, done = read_catalog(out)
    kept_done = done[:-1]
    dropped_q = done[-1]["q"]
    kept_records = [r.to_dict() for r in records if r.q != dropped_q]
    with open(out, "w") as fh:
        fh.write("#PERMBINOM-CATALOG " + json.dumps(header) + "\n")
        for d in kept_done:
            fh.write("#DONE " + json.dumps(d) + "\n")
        for rec in kept_records:
            fh.write(json.dumps(rec) + "\n")
    summary = search_exceptional(5, 13, out=out, resume=True)
    assert Path(out).read_bytes() == full
    assert summary["records"] == len(records)


def test_catalog_csv(tmp_path):
    out = str(tmp_path / "cat.jsonl")
    csv_path = str(tmp_path / "cat.csv")
    search_exceptional(5, 13, out=out)
    catalog_to_csv(out, csv_path)
    lines = Path(csv_path).read_text().strip().splitlines()
    _, records, _ = read_catalog(out)
    assert len(lines) == len(records) + 1
    assert lines[0].startswith("p,m,q,r,t,a,a_index,z,is_pp,family")


def test_cross_validate_exhaustive_small():
    reports = cross_validate([3], samples=None)
    assert all_ok(reports)
    assert {r.check_id for r in reports} == {
        "xval.q3.t1.oracle", "xval.q3.t1.pp", "xval.q3.t2.oracle", "xval.q3.t2.pp",
    }


def test_cross_validate_randomized_deterministic():
    r1 = cross_validate([9], samples=40, seed=7)
    r2 = cross_validate([9], samples=40, seed=7)
    assert [(r.check_id, r.status, r.computed) for r in r1] == \
           [(r.check_id, r.status, r.computed) for r in r2]
    assert all_ok(r1)


def test_cross_validate_rejects_even_q_for_t2():
    reports = cross_validate([4], t_list=(2,), samples=10)
    assert len(reports) == 1 and not reports[0].ok and "rejected" in reports[0].notes


def test_thm21_desk_sweep_small():
    out = thm21_desk_sweep(5, q_cap_sq=10000)
    assert out["confirmed"] and out["q_swept"] > 0


def test_thm21_desk_sweep_empty_range_raises():
    # every q <= 10 lies below the r = 5 bound 19: nothing would be confirmed
    for cap in (4, 100):
        with pytest.raises(ValueError, match="no admissible q"):
            thm21_desk_sweep(5, q_cap_sq=cap)
    assert thm21_desk_sweep(5, q_cap_sq=10**4)["q_swept"] == 17


def test_search_fibre_check_is_live(monkeypatch):
    # the neighbour g^(k+1) of a has z multiplied by g^(-q(q+1)/2) != 1, so it
    # leaves the hit's fibre and must not be catalogued on the z-level verdict
    expand = search.expand_z_to_a

    def neighbours(ctx2, zdesc):
        return [(k + 1, ctx2.element(ctx2.exp(k + 1))) for k, _ in expand(ctx2, zdesc)]
    monkeypatch.setattr(search, "expand_z_to_a", neighbours)
    with pytest.raises(AssertionError, match="fibre"):
        search_exceptional(5, 20, include_norm_one=True)


def test_search_decides_each_fibre_once(tmp_path, monkeypatch):
    counts = {"fast": 0, "brute": 0}

    def counted(name, fn):
        def call(params):
            counts[name] += 1
            return fn(params)
        return call
    monkeypatch.setattr(search, "is_pp_powersum", counted("fast", search.is_pp_powersum))
    monkeypatch.setattr(ppcheck, "is_pp_brute", counted("brute", ppcheck.is_pp_brute))
    out = str(tmp_path / "cat.jsonl")
    summary = search_exceptional(5, 100, include_norm_one=True, out=out)
    _, records, _ = read_catalog(out)
    fibres = len({(rec.q, rec.z) for rec in records})
    assert counts["fast"] == fibres == 21
    # one brute walk per fibre in the sweep, one on a second a in the replay
    assert counts["brute"] == 2 * fibres == 42
    assert len(records) == summary["records"] == 315


def _smallest_in_fibre(params):
    """Whether params.a is the smallest-index a of its z-fibre."""
    ctx2, z = params.ctx2, params.z.idx
    desc = ("sub", z) if ctx2.in_subfield(z) else ("ext", ctx2.mul(z, z))
    return ctx2.dlog(params.a.idx) == ppcheck.expand_z_to_a(ctx2, desc)[0][0]


def test_search_propagates_the_representative_tag(tmp_path, monkeypatch):
    # only each fibre's smallest-index a is classified; its tag is every a's
    classify = search.classify_family

    def marked(params):
        return FamilyTag("marker", ()) if _smallest_in_fibre(params) else classify(params)
    monkeypatch.setattr(search, "classify_family", marked)
    out = str(tmp_path / "cat.jsonl")
    search_exceptional(5, 30, include_norm_one=True, out=out)
    _, records, _ = read_catalog(out)
    assert len(records) > len({(rec.q, rec.z) for rec in records}) > 1
    assert {rec.family for rec in records} == {"marker"}


def test_replay_brute_sample_is_live(tmp_path, monkeypatch):
    # the replay walks a second a of each fibre, not the sweep's representative
    brute = ppcheck.is_pp_brute

    def first_only(params):
        return brute(params) if _smallest_in_fibre(params) else PPVerdict(False, "brute")
    monkeypatch.setattr(ppcheck, "is_pp_brute", first_only)
    out = str(tmp_path / "cat.jsonl")
    with pytest.raises(ValueError, match="brute sample mismatch") as exc:
        search_exceptional(5, 20, include_norm_one=True, out=out)
    assert str(exc.value).startswith(f"{out}: ")


# ------------------------------------------------------------------- CLI

def run_cli(*argv):
    return main(list(argv))


def test_cli_field_info(capsys):
    assert run_cli("field-info", "--p", "5", "--m", "1") == 0
    info = json.loads(capsys.readouterr().out)
    assert info["q"] == 5 and info["q2"] == 25


def test_cli_power_sum_closed_vs_brute(capsys):
    assert run_cli("power-sum", "--p", "5", "--m", "1", "--r", "3", "--t", "2",
                   "--a", "[3,1]", "--alpha", "1") == 0
    closed = json.loads(capsys.readouterr().out)
    assert run_cli("power-sum", "--p", "5", "--m", "1", "--r", "3", "--t", "2",
                   "--a", "[3,1]", "--alpha", "1", "--brute") == 0
    brute = json.loads(capsys.readouterr().out)
    assert closed["value"] == brute["value"]
    assert closed["s"] == 16


def test_cli_is_pp_and_classify(capsys):
    assert run_cli("is-pp", "--p", "3", "--m", "1", "--r", "5", "--t", "1",
                   "--a", "g^1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_pp"] is True
    assert run_cli("classify", "--p", "3", "--m", "1", "--r", "5", "--t", "1",
                   "--a", "g^1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tag"] == "thm42"


def test_cli_bound(capsys):
    assert run_cli("bound", "--r", "5", "--p", "3") == 0
    assert capsys.readouterr().out.strip() == "25"


def test_cli_bound_rejects_non_prime_p(capsys):
    for p in ("9", "15", "1", "-3", "0"):
        err = _assert_usage_error(capsys, "bound", "--r", "5", "--p", p)
        assert err.strip() == "error: p must be an odd prime", p


def test_python_m_permbinom_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "permbinom", "bound", "--r", "5", "--p", "3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "25"


def test_cli_verify(capsys):
    assert run_cli("verify", "--suite", "sec5r32") == 0
    out = capsys.readouterr().out
    assert "5/5 checks ok" in out


def test_cli_verify_json(tmp_path, capsys):
    path = str(tmp_path / "rep.jsonl")
    assert run_cli("verify", "--suite", "sec7p3", "--json", path) == 0
    capsys.readouterr()
    lines = [json.loads(l) for l in Path(path).read_text().splitlines()]
    assert all(l["status"] in ("pass", "probable-pass") for l in lines)


def test_cli_search_and_cross_validate(tmp_path, capsys):
    out = str(tmp_path / "cat.jsonl")
    assert run_cli("search", "--r", "5", "--q-max", "13", "--out", out) == 0
    capsys.readouterr()
    assert run_cli("cross-validate", "--q", "3,5", ) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_search_r_above_q2_at_small_q(tmp_path, capsys):
    # q = 3 has a norm-one hit for r = 9 > q^2 - 2
    out = str(tmp_path / "r9.jsonl")
    assert run_cli("search", "--r", "9", "--q-max", "50", "--include-norm-one", "--out", out) == 0
    _, records, _ = read_catalog(out)
    small = [rec for rec in records if rec.q == 3]
    assert small
    for rec in small:
        _, fq2 = build_tower(rec.p, rec.m)
        assert is_pp_brute(BinomialParams(fq2.element(fq2.parse(rec.a)), 9, 2)).is_pp


def test_cli_usage_errors(capsys):
    assert run_cli("is-pp", "--p", "4", "--m", "1", "--r", "1", "--t", "1", "--a", "1") == 2
    assert run_cli("cross-validate", "--q", "6") == 2
    assert run_cli("field-info", "--p", "3", "--m", "0") == 2
    assert "extension degree" in capsys.readouterr().err
    # an (alpha, beta) pair out of 0..q-1 is refused, not re-split as s
    for alpha, beta in ((4, 0), (3, 0), (0, 3), (-1, 1)):
        for brute in ((), ("--brute",)):
            _assert_usage_error(capsys, "power-sum", "--p", "3", "--r", "5", "--t", "2", "--a", "1",
                                "--alpha", str(alpha), "--beta", str(beta), *brute)
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--suite", "bogus")
    assert exc.value.code == 2


def test_cli_search_rejects_t(tmp_path, capsys):
    # the search covers t = 2 only and has no --t option
    out = str(tmp_path / "cat.jsonl")
    with pytest.raises(SystemExit) as exc:
        run_cli("search", "--r", "5", "--t", "1", "--q-max", "13", "--out", out)
    assert exc.value.code == 2
    assert not os.path.exists(out)


def test_jobs_below_one_rejected(tmp_path, capsys):
    out = str(tmp_path / "cat.jsonl")
    assert run_cli("search", "--r", "5", "--q-max", "13", "--jobs", "0", "--out", out) == 2
    assert not os.path.exists(out)
    with pytest.raises(ValueError):
        search_exceptional(5, 13, jobs=0)
    with pytest.raises(ValueError):
        thm21_desk_sweep(5, q_cap_sq=10000, jobs=0)


def test_cap_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PERMBINOM_CAP", "50")
    from permbinom.ff import enumeration_cap
    assert enumeration_cap() == 50
    assert run_cli("field-info", "--p", "11", "--m", "1") == 2  # 121 > 50


def _assert_usage_error(capsys, *argv):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_cli_unwritable_paths_exit_2(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    _assert_usage_error(capsys, "verify", "--suite", "sec5r32", "--json", str(missing / "r.jsonl"))
    _assert_usage_error(capsys, "search", "--r", "5", "--q-max", "20",
                        "--out", str(missing / "c.jsonl"))


def test_cli_resume_damaged_catalog_exit_2(tmp_path, capsys):
    out = str(tmp_path / "cat.jsonl")
    search_exceptional(5, 13, out=out)
    lines = Path(out).read_text().splitlines()
    last = json.loads(lines[-1])
    del last["z"]
    with open(out, "w") as fh:
        fh.write("\n".join(lines[:-1] + [json.dumps(last)]) + "\n")
    err = _assert_usage_error(capsys, "search", "--r", "5", "--q-max", "13", "--out", out, "--resume")
    assert f"line {len(lines)}" in err and "z" in err


def _rewrite_records(path, edit):
    """Rewrite the catalog at path with edit(records) as its record lines."""
    lines = Path(path).read_text().splitlines()
    head = [line for line in lines if line.startswith("#")]
    records = edit([json.loads(line) for line in lines if not line.startswith("#")])
    with open(path, "w") as fh:
        fh.write("\n".join(head + [json.dumps(d) for d in records]) + "\n")


def test_cli_resume_wrong_a_index_exit_2(tmp_path, capsys):
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "20", "--include-norm-one", "--out", out)
    assert run_cli(*argv) == 0
    capsys.readouterr()

    def bump(records):
        keys = {(d["q"], d["a_index"]) for d in records}
        d = next(d for d in records if (d["q"], d["a_index"] + 1) not in keys)
        d["a_index"] += 1
        return records
    _rewrite_records(out, bump)
    err = _assert_usage_error(capsys, *argv, "--resume")
    assert out in err and "a-index mismatch" in err


def test_cli_resume_wrong_construction_data_exit_2(tmp_path, capsys):
    # the replay rebuilds each record's tower from (p, m): a record whose q
    # is not p^m, or whose modulus is not the tower's, is refused
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "20", "--include-norm-one", "--out", out)

    def move_q(records):
        taken = {(d["q"], d["a_index"]) for d in records}
        d = records[0]  # q = 3; moved to a swept q where its key stays unique
        d["q"] = next(q for q in (5, 7, 13) if (q, d["a_index"]) not in taken)
        return records

    def edit_modulus(records):
        d = next(d for d in records if d["m"] == 1)
        d["modulus"] = [(d["modulus"][0] + 1) % d["p"]] + d["modulus"][1:]
        return records
    for edit in (move_q, edit_modulus):
        assert run_cli(*argv) == 0
        capsys.readouterr()
        _rewrite_records(out, edit)
        err = _assert_usage_error(capsys, *argv, "--resume")
        assert out in err and "construction data mismatch" in err


def test_cli_resume_bad_record_value_exit_2(tmp_path, capsys):
    # a value the parser, the tower or the parameters reject, and an a text
    # that parses to the record's index without being its canonical text
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "20", "--include-norm-one", "--out", out)

    def first_prime_q(**edit):
        def apply(records):
            d = next(d for d in records if d["m"] == 1)
            d.update({k: f(d) for k, f in edit.items()})
            return records
        return apply

    def padded(d):  # [c0 + p, c1] is the element [c0, c1]
        c0, c1 = json.loads(d["a"])
        return f"[{c0 + d['p']},{c1}]"
    for edit, problem in ((first_prime_q(a=lambda d: "abc"), "invalid literal"),
                          (first_prime_q(p=lambda d: 4), "4 is not prime"),
                          (first_prime_q(a=padded), "non-canonical a text")):
        assert run_cli(*argv) == 0
        capsys.readouterr()
        _rewrite_records(out, edit)
        err = _assert_usage_error(capsys, *argv, "--resume")
        assert err.startswith(f"error: {out}: {problem}") and "on record {" in err, err


def test_cli_resume_forged_record_exit_2(tmp_path, capsys):
    # the last record is swapped for its neighbour a, a consistent record
    # (a, a_index and z agree) of a non-permuting binomial; every resumed
    # record is replayed, so it is caught wherever it sits in the catalog
    out = str(tmp_path / "cat7.jsonl")
    argv = ("search", "--r", "7", "--q-max", "40", "--include-norm-one", "--out", out)
    assert run_cli(*argv) == 0
    capsys.readouterr()

    def forge(records):
        d = records[-1]
        fq, fq2 = build_tower(d["p"], d["m"])
        a = fq2.element(fq2.exp(d["a_index"] + 1))
        assert not is_pp_brute(BinomialParams(a, 7, 2)).is_pp
        d.update(a=a.text, a_index=d["a_index"] + 1, z=compute_z(a).text)
        return records
    _rewrite_records(out, forge)
    assert len(read_catalog(out)[1]) == 146
    err = _assert_usage_error(capsys, *argv, "--resume")
    assert out in err and "round-trip verdict mismatch" in err


def test_cli_resume_duplicate_record_exit_2(tmp_path, capsys):
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "20", "--include-norm-one", "--out", out)
    assert run_cli(*argv) == 0
    capsys.readouterr()
    _rewrite_records(out, lambda records: records + records[-1:])
    err = _assert_usage_error(capsys, *argv, "--resume")
    last = read_catalog(out)[1][-1]
    assert out in err and "duplicate" in err and f"({last.q}, 5, 2, {last.a_index})" in err


def test_read_catalog_rejects_done_marker_without_keys(tmp_path):
    path = str(tmp_path / "cat.jsonl")
    with open(path, "w") as fh:
        fh.write('#PERMBINOM-CATALOG {}\n#DONE {"q": 5, "r": 5}\n#DONE {"q": 7}\n')
    with pytest.raises(ValueError, match="line 3.*r"):
        read_catalog(path)
    with open(path, "w") as fh:
        fh.write('\n#PERMBINOM-CATALOG {"schema": 1,\n')
    with pytest.raises(ValueError, match="line 2"):
        read_catalog(path)


def test_cli_resume_malformed_catalog_line_exit_2(tmp_path, capsys):
    out = str(tmp_path / "cat.jsonl")
    search_exceptional(5, 13, out=out)
    lines = Path(out).read_text().splitlines()
    lines[2] = '{"p": 5,'
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    err = _assert_usage_error(capsys, "search", "--r", "5", "--q-max", "13", "--out", out, "--resume")
    assert f"{out} line 3" in err
    # well-formed JSON of the wrong shape: a header that is not an object, and
    # record fields whose type differs from the SearchRecord annotation
    argv = ("search", "--r", "5", "--q-max", "30", "--include-norm-one", "--out", out)
    assert run_cli(*argv) == 0
    capsys.readouterr()
    good = Path(out).read_text().splitlines()
    first = next(i for i, line in enumerate(good) if not line.startswith("#"))
    for i, line in ((0, "#PERMBINOM-CATALOG [1]"),
                    (first, json.dumps({**json.loads(good[first]), "a_index": "x"})),
                    (first, json.dumps({**json.loads(good[first]), "a": 7}))):
        with open(out, "w") as fh:
            fh.write("\n".join(good[:i] + [line] + good[i + 1:]) + "\n")
        err = _assert_usage_error(capsys, *argv, "--resume")
        assert f"{out} line {i + 1}" in err


def test_search_missing_out_dir_fails_before_sweep(tmp_path, capsys, monkeypatch):
    calls = []
    sweep = search.t2_passing_z
    monkeypatch.setattr(search, "t2_passing_z", lambda *args: calls.append(args) or sweep(*args))
    out = str(tmp_path / "no-such-dir" / "c.jsonl")
    _assert_usage_error(capsys, "search", "--r", "5", "--q-max", "150", "--include-norm-one",
                        "--out", out)
    assert calls == []
    # the counter does see a sweep that runs
    assert run_cli("search", "--r", "5", "--q-max", "13", "--out", str(tmp_path / "c.jsonl")) == 0
    assert calls


def test_cross_validate_rejects_nothing_to_check(capsys):
    with pytest.raises(ValueError):
        cross_validate([])
    with pytest.raises(ValueError):
        cross_validate([3], samples=0)
    _assert_usage_error(capsys, "cross-validate", "--q", ",")
    _assert_usage_error(capsys, "cross-validate", "--q", "3", "--samples", "-3")
