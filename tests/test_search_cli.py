import gc
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from permbinom import cli, ff, ppcheck, search
from permbinom.cli import main
from permbinom.ff import build_tower, compute_z
from permbinom.ppcheck import BinomialParams, PPVerdict, is_pp_brute, is_pp_powersum
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


def test_search_refuses_q_max_past_the_cap(tmp_path, monkeypatch, capsys):
    # a q_max with q_max^2 past the cap used to be clipped to isqrt(cap) in
    # silence, the summary still saying bound_confirmed over the whole range
    out = str(tmp_path / "past.jsonl")
    monkeypatch.delenv("PERMBINOM_CAP", raising=False)
    err = _assert_usage_error(capsys, "search", "--r", "59", "--q-max", "3400", "--out", out)
    assert "cap 10000000" in err and "3162" in err
    monkeypatch.setenv("PERMBINOM_CAP", "2000")  # isqrt(2000) = 44
    with pytest.raises(ValueError, match="cap 2000"):
        search_exceptional(5, 45, out=out)
    assert not os.path.exists(out)
    assert search_exceptional(5, 44)["q_max"] == 44


def test_search_brute_disagreement_raises(monkeypatch):
    # a z-level hit the brute walk rejects must not be catalogued as not_pp
    monkeypatch.setattr(ppcheck, "is_pp_brute", lambda params: PPVerdict(False, "brute"))
    with pytest.raises(ValueError, match="brute"):
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


def test_conjugate_pair_hits_reach_the_catalog(tmp_path):
    # at q = 81, r = 23 both passing z are the roots of a quadratic
    # irreducible over F_3: expanded, tagged, catalogued and replayed like
    # any other hit, with the same bytes from the forked pool
    out = tmp_path / "p1.jsonl"
    summary = search_exceptional(23, 81, out=str(out))
    assert (summary["q_swept"], summary["records"]) == (25, 192)
    _, records, _ = read_catalog(str(out))
    fibres = {}
    for rec in records:
        if rec.q == 81:
            fibres.setdefault(rec.z, []).append(rec)
    assert sorted(fibres) == ["[[1,1,2,0],[0,0,0,0]]", "[[1,2,1,0],[0,0,0,0]]"]
    assert [len(fibre) for fibre in fibres.values()] == [41, 41]
    assert {rec.family for rec in records} == {"sporadic"}
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "fa29145434ea0dc8e7bd366b9877845871854da97e3b7640cf778be6648f7ef1"
    search_exceptional(23, 81, jobs=2, out=str(tmp_path / "p2.jsonl"))
    assert (tmp_path / "p2.jsonl").read_bytes() == out.read_bytes()


def test_search_determinism_and_jobs(tmp_path):
    p1 = str(tmp_path / "j1.jsonl")
    p2 = str(tmp_path / "j2.jsonl")
    p3 = str(tmp_path / "j1b.jsonl")
    search_exceptional(5, 25, jobs=1, out=p1)
    search_exceptional(5, 25, jobs=2, out=p2)
    search_exceptional(5, 25, jobs=1, out=p3)
    b1, b2, b3 = (Path(p).read_bytes() for p in (p1, p2, p3))
    assert b1 == b2 == b3


def _check_resume(jobs, tmp_path):
    out = str(tmp_path / "cat.jsonl")
    search_exceptional(5, 13, out=out)
    full = Path(out).read_bytes()
    # truncate the done markers to simulate a partial run: drop the last q
    header, records, done = read_catalog(out)
    kept_done = done[:-1]
    dropped_q = done[-1]["q"]
    kept_records = [r._asdict() for r in records if r.q != dropped_q]
    with open(out, "w") as fh:
        fh.write("#PERMBINOM-CATALOG " + json.dumps(header) + "\n")
        for d in kept_done:
            fh.write("#DONE " + json.dumps(d) + "\n")
        for rec in kept_records:
            fh.write(json.dumps(rec) + "\n")
    summary = search_exceptional(5, 13, jobs=jobs, out=out, resume=True)
    assert Path(out).read_bytes() == full
    assert summary["records"] == len(records)
    # the resumed records are compared in (q, a_index) order, whatever the line order
    _rewrite_records(out, lambda records: records[::-1])
    assert search_exceptional(5, 13, jobs=jobs, out=out, resume=True) == summary
    assert Path(out).read_bytes() == full
    # the pool's records are checked as one process's are: a tamper is refused alike
    _rewrite_records(out, lambda records: records[1:])
    errors = []
    for j in (1, jobs):
        with pytest.raises(ValueError, match=f"^{re.escape(out)}: differs from the sweep at record ") as exc:
            search_exceptional(5, 13, jobs=j, out=out, resume=True)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


def test_search_resume(tmp_path):
    _check_resume(1, tmp_path)


def test_search_resume_in_a_pool(tmp_path):
    _check_resume(2, tmp_path)


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


def test_cross_validate_reports_each_mismatch_as_fail(monkeypatch):
    # one wrong closed form or fast verdict turns its mode's row to FAIL
    closed, fast = search.power_sum_closed, search.is_pp_powersum

    def off_by_one(r, t, a, s):
        value = closed(r, t, a, s)
        return value + value.ctx.one() if (r, a.idx) == (1, 1) else value
    monkeypatch.setattr(search, "power_sum_closed", off_by_one)
    monkeypatch.setattr(search, "is_pp_powersum",
                        lambda params: PPVerdict(True, "powersum") if params.r == 1 else fast(params))
    exhaustive = {rep.check_id: rep for rep in cross_validate([3], t_list=(2,))}
    assert [rep.status for rep in exhaustive.values()] == ["fail", "fail"]
    assert exhaustive["xval.q3.t2.oracle"].computed == "32 sums, 1 mismatches; first [(1, '[1,0]', 1)]"
    assert exhaustive["xval.q3.t2.pp"].computed.startswith("32 parameter sets, 6 disagreements; first [(1, ")
    monkeypatch.setattr(search, "power_sum_closed", lambda r, t, a, s: closed(r, t, a, s) + a.ctx.one())
    (rep,) = cross_validate([3], t_list=(2,), samples=4, seed=7)
    assert (rep.check_id, rep.status) == ("xval.q3.t2.random4", "fail")
    assert rep.computed.startswith("4 sampled sums, 4 mismatches; first [(")


def test_cross_validate_rejects_even_q_for_t2():
    reports = cross_validate([4], t_list=(2,), samples=10)
    assert len(reports) == 1 and not reports[0].ok and "rejected" in reports[0].notes


def test_thm21_desk_sweep_small(monkeypatch):
    # the bound's primality test runs once per p, not once per q
    tested = []
    monkeypatch.setattr(ppcheck, "is_probable_prime", lambda p: tested.append(p) or True)
    out = thm21_desk_sweep(5, q_cap_sq=10000)
    assert out["confirmed"] and out["q_swept"] > 0
    assert sorted(tested) == sorted(set(tested)) and 3 in tested


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

    def neighbours(ctx2, z):
        return [(k + 1, ctx2.element(ctx2.exp(k + 1))) for k, _ in expand(ctx2, z)]
    monkeypatch.setattr(search, "expand_z_to_a", neighbours)
    with pytest.raises(ValueError, match="fibre"):
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
    # two brute walks per fibre, both in the sweep: its first a and a second
    assert counts["brute"] == 2 * fibres == 42
    assert len(records) == summary["records"] == 315


def _fibre_rank(params):
    """The place of params.a in its z-fibre, in ascending a_index."""
    ctx2 = params.ctx2
    return [k for k, _ in ppcheck.expand_z_to_a(ctx2, params.z.idx)].index(ctx2.dlog(params.a.idx))


def test_search_propagates_the_representative_tag(tmp_path, monkeypatch):
    # the sweep classifies each fibre's smallest-index a for its tag and its
    # second a as a sample; the tag is every a's
    classify, swept = search.classify_family, []

    def recorded(params):
        swept.append(params)
        return classify(params)
    monkeypatch.setattr(search, "classify_family", recorded)
    out = str(tmp_path / "cat.jsonl")
    search_exceptional(5, 30, include_norm_one=True, out=out)
    _, records, _ = read_catalog(out)
    fibres = {(rec.q, rec.z) for rec in records}
    assert len(records) > len(fibres) > 1
    assert [_fibre_rank(params) for params in swept] == [0, 1] * len(fibres)
    tags = {(params.q, params.z.text): classify(params).tag for params in swept[::2]}
    assert set(tags) == fibres and len(set(tags.values())) > 1
    assert all(rec.family == tags[rec.q, rec.z] for rec in records)


def test_replay_brute_sample_is_live(tmp_path, monkeypatch):
    # the sweep decides a second a of each fibre, by the fast test and a brute
    # walk, not only its representative, and refuses the fibre before any
    # catalog is written
    out = tmp_path / "cat.jsonl"
    brute, fast = ppcheck.is_pp_brute, search.is_pp_powersum

    def first_only(test):
        return lambda params: test(params) if _fibre_rank(params) == 0 else PPVerdict(False, "test")
    monkeypatch.setattr(ppcheck, "is_pp_brute", first_only(brute))
    with pytest.raises(ValueError, match="brute sample on the fibre's second a"):
        search_exceptional(5, 20, include_norm_one=True, out=str(out))
    monkeypatch.setattr(ppcheck, "is_pp_brute", brute)
    monkeypatch.setattr(search, "is_pp_powersum", first_only(fast))
    with pytest.raises(ValueError, match="fast test refused the fibre's second a"):
        search_exceptional(5, 20, include_norm_one=True, out=str(out))
    assert not out.exists()


def test_search_builds_each_tower_with_a_hit_once(tmp_path, monkeypatch):
    # every walk over a q's tower, both a values of each fibre included, runs
    # while the sweep of that q holds it: no evicted tower is built again
    monkeypatch.setattr(ff, "_towers", type(ff._towers)())
    monkeypatch.setattr(ff, "TOWER_CACHE_BYTES", 53_333)  # the last few towers of q <= 60
    tower, built = ff.build_tower, []

    def counted(p, m):
        if (p, m) not in ff._towers:
            built.append((p, m))
        return tower(p, m)
    monkeypatch.setattr(search, "build_tower", counted)
    out = str(tmp_path / "cat.jsonl")
    search_exceptional(5, 60, include_norm_one=True, out=out)
    with_hits = {(rec.p, rec.m): rec.q for rec in read_catalog(out)[1]}
    assert len(with_hits) > 10
    assert built == sorted(with_hits, key=with_hits.get)
    # a resume runs the same sweep, so each is built once even by a cache
    # that keeps only the newest tower
    monkeypatch.setattr(ff, "_towers", type(ff._towers)())
    monkeypatch.setattr(ff, "TOWER_CACHE_BYTES", 1)
    built.clear()
    search_exceptional(5, 60, include_norm_one=True, out=out, resume=True)
    assert sorted(built) == sorted(with_hits)


def _live_contexts() -> list:
    """Every field context alive."""
    gc.collect()
    return [ctx for ctx in gc.get_objects() if isinstance(ctx, ff.FieldCtx)]


def test_replay_keeps_tables_within_the_tower_cache_bound(tmp_path, monkeypatch):
    # each q's brute walks run before the sweep builds the next q's tower, so
    # what is alive at any walk is the cache plus at most the tower walked
    monkeypatch.setattr(ff, "_towers", type(ff._towers)())
    monkeypatch.setattr(ff, "TOWER_CACHE_BYTES", 20_000)  # about one tower near q = 49
    brute, live = ppcheck.is_pp_brute, []
    earlier = _live_contexts()  # held elsewhere in the session; kept, so no id is reused
    old = set(map(id, earlier))

    def measured_brute(params):
        held = sum(ff._table_bytes((ctx,)) for ctx in _live_contexts() if id(ctx) not in old)
        live.append((held, ff._table_bytes((params.sub, params.ctx2))))
        return brute(params)
    monkeypatch.setattr(ppcheck, "is_pp_brute", measured_brute)
    search_exceptional(5, 60, include_norm_one=True, out=str(tmp_path / "cat.jsonl"))
    biggest = max(tower for _, tower in live)
    assert len(live) > 10 and max(held for held, _ in live) <= ff.TOWER_CACHE_BYTES + biggest


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


def test_cli_is_pp_prints_the_note(capsys):
    # gcd(r, q-1) > 1 is a not-PP verdict with a note, not an error
    assert run_cli("is-pp", "--p", "5", "--r", "2", "--t", "2", "--a", "g^1") == 0
    assert json.loads(capsys.readouterr().out) == {
        "is_pp": False, "method": "powersum", "note": "gcd(r, q-1) > 1"}


def test_cli_is_pp_and_classify(capsys):
    assert run_cli("is-pp", "--p", "3", "--m", "1", "--r", "5", "--t", "1",
                   "--a", "g^1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_pp"] is True
    assert run_cli("classify", "--p", "3", "--m", "1", "--r", "5", "--t", "1",
                   "--a", "g^1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tag"] == "thm42"


BRUTE_CLI_PINS = [
    ("is-pp --p 3 --r 5 --t 2 --a 2 --method brute",
     '{"is_pp": false, "method": "brute", "witness": "Collision(x1=<[0,0] in GF(9)>, '
     'x2=<[1,0] in GF(9)>, value=<[0,0] in GF(9)>)"}'),
    ("is-pp --p 3 --r 1 --t 2 --a g^2 --method brute", '{"is_pp": true, "method": "brute"}'),
    ("is-pp --p 5 --r 3 --t 2 --a g^4 --method brute",
     '{"is_pp": false, "method": "brute", "witness": "Collision(x1=<[0,0] in GF(25)>, '
     'x2=<[3,3] in GF(25)>, value=<[0,0] in GF(25)>)"}'),
    ("is-pp --p 7 --r 4 --t 2 --a g^5 --method brute",
     '{"is_pp": false, "method": "brute", "witness": "Collision(x1=<[3,4] in GF(49)>, '
     'x2=<[2,6] in GF(49)>, value=<[1,2] in GF(49)>)"}'),
    ("is-pp --p 3 --m 2 --r 7 --t 3 --a g^11 --method brute",
     '{"is_pp": false, "method": "brute", "witness": "Collision(x1=<[[1,0],[1,0]] in GF(81)>, '
     'x2=<[[0,1],[1,2]] in GF(81)>, value=<[[2,1],[0,2]] in GF(81)>)"}'),
    ("is-pp --p 2 --m 2 --r 1 --t 1 --a g^1 --method brute", '{"is_pp": true, "method": "brute"}'),
    ("is-pp --p 2 --m 3 --r 2 --t 2 --a g^9 --method brute", '{"is_pp": true, "method": "brute"}'),
    ("is-pp --p 2 --m 3 --r 3 --t 1 --a g^5 --method brute",
     '{"is_pp": false, "method": "brute", "witness": "Collision(x1=<[[1,0,1],[1,0,0]] in GF(64)>, '
     'x2=<[[0,1,0],[1,1,1]] in GF(64)>, value=<[[0,1,1],[1,0,1]] in GF(64)>)"}'),
    ("power-sum --p 5 --r 3 --t 2 --a [3,1] --alpha 1 --brute",
     '{"s": 16, "alpha": 1, "beta": 3, "method": "brute", "value": "[2,4]"}'),
    ("power-sum --p 3 --m 2 --r 5 --t 2 --a g^7 --alpha 3 --beta 4 --brute",
     '{"s": 39, "alpha": 3, "beta": 4, "method": "brute", "value": "[[0,0],[0,0]]"}'),
    ("power-sum --p 7 --r 4 --t 1 --a g^10 --alpha 2 --beta 0 --brute",
     '{"s": 2, "alpha": 2, "beta": 0, "method": "brute", "value": "[0,0]"}'),
    ("power-sum --p 2 --m 3 --r 3 --t 1 --a g^5 --alpha 2 --brute",
     '{"s": 42, "alpha": 2, "beta": 5, "method": "brute", "value": "[[1,0,0],[1,0,0]]"}'),
    ("power-sum --p 2 --m 2 --r 2 --t 2 --a g^3 --alpha 1 --beta 3 --brute",
     '{"s": 13, "alpha": 1, "beta": 3, "method": "brute", "value": "[[0,0],[0,0]]"}'),
]


@pytest.mark.parametrize("argv,stdout", BRUTE_CLI_PINS)
def test_cli_brute_output_pinned(argv, stdout, capsys):
    # the witness is the first collision in the order 0, g^0, g^1, ...
    assert run_cli(*argv.split()) == 0
    assert capsys.readouterr().out == stdout + "\n"


# stdout bytes of field-info, and of g^k read through a prime base field:
# F_7 under F_49, and F_3 under F_9 under F_81
FIELD_CLI_PINS = [
    ("field-info --p 5 --m 1",
     '{\n'
     '  "q": 5,\n'
     '  "q2": 25,\n'
     '  "subfield": {\n'
     '    "p": 5,\n'
     '    "m": 1,\n'
     '    "modulus": null\n'
     '  },\n'
     '  "extension": {\n'
     '    "p": 5,\n'
     '    "m": 2,\n'
     '    "modulus": [\n'
     '      1,\n'
     '      1,\n'
     '      1\n'
     '    ]\n'
     '  },\n'
     '  "generator": "[2,1]",\n'
     '  "cap": 10000000\n'
     '}\n'),
    ("field-info --p 3 --m 2",
     '{\n'
     '  "q": 9,\n'
     '  "q2": 81,\n'
     '  "subfield": {\n'
     '    "p": 3,\n'
     '    "m": 2,\n'
     '    "modulus": [\n'
     '      1,\n'
     '      0,\n'
     '      1\n'
     '    ]\n'
     '  },\n'
     '  "extension": {\n'
     '    "p": 3,\n'
     '    "m": 4,\n'
     '    "modulus": [\n'
     '      [\n'
     '        1,\n'
     '        0\n'
     '      ],\n'
     '      [\n'
     '        1,\n'
     '        1\n'
     '      ],\n'
     '      [\n'
     '        1,\n'
     '        0\n'
     '      ]\n'
     '    ]\n'
     '  },\n'
     '  "generator": "[[1,0],[1,0]]",\n'
     '  "cap": 10000000\n'
     '}\n'),
    ("field-info --p 2 --m 3",
     '{\n'
     '  "q": 8,\n'
     '  "q2": 64,\n'
     '  "subfield": {\n'
     '    "p": 2,\n'
     '    "m": 3,\n'
     '    "modulus": [\n'
     '      1,\n'
     '      0,\n'
     '      1,\n'
     '      1\n'
     '    ]\n'
     '  },\n'
     '  "extension": {\n'
     '    "p": 2,\n'
     '    "m": 6,\n'
     '    "modulus": [\n'
     '      [\n'
     '        1,\n'
     '        0,\n'
     '        0\n'
     '      ],\n'
     '      [\n'
     '        1,\n'
     '        0,\n'
     '        0\n'
     '      ],\n'
     '      [\n'
     '        1,\n'
     '        0,\n'
     '        0\n'
     '      ]\n'
     '    ]\n'
     '  },\n'
     '  "generator": "[[0,1,0],[1,0,0]]",\n'
     '  "cap": 10000000\n'
     '}\n'),
    ("power-sum --p 7 --r 5 --t 2 --a [g^3,1] --alpha 3",
     '{"s": 24, "alpha": 3, "beta": 3, "method": "closed", "value": "[0,0]"}\n'),
    ("is-pp --p 3 --m 2 --r 5 --t 2 --a [[g^2,1],g] --method brute",
     '{"is_pp": false, "method": "brute", "witness": "Collision(x1=<[[1,0],[0,0]] in GF(81)>, x2=<[[1,2],[0,2]] in GF(81)>, value=<[[2,1],[1,1]] in GF(81)>)"}\n'),
]


@pytest.mark.parametrize("argv,stdout", FIELD_CLI_PINS)
def test_cli_field_output_pinned(argv, stdout, capsys):
    assert run_cli(*argv.split()) == 0
    assert capsys.readouterr().out == stdout


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


@pytest.mark.parametrize("cap", ["abc", "1e7", "0", "-5", ""])
def test_cli_refuses_a_cap_that_is_not_a_positive_integer(cap, monkeypatch, capsys):
    monkeypatch.setenv("PERMBINOM_CAP", cap)
    err = _assert_usage_error(capsys, "field-info", "--p", "3")
    assert err.strip() == f"error: PERMBINOM_CAP must be a positive integer, got {cap!r}"


@pytest.mark.parametrize("text, bad", [("g^x", "g^x"), ("zz", "zz"), ("[1,2", "[1,2"),
                                       ("[1, g^x]", "g^x")])  # a bracket names its bad digit
def test_cli_bad_element_text_exits_2(text, bad, capsys):
    err = _assert_usage_error(capsys, "is-pp", "--p", "3", "--r", "5", "--t", "2", "--a", text)
    assert err.strip() == f"error: bad element syntax: {bad}"


@pytest.mark.parametrize("p, m, text, bad", [
    (5, 1, "[[1],2]", "[1]"),  # a bracket over F_p is named as that bracket
    (5, 1, "[1,2,3]", "[1,2,3]"),  # so is a vector longer than the degree
    (5, 1, "[1,2]]", "[1,2]]"),  # a text whose brackets do not balance is named whole
    (3, 2, "[[1,2]],[0,1]]", "[[1,2]],[0,1]]"),
])
def test_cli_misshapen_bracket_text_exits_2(p, m, text, bad, capsys):
    err = _assert_usage_error(capsys, "is-pp", "--p", str(p), "--m", str(m), "--r", "3", "--t", "2",
                              "--a", text)
    assert err.strip() == f"error: bad element syntax: {bad}"


def test_cli_huge_m_exits_2_at_once(capsys):
    # the cap is decided without forming q^2 = 3^200000000
    start = time.perf_counter()
    err = _assert_usage_error(capsys, "field-info", "--p", "3", "--m", "100000000")
    assert time.perf_counter() - start < 1
    assert "q^2 = 3^200000000 exceeds the enumeration cap" in err


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


def test_cli_resume_with_other_flags_or_cap_exit_2(tmp_path, capsys, monkeypatch):
    # the #DONE markers hold only for the flags and cap that wrote them
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "20", "--out", out)
    assert run_cli(*argv) == 0
    capsys.readouterr()
    written = Path(out).read_bytes()
    err = _assert_usage_error(capsys, *argv, "--include-norm-one", "--resume")
    assert "cannot resume" in err
    monkeypatch.setenv("PERMBINOM_CAP", "1000")
    err = _assert_usage_error(capsys, *argv, "--resume")
    assert "cannot resume" in err
    assert Path(out).read_bytes() == written


def test_cli_resume_done_marker_of_an_unswept_q_exit_2(tmp_path, capsys):
    # q = 25 and 27, done with their records by a --q-max 30 run, are no q
    # of a --q-max 20 run: kept, their records would enter its catalog with
    # no #DONE line and its summary
    out, wider = str(tmp_path / "cat.jsonl"), str(tmp_path / "wider.jsonl")
    argv = ("search", "--r", "5", "--q-max", "20", "--include-norm-one", "--out", out)
    assert run_cli(*argv) == 0
    assert run_cli("search", "--r", "5", "--q-max", "30", "--include-norm-one", "--out", wider) == 0
    capsys.readouterr()
    lines = Path(wider).read_text().splitlines()
    extra = [line for line in lines if not line.startswith("#PERMBINOM")
             and json.loads(line.removeprefix("#DONE "))["q"] in (25, 27)]
    assert len(extra) == 2 + 27
    with open(out, "a") as fh:
        fh.write("\n".join(extra) + "\n")
    written = Path(out).read_bytes()
    err = _assert_usage_error(capsys, *argv, "--resume")
    assert err.startswith("error: cannot resume: a #DONE marker names (q, r) = (25, 5)"), err
    assert Path(out).read_bytes() == written


def test_cli_refused_resume_leaves_the_catalog_as_it_was(tmp_path, capsys):
    # the resumed records are checked before anything is written
    out = tmp_path / "cat.jsonl"
    argv = ("search", "--r", "5", "--q-max", "30", "--include-norm-one", "--out", str(out))
    assert run_cli(*argv) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    out.write_text("\n".join(lines[:first] + lines[-1:] + lines[first:]) + "\n")
    written = out.read_bytes()
    assert hashlib.sha256(written).hexdigest().startswith("59b44e3b")
    err = _assert_usage_error(capsys, *argv, "--resume")
    assert err.startswith(f"error: {out}: differs from the sweep at record {{"), err
    assert out.read_bytes() == written


def test_cli_resume_wrong_z_exit_2(tmp_path, capsys):
    # a record's z text is swapped for another passing z of its q: that fibre
    # gains a record and its own loses one
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "20", "--include-norm-one", "--out", out)
    assert run_cli(*argv) == 0
    capsys.readouterr()

    def swap_z(records):
        d = next(d for d in records if any(e["q"] == d["q"] and e["z"] != d["z"] for e in records))
        d["z"] = next(e["z"] for e in records if e["q"] == d["q"] and e["z"] != d["z"])
        return records
    _rewrite_records(out, swap_z)
    err = _assert_usage_error(capsys, *argv, "--resume")
    assert err.startswith(f"error: {out}: differs from the sweep at record {{")


def test_cli_resume_wrong_a_index_exit_2(tmp_path, capsys):
    # the bumped a_index names an a outside the record's z-fibre, and not
    # the a the record's text names
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
    assert err.startswith(f"error: {out}: differs from the sweep at record {{")


def test_cli_resume_wrong_construction_data_exit_2(tmp_path, capsys):
    # a record whose q is not p^m, or whose modulus is not the tower's, is
    # not the sweep's
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
        assert err.startswith(f"error: {out}: differs from the sweep at record {{"), err


def test_cli_resume_bad_record_value_exit_2(tmp_path, capsys):
    # a p that is not prime, and an a text that is not the canonical text of
    # its a_index's element, whether it parses to it or not at all: no value
    # is parsed or built on, each is compared with the sweep's
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
    for edit in (first_prime_q(a=lambda d: "abc"), first_prime_q(p=lambda d: 4), first_prime_q(a=padded)):
        assert run_cli(*argv) == 0
        capsys.readouterr()
        _rewrite_records(out, edit)
        err = _assert_usage_error(capsys, *argv, "--resume")
        assert err.startswith(f"error: {out}: differs from the sweep at record {{"), err


def test_cli_resume_huge_m_exit_2(tmp_path, capsys):
    # a resumed record's m is compared, never built on, so it is refused at once
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "20", "--include-norm-one", "--out", out)
    assert run_cli(*argv) == 0
    capsys.readouterr()

    def huge_m(records):
        records[0]["m"] = 100_000_000
        return records
    _rewrite_records(out, huge_m)
    start = time.perf_counter()
    err = _assert_usage_error(capsys, *argv, "--resume")
    assert time.perf_counter() - start < 5
    assert err.startswith(f"error: {out}: differs from the sweep at record {{") and '"m": 100000000' in err, err


def test_cli_resume_forged_record_exit_2(tmp_path, capsys):
    # the last record is swapped for its neighbour a, a consistent record
    # (a, a_index and z agree) of a non-permuting binomial; it sorts where
    # the record it replaced stood, so it is the first to differ and is named
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
    forged = json.dumps(read_catalog(out)[1][-1]._asdict())
    err = _assert_usage_error(capsys, *argv, "--resume")
    assert err == f"error: {out}: differs from the sweep at record {forged}\n"


def test_cli_resume_wrong_family_or_non_hit_exit_2(tmp_path, capsys):
    # the summary counts every record as a hit and reads the sporadic and
    # norm-one counts off its family: a relabelled fibre, or a consistent
    # record of a non-permuting binomial, is refused rather than counted
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "30", "--include-norm-one", "--out", out)

    def relabel(old, new, count, q_min=0):
        def apply(records):
            moved = [d for d in records if d["family"] == old and d["q"] >= q_min]
            assert len(moved) == count
            for d in moved:
                d["family"] = new
            return records
        return apply

    def forge(records):
        d = records[-1]
        fq2 = build_tower(d["p"], d["m"])[1]
        k = (d["a_index"] + 1) % (fq2.order - 1)
        a = fq2.element(fq2.exp(k))
        assert not is_pp_brute(BinomialParams(a, 5, 2)).is_pp
        d.update(a=a.text, a_index=k, z=compute_z(a).text, is_pp=False, family="not_pp")
        return records
    for edit, named in ((relabel("sporadic", "family_iii", 34), "family_iii"),
                        (relabel("family_i", "sporadic", 37, 19), "sporadic"),
                        (forge, "not_pp")):
        assert run_cli(*argv) == 0
        capsys.readouterr()
        _rewrite_records(out, edit)
        err = _assert_usage_error(capsys, *argv, "--resume")
        assert err.startswith(f"error: {out}: differs from the sweep at record {{") and f'"family": "{named}"' in err, err


def test_cli_resume_duplicate_record_exit_2(tmp_path, capsys):
    # the repeated record is one more than the sweep writes
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "20", "--include-norm-one", "--out", out)
    assert run_cli(*argv) == 0
    capsys.readouterr()
    _rewrite_records(out, lambda records: records + records[-1:])
    err = _assert_usage_error(capsys, *argv, "--resume")
    assert err.startswith(f"error: {out}: differs from the sweep at record {{")


@pytest.mark.parametrize("which", [0, 7, -1, "fibre", "q"])
def test_cli_resume_missing_record_exit_2(which, tmp_path, capsys):
    # a done q's records are all the sweep's: one deleted from a z-fibre, its
    # first, a middle or its last in catalog order, the whole fibre, or every
    # record of its q with its #DONE kept, leaves the catalog short
    out = str(tmp_path / "cat.jsonl")
    argv = ("search", "--r", "5", "--q-max", "30", "--include-norm-one", "--out", out)
    assert run_cli(*argv) == 0
    capsys.readouterr()
    before = read_catalog(out)[1]

    def drop(records):
        last = records[-1]
        fibre = [d for d in records if (d["q"], d["z"]) == (last["q"], last["z"])]
        assert len(fibre) == (last["q"] + 1) // 2 == 14
        gone = {"fibre": fibre, "q": [d for d in records if d["q"] == last["q"]]}.get(which)
        return [d for d in records if d not in (gone or [fibre[which]])]
    _rewrite_records(out, drop)
    assert len(read_catalog(out)[1]) == len(before) - (1 if which in (0, 7, -1) else 14)
    assert 27 in {d["q"] for d in read_catalog(out)[2]}
    written = Path(out).read_bytes()
    err = _assert_usage_error(capsys, *argv, "--resume")
    problem = "differs from the sweep at record" if which in (0, 7) else "lacks the sweep's record"
    assert err.startswith(f"error: {out}: {problem} {{") and '"q": 27' in err, err
    assert Path(out).read_bytes() == written


def test_write_catalog_cut_short_leaves_the_old_catalog(tmp_path):
    # a write that fails part-way, here on a first record json cannot
    # serialise, after the #DONE lines, leaves the catalog at the path byte
    # for byte, and nothing beside it
    out = tmp_path / "cat.jsonl"
    search_exceptional(5, 13, out=str(out))
    written = out.read_bytes()
    header, records, done = read_catalog(str(out))
    broken = records[0]._replace(a=object())
    with pytest.raises(TypeError):
        search._write_catalog(str(out), header, [broken, *records], done)
    assert out.read_bytes() == written
    assert os.listdir(tmp_path) == ["cat.jsonl"]


def test_write_catalog_keeps_a_symlink_and_writes_a_fifo_in_place(tmp_path):
    # the file a symlink names is replaced, not the link; a path that is no
    # regular file, such as /dev/null or this FIFO, is written, never replaced
    real, link, fifo = tmp_path / "real.jsonl", tmp_path / "link.jsonl", tmp_path / "fifo"
    real.write_text("old\n")
    link.symlink_to(real)
    search_exceptional(5, 13, out=str(link))
    assert link.is_symlink() and read_catalog(str(real))[1]
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    search._write_catalog(str(fifo), *read_catalog(str(real)))
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [real.read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fifo", "link.jsonl", "real.jsonl"]


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


def test_search_refuses_unusable_output_paths_before_sweep(tmp_path, capsys, monkeypatch):
    def sweep(task):
        raise AssertionError("swept before the output paths were checked")

    monkeypatch.setattr(search, "_sweep_one_q", sweep)
    out = str(tmp_path / "c.jsonl")
    with pytest.raises(IsADirectoryError):
        search_exceptional(5, 10, out=str(tmp_path))
    for argv in (("--out", str(tmp_path)),
                 ("--out", out, "--csv", str(tmp_path)),
                 ("--out", out, "--csv", str(tmp_path / "no-such-dir" / "c.csv"))):
        _assert_usage_error(capsys, "search", "--r", "5", "--q-max", "10", *argv)
    assert not os.path.exists(out)


def test_empty_output_paths_are_refused_before_any_work(tmp_path, capsys, monkeypatch):
    def sweep(task):
        raise AssertionError("swept before the output paths were checked")

    def run_suite(name):
        raise AssertionError("ran a suite before the --json path was checked")

    monkeypatch.setattr(search, "_sweep_one_q", sweep)
    monkeypatch.setattr(cli, "run_suite", run_suite)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="empty"):
        search_exceptional(5, 13, out="")
    for argv in (("--out", ""), ("--out", "", "--csv", "x.csv"), ("--out", "c.jsonl", "--csv", "")):
        err = _assert_usage_error(capsys, "search", "--r", "5", "--q-max", "13", *argv)
        assert "output path is empty" in err
    err = _assert_usage_error(capsys, "verify", "--suite", "sec5r32", "--json", "")
    assert "output path is empty" in err
    assert os.listdir(tmp_path) == []


def test_search_refuses_one_file_for_catalog_and_csv(tmp_path, capsys, monkeypatch):
    def sweep(task):
        raise AssertionError("swept although --csv names the catalog")

    monkeypatch.setattr(search, "_sweep_one_q", sweep)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "c.jsonl"
    (tmp_path / "link.jsonl").symlink_to(out)
    for csv in (str(out), "c.jsonl", str(tmp_path / "." / "c.jsonl"), "link.jsonl"):
        err = _assert_usage_error(capsys, "search", "--r", "5", "--q-max", "10",
                                  "--out", str(out), "--csv", csv)
        assert "would overwrite the catalog" in err
    assert not out.exists()


def test_verify_refuses_a_json_directory_before_running_suites(tmp_path, capsys, monkeypatch):
    def run_suite(name):
        raise AssertionError("ran a suite before the --json path was checked")

    monkeypatch.setattr(cli, "run_suite", run_suite)
    for path in (tmp_path, tmp_path / "no-such-dir" / "r.jsonl"):
        _assert_usage_error(capsys, "verify", "--suite", "all", "--json", str(path))


def test_cross_validate_refuses_q_past_the_cap_before_factoring(capsys, monkeypatch):
    # trial division of q would take ~sqrt(q) steps; the cap is decided first
    cap = ff.enumeration_cap()
    factor = ff._prime_factors

    def guarded(n):
        if n > cap:
            raise AssertionError(f"trial division of {n}, above the cap {cap}")
        return factor(n)

    monkeypatch.setattr(ff, "_prime_factors", guarded)
    err = _assert_usage_error(capsys, "cross-validate", "--q", "3,1000000000000000003")
    assert err.strip() == f"error: q^2 = 1000000000000000003^2 exceeds the enumeration cap {cap}"


def test_cross_validate_rejects_nothing_to_check(capsys):
    with pytest.raises(ValueError):
        cross_validate([])
    with pytest.raises(ValueError):
        cross_validate([3], samples=0)
    _assert_usage_error(capsys, "cross-validate", "--q", ",")
    _assert_usage_error(capsys, "cross-validate", "--q", "3", "--samples", "-3")
