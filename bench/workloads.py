"""The four benchmark workloads: sizes, seeded inputs, bodies and gates.

Every workload has a size table per scale ("full" is what the benchmark
measures, "tiny" is for the smoke test), an input generator that depends
only on the seed and the scale and needs no field tables, and a body that
calls permbinom's public entry points and records one check per verified
fact.  Bodies look functions up as module attributes at call time, so the
tracer's wrappers see every call.

Why each workload is here, and which layer it stresses:

* nonexistence -- the paper's nonexistence argument: ``verify --suite all``
  and the desk sweep for r = 5, 7, 9.  The desk sweep is z-level work
  (ppcheck + powersum brackets over F_q arithmetic) and builds no F_{q^2}
  table, so bracket caching and a table-free sweep show here and field
  table changes should not.
* oracle -- the brute-force twin: exhaustive cross-validation plus seeded
  closed-vs-brute power sums.  Most of the time is power_sum_brute adding
  through F_{q^2} tables small enough to stay in cache, so faster field
  addition shows here and bracket caching barely moves it.
* search -- the only workload that writes and reads catalogs; it also
  builds one small tower per q and runs a brute permutation check per
  record, so catalog durability and table-size trade-offs show here.
* bigfield -- the only working set larger than the CPU caches: a cold
  F_{1009^2} tower build, then brute-vs-closed power sums, a brute
  permutation test of a norm-one a that permutes (family (i)), so the walk
  covers the whole field, and brute-vs-fast tests of random a.  Table build
  speed and table memory show here.  The fast test is not run on the
  permuting a: it evaluates all (q-1)/2 brackets, about 9 s at q = 1009,
  which is the nonexistence workload's layer and would double a repetition.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import traceback

from permbinom import cli, ff, powersum, ppcheck, search

SIZES = {
    "full": {
        "nonexistence": {"suite": "all", "rs": (5, 7, 9), "sweep_cap": 2 * 10**6},
        "oracle": {"xval_q": (7,), "fields": ((5, 2), (3, 3), (7, 2)), "cases": 400},
        "search": {"r": 5, "q_max": 100},
        "bigfield": {"p": 1009, "power_sums": 1, "norm_one": 1, "random_a": 2},
        "probe": {"small_field": (7, 2), "ops": 200_000},
    },
    "tiny": {
        "nonexistence": {"suite": "sec6", "rs": (5, 7, 9), "sweep_cap": 10**4},
        "oracle": {"xval_q": (5,), "fields": ((5, 1), (3, 2)), "cases": 5},
        "search": {"r": 5, "q_max": 30},
        "bigfield": {"p": 61, "power_sums": 1, "norm_one": 1, "random_a": 2},
        "probe": {"small_field": (7, 2), "ops": 2_000},
    },
}

_OK_STATUS = ("pass", "probable-pass")


class Checks:
    """Correctness gate of one run: every check attempted, every failure kept."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


# ------------------------------------------------------------------ inputs

def _admissible_r(rng: random.Random, q: int, t: int) -> int:
    """A seeded r < 200 with gcd(r, q-1) = 1; with t = 2 also gcd(r-2, q+1) = 1,
    the norm-one permutation condition, so that such r admit permuting a."""
    while True:
        r = rng.randrange(1, 200)
        if math.gcd(r, q - 1) == 1 and (t != 2 or math.gcd(r - 2, q + 1) == 1):
            return r


def _norm_one_permuting_log(rng: random.Random, q: int) -> int:
    """dlog of a seeded norm-one a with (-a)^((q+1)/2) != 1: with r from
    _admissible_r(.., t=2) the binomial permutes (family (i))."""
    n = q * q - 1
    while True:
        k = rng.randrange(q + 1)
        if (n // 2 + k * (q - 1)) * ((q + 1) // 2) % n:
            return k * (q - 1)


def make_inputs(workload: str, seed: int, scale: str, workdir: str) -> dict:
    """Seeded inputs of one workload; plain integers, no field tables."""
    size = SIZES[scale][workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "nonexistence":
        return {**size, "report": os.path.join(workdir, "verify.jsonl")}
    if workload == "oracle":
        cases = []
        for p, m in size["fields"]:
            q = p**m
            for i in range(size["cases"]):
                t = 1 + i % 2  # a fixed t split keeps the work per seed equal
                alpha = rng.randrange(1, q - 1, 2) if t == 2 else rng.randrange(q)
                cases.append((p, m, t, _admissible_r(rng, q, 1), rng.randrange(q * q - 1), alpha))
        return {"xval_q": size["xval_q"], "cases": cases}
    if workload == "search":
        return {
            "argv": ["search", "--r", str(size["r"]), "--q-max", str(size["q_max"]),
                     "--include-norm-one", "--out", os.path.join(workdir, "catalog.jsonl"),
                     "--csv", os.path.join(workdir, "catalog.csv")],
        }
    if workload == "bigfield":
        p = size["p"]
        n = p * p - 1
        power_sums = [(_admissible_r(rng, p, 1), rng.randrange(n), rng.randrange(1, p - 1, 2))
                      for _ in range(size["power_sums"])]
        norm_one = [(_admissible_r(rng, p, 2), _norm_one_permuting_log(rng, p))
                    for _ in range(size["norm_one"])]
        random_a = [(_admissible_r(rng, p, 1), rng.randrange(n)) for _ in range(size["random_a"])]
        return {"p": p, "power_sums": power_sums, "norm_one": norm_one, "random_a": random_a}
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ bodies

def _cli(argv: list[str]) -> tuple[int, str]:
    """cli.main with its stdout captured and its stderr discarded."""
    out = io.StringIO()
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(devnull):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _nonexistence(inp: dict, pins: dict, checks: Checks, obs: dict):
    rc, _ = _cli(["verify", "--suite", inp["suite"], "--json", inp["report"]])
    checks.expect("verify.exit", rc == 0, f"exit {rc}")
    with open(inp["report"], encoding="utf-8") as fh:
        reports = [json.loads(line) for line in fh]
    checks.expect("verify.reports", len(reports) == pins["verify_reports"],
                  f"{len(reports)} reports")
    for rep in reports:
        checks.expect(f"verify.{rep['check_id']}", rep["status"] in _OK_STATUS, rep["computed"])
    for r in inp["rs"]:
        res = search.thm21_desk_sweep(r, inp["sweep_cap"], jobs=1)
        want = pins["q_swept"][str(r)]
        checks.expect(f"desk.r{r}.q_swept", res["q_swept"] == want, f"{res['q_swept']} != {want}")
        checks.expect(f"desk.r{r}.confirmed", res["confirmed"], str(res["failures"][:3]))


def _oracle(inp: dict, pins: dict, checks: Checks, obs: dict):
    reports = search.cross_validate(list(inp["xval_q"]), t_list=(1, 2))
    for rep in reports:
        checks.expect(rep.check_id, rep.ok, rep.computed)
    computed = {rep.check_id: rep.computed for rep in reports}
    checks.expect("xval.counts", computed == pins["xval"], json.dumps(computed))
    for p, m, t, r, a_log, alpha in inp["cases"]:
        q = p**m
        _, fq2 = ff.build_tower(p, m)
        a = fq2.element(fq2.exp(a_log))
        s = powersum.PowerSumIndex.useful(alpha, q)
        closed = powersum.power_sum_t2_closed if t == 2 else powersum.power_sum_t1_closed
        checks.expect(f"oracle.q{q}.t{t}.r{r}.g{a_log}.alpha{alpha}",
                      closed(r, a, s) == powersum.power_sum_brute(r, t, a, s.s))


def _search(inp: dict, pins: dict, checks: Checks, obs: dict):
    argv = inp["argv"]
    cat, csv_path = argv[argv.index("--out") + 1], argv[argv.index("--csv") + 1]
    rc, out = _cli(argv)
    checks.expect("search.exit", rc == 0, f"exit {rc}")
    summary = json.loads(out)
    got = {k: summary[k] for k in pins["summary"]}
    checks.expect("search.summary", got == pins["summary"], json.dumps(got))
    _, records, done = search.read_catalog(cat)
    checks.expect("search.records", len(records) == summary["records"], str(len(records)))
    checks.expect("search.done_markers", len(done) == summary["q_swept"], str(len(done)))
    with open(cat, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    checks.expect("search.catalog_sha256", digest == pins["catalog_sha256"], digest)
    with open(csv_path, encoding="utf-8") as fh:
        csv_rows = sum(1 for _ in fh)
    checks.expect("search.csv_rows", csv_rows == len(records) + 1, str(csv_rows))
    obs["search.records"] = len(records)
    obs["search.catalog_bytes"] = os.path.getsize(cat)


def _bigfield(inp: dict, pins: dict, checks: Checks, obs: dict):
    p = inp["p"]
    _, fq2 = ff.build_tower(p, 1)
    desc = fq2.describe()
    got = {"modulus": desc["modulus"], "generator": fq2.generator().text}
    checks.expect("bigfield.tower", json.loads(json.dumps(got)) == pins["tower"], json.dumps(got))
    for r, a_log, alpha in inp["power_sums"]:
        a = fq2.element(fq2.exp(a_log))
        s = powersum.PowerSumIndex.useful(alpha, p)
        checks.expect(f"bigfield.power_sum.r{r}.g{a_log}.alpha{alpha}",
                      powersum.power_sum_t2_closed(r, a, s) == powersum.power_sum_brute(r, 2, a, s.s))
    for r, a_log in inp["norm_one"]:
        params = ppcheck.BinomialParams(fq2.element(fq2.exp(a_log)), r, 2)
        brute = ppcheck.is_pp_brute(params).is_pp
        checks.expect(f"bigfield.norm_one.r{r}.g{a_log}", brute, "brute test finds a collision")
    for r, a_log in inp["random_a"]:
        params = ppcheck.BinomialParams(fq2.element(fq2.exp(a_log)), r, 2)
        brute = ppcheck.is_pp_brute(params).is_pp
        fast = ppcheck.is_pp_powersum(params).is_pp
        checks.expect(f"bigfield.pp.r{r}.g{a_log}", brute == fast, f"brute {brute}, powersum {fast}")


BODIES = {"nonexistence": _nonexistence, "oracle": _oracle, "search": _search, "bigfield": _bigfield}


def run_body(workload: str, inp: dict, pins: dict, checks: Checks) -> dict:
    """Run one workload body; a raised exception is one failed check.

    Returns the workload's observables (exact counts it reads off its own
    outputs)."""
    obs: dict = {}
    try:
        BODIES[workload](inp, pins, checks, obs)
    except Exception:  # the gate must report, not crash, on any library error
        checks.expect(f"{workload}.exception", False, traceback.format_exc(limit=4))
    return obs
