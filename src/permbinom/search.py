"""Parameter-space search harness and oracle cross-validation driver.

The search sweeps every a in F_{q^2}* for fixed (r, t=2) across a range of
odd prime powers q, using the fact that the power-sum verdict is a pure
function of the derived value z(a): each q is decided through the few
roots of its alpha = 1 bracket, and only passing values are expanded back
to their a preimages (each z has exactly (q+1)/2 of them), whose family tag
comes from one brute walk per fibre.  Catalogs are JSON Lines with a fixed
key order, sorted on a final barrier, so identical runs are byte-identical
regardless of worker count; a resumed catalog must equal that derivation
z-fibre by z-fibre before anything is swept or written.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter, namedtuple

from . import __version__, ppcheck
from .ff import PrimePower, build_tower, check_cap, enumeration_cap, enumerate_elements
from .powersum import (
    PowerSumIndex,
    power_sum_brute,
    power_sum_closed,
    power_sum_on_class_row,
    surviving_alphas,
)
from .ppcheck import (
    BinomialParams,
    classify_family,
    expand_z_to_a,
    is_pp_powersum,
    t2_passing_z,
    thm21_bound,
)
from .report import FAIL, PASS, CheckReport

__all__ = [
    "SearchRecord",
    "odd_prime_powers",
    "search_exceptional",
    "check_output_path",
    "cross_validate",
    "read_catalog",
    "catalog_to_csv",
]

SCHEMA_VERSION = 1


# each catalog record key with its JSON type, in catalog key order, which
# fixes the catalog bytes
RECORD_TYPES = {
    "p": int, "m": int, "q": int, "r": int, "t": int, "a": str, "a_index": int, "z": str,
    "is_pp": bool, "family": str, "method": str, "version": str, "modulus": list,
}


class SearchRecord(namedtuple("SearchRecord", RECORD_TYPES)):
    """One persisted hit; the canonical element text plus the generator
    exponent makes records replayable without re-running the sweep."""

    __slots__ = ()


def _pmap(fn, tasks: list, jobs: int) -> list:
    """[fn(task) for task in tasks], on min(jobs, len(tasks)) forked workers
    when that is more than one."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    import multiprocessing  # here, not at the top: it loads socket, pickle and selectors

    with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
        return list(pool.imap(fn, tasks))


def odd_prime_powers(hi: int) -> list[tuple[int, int, int]]:
    """(p, m, q) for every odd prime power q <= hi, ascending."""
    if hi < 3:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(math.isqrt(hi)) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    out = []
    for p in range(3, hi + 1, 2):
        if not sieve[p]:
            continue
        q, m = p, 1
        while q <= hi:
            out.append((p, m, q))
            q *= p
            m += 1
    out.sort(key=lambda t: t[2])
    return out


def _admissible_qs(r: int, q_max: int, cap: int) -> list[tuple[int, int, int]]:
    """(p, m, q) for every odd prime power q <= q_max with q^2 within the cap
    and gcd(r, q-1) = 1, ascending."""
    return [
        (p, m, q)
        for (p, m, q) in odd_prime_powers(min(q_max, math.isqrt(cap)))
        if math.gcd(r, q - 1) == 1
    ]


def _fibre_records(fq2, p: int, m: int, r: int, z: int) -> list[SearchRecord]:
    """The records of the passing z-fibre of z, an index of fq2 = F_{q^2},
    q = p^m, one per a of expand_z_to_a, in a_index order.  One brute walk,
    on the first a, tags them all (the tag depends on a only through z); the
    fast test and classify_family decide the second a again, as a sample.
    ValueError on any disagreement, since z may come from a resumed catalog."""
    fibre = [(a_index, BinomialParams(a, r, 2)) for a_index, a in expand_z_to_a(fq2, z)]
    for _, params in fibre:
        if params.z.idx != z:
            raise ValueError(f"a = {params.a.text} lies outside the z-fibre of {fq2.render(z)}")
    tag = classify_family(fibre[0][1]).tag
    if tag == "not_pp":
        raise ValueError("z-level hit disagreed with the brute test")
    second = fibre[1][1]  # a fibre holds (q + 1)/2 >= 2 values of a
    if not is_pp_powersum(second).is_pp:
        raise ValueError("the fast test refused the fibre's second a")
    if classify_family(second).tag != tag:
        raise ValueError(f"the brute sample on the fibre's second a is not tagged {tag}")
    common = dict(p=p, m=m, q=p**m, r=r, t=2, is_pp=True, family=tag, method="powersum",
                  version=__version__, modulus=fq2.describe()["modulus"])
    return [SearchRecord(a=params.a.text, a_index=a_index, z=params.z.text, **common)
            for a_index, params in fibre]


def _sweep_one_q(task) -> list[SearchRecord]:
    """Worker: decide every a of one field through its z values; expand hits."""
    p, m, _, r, include_norm_one = task
    hits, _ = t2_passing_z(p, m, r, include_norm_one)
    if not hits:
        return []
    _, fq2 = build_tower(p, m)
    return [rec for z in hits for rec in _fibre_records(fq2, p, m, r, z)]


def _check_resumed(path: str, r: int, records: list[SearchRecord]):
    """Refuse resumed records that the sweep would not write: each z-fibre
    (p, m, z), in a_index order, must equal _fibre_records of its z.  Every
    fibre is derived before any is compared, so a record that no passing
    fibre holds is named, not the fibre it was taken from.  ValueError naming
    the catalog and a record on any difference or value the derivation rejects."""
    fibres: dict[tuple[int, int, str], list[SearchRecord]] = {}
    # each tower's fibres together, so a resume builds it once, each in a_index order
    for rec in sorted(records, key=lambda rec: (rec.p, rec.m, rec.a_index)):
        fibres.setdefault((rec.p, rec.m, rec.z), []).append(rec)
    derived = []  # (fibre, the sweep's records of its z)
    try:  # rec is the record under scrutiny throughout
        for (p, m, z), fibre in fibres.items():
            rec = fibre[0]
            _, fq2 = build_tower(p, m)
            derived.append((fibre, _fibre_records(fq2, p, m, r, fq2.parse(z))))
        for fibre, want in derived:
            rec = fibre[0]
            if len(fibre) != len(want):
                raise ValueError("fibre size mismatch")
            for rec, good in zip(fibre, want):
                for field, got, expected in zip(RECORD_TYPES, rec, good):
                    if got != expected:
                        raise ValueError(f"{field} mismatch")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc} on record {json.dumps(rec._asdict())}") from None


def check_output_path(path: str):
    """Refuse, before any sweep, an output path that is empty, names a directory
    or lies in a missing one; the file itself is left alone for --resume."""
    if not path:
        raise ValueError("output path is empty")
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path {path} is a directory")
    out_dir = os.path.dirname(path)
    if out_dir and not os.path.isdir(out_dir):
        raise FileNotFoundError(f"output directory {out_dir} does not exist")


def _write_catalog(path: str, header: dict, records: list[SearchRecord], done: list[dict]):
    """Write to a file beside the file path names, then move it on: a write
    cut short leaves that file as it was, not #DONE lines over a partial
    record list.  A path to something else, such as /dev/null, is written."""
    target = os.path.realpath(path)  # a symlink stays, and names the new file
    in_place = os.path.exists(target) and not os.path.isfile(target)
    tmp = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("#PERMBINOM-CATALOG " + json.dumps(header) + "\n")
            for d in done:
                fh.write("#DONE " + json.dumps(d) + "\n")
            for rec in records:
                fh.write(json.dumps(rec._asdict()) + "\n")
        if not in_place:
            os.replace(tmp, target)
    finally:
        if not in_place and os.path.exists(tmp):  # the write failed; the file is as it was
            os.remove(tmp)


def _entry(text: str, types: dict, where: str) -> dict:
    """The JSON object in text, whose keys include those of types, each with
    a value of exactly its type; ValueError naming where otherwise."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: malformed catalog entry: {exc.msg}") from None
    if not isinstance(d, dict):
        raise ValueError(f"{where}: catalog entry is not a JSON object")
    missing = [k for k in types if k not in d]
    if missing:
        raise ValueError(f"{where}: catalog entry lacks {', '.join(missing)}")
    for k, t in types.items():
        if type(d[k]) is not t:
            raise ValueError(f"{where}: catalog entry field {k} is not of type {t.__name__}")
    return d


def read_catalog(path: str) -> tuple[dict, list[SearchRecord], list[dict]]:
    header = {}
    records = []
    done = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path} line {lineno}"
            if line.startswith("#PERMBINOM-CATALOG "):
                header = _entry(line.split(" ", 1)[1], {}, where)
            elif line.startswith("#DONE "):
                done.append(_entry(line.split(" ", 1)[1], {"q": int, "r": int}, where))
            elif not line.startswith("#"):
                d = _entry(line, RECORD_TYPES, where)
                records.append(SearchRecord(**{k: d[k] for k in RECORD_TYPES}))
    return header, records, done


def catalog_to_csv(path_in: str, path_out: str):
    import csv

    _, records, _ = read_catalog(path_in)
    with open(path_out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SearchRecord._fields)
        writer.writerows([*rec[:-1], json.dumps(rec.modulus)] for rec in records)  # modulus is last


def search_exceptional(
    r: int,
    q_max: int,
    *,
    include_norm_one: bool = False,
    jobs: int = 1,
    out: str | None = None,
    resume: bool = False,
) -> dict:
    """Sweep every admissible odd prime power q <= q_max for permutation
    binomials with the given r (t = 2 only), recording every hit.

    Admissible means q odd, gcd(r, q-1) = 1, q^2 within the enumeration cap;
    a q_max whose square is past the cap is refused with ValueError.
    The summary counts sporadic hits below the nonexistence threshold and
    confirms the absence of norm-not-one hits at or above it.
    """
    if r <= 3 or r % 2 == 0:
        raise ValueError("search needs odd r > 3")
    if out is not None:
        check_output_path(out)
    cap = enumeration_cap()
    qs = _admissible_qs(r, q_max, cap)
    if not qs:  # r is odd, so only q_max < 3 or a cap below 9 gets here
        raise ValueError(f"no odd q in 3..{q_max} to sweep within the cap {cap}")
    if q_max * q_max > cap:  # a sweep clipped at isqrt(cap) would confirm the bound past it unswept
        raise ValueError(f"q_max = {q_max} puts q^2 past the enumeration cap {cap}; "
                         f"q_max may be at most {math.isqrt(cap)}")
    params = {"r": r, "t": 2, "q_min": 3, "q_max": q_max, "include_norm_one": include_norm_one}
    done_pairs: set[tuple[int, int]] = set()
    records: list[SearchRecord] = []
    if resume and out is not None and os.path.exists(out):
        old_header, old, done = read_catalog(out)
        if old_header.get("params") != params or old_header.get("cap") != cap:
            raise ValueError("cannot resume: existing catalog was produced with different flags")
        done_pairs = {(d["q"], d["r"]) for d in done}
        stray = sorted(done_pairs - {(q, r) for (_, _, q) in qs})
        if stray:  # its records would be kept with no q of this run to vouch for them
            raise ValueError(f"cannot resume: a #DONE marker names (q, r) = {stray[0]}, not swept here")
        records = [rec for rec in old if (rec.q, rec.r) in done_pairs]
        _check_resumed(out, r, records)
    tasks = [(p, m, q, r, include_norm_one) for (p, m, q) in qs if (q, r) not in done_pairs]

    for q_records in _pmap(_sweep_one_q, tasks, jobs):
        records.extend(q_records)
    records.sort(key=lambda rec: (rec.q, rec.r, rec.t, rec.a_index))  # the catalog order

    if out is not None:
        header = {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "kind": "permbinom-search",
            "params": params,
            # tower construction is deterministic given (p, m); each record
            # carries its own modulus vectors
            "cap": cap,
        }
        done = [{"q": q, "r": r} for (_, _, q) in qs]
        _write_catalog(out, header, records, done)

    # a norm-one hit always satisfies the complete norm-one criterion, so the
    # family_i tag, derived for every record, is the authoritative norm marker
    below = above = sporadic_below = 0
    bounds = {p: thm21_bound(r, p) for p in {rec.p for rec in records}}  # one primality test per p
    for rec in records:
        if rec.q >= bounds[rec.p]:
            if rec.family != "family_i":
                above += 1
        else:
            below += 1
            if rec.family == "sporadic":
                sporadic_below += 1

    summary = {
        **params,
        "q_swept": len(qs),
        "records": len(records),
        "hits_below_bound": below,
        "sporadic_below_bound": sporadic_below,
        "norm_not_one_hits_at_or_above_bound": above,
        "bound_confirmed": above == 0,
    }
    if out is not None:
        summary["catalog"] = out
    return summary


# ------------------------------------------------------- cross-validation

def cross_validate(
    q_list,
    t_list=(1, 2),
    samples: int | None = None,
    seed: int = 0,
    modes=("oracle", "pp"),
) -> list[CheckReport]:
    """Closed-form-vs-oracle and fast-vs-brute permutation sweeps.

    Exhaustive mode (samples=None) walks every admissible r, every nonzero a
    and every survivable exponent; randomized mode draws `samples` cases per
    field from a seeded generator, mixing arbitrary exponents with the
    surviving family.  Deterministic for a fixed seed.
    """
    if not q_list:
        raise ValueError("no field orders to cross-validate")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    for q in q_list:  # before PrimePower.from_q trial-divides it
        check_cap("q^2", q, 2)
    reports = []
    for q in q_list:
        pp = PrimePower.from_q(q)
        fq, fq2 = build_tower(pp.p, pp.m)
        for t in t_list:
            if t == 2 and q % 2 == 0:
                reports.append(
                    CheckReport(f"xval.q{q}.t2", FAIL, "odd q", "even q",
                                "t = 2 closed form needs odd q; rejected")
                )
                continue
            if samples is None:
                reports.extend(_xval_exhaustive(fq2, q, t, modes))
            else:
                reports.extend(_xval_random(fq2, q, t, samples, seed))
    return reports


def _admissible_r(q: int):
    return [r for r in range(1, q * q - 1) if math.gcd(r, q - 1) == 1]


def _tally(name: str, expected: str, checked: str, bad: list, noun: str) -> CheckReport:
    """One cross-validation report: pass iff nothing in bad."""
    return CheckReport(name, FAIL if bad else PASS, expected,
                       f"{checked}, {len(bad)} {noun}" + (f"; first {bad[:3]}" if bad else ""))


def _xval_exhaustive(fq2, q: int, t: int, modes=("oracle", "pp")) -> list[CheckReport]:
    out = []
    if "oracle" in modes:
        mismatches = []
        n_sums = 0
        # the class row of a depends on (a, t) alone, so it serves every (r, alpha)
        rows = [(a, fq2.class_logs(a.idx, t * (q - 1), q + 1))
                for a in enumerate_elements(fq2, "nonzero")]
        for r in _admissible_r(q):
            for a, row in rows:
                for alpha in surviving_alphas(q, t):
                    s = PowerSumIndex.useful(alpha, q)
                    n_sums += 1
                    if power_sum_closed(r, t, a, s) != power_sum_on_class_row(fq2, r, s.s, row):
                        mismatches.append((r, a.text, alpha))
        out.append(_tally(f"xval.q{q}.t{t}.oracle", "closed form == brute force",
                          f"{n_sums} sums", mismatches, "mismatches"))
    if "pp" in modes:
        disagreements = []
        n_params = 0
        for r in _admissible_r(q):
            for a in enumerate_elements(fq2, "nonzero"):
                params = BinomialParams(a, r, t)
                n_params += 1
                if is_pp_powersum(params).is_pp != ppcheck.is_pp_brute(params).is_pp:
                    disagreements.append((r, a.text))
        out.append(_tally(f"xval.q{q}.t{t}.pp", "fast test == brute test",
                          f"{n_params} parameter sets", disagreements, "disagreements"))
    return out


def _xval_random(fq2, q: int, t: int, samples: int, seed: int) -> list[CheckReport]:
    rng = random.Random((seed, q, t).__repr__())
    rs = _admissible_r(q)
    n = q * q - 1
    mismatches = []
    for i in range(samples):
        r = rng.choice(rs)
        a = fq2.element(fq2.exp(rng.randrange(n)))
        if i % 2 == 0:
            s = PowerSumIndex.from_s(rng.randrange(1, n - 1), q)
        else:
            s = PowerSumIndex.useful(rng.choice(surviving_alphas(q, t)), q)
        if power_sum_closed(r, t, a, s) != power_sum_brute(r, t, a, s.s):
            mismatches.append((r, a.text, s.s))
    return [_tally(f"xval.q{q}.t{t}.random{samples}", "closed form == brute force",
                   f"{samples} sampled sums", mismatches, "mismatches")]


def thm21_desk_sweep(r: int, q_cap_sq: int | None = None, jobs: int = 1) -> dict:
    """Nonexistence confirmation: for every admissible odd prime power q at
    or above the threshold with q^2 within the cap, count passing z values
    with norm(a) != 1.  Expected zero everywhere; ValueError if no q is left.
    first_failure maps each alpha to the number of z, over all q, whose
    first nonzero bracket is at alpha."""
    cap = enumeration_cap() if q_cap_sq is None else q_cap_sq
    qs = _admissible_qs(r, math.isqrt(cap), cap)
    bounds = {p: thm21_bound(r, p) for p in {p for p, _, _ in qs}}  # one primality test per p
    tasks = [(p, m, q, r) for (p, m, q) in qs if q >= bounds[p]]
    if not tasks:  # no q to sweep would confirm the bound vacuously
        raise ValueError(f"no admissible q at or above the bound for r = {r} within the cap {cap}")
    results = _pmap(_thm21_one, tasks, jobs)
    failures = [(q, hits) for q, hits, _ in results if hits]
    first_failure = Counter()
    for _, _, hist in results:
        first_failure.update(hist)
    return {"r": r, "q_swept": len(results), "failures": failures, "confirmed": not failures,
            "first_failure": dict(sorted(first_failure.items()))}


def _thm21_one(task):
    """Worker: one q's passing z and its first-failure histogram."""
    p, m, q, r = task
    return (q, *t2_passing_z(p, m, r, include_norm_one=False))
