"""Timing wrappers for the traced benchmark run, installed from outside.

A wrapper replaces every attribute of every permbinom module that refers to
the wrapped function, so calls are caught at the names their callers look
up (``ppcheck.bracket_coeffs`` and ``powersum.bracket_coeffs`` alike).

* Coarse calls -- field builds, per-q sweeps, suites, catalog I/O and
  ``cli.main`` -- record spans with a parent.  A span's self time is its
  duration minus what its child spans and the hot calls made directly under
  it cover.
* Hot calls -- brackets, z tests, power sums, permutation tests, resultants,
  primality -- only add to per-category call counts and time, so memory
  stays bounded however many calls a workload makes.  Nested calls of one
  category are counted but timed once.
"""

from __future__ import annotations

import functools
import random
import resource
import sys
import time
from collections import Counter

from permbinom import cli, exactalg, ff, powersum, ppcheck, refcheck, registry, search

_clock = time.perf_counter


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans and hot-call aggregates of one traced workload body."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, covered seconds]
        self._stack: list[int] = []
        self.hot: dict[str, list] = {}  # category -> [calls, seconds]
        self._hot_depth: Counter = Counter()
        self._hot_active = 0
        self._sweep_depth = 0
        self.counts: Counter = Counter()
        self.first_failure_alpha: Counter = Counter()
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ recording

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = [name, 0.0, 0.0, parent, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][4] += rec[2] - rec[1]
            if after is not None:
                after(args, result)
            return result
        return functools.wraps(fn)(wrapper)

    def hot_call(self, category: str, fn, after=None):
        stat = self.hot.setdefault(category, [0, 0.0])
        depth = self._hot_depth

        def wrapper(*args, **kwargs):
            stat[0] += 1
            if depth[category]:
                return fn(*args, **kwargs)
            depth[category] += 1
            self._hot_active += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                depth[category] -= 1
                self._hot_active -= 1
                stat[1] += dt
                if not self._hot_active and self._stack:
                    self.spans[self._stack[-1]][4] += dt
            if after is not None:
                after(args, result)
            return result
        return functools.wraps(fn)(wrapper)

    def root(self, name: str):
        """Open the span every other span descends from."""
        self._stack.append(len(self.spans))
        self.spans.append([name, _clock(), 0.0, None, 0.0])

    def close_root(self):
        self.spans[self._stack.pop()][2] = _clock()

    # ------------------------------------------------------------ observers

    def _after_z_test(self, args, alpha):
        if not self._sweep_depth:
            return  # a per-a test inside is_pp_powersum, not a z-sweep
        q = args[1]
        self.counts["ppcheck.z_tested"] += 1
        if alpha is None:
            self.counts["ppcheck.z_hits"] += 1
            self.counts["ppcheck.brackets"] += (q - 1) // 2
        else:
            self.first_failure_alpha[alpha] += 1
            self.counts["ppcheck.brackets"] += (alpha + 1) // 2

    def _after_brute_sum(self, args, _):
        self.counts["powersum.brute_elems"] += args[2].ctx.order - 1

    def _after_brute_pp(self, args, verdict):
        ctx2 = args[0].ctx2
        if verdict.is_pp:
            self.counts["ppcheck.brute_elems"] += ctx2.order - 1
        else:  # the walk stopped at the second preimage of the collision
            self.counts["ppcheck.brute_elems"] += ctx2.dlog(verdict.witness.x2.idx) + 1

    # ------------------------------------------------------------ install

    def _replace(self, fn, wrapper):
        for name, mod in list(sys.modules.items()):
            if name != "permbinom" and not name.startswith("permbinom."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def install(self):
        build = ff.FieldCtx.__init__
        rss = {}

        def before_build(*args, **kwargs):
            rss["before"] = _maxrss_mb()
            return build(*args, **kwargs)

        def after_build(args, _):
            self.counts["ff.build_rss_mb"] += _maxrss_mb() - rss["before"]
            self.counts["ff.elements_built"] += args[0].order

        ff.FieldCtx.__init__ = self.span("ff.build", functools.wraps(build)(before_build),
                                         after_build)
        self._undo.append((ff.FieldCtx, "__init__", build))

        sweep = ppcheck.t2_passing_z

        def in_sweep(*args, **kwargs):
            self._sweep_depth += 1
            try:
                return sweep(*args, **kwargs)
            finally:
                self._sweep_depth -= 1
        self._replace(sweep, self.span("ppcheck.t2_passing_z", functools.wraps(sweep)(in_sweep)))

        for name, fn in (
            ("cli.main", cli.main),
            ("registry.verify_checksums", registry.verify_checksums),
            ("powersum.verify_identities", powersum.verify_identities),
            ("search.thm21_desk_sweep", search.thm21_desk_sweep),
            ("search.search_exceptional", search.search_exceptional),
            ("search.cross_validate", search.cross_validate),
            ("search.read_catalog", search.read_catalog),
            ("search.write_catalog", search._write_catalog),
            ("search.catalog_to_csv", search.catalog_to_csv),
            ("ppcheck.classify_family", ppcheck.classify_family),
            ("ppcheck.expand_z_to_a", ppcheck.expand_z_to_a),
        ):
            self._replace(fn, self.span(name, fn))
        for suite, fn in list(refcheck.SUITES.items()):
            refcheck.SUITES[suite] = self.span(f"refcheck.{suite}", fn)
            self._undo.append((refcheck.SUITES, suite, fn))

        for category, fn, after in (
            ("powersum.bracket_rows", powersum.bracket_coeffs, None),
            ("powersum.bracket_rows", powersum.bracket_coeffs_deficient, None),
            ("ppcheck.z_test", ppcheck.t2_z_first_failure, self._after_z_test),
            ("powersum.brute", powersum.power_sum_brute, self._after_brute_sum),
            ("powersum.closed", powersum.power_sum_t2_closed, None),
            ("powersum.closed", powersum.power_sum_t1_closed, None),
            ("ppcheck.pp_brute", ppcheck.is_pp_brute, self._after_brute_pp),
            ("ppcheck.pp_powersum", ppcheck.is_pp_powersum, None),
            ("exactalg.resultant", exactalg.resultant_univar, None),
            ("exactalg.resultant", exactalg.resultant_bivar_z, None),
            ("exactalg.resultant", exactalg.mp_resultant, None),
            ("exactalg.primality", exactalg.is_probable_prime, None),
            ("exactalg.primality", exactalg.primality_and_factor_check, None),
        ):
            self._replace(fn, self.hot_call(category, fn, after))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def _total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def _self(self, name: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == name)

    def _calls(self, category: str) -> int:
        return self.hot.get(category, [0, 0.0])[0]

    def _secs(self, category: str) -> float:
        return self.hot.get(category, [0, 0.0])[1]

    def layer_metrics(self) -> dict:
        c = self.counts
        builds = sum(1 for s in self.spans if s[0] == "ff.build")
        build_s = self._total("ff.build")
        z_tested = c["ppcheck.z_tested"]
        z_sweep_s = self._total("ppcheck.t2_passing_z")
        out = {
            "ff.build_s": build_s,
            "ff.builds": builds,
            "ff.build_ns_per_elem": _ratio(build_s * 1e9, c["ff.elements_built"]),
            "ff.build_rss_mb": c["ff.build_rss_mb"],
            "powersum.brute_calls": self._calls("powersum.brute"),
            "powersum.brute_ns_per_elem": _ratio(self._secs("powersum.brute") * 1e9,
                                                 c["powersum.brute_elems"]),
            "powersum.closed_us_per_call": _ratio(self._secs("powersum.closed") * 1e6,
                                                  self._calls("powersum.closed")),
            "powersum.bracket_rows_calls": self._calls("powersum.bracket_rows"),
            "powersum.bracket_rows_s": self._secs("powersum.bracket_rows"),
            "powersum.identities_s": self._total("powersum.verify_identities"),
            "ppcheck.z_sweep_s": z_sweep_s,
            "ppcheck.z_tested": z_tested,
            "ppcheck.z_hits": c["ppcheck.z_hits"],
            "ppcheck.z_sweep_us_per_z": _ratio(z_sweep_s * 1e6, z_tested),
            "ppcheck.brackets_per_z": _ratio(c["ppcheck.brackets"], z_tested),
            "ppcheck.pp_brute_ns_per_elem": _ratio(self._secs("ppcheck.pp_brute") * 1e9,
                                                   c["ppcheck.brute_elems"]),
            "ppcheck.classify_s": self._total("ppcheck.classify_family"),
            "ppcheck.expand_s": self._total("ppcheck.expand_z_to_a"),
            "ppcheck.pp_powersum_us_per_call": _ratio(self._secs("ppcheck.pp_powersum") * 1e6,
                                                      self._calls("ppcheck.pp_powersum")),
            "exactalg.resultant_s": self._secs("exactalg.resultant"),
            "exactalg.primality_s": self._secs("exactalg.primality"),
            "registry.checksums_s": self._total("registry.verify_checksums"),
            "search.catalog_read_s": self._total("search.read_catalog"),
            "search.csv_s": self._total("search.catalog_to_csv"),
            "search.self_s": self._self("search.search_exceptional"),
            "cli.self_s": self._self("cli.main"),
        }
        for suite in refcheck.SUITES:
            out[f"refcheck.suite_s.{suite}"] = self._total(f"refcheck.{suite}")
        return out

    def dump(self) -> dict:
        """Everything recorded, for the trace file: spans with their parents,
        hot-call aggregates, counts and the first-failure-alpha histogram."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [{"id": i, "name": s[0], "start_s": s[1] - t0, "end_s": s[2] - t0,
                       "parent": s[3], "self_s": s[2] - s[1] - s[4]}
                      for i, s in enumerate(self.spans)],
            "hot": {k: {"calls": v[0], "seconds": v[1]} for k, v in sorted(self.hot.items())},
            "counts": dict(sorted(self.counts.items())),
            "first_failure_alpha": {str(k): v for k, v in sorted(self.first_failure_alpha.items())},
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def kernel_probe(fq2, seed: int, ops: int) -> dict:
    """F_{q^2} add and mul throughput on a seeded operand stream, with the
    table entry count and the computed bytes the exp/log tables hold."""
    rng = random.Random(f"probe:{seed}:{fq2.order}")
    xs = [rng.randrange(1, fq2.order) for _ in range(ops)]
    ys = [rng.randrange(1, fq2.order) for _ in range(ops)]
    rates = {}
    for op in ("add", "mul"):
        fn = getattr(fq2, op)
        t0 = _clock()
        for x, y in zip(xs, ys):
            fn(x, y)
        rates[op] = ops / (_clock() - t0) / 1e6
    tables = (fq2._exp, fq2._log)
    entries = sum(len(t) for t in tables)
    # list slots plus every int object outside the interpreter's small-int cache
    nbytes = sum(sys.getsizeof(t) for t in tables)
    nbytes += sum(sys.getsizeof(v) for t in tables for v in t if v is not None and v > 256)
    return {"add_mops": rates["add"], "mul_mops": rates["mul"],
            "table_entries": entries, "table_bytes": nbytes}
