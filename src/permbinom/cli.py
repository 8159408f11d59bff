"""Command-line surface.

Exit codes: 0 all checks pass (or query answered), 1 check failure or
permutation-claim mismatch, 2 usage error, bad input or a file that cannot
be read or written.  The enumeration cap can be overridden with the
PERMBINOM_CAP environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .ff import build_tower, enumeration_cap
from .powersum import PowerSumIndex, power_sum_brute, power_sum_closed
from .ppcheck import BinomialParams, classify_family, is_pp_brute, is_pp_powersum, thm21_bound
from .refcheck import SUITES, run_suite
from .report import all_ok, render_table
from .search import catalog_to_csv, check_output_path, cross_validate, search_exceptional


def _add_field_args(sp, with_params: bool = True):
    sp.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    sp.add_argument("--m", type=int, default=1, help="extension degree of q over p")
    if with_params:
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument("--t", type=int, required=True)
        sp.add_argument("--a", required=True, help="element text: [c0,c1], g^k, or an integer")


def _params_from(args) -> BinomialParams:
    _, fq2 = build_tower(args.p, args.m)
    a = fq2.element(fq2.parse(args.a))
    return BinomialParams(a, args.r, args.t)


def _cmd_field_info(args) -> int:
    fq, fq2 = build_tower(args.p, args.m)
    info = {
        "q": fq.order,
        "q2": fq2.order,
        "subfield": fq.describe(),
        "extension": fq2.describe(),
        "generator": fq2.generator().text,
        "cap": enumeration_cap(),
    }
    print(json.dumps(info, indent=2))
    return 0


def _cmd_power_sum(args) -> int:
    params = _params_from(args)
    q = params.q
    if args.beta is None:
        s = PowerSumIndex.useful(args.alpha, q)
    elif 0 <= args.alpha < q and 0 <= args.beta < q:
        s = PowerSumIndex.from_s(args.alpha + args.beta * q, q)
    else:
        raise ValueError(f"alpha and beta must lie in 0..{q - 1}")
    if args.brute:
        value = power_sum_brute(params.r, params.t, params.a, s.s)
        method = "brute"
    else:
        value = power_sum_closed(params.r, params.t, params.a, s)
        method = "closed"
    print(json.dumps({"s": s.s, "alpha": s.alpha, "beta": s.beta,
                      "method": method, "value": value.text}))
    return 0


def _cmd_is_permutation(args) -> int:
    params = _params_from(args)
    verdict = is_pp_brute(params) if args.method == "brute" else is_pp_powersum(params)
    out = {"is_pp": verdict.is_pp, "method": verdict.method}
    if verdict.witness is not None:
        out["witness"] = repr(verdict.witness)
    if verdict.note:
        out["note"] = verdict.note
    print(json.dumps(out))
    return 0


def _cmd_classify(args) -> int:
    params = _params_from(args)
    tag = classify_family(params)
    print(json.dumps({"tag": tag.tag, "fired": list(tag.fired)}))
    return 0


def _cmd_bound(args) -> int:
    print(thm21_bound(args.r, args.p))
    return 0


def _cmd_search(args) -> int:
    if args.csv is not None:
        check_output_path(args.csv)  # before the sweep, as search_exceptional does for --out
        if os.path.realpath(args.csv) == os.path.realpath(args.out):
            raise ValueError(f"--csv {args.csv} would overwrite the catalog --out {args.out}")
    summary = search_exceptional(
        args.r,
        args.q_max,
        include_norm_one=args.include_norm_one,
        jobs=args.jobs,
        out=args.out,
        resume=args.resume,
    )
    print(json.dumps(summary, indent=2))
    if args.csv is not None:
        catalog_to_csv(args.out, args.csv)
        print(f"csv written to {args.csv}", file=sys.stderr)
    return 0 if summary["bound_confirmed"] else 1


def _cmd_cross_validate(args) -> int:
    q_list = [int(tok) for tok in args.q.split(",") if tok]
    reports = cross_validate(q_list, samples=args.samples, seed=args.seed)
    print(render_table(reports))
    return 0 if all_ok(reports) else 1


def _cmd_verify(args) -> int:
    if args.json is not None:
        check_output_path(args.json)  # before the suites run
    reports = run_suite(args.suite)
    print(render_table(reports))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            for rep in reports:
                fh.write(json.dumps(rep._asdict()) + "\n")
    ok = all_ok(reports)
    print(f"\n{sum(r.ok for r in reports)}/{len(reports)} checks ok")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="permbinom",
        description="permutation-binomial toolkit over F_{q^2}",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("field-info", help="tower construction data")
    _add_field_args(sp, with_params=False)
    sp.set_defaults(fn=_cmd_field_info)

    sp = sub.add_parser("power-sum", help="one power sum, closed form or brute")
    _add_field_args(sp)
    sp.add_argument("--alpha", type=int, required=True)
    sp.add_argument("--beta", type=int, default=None,
                    help="defaults to q-1-alpha (the surviving family)")
    sp.add_argument("--brute", action="store_true")
    sp.set_defaults(fn=_cmd_power_sum)

    sp = sub.add_parser("is-pp", help="permutation test")
    _add_field_args(sp)
    sp.add_argument("--method", choices=("brute", "powersum"), default="powersum")
    sp.set_defaults(fn=_cmd_is_permutation)

    sp = sub.add_parser("classify", help="match against the known families")
    _add_field_args(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("bound", help="nonexistence threshold on q")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(fn=_cmd_bound)

    sp = sub.add_parser("search", help="sweep a q-range for permutation binomials")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--q-max", type=int, required=True)
    sp.add_argument("--include-norm-one", action="store_true")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.add_argument("--resume", action="store_true")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(fn=_cmd_search)

    sp = sub.add_parser("cross-validate", help="closed-vs-brute sweeps")
    sp.add_argument("--q", required=True, help="comma-separated prime powers")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=None)
    sp.set_defaults(fn=_cmd_cross_validate)

    sp = sub.add_parser("verify", help="re-derive the reference constants")
    sp.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    sp.add_argument("--json", default=None, help="also write machine-readable records")
    sp.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
