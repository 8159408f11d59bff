"""The package's record types: each validates its fields on construction,
positionally and by keyword, keeps the repr its catalogs and reports print,
and costs the import no heavy stdlib module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permbinom
from permbinom.exactalg import Factorization
from permbinom.ff import PrimePower, build_tower, compute_z
from permbinom.ppcheck import BinomialParams, Collision, PPVerdict
from permbinom.report import FAIL, PASS, CheckReport

SRC = Path(permbinom.__path__[0])
HEAVY = ("dataclasses", "inspect", "typing", "multiprocessing")


def _stdlib_dependencies() -> list[str]:
    """The top-level modules that permbinom's modules import at module level,
    minus the heavy ones, which the package must not need."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module != "__future__":
                names.add(node.module.split(".")[0])
    return sorted(names - set(HEAVY))


def _heavy_loaded_by(statement: str) -> set[str]:
    """The HEAVY modules in sys.modules after running statement in a fresh
    `python -S` with only the package's sources on the path."""
    code = f"import sys\n{statement}\nprint(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_cli_import_loads_no_heavy_stdlib_module():
    # dataclasses drags in inspect, ast and dis, and multiprocessing drags in
    # socket, pickle and selectors: tens of milliseconds on every run
    deps = _stdlib_dependencies()
    assert "argparse" in deps and "json" in deps
    baseline = _heavy_loaded_by("\n".join(f"import {name}" for name in deps))
    assert _heavy_loaded_by("import permbinom.cli") - baseline == set()


def test_no_module_builds_a_record_past_its_checks():
    # namedtuple's _make and _replace call tuple.__new__, not the record's own
    bypass = [f"{path.name}:{node.lineno}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace")]
    assert bypass == []


def _point(idx: int):
    _, fq2 = build_tower(3, 1)
    return fq2.element(idx)


def _in_fq(idx: int):  # an element of F_3, not of F_9
    fq, _ = build_tower(3, 1)
    return fq.element(idx)


@pytest.mark.parametrize("build, match", [
    (lambda: CheckReport("c", "bogus"), "bad status 'bogus'"),
    (lambda: CheckReport("c", FAIL, "", "1"), "expected and computed"),
    (lambda: CheckReport("c", FAIL, "1"), "expected and computed"),
    (lambda: CheckReport(check_id="c", status="bogus"), "bad status 'bogus'"),
    (lambda: CheckReport(check_id="c", status=FAIL, computed="1"), "expected and computed"),
    (lambda: CheckReport(check_id="c", status=FAIL, expected="1"), "expected and computed"),
    # equal but distinct element objects: the check compares values
    (lambda: Collision(_point(1), _point(1), _point(2)), "distinct points"),
    (lambda: Collision(x1=_point(2), x2=_point(2), value=_point(1)), "distinct points"),
    (lambda: Factorization(2, ((3, 1),)), "unit must be"),
    (lambda: Factorization(1, ((3, 1), (5, 0))), "multiplicities must be positive"),
    (lambda: Factorization(unit=0, factors=()), "unit must be"),
    (lambda: Factorization(unit=-1, factors=((3, -1),)), "multiplicities must be positive"),
    (lambda: BinomialParams(_in_fq(1), 5, 2), "quadratic extension"),
    (lambda: BinomialParams(_point(1), 0, 2), "r=0 must be >= 1"),
    (lambda: BinomialParams(_point(1), 5, 4), r"t=4 out of range 1\.\.3"),
    (lambda: BinomialParams(_point(1), 5, 0), r"t=0 out of range 1\.\.3"),
    (lambda: BinomialParams(_point(0), 5, 2), "a must be nonzero"),
    (lambda: BinomialParams(a=_in_fq(2), r=5, t=2), "quadratic extension"),
    (lambda: BinomialParams(a=_point(1), r=-1, t=2), "r=-1 must be >= 1"),
    (lambda: BinomialParams(a=_point(1), r=5, t=4), r"t=4 out of range 1\.\.3"),
    (lambda: BinomialParams(a=_point(0), r=5, t=1), "a must be nonzero"),
])
def test_records_validate_positional_and_keyword_fields(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_valid_records_build_either_way_and_keep_their_reprs():
    x, y, v = _point(1), _point(2), _point(0)
    assert Collision(x, y, v) == Collision(x1=x, x2=y, value=v)
    assert CheckReport("c", FAIL, "1", "2") == CheckReport(check_id="c", status=FAIL,
                                                           expected="1", computed="2")
    assert Factorization(-1, ((3, 2),)).value() == Factorization(unit=-1, factors=((3, 2),)).value() == -9
    assert repr(CheckReport("c", PASS)) == (
        "CheckReport(check_id='c', status='pass', expected='', computed='', notes='')")
    assert repr(PPVerdict(True, "brute")) == "PPVerdict(is_pp=True, method='brute', witness=None, note='')"
    assert repr(PrimePower(3, 2)) == "PrimePower(3^2=9)"
    assert hash(PrimePower(3, 2)) == hash(PrimePower(p=3, m=2))


def test_binomial_params_are_values_with_z_derived_on_read():
    a = _point(5)
    params = BinomialParams(a, 5, 2)
    assert params == BinomialParams(a=_point(5), r=5, t=2) and params != BinomialParams(a, 7, 2)
    assert hash(params) == hash(BinomialParams(_point(5), 5, 2))
    assert repr(params) == "BinomialParams(q=3, r=5, t=2, a=[2,1])"
    assert (params.q, params.p, params.sub.order, params.ctx2.order) == (3, 3, 3, 9)
    assert params.z == compute_z(a) and params.z == compute_z(params.a)
