import ast
import functools
import hashlib
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from permbinom import ff
from permbinom.cli import main
from permbinom.exactalg import mp_divmod, mp_irreducible, mp_mul
from permbinom.ff import (
    CapExceededError,
    PrimePower,
    build_tower,
    build_subfield,
    check_quadratic_unit,
    compute_z,
    enumerate_elements,
)
from permbinom.powersum import power_sum_brute, power_sum_t2_closed
from permbinom.ppcheck import BinomialParams, is_pp_brute, is_pp_powersum

from table_twin import twin_tables
from zech_twin import zech_table


def test_prime_power_validation():
    assert PrimePower(5, 2).q == 25
    with pytest.raises(ValueError):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(5, 0)


@pytest.mark.parametrize("q,p,m", [(3, 3, 1), (9, 3, 2), (2**10, 2, 10), (3**5, 3, 5),
                                   (1009, 1009, 1)])
def test_prime_power_from_q(q, p, m):
    assert PrimePower.from_q(q) == PrimePower(p, m)


@pytest.mark.parametrize("q", [0, 1, -9, 6, 12])
def test_prime_power_from_q_rejects(q):
    with pytest.raises(ValueError):
        PrimePower.from_q(q)


def test_build_tower_examples():
    fq, fq2 = build_tower(3, 1)
    assert fq.order == 3 and fq2.order == 9
    assert fq2.describe()["modulus"] == [1, 0, 1]  # x^2 + 1
    fq, fq2 = build_tower(5, 2)
    assert fq.order == 25 and fq2.order == 625
    # oracle: lex-smallest monic irreducible quadratic over F_5 by root search
    expected = None
    for c0 in range(5):
        for c1 in range(5):
            if all((x * x + c1 * x + c0) % 5 != 0 for x in range(5)):
                expected = [c0, c1, 1]
                break
        if expected:
            break
    assert fq.describe()["modulus"] == expected == [1, 1, 1]
    with pytest.raises(ValueError):
        build_tower(4, 1)


def test_cap(monkeypatch):
    build_tower(3, 1)
    monkeypatch.setenv("PERMBINOM_CAP", "5")
    with pytest.raises(CapExceededError, match=r"q\^2 = 3\^2 exceeds the enumeration cap 5"):
        build_tower(3, 1)  # checked before the cache lookup
    monkeypatch.setenv("PERMBINOM_CAP", "50")
    with pytest.raises(CapExceededError, match=r"q = 101\^1 exceeds"):
        build_subfield(101, 1)


def test_tower_cache_is_bounded_in_table_bytes(monkeypatch):
    # the cache evicts the least recently used tower once its tables exceed
    # the bound, and keeps the newest whatever its size
    monkeypatch.setattr(ff, "_towers", type(ff._towers)())
    # F_p holds no table, so only F_{p^2} counts: exp (p^2 - 1) and log
    # (p^2) entries of int32, and no Zech table
    assert ff._table_bytes(build_tower(101, 1)) == 4 * (2 * 101**2 - 1)
    sizes = {p: ff._table_bytes(build_tower(p, 1)) for p in (3, 5, 7)}
    monkeypatch.setattr(ff, "_towers", type(ff._towers)())
    monkeypatch.setattr(ff, "TOWER_CACHE_BYTES", sizes[5] + sizes[7])
    oldest, middle, newest = (build_tower(p, 1) for p in (3, 5, 7))
    assert build_tower(7, 1) is newest and build_tower(5, 1) is middle
    rebuilt = build_tower(3, 1)  # evicted on the build of F_49
    assert rebuilt is not oldest and rebuilt[1].describe() == oldest[1].describe()
    assert build_tower(5, 1) is middle and build_tower(7, 1) is not newest  # 7 was the LRU
    monkeypatch.setattr(ff, "TOWER_CACHE_BYTES", 1)
    big = build_tower(11, 1)
    assert list(ff._towers.values()) == [big]


def _first_rootless(F, degree):
    """Root search, the independent twin of the modulus search for degree 2
    and 3 (where rootless means irreducible): the first monic with no root
    in F, coefficients in itertools.product order, c0 outermost."""
    for cs in itertools.product(range(F.order), repeat=degree):
        f = cs + (1,)
        values = (functools.reduce(F.add, (F.mul(c, F.pow(x, i)) for i, c in enumerate(f)))
                  for x in range(F.order))
        if all(values):
            return f
    raise AssertionError("no rootless monic")


def test_moduli_pass_irreducibility():
    for p, m in ((3, 2), (5, 2), (7, 1), (2, 3)):
        fq, fq2 = build_tower(p, m)
        if fq.modulus is not None:
            assert mp_irreducible(list(fq.modulus), build_subfield(p, 1))
        # quadratic modulus over F_q: no root in F_q
        c0, c1, _ = fq2.modulus
        for x in range(fq.order):
            assert fq.add(fq.add(fq.mul(x, x), fq.mul(c1, x)), c0) != 0
    # one modulus search at both levels picks what the root search picks
    for p, m in ((3, 2), (5, 2), (3, 3), (7, 2)):
        fq, fq2 = build_tower(p, m)
        assert fq2.modulus == _first_rootless(fq, 2)
        assert fq.modulus == _first_rootless(build_subfield(p, 1), m)


def test_field_axioms_random():
    rng = random.Random(99)
    for p, m in ((3, 1), (5, 1), (3, 2), (2, 2)):
        fq, fq2 = build_tower(p, m)
        for ctx in (fq, fq2):
            Q = ctx.order
            for _ in range(100):
                x = ctx.element(rng.randrange(Q))
                y = ctx.element(rng.randrange(Q))
                z = ctx.element(rng.randrange(Q))
                assert (x + y) * z == x * z + y * z
                assert x + (-x) == 0
                if y.idx:
                    assert (x / y) * y == x
                    assert y * y.inverse() == 1


def test_pow_semantics():
    fq, fq2 = build_tower(5, 2)
    x = fq.element(7)
    assert x**24 == 1                       # Lagrange
    assert x**(-1) == x.inverse()
    assert x**25 == x                       # exponent reduced mod q-1
    assert fq.zero() ** 3 == 0
    assert fq.zero() ** 0 == 1
    with pytest.raises(ZeroDivisionError):
        fq.zero() ** (-1)
    assert build_tower(5, 1)[0].element(2).inverse() == 3  # inv(2) in F_5


def test_nonzero_product_nonzero():
    fq, fq2 = build_tower(3, 1)
    for i in range(1, 9):
        for j in range(1, 9):
            assert fq2.mul(i, j) != 0


def test_frobenius_additive_multiplicative():
    rng = random.Random(5)
    for p, m in ((3, 1), (5, 1), (3, 2)):
        fq, fq2 = build_tower(p, m)
        q = fq.order
        for _ in range(100):
            x = fq2.element(rng.randrange(fq2.order))
            y = fq2.element(rng.randrange(fq2.order))
            assert (x + y) ** q == x**q + y**q
            assert (x * y) ** q == (x**q) * (y**q)


def test_norm_and_frobenius():
    fq, fq2 = build_tower(3, 1)
    q = fq.order
    # subfield elements are fixed by the q-power map
    for i in range(q):
        x = fq2.element(i)
        assert x**q == x
    # norms x^(q+1) land in the subfield and are nonzero on units
    for x in enumerate_elements(fq2, "nonzero"):
        nrm = x ** (q + 1)
        assert fq2.in_subfield(nrm.idx)
        assert nrm.idx != 0
    rng = random.Random(1)
    fq, fq2 = build_tower(5, 2)
    q = fq.order
    for _ in range(50):
        x = fq2.element(rng.randrange(1, fq2.order))
        nrm = x ** (q + 1)
        assert fq2.in_subfield(nrm.idx)
        assert fq.pow(nrm.idx, q - 1) == 1  # the same index is a unit of F_q


def test_compute_z_examples():
    fq, fq2 = build_tower(3, 1)
    assert compute_z(-fq2.one()) == 1
    fq, fq2 = build_tower(5, 1)
    found = 0
    for a in enumerate_elements(fq2, "nonzero"):
        if (-a) ** 3 == 3:
            found += 1
            assert compute_z(a) == 2  # 3^(-5) = 1/3 = 2 in F_5
    assert found > 0
    for a in enumerate_elements(fq2, "nonzero"):
        z = compute_z(a)
        assert z ** (2 * 5) == z**2
        assert fq2.in_subfield((z * z).idx)


def test_compute_z_z2_is_inverse_norm():
    # z^2 = ((-a)^(q+1))^(-q) for every a in F_9, F_25
    for p in (3, 5):
        fq, fq2 = build_tower(p, 1)
        q = fq.order
        for a in enumerate_elements(fq2, "nonzero"):
            z = compute_z(a)
            assert z * z == ((-a) ** (q + 1)) ** (-q)


def test_compute_z_preconditions():
    fq, fq2 = build_tower(3, 1)
    with pytest.raises(ValueError):
        compute_z(fq2.zero())
    fq, fq2 = build_tower(2, 2)
    with pytest.raises(ValueError):
        compute_z(fq2.one())  # even q


def test_a_outside_a_quadratic_extension_is_refused():
    # F_27 is a cubic extension of F_3, not the F_{q^2} of any q: read as
    # F_{3^2} it would be taken for q = 3
    f27 = build_subfield(3, 3)
    a = f27.generator()
    for call in (lambda: BinomialParams(a, 5, 2),
                 lambda: is_pp_brute(BinomialParams(a, 5, 2)),
                 lambda: is_pp_powersum(BinomialParams(a, 5, 2)),
                 lambda: compute_z(a),
                 lambda: power_sum_brute(5, 2, a, 1),
                 lambda: power_sum_t2_closed(5, a, 1)):
        with pytest.raises(ValueError, match="a must live in the quadratic extension"):
            call()
    with pytest.raises(ValueError, match="a must be nonzero"):
        check_quadratic_unit(build_tower(3, 1)[1].zero())


def test_enumerate():
    fq, fq2 = build_tower(3, 1)
    allv = list(enumerate_elements(fq2, "all"))
    assert len(allv) == 9 and len({x.idx for x in allv}) == 9
    assert allv[-1].idx == 0
    assert [x.idx for x in enumerate_elements(fq, "nonzero")] == [1, 2]


def test_element_text_roundtrip():
    fq, fq2 = build_tower(5, 2)
    rng = random.Random(3)
    for _ in range(30):
        x = fq2.element(rng.randrange(fq2.order))
        assert fq2.parse(x.text) == x.idx
    # g^k notation
    assert fq2.parse("g^0") == 1
    assert fq2.parse("g^1") == fq2.gen_idx
    # prime subfield shorthand
    assert fq2.parse("3") == 3


def test_element_text_refuses_empty_coefficients():
    # an empty coefficient, trailing or in an empty bracket, at any depth, is
    # refused with the whole text; a short vector still pads with zeros
    for (p, m), texts in (((5, 1), ["[1,2,]", "[]", "[ ]", "[1,,2]", "[,1]", "[1, ,2]"]),
                          ((3, 2), ["[[1,2,],[0,1]]", "[[],[0,1]]", "[[1,2],[0,1],]", "[[1,,2],[0,1]]"])):
        fq2 = build_tower(p, m)[1]
        for text in texts:
            with pytest.raises(ValueError) as err:
                fq2.parse(text)
            assert str(err.value) == f"bad element syntax: {text}"
    fq2 = build_tower(5, 1)[1]
    assert fq2.parse("[1]") == fq2.parse("[1,0]") == 1 and fq2.parse(" [ 1 , 2 ] ") == fq2.parse("[1,2]")
    fq2 = build_tower(3, 2)[1]
    assert fq2.parse("[[1],[0,1]]") == fq2.parse("[[1,0],[0,1]]")


def test_ctx_mismatch():
    _, a2 = build_tower(3, 1)
    _, b2 = build_tower(5, 1)
    with pytest.raises(ValueError):
        a2.one() + b2.one()


def test_generator_has_full_order():
    for p, m in ((3, 1), (5, 1), (3, 2), (2, 2)):
        fq, fq2 = build_tower(p, m)
        for ctx in (fq, fq2):
            n = ctx.order - 1
            g = ctx.generator()
            seen = {g.idx}
            x = g
            for _ in range(n - 1):
                x = x * g
                seen.add(x.idx)
            assert x == 1  # g has exact multiplicative order n
            assert len(seen) == n


# the tables built by each table step equal the chain of raw products
# g^(k+1) = g^k * g: a full product over the base by mp_mul, reduced by
# mp_divmod, with neither the field's tables nor the step's column matrix
TABLE_GRID = [(2, 1), (3, 1), (5, 1), (31, 1), (101, 1),
              (2, 2), (3, 2), (5, 2), (7, 2), (11, 2),
              (2, 3), (3, 3), (5, 3), (2, 4), (3, 4), (2, 5)]


def _trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


@pytest.mark.parametrize("p,m", TABLE_GRID)
def test_tables_match_mul_raw(p, m):
    for ctx in (c for c in build_tower(p, m) if c.modulus is not None):  # F_p holds no table
        exp, log, g, n = ctx._exp, ctx._log, ctx.gen_idx, ctx.order - 1
        assert exp.typecode == log.typecode == "i"
        assert len(exp) == n and len(log) == ctx.order and log[0] == -1
        assert ff._table_bytes((ctx,)) == 4 * (n + ctx.order)  # the two tables alone
        gv = ctx.coeffs(g)

        def times_g(u):
            return mp_divmod(mp_mul(ctx.coeffs(u), gv, ctx.base), ctx.modulus, ctx.base)[1]
        for k in range(n):
            assert times_g(exp[k]) == _trimmed(ctx.coeffs(exp[(k + 1) % n]))
            assert log[exp[k]] == k


def _multiplicative_order(p, x):
    k, y = 1, x
    while y != 1:
        k, y = k + 1, y * x % p
    return k


@pytest.mark.parametrize("p,m", TABLE_GRID)
def test_generator_is_smallest(p, m):
    for ctx in build_tower(p, m):
        n, g = ctx.order - 1, ctx.gen_idx
        if ctx.modulus is None:  # F_p holds no table: brute multiplicative order
            assert 0 < g < p and _multiplicative_order(p, g) == n
            assert all(_multiplicative_order(p, x) < n for x in range(1, g))
        else:  # read off the tables: x generates the group iff gcd(log x, n) = 1
            assert math.gcd(ctx.dlog(g), n) == 1
            assert all(math.gcd(ctx.dlog(x), n) != 1 for x in range(2, g))


@pytest.mark.parametrize("p,m,modulus,gen,digest", [
    (1009, 1, (1, 9, 1), 1019, "b7eca70aa9d891f24163d0105a9b3540806f779e9772a12747ce9ef7b8e41368"),
    (13, 2, (1, 13, 1), 170, "0ba69d70d898afcdf013be6503a9e60c4b9453745026d736cd477df18520a992"),
    # F_{27^2} over a degree-3 base, and p = 2
    (3, 3, (1, 0, 1), 30, "46e29d36a469e5c1e05e94e5bcb0398fb83094e4c16c07f842a80e6ac0d7fa35"),
    (2, 5, (1, 1, 1), 34, "d57c8d021dd2ba6e507ad079c4c91c45f8ca9c04612c4b8ea7ae1550d1aa0ad9"),
])
def test_quadratic_tables_pinned(p, m, modulus, gen, digest):
    # SHA-256 of the exp table of F_{q^2} as space-separated decimal indexes
    _, fq2 = build_tower(p, m)
    assert fq2.modulus == modulus and fq2.gen_idx == gen
    assert hashlib.sha256(" ".join(map(str, fq2._exp)).encode()).hexdigest() == digest


@pytest.mark.parametrize("table,digest", [
    ("_log", "e386f308c557ffa0a2bf56bd4677964ea3984a02930c004f3627efaf4742418a"),
    ("_zech", "4f890300336cc9fb8c7a287a82595bc12da60dee093f1370c9629be61b6ae108"),
])
def test_quadratic_log_and_zech_pinned(table, digest):
    # the same digest over the log table of F_{1009^2} and its Zech row
    # log(1 + g^k), k < n, which class_logs(1, 1, n) reads with no table
    _, fq2 = build_tower(1009, 1)
    row = fq2._log if table == "_log" else fq2.class_logs(1, 1, fq2.order - 1)
    assert hashlib.sha256(" ".join(map(str, row)).encode()).hexdigest() == digest


def test_table_build_steps_only_the_heads(monkeypatch):
    # g^(a*N + b) = w^a * g^b with N = q + 1 on F_{q^2}: the base products
    # step the q + 1 heads and the powers of w, not all q^2 - 1 powers of g
    fq, fq2 = build_tower(5, 2)
    q, calls = fq.order, 0
    tables = [t.tobytes() for t in (fq2._exp, fq2._log)]
    mul = ff.FieldCtx.mul

    def counting_mul(self, i, j):
        nonlocal calls
        calls += self is fq
        return mul(self, i, j)
    monkeypatch.setattr(ff.FieldCtx, "mul", counting_mul)
    fq2._build_tables()
    assert 0 < calls <= 8 * (q + 1) + q
    assert [t.tobytes() for t in (fq2._exp, fq2._log)] == tables


@pytest.mark.parametrize("p,m", [*TABLE_GRID, (1009, 1), (31, 2)])
def test_tables_match_the_per_entry_twin(p, m):
    # every extension level, F_{1009^2}, and F_{961^2} over F_{31^2}: the
    # slice-and-lane build writes the bytes of the per-entry build
    for ctx in (c for c in build_tower(p, m) if c.modulus is not None):
        exp, log = twin_tables(ctx)
        assert ctx._exp.tobytes() == exp.tobytes()
        assert ctx._log.tobytes() == log.tobytes()


def test_table_build_runs_no_per_entry_loop():
    # line events raised in ff.py while F_{243^2} (over F_{3^5}, whose add
    # and mul are ff.py too) builds its tables: O(1) per head and per row of
    # log, where one Python step per table entry alone would be 2q^2
    fq, fq2 = build_tower(3, 5)
    q, lines = fq.order, 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    def in_ff(frame, event, arg):
        return count_lines if frame.f_code.co_filename == ff.__file__ else None
    tracer = sys.gettrace()
    sys.settrace(in_ff)
    try:
        fq2._build_tables()
    finally:
        sys.settrace(tracer)
    assert 0 < lines < 128 * (q + 1)


def test_orders_past_the_int32_tables_are_refused_before_any_build(monkeypatch, capsys):
    # 46349 is the smallest prime with p^2 > 2^31; with the enumeration cap
    # raised, FieldCtx refuses the order before its generator search
    def no_build(*args):
        raise AssertionError("reached past the order check")
    monkeypatch.setenv("PERMBINOM_CAP", str(10**10))
    monkeypatch.setattr(ff.FieldCtx, "_smallest_generator", no_build)
    monkeypatch.setattr(ff.FieldCtx, "_build_tables", no_build)
    with pytest.raises(CapExceededError, match=r"46349\^2 exceeds the int32 table limit 2\^31"):
        build_tower(46349, 1)
    assert main(["field-info", "--p", "46349"]) == 2
    assert "int32 table limit" in capsys.readouterr().err


# reference twin of the Zech-log addition: indexes are base-p digit vectors,
# added and negated digit by digit mod p
def digit_add(p, i, j):
    out, mult = 0, 1
    while i or j:
        i, di = divmod(i, p)
        j, dj = divmod(j, p)
        out += (di + dj) % p * mult
        mult *= p
    return out


def digit_neg(p, i):
    out, mult = 0, 1
    while i:
        i, d = divmod(i, p)
        out += -d % p * mult
        mult *= p
    return out


@pytest.mark.parametrize("p,m", TABLE_GRID)
def test_zech_arithmetic_matches_digit_reference(p, m):
    rng = random.Random(f"zech:{p}:{m}")
    for ctx in build_tower(p, m):
        Q, n = ctx.order, ctx.order - 1
        if Q <= 729:
            pairs = [(i, j) for i in range(Q) for j in range(Q)]
            elements = range(Q)
        else:
            pairs = [(rng.randrange(Q), rng.randrange(Q)) for _ in range(20000)]
            elements = sorted({i for pair in pairs for i in pair})
        for i, j in pairs:
            assert ctx.add(i, j) == digit_add(p, i, j)
            assert ctx.sub(i, j) == digit_add(p, i, digit_neg(p, j))
        for i in elements:
            assert ctx.neg(i) == digit_neg(p, i)
        if ctx.modulus is None:  # F_p has no Zech logs
            continue
        # the Zech row Z[k] = log(1 + g^k), read with no table, equals the
        # table-backed twin
        exp, zech = ctx._exp, ctx.class_logs(1, 1, n)
        assert zech == zech_table(ctx).tolist()
        assert len(zech) == n
        for k in range(n):
            one_plus = digit_add(p, 1, exp[k])
            assert (zech[k] == -1) == (one_plus == 0)
            if one_plus:
                assert exp[zech[k]] == one_plus
        # 1 + g^k = 0 exactly at g^k = -1: k = n/2 for odd p, k = 0 for p = 2
        assert zech.count(-1) == 1 and zech.index(-1) == (n // 2 if p % 2 else 0)


# every prime power q <= 27, as (p, m)
SMALL_Q = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
           (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)]


@pytest.mark.parametrize("p,m", SMALL_Q)
def test_class_logs_match_literal_sums(p, m):
    # every extension context of the tower: F_{q^2}, and F_q when m > 1
    rng = random.Random(f"class_logs:{p}:{m}")
    for ctx in (c for c in build_tower(p, m) if c.modulus is not None):
        n, B = ctx.order - 1, ctx.base.order
        for step in (1, B - 1, 2 * (B - 1), 3 * (B - 1)):
            count = n // math.gcd(step, n) + 2  # a full period, and past it
            k0 = rng.randrange(count)
            zero_class = ctx.neg(ctx.exp(step * k0))  # a + g^(step*k0) = 0
            nonzero = range(1, ctx.order) if n <= 80 else [rng.randrange(1, ctx.order) for _ in range(8)]
            for a in [zero_class, *nonzero]:
                sums = (ctx.add(a, ctx.exp(step * k)) for k in range(count))
                assert ctx.class_logs(a, step, count) == [ctx.dlog(v) if v else -1 for v in sums]
            assert ctx.class_logs(zero_class, step, count)[k0] == -1
        with pytest.raises(ValueError):
            ctx.class_logs(0, 1, 1)


def test_only_ff_reads_the_field_tables():
    # the exp/log layout is private to ff: every other module goes
    # through dlog, exp, add, mul and class_logs
    package = Path(ff.__file__).parent
    reads = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py")) if path.name != "ff.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("_exp", "_log", "_zech")]
    assert not reads, reads


def test_subfield_is_built_once_and_shared_with_the_tower(monkeypatch):
    fq = build_subfield(3, 2)
    assert build_subfield(3, 2) is fq and build_tower(3, 2)[0] is fq
    assert build_subfield(7, 1) is build_tower(7, 1)[0]
    monkeypatch.setenv("PERMBINOM_CAP", "8")  # the cap is still checked on every call
    with pytest.raises(CapExceededError, match=r"q = 3\^2 exceeds"):
        build_subfield(3, 2)
