import functools
import hashlib
import itertools
import random

import pytest

from permbinom import ff
from permbinom.exactalg import mp_irreducible
from permbinom.ff import (
    CapExceededError,
    PrimePower,
    build_tower,
    build_subfield,
    compute_z,
    enumerate_elements,
)


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


def test_cap():
    with pytest.raises(CapExceededError):
        build_tower(3, 1, cap=5)
    with pytest.raises(CapExceededError):
        build_subfield(101, 1, cap=50)


def test_tower_cache_is_bounded_in_table_bytes(monkeypatch):
    # the cache evicts the least recently used tower once its tables exceed
    # the bound, and keeps the newest whatever its size
    monkeypatch.setattr(ff, "_towers", type(ff._towers)())
    sizes = {}
    for p in (3, 5, 7):
        sizes[p] = sum(t.buffer_info()[1] * t.itemsize
                       for f in build_tower(p, 1) for t in (f._exp, f._log, f._zech))
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


# the tables built by the degree-2 step equal the schoolbook product chain
TABLE_GRID = [(2, 1), (3, 1), (5, 1), (31, 1), (101, 1),
              (2, 2), (3, 2), (5, 2), (7, 2), (11, 2),
              (2, 3), (3, 3), (5, 3), (2, 4), (3, 4), (2, 5)]


@pytest.mark.parametrize("p,m", TABLE_GRID)
def test_tables_match_mul_raw(p, m):
    for ctx in build_tower(p, m):
        exp, log, g, n = ctx._exp, ctx._log, ctx.gen_idx, ctx.order - 1
        assert exp.typecode == log.typecode == ctx._zech.typecode == "i"
        assert len(exp) == n and len(log) == ctx.order and log[0] == -1
        for k in range(n):
            assert ctx._mul_raw(exp[k], g) == exp[(k + 1) % n]
            assert log[exp[k]] == k


@pytest.mark.parametrize("p,m,modulus,gen,digest", [
    (1009, 1, (1, 9, 1), 1019, "b7eca70aa9d891f24163d0105a9b3540806f779e9772a12747ce9ef7b8e41368"),
    (13, 2, (1, 13, 1), 170, "0ba69d70d898afcdf013be6503a9e60c4b9453745026d736cd477df18520a992"),
])
def test_quadratic_tables_pinned(p, m, modulus, gen, digest):
    # SHA-256 of the exp table of F_{q^2} as space-separated decimal indexes
    _, fq2 = build_tower(p, m)
    assert fq2.modulus == modulus and fq2.gen_idx == gen
    assert hashlib.sha256(" ".join(map(str, fq2._exp)).encode()).hexdigest() == digest


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
        if ctx.base is None:
            assert len(ctx._zech) == 0
            continue
        exp, zech = ctx._exp, ctx._zech
        assert len(zech) == n
        for k in range(n):
            one_plus = digit_add(p, 1, exp[k])
            assert (zech[k] == -1) == (one_plus == 0)
            if one_plus:
                assert exp[zech[k]] == one_plus
        # 1 + g^k = 0 exactly at g^k = -1: k = n/2 for odd p, k = 0 for p = 2
        assert zech.count(-1) == 1 and zech.index(-1) == (n // 2 if p % 2 else 0)
