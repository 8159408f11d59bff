"""PrimeField against its table-backed twin.

The twin is the prime field as it was before it ran on plain residues: exp
and log tables built by stepping k -> k*g mod p, with every inverse,
quotient, power and g^k read off them, so a nonsquare is an element of odd
log.  PrimeField must agree with it operation by operation, and the z-sweep
must return the same answer on either.
"""

import math
import tracemalloc
from array import array

import pytest

from permbinom import ppcheck
from permbinom.ff import PrimeField, build_subfield, build_tower
from permbinom.ppcheck import t2_passing_z, thm21_bound

TWIN_PRIMES = (2, 3, 5, 31, 101)  # the primes of test_ff's TABLE_GRID


class TablePrimeField:
    """F_p on exp/log tables; the generator is the smallest residue of
    multiplicative order p - 1, found by brute order."""

    def __init__(self, p):
        self.char = self.order = p
        n = self._n = p - 1
        self.gen_idx = next(x for x in range(1, p) if self._order_of(x) == n)
        self._exp = array("i", [0]) * n
        self._log = array("i", [-1]) * p
        cur = 1
        for k in range(n):
            self._exp[k] = cur
            self._log[cur] = k
            cur = cur * self.gen_idx % p

    def _order_of(self, x):
        k, y = 1, x
        while y != 1:
            k, y = k + 1, y * x % self.char
        return k

    def add(self, i, j):
        return (i + j) % self.char

    def sub(self, i, j):
        return (i - j) % self.char

    def neg(self, i):
        if not i or self.char == 2:
            return i
        return self._exp[(self._log[i] + self._n // 2) % self._n]  # -1 = g^(n/2)

    def mul(self, i, j):
        if not i or not j:
            return 0
        return self._exp[(self._log[i] + self._log[j]) % self._n]

    def inv(self, i):
        if not i:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[i] % self._n]

    def div(self, i, j):
        if not j:
            raise ZeroDivisionError("division by zero")
        return self._exp[(self._log[i] - self._log[j]) % self._n] if i else 0

    def pow(self, i, e):
        if not i:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if e else 1
        return self._exp[self._log[i] * e % self._n]

    def exp(self, k):
        return self._exp[k % self._n]

    def is_square(self, i):
        return not self._log[i] % 2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize("p", TWIN_PRIMES)
def test_prime_field_matches_table_twin(p):
    got, twin = build_subfield(p, 1), TablePrimeField(p)
    assert isinstance(got, PrimeField) and isinstance(build_tower(p, 1)[0], PrimeField)
    assert got.gen_idx == twin.gen_idx
    n = p - 1
    exponents = range(-2 * n - 1, 2 * n + 2)
    for i in range(p):
        assert got.neg(i) == twin.neg(i), i
        assert _outcome(got.inv, i) == _outcome(twin.inv, i), i
        for j in range(p):
            for op in ("add", "sub", "mul", "div"):
                assert _outcome(getattr(got, op), i, j) == _outcome(getattr(twin, op), i, j), (op, i, j)
        for e in exponents:
            assert _outcome(got.pow, i, e) == _outcome(twin.pow, i, e), (i, e)
    assert [got.exp(k) for k in exponents] == [twin.exp(k) for k in exponents]
    if p > 2:  # Euler's criterion on residues is log parity on the tables
        assert all((got.pow(y, n // 2) == 1) == twin.is_square(y) for y in range(1, p))


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, n + 1, d)))
    return [k for k in range(3, n + 1) if sieve[k]]


@pytest.mark.parametrize("r", [5, 7, 9])
def test_sweep_on_table_twin_matches(r, monkeypatch):
    # every admissible prime q <= 3162 (q^2 within the default cap) at or
    # above the bound: the same hits and first-failure histogram on the twin
    qs = [q for q in _primes_upto(3162) if math.gcd(r, q - 1) == 1 and q >= thm21_bound(r, q)]
    got = [t2_passing_z(q, 1, r) for q in qs]
    monkeypatch.setattr(ppcheck, "build_subfield", lambda p, m: TablePrimeField(p))
    assert [t2_passing_z(q, 1, r) for q in qs] == got
    assert len(qs) > 200 and sum(sum(first.values()) for _, first in got) > 10**5


def test_prime_sweep_builds_no_table():
    # F_999983 would take 8 MB of exp/log tables; the sweep holds a few kB
    tracemalloc.start()
    try:
        hits, first = t2_passing_z(999983, 1, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == [] and sum(first.values()) == 999983 - 3 + 999982 // 2
    assert peak < 64 * 1024, peak


# q - 1 of 2-adic valuation 1, 2, 3, 4, 5, 6, 7, 8, then 4 and 4 off the primes
SQRT_FIELDS = ((7, 1), (13, 1), (41, 1), (17, 1), (97, 1), (193, 1), (641, 1), (257, 1), (3, 4), (7, 2))


@pytest.mark.parametrize("p, m", SQRT_FIELDS)
def test_tonelli_shanks_squares_back(p, m):
    # the sweep's square root reads only field operations and gen_idx, so it
    # runs on the table twin too
    for sub in [build_subfield(p, m)] + ([TablePrimeField(p)] if m == 1 else []):
        squares = {sub.mul(x, x) for x in range(sub.order)}
        assert len(squares) == (sub.order + 1) // 2
        for a in squares:
            root = ppcheck._sqrt(a, sub)
            assert sub.mul(root, root) == a, (p, m, a, root)
