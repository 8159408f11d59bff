"""Deterministic two-level finite-field tower F_p <= F_q <= F_{q^2}.

Elements are canonical integer indexes.  An element of an extension of
degree k over a base of order B with coefficient vector (c_0, ..., c_{k-1})
has index c_0 + c_1*B + ... + c_{k-1}*B^{k-1}, where each c_i is itself the
index of a base-field element.  Flattened all the way down this is the
base-p digit expansion, and the subfield F_q sits inside F_{q^2} as the
indexes below q.

A prime field, PrimeField, runs on its residues: add, neg and mul mod p,
and pow for powers, inverses and g^k, with no table.  An extension,
FieldCtx, of degree d over a base of order B runs on generator exp/log
tables stored as `array('i')` with log[0] = -1 for zero, built once per
context from its N = (B^d - 1)/(B - 1) heads g^0, ..., g^(N-1); for
F_{q^2}, N is q + 1.  The heads are stepped by the matrix of x -> x*g over
the base, whose columns X^j*g mod f come from exactalg.mp_divmod.  Then
w = g^N lies in the base and generates F_B*, and g^(a*N + b) = w^a * g^b,
so each stride-N column exp[b::N] is a sum of rotations of the powers of
w, one per nonzero coordinate of g^b, and each row of log a rotated row
filled from the heads plus a constant, all written by slice copies and
integer sums over whole int32 rows, in O(N + B^(d-1)) Python steps.  The
generator test is pow on a prime field and exactalg.mp_powmod on an
extension.  An extension adds by Zech logs
Z[k] = log(1 + g^k) (Huber, IEEE Trans. IT 36(4), 1990), g^a + g^b =
g^(a + Z[b - a]), with no Zech table: 1 + v steps only the lowest base-p
digit of v, succ(v) = v + 1 or v - (p - 1) when v % p = p - 1, so Z[k] =
log[succ(exp[k])], -1 at the one k where 1 + g^k = 0.  The tables are private
to this module; the brute walks read log(a + g^(step*k)) through class_logs.

Construction is fully deterministic: the modulus is the lexicographically
smallest monic irreducible (coefficients compared low-degree-first), found
at both levels by one search on exactalg.mp_irreducible; the generator is
the smallest index that generates the multiplicative group, searched past
the base field, whose orders divide B - 1.  So catalogs replay bit for bit.
"""

from __future__ import annotations

import itertools
import os
import re
import sys
from array import array
from collections import OrderedDict, namedtuple
from functools import lru_cache

from .exactalg import is_probable_prime, mp_divmod, mp_irreducible, mp_powmod

__all__ = [
    "DEFAULT_CAP",
    "enumeration_cap",
    "check_cap",
    "CapExceededError",
    "PrimePower",
    "PrimeField",
    "FieldCtx",
    "FieldElement",
    "build_tower",
    "build_subfield",
    "compute_z",
    "enumerate_elements",
]

DEFAULT_CAP = 10**7


def enumeration_cap() -> int:
    """Upper bound on the order of any constructed field (q^2 <= cap):
    PERMBINOM_CAP if set, which must be a positive integer, else DEFAULT_CAP."""
    text = os.environ.get("PERMBINOM_CAP")
    if text is None:
        return DEFAULT_CAP
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"PERMBINOM_CAP must be a positive integer, got {text!r}")
    return int(text)


class CapExceededError(ValueError):
    pass


class PrimePower(namedtuple("PrimePower", "p m")):
    """q = p^m with p verified prime at construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.m < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.m}")
        if not is_probable_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        return self

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """Split q = p^m; ValueError unless q is a prime power."""
        primes = _prime_factors(q)
        if len(primes) != 1:
            raise ValueError(f"{q} is not a prime power")
        p, m = primes[0], 0
        while q > 1:
            q //= p
            m += 1
        return cls(p, m)

    @property
    def q(self) -> int:
        return self.p**self.m

    def __repr__(self):
        return f"PrimePower({self.p}^{self.m}={self.q})"


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class _Field:
    """What both kinds of field share, on top of each kind's add, neg, mul,
    pow, exp and render.  p is trusted: build_subfield checks it, and the
    verify suites pass their fixed primes."""

    __slots__ = ("char", "order", "gen_idx", "_n")

    def _smallest_generator(self, start: int, power) -> int:
        """The smallest index from start up that generates the multiplicative
        group: power(x, n / l) != 1 for every prime l dividing n = order - 1."""
        cofactors = [self._n // ell for ell in _prime_factors(self._n)]
        return next(x for x in range(start, self.order) if all(power(x, e) != 1 for e in cofactors))

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def div(self, i: int, j: int) -> int:
        return self.mul(i, self.inv(j))

    def element(self, idx: int) -> "FieldElement":
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} out of range for field of order {self.order}")
        return FieldElement(self, idx)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def generator(self) -> "FieldElement":
        return FieldElement(self, self.gen_idx)

    def embed_int(self, n: int) -> int:
        """Image of the rational integer n in the prime subfield."""
        return n % self.char

    def parse(self, text: str) -> int:
        """Accepts the bracket form, g^k exponent notation, or a bare integer."""
        text = text.strip()
        if text == "g":
            return self.gen_idx
        if text.startswith("["):
            return self._parse_bracket(text)
        power = text.startswith("g^")
        try:
            n = int(text[2:] if power else text)
        except ValueError:
            raise ValueError(f"bad element syntax: {text}") from None
        return self.exp(n) if power else n % self.char


class PrimeField(_Field):
    """F_p on its residues 0..p-1: add, neg and mul mod p, and pow for
    powers, inverses and g^k.  No table; the generator is the smallest
    residue that generates F_p*, found by pow."""

    __slots__ = ()
    base = modulus = None  # the bottom of every tower
    abs_degree = 1

    def __init__(self, p: int):
        self.char = self.order = p
        self._n = p - 1
        self.gen_idx = self._smallest_generator(1, self.pow)  # 1 passes only for p = 2

    def add(self, i: int, j: int) -> int:
        return (i + j) % self.char

    def neg(self, i: int) -> int:
        return -i % self.char

    def mul(self, i: int, j: int) -> int:
        return i * j % self.char

    def inv(self, i: int) -> int:
        if not i:  # pow itself would raise ValueError
            raise ZeroDivisionError("inverse of zero")
        return pow(i, -1, self.char)

    def pow(self, i: int, e: int) -> int:
        if not i and e < 0:
            raise ZeroDivisionError("0 to a negative power")
        return pow(i, e, self.char)

    def exp(self, k: int) -> int:
        return pow(self.gen_idx, k, self.char)

    def render(self, idx: int) -> str:
        return str(idx)

    def _parse_bracket(self, text: str) -> int:
        raise ValueError(f"bad element syntax: {text}")

    def describe(self) -> dict:
        """Construction data: (p, m, modulus), with no modulus."""
        return {"p": self.char, "m": 1, "modulus": None}

    def __repr__(self):
        return f"PrimeField({self.char})"


class FieldCtx(_Field):
    """An extension level of the tower, on exp/log tables, adding through
    Zech logs read as log[succ(exp[k])]; immutable after construction.

    Safe to share across workers: every table is built in __init__ and never
    mutated afterwards.  abs_degree is the degree m over F_p.
    """

    __slots__ = ("base", "modulus", "degree", "abs_degree", "_exp", "_log")

    def __init__(self, base: FieldCtx | PrimeField, modulus: tuple[int, ...]):
        if len(modulus) < 3 or modulus[-1] != 1:
            raise ValueError("extension needs a monic modulus of degree >= 2")
        self.base = base
        self.char = base.char
        self.degree = len(modulus) - 1
        self.order = base.order**self.degree
        if self.order > 2**31:  # checked before anything is allocated
            raise CapExceededError(f"order {base.order}^{self.degree} exceeds the int32 table limit 2^31")
        self.abs_degree = base.abs_degree * self.degree
        self.modulus = tuple(modulus)
        self._n = self.order - 1
        # base elements have orders dividing B - 1, so start past them
        self.gen_idx = self._smallest_generator(
            base.order, lambda x, e: self._encode(mp_powmod(self.coeffs(x), e, self.modulus, base)))
        self._build_tables()

    # --- coefficient vectors over the base ---

    def coeffs(self, idx: int) -> list[int]:
        """Coefficient vector over the base field (indexes)."""
        B = self.base.order
        out = []
        for _ in range(self.degree):
            idx, rem = divmod(idx, B)
            out.append(rem)
        return out

    def _encode(self, digs) -> int:
        B = self.base.order
        idx = 0
        for d in reversed(digs):
            idx = idx * B + d
        return idx

    def _build_tables(self):
        base, d, B, n = self.base, self.degree, self.base.order, self._n
        N = n // (B - 1)
        add, mul = base.add, base.mul
        # the heads g^0, ..., g^(N-1), stepped by the matrix of x -> x*g over
        # the base, whose column j is X^j * g mod f
        cols = [mp_divmod([0] * j + self.coeffs(self.gen_idx), self.modulus, base)[1] for j in range(d)]
        heads, c = [], [1] + [0] * (d - 1)
        for _ in range(N):
            heads.append(c)
            nxt = [0] * d
            for cj, col in zip(c, cols):
                if cj:
                    for t, v in enumerate(col):
                        nxt[t] = add(nxt[t], mul(cj, v))
            c = nxt
        if any(c[1:]):  # pragma: no cover
            raise AssertionError("g^N is not in the base field")
        # Slice copies and integer sums over whole array('i') rows, read by
        # int.from_bytes as integers of int32 lanes, write every entry: all are
        # below n < 2^31, so no lane carries.  w = g^N generates F_B*, g^(a*N +
        # b) = w^a * g^b, and with W = [w^0, ..., w^(B-2)] and L its log table
        # (L[0] = -1), the stride-N column exp[b::N] is the sum over the nonzero
        # coordinates c_j of g^b of B^j * W rotated by L[c_j].
        exp, log, m, order = array("i", [0]) * n, array("i", [-1]) * self.order, B - 1, sys.byteorder
        assert exp.itemsize == 4
        W = [1]
        for _ in range(B - 2):
            W.append(mul(W[-1], c[0]))
        L = {0: -1} | {v: i for i, v in enumerate(W)}
        WW = [array("i", [B**j * v for v in W]) * 2 for j in range(d)]
        # Until its columns are sorted, row V of log holds log(B*V) at 0 and
        # log(W[i] + B*V) at 1 + i.  For V != 0 of top coordinate w^l, u + B*V
        # = w^l * (u/w^l + B*V') with V' = V/w^l of top coordinate 1, so row V
        # is N*l plus row V' rotated by l.  The rows V' hold the g^(b - N*l),
        # head b over its top coordinate w^l; each holds one B*V' (u = 0).
        rows = []
        for b, head in enumerate(heads):
            lane_sum = sum(int.from_bytes(Wj[L[cj]:L[cj] + m], order) for Wj, cj in zip(WW, head) if cj)
            exp[b::N] = array("i", lane_sum.to_bytes(4 * m, order))
            if b:
                k = (b - N * L[next(filter(None, reversed(head)))]) % n
                e = exp[k]  # u + B*V' with u = e % B, at 1 + L[u] of row V'
                log[e - e % B + 1 + L[e % B]] = k
                if not e % B:
                    rows.append(e)
        log[1:B] = array("i", range(0, n, N))  # row 0 is F_B, log w^i = N*i
        # a lane of N*l plus a rotated row reaches n iff adding 2^31 - n sets bit 31
        ones = int.from_bytes(array("i", [1]) * m, order)
        high, offset = ones << 31, (2**31 - n) * ones
        for e in rows:
            t, D = log[e], log[e + 1:e + B] * 2
            for l in range(1, m):
                k = (t + N * l) % n
                v = exp[k]  # B*V for V = w^l * V'
                log[v] = k
                lane_sum = int.from_bytes(D[m - l:2 * m - l], order) + N * l * ones
                lane_sum -= (((lane_sum + offset) & high) >> 31) * n
                log[v + 1:v + B] = array("i", lane_sum.to_bytes(4 * m, order))
        # the cycles of 1 + i -> W[i] move the columns into index order
        done = bytearray(B)
        for start in itertools.filterfalse(done.__getitem__, range(1, B)):
            held, x = log[start::B], start
            while not done[x]:
                done[x], src = 1, 1 + L[x]
                log[x::B] = held if src == start else log[src::B]
                x = src
        self._exp = exp
        self._log = log

    # --- fast index arithmetic ---

    def add(self, i: int, j: int) -> int:
        if not i:
            return j
        if not j:
            return i
        log, p = self._log, self.char
        li = log[i]
        # g^li * (1 + g^k) for k = lj - li, with Z[k] = log[succ(exp[k])]; the
        # indexes lj - li and li + z - n lie in [-n, n) and wrap into exp mod n
        u = self._exp[log[j] - li] + 1
        z = log[u if u % p else u - p]
        return 0 if z < 0 else self._exp[li + z - self._n]

    def neg(self, i: int) -> int:
        if not i or self.char == 2:
            return i
        # -1 = g^(n/2) for odd p
        return self._exp[(self._log[i] + (self._n >> 1)) % self._n]

    def mul(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        return self._exp[(self._log[i] + self._log[j]) % self._n]

    def inv(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[i] % self._n]

    def pow(self, i: int, e: int) -> int:
        """i^e with the exponent reduced mod (order-1) for nonzero i."""
        if i == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 to a negative power")
        return self._exp[self._log[i] * (e % self._n) % self._n]

    def exp(self, k: int) -> int:
        return self._exp[k % self._n]

    def dlog(self, i: int) -> int:
        if i == 0:
            raise ValueError("dlog of zero")
        return self._log[i]

    def class_logs(self, a: int, step: int, count: int) -> list[int]:
        """log(a + g^(step*k)) for k < count, -1 where the sum is zero; a != 0.
        a + g^j = a * (1 + g^(j - log a)): log a + Z[j - log a], Z read as in add."""
        n, p, la, exp, log = self._n, self.char, self.dlog(a), self._exp, self._log
        row = []
        for j in range(-la, step * count - la, step):
            u = exp[j % n] + 1
            z = log[u if u % p else u - p]
            row.append(-1 if z < 0 else (la + z) % n)
        return row

    # --- structure ---

    def in_subfield(self, idx: int) -> bool:
        """Is this element in the base field (coefficients above c_0 all zero)?"""
        return idx < self.base.order

    def render(self, idx: int) -> str:
        return "[" + ",".join(self.base.render(c) for c in self.coeffs(idx)) + "]"

    def _parse_bracket(self, text: str) -> int:
        inner = text.strip()
        if not (inner.startswith("[") and inner.endswith("]")) or re.search(r"[\[,]\s*[\],]", inner):
            raise ValueError(f"bad element syntax: {text}")  # an empty coefficient at any depth too
        parts, depth = [""], 0
        for ch in inner[1:-1]:
            depth += (ch == "[") - (ch == "]")
            if depth < 0:  # a "]" closes the outer bracket early
                break
            if ch == "," and not depth:
                parts.append("")
            else:
                parts[-1] += ch
        if depth or len(parts) > self.degree:  # unbalanced brackets, or too many coefficients
            raise ValueError(f"bad element syntax: {text}")
        digs = [self.base.parse(p) for p in parts]
        return self._encode(digs + [0] * (self.degree - len(digs)))

    def describe(self) -> dict:
        """Construction data: (p, m, modulus coefficient vectors)."""
        mod = [self.base.coeffs(c) if isinstance(self.base, FieldCtx) else c for c in self.modulus]
        return {"p": self.char, "m": self.abs_degree, "modulus": mod}

    def __repr__(self):
        return f"FieldCtx(order={self.order}, char={self.char})"


class FieldElement:
    """A field value: owning context plus canonical index."""

    __slots__ = ("ctx", "idx")

    def __init__(self, ctx: FieldCtx | PrimeField, idx: int):
        self.ctx = ctx
        self.idx = idx

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise ValueError("field context mismatch")
            return other.idx
        if isinstance(other, int):
            return self.ctx.embed_int(other)
        raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")

    def __add__(self, other):
        return FieldElement(self.ctx, self.ctx.add(self.idx, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.ctx, self.ctx.sub(self.idx, self._coerce(other)))

    def __rsub__(self, other):
        return FieldElement(self.ctx, self.ctx.sub(self._coerce(other), self.idx))

    def __mul__(self, other):
        return FieldElement(self.ctx, self.ctx.mul(self.idx, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.ctx, self.ctx.div(self.idx, self._coerce(other)))

    def __rtruediv__(self, other):
        return FieldElement(self.ctx, self.ctx.div(self._coerce(other), self.idx))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.idx))

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow(self.idx, e))

    def inverse(self):
        return FieldElement(self.ctx, self.ctx.inv(self.idx))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx is other.ctx and self.idx == other.idx
        if isinstance(other, int):
            return self.idx == self.ctx.embed_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.idx))

    def __bool__(self):
        return self.idx != 0

    @property
    def text(self) -> str:
        return self.ctx.render(self.idx)

    def __repr__(self):
        return f"<{self.text} in GF({self.ctx.order})>"


def _lex_smallest_irreducible(base: FieldCtx | PrimeField, degree: int) -> tuple[int, ...]:
    """Smallest monic irreducible of the given degree over base, coefficients
    compared low-degree-first as indices (c_0 is the most significant
    position)."""
    candidates = (c + (1,) for c in itertools.product(range(base.order), repeat=degree))
    return next(f for f in candidates if mp_irreducible(f, base))


# Towers are cached least recently used first, up to this many bytes of
# exp/log tables over their extension levels, about 8*q^2 per tower (adds
# read Z[k] as log[succ(exp[k])], no Zech table); the newest is always kept.
TOWER_CACHE_BYTES = 256 * 2**20
_towers: OrderedDict[tuple[int, int], tuple[FieldCtx | PrimeField, FieldCtx]] = OrderedDict()


def _table_bytes(fields) -> int:
    return sum(t.buffer_info()[1] * t.itemsize for f in fields if isinstance(f, FieldCtx)
               for t in (f._exp, f._log))


def check_cap(name: str, p: int, e: int):
    """CapExceededError unless p^e <= cap, deciding an e past cap's bit length without p^e."""
    cap = enumeration_cap()
    if p > 1 and (e > cap.bit_length() or p**e > cap):  # PrimePower rejects p < 2
        raise CapExceededError(f"{name} = {p}^{e} exceeds the enumeration cap {cap}")


def build_tower(p: int, m: int) -> tuple[FieldCtx | PrimeField, FieldCtx]:
    """Build (F_q, F_{q^2}) for q = p^m, deterministically.

    Raises if p is not prime or q^2 exceeds the enumeration cap (default
    10^7, override with the PERMBINOM_CAP environment variable).
    """
    check_cap("q^2", p, 2 * m)
    key = (p, m)
    if key in _towers:
        _towers.move_to_end(key)
        return _towers[key]
    fq = build_subfield(p, m)
    tower = _towers[key] = fq, FieldCtx(fq, _lex_smallest_irreducible(fq, 2))
    held = sum(map(_table_bytes, _towers.values()))
    while held > TOWER_CACHE_BYTES and len(_towers) > 1:
        held -= _table_bytes(_towers.popitem(last=False)[1])
    return tower


def build_subfield(p: int, m: int) -> FieldCtx | PrimeField:
    """F_q alone (cheap: only needs q <= cap, not q^2), memoised: p and m are
    checked once, the cap on every call.  A PrimeField when m = 1."""
    check_cap("q", p, m)
    return _subfield(p, m)


@lru_cache(maxsize=512)  # every F_q with q^2 <= DEFAULT_CAP: 483 of them, under 1 MB
def _subfield(p: int, m: int) -> FieldCtx | PrimeField:
    PrimePower(p, m)  # ValueError unless m >= 1 and p is prime
    fp = PrimeField(p)
    return fp if m == 1 else FieldCtx(fp, _lex_smallest_irreducible(fp, m))


def compute_z(a: FieldElement) -> FieldElement:
    """The derived field value z = (-a)^(-q(q+1)/2) for a in F_{q^2}*, q odd.

    The exponent is reduced mod q^2-1 before the table-based power; z^2
    always lies in the subfield F_q.
    """
    ctx2 = a.ctx
    if ctx2.base is None:
        raise ValueError("z is defined on the quadratic extension")
    q = ctx2.base.order
    if q % 2 == 0:
        raise ValueError("z requires odd q")
    if a.idx == 0:
        raise ValueError("z requires a != 0")
    e = -(q * (q + 1) // 2) % (ctx2.order - 1)
    return FieldElement(ctx2, ctx2.pow(ctx2.neg(a.idx), e))


def enumerate_elements(ctx: FieldCtx | PrimeField, which: str = "all"):
    """Deterministic element stream: g^0, g^1, ..., then zero ('all'), or
    without the zero ('nonzero')."""
    if which not in ("all", "nonzero"):
        raise ValueError(f"unknown enumeration mode {which!r}")
    for k in range(ctx.order - 1):
        yield FieldElement(ctx, ctx.exp(k))
    if which == "all":
        yield FieldElement(ctx, 0)
