"""Deterministic two-level finite-field tower F_p <= F_q <= F_{q^2}.

Elements are canonical integer indexes.  An element of an extension of
degree k over a base of order B with coefficient vector (c_0, ..., c_{k-1})
has index c_0 + c_1*B + ... + c_{k-1}*B^{k-1}, where each c_i is itself the
index of a base-field element.  Flattened all the way down this is the
base-p digit expansion, and the subfield F_q sits inside F_{q^2} as the
indexes below q.

Arithmetic runs on generator exp/log tables built once per context by
stepping through the powers of the generator g, stored as `array('i')`
with log[0] = -1 for zero.  A prime field steps k -> k*g mod p, and adds
and multiplies mod p; F_{p^2} = F_p[X]/(X^2 + m1*X + m0), the F_{q^2} of
every prime q, steps the coefficient pair (c0, c1) of g^k with two fixed
linear forms mod p; every other field multiplies by g with the schoolbook
`_mul_raw`.  An extension field adds through a Zech-log table
Z[k] = log(1 + g^k) (Huber, IEEE Trans. IT 36(4), 1990):
g^a + g^b = g^(a + Z[b - a]).

Construction is fully deterministic: the modulus is the lexicographically
smallest monic irreducible (coefficients compared low-degree-first), found
at both levels by one search on exactalg.mp_irreducible; the generator is
the smallest index that generates the multiplicative group.  So catalogs
are reproducible bit for bit across runs.
"""

from __future__ import annotations

import itertools
import os
from array import array
from collections import OrderedDict
from dataclasses import dataclass

from .exactalg import is_probable_prime, mp_irreducible

__all__ = [
    "DEFAULT_CAP",
    "enumeration_cap",
    "CapExceededError",
    "PrimePower",
    "FieldCtx",
    "FieldElement",
    "build_tower",
    "build_subfield",
    "compute_z",
    "enumerate_elements",
]

DEFAULT_CAP = 10**7


def enumeration_cap() -> int:
    """Upper bound on the order of any constructed field (q^2 <= cap)."""
    return int(os.environ.get("PERMBINOM_CAP", DEFAULT_CAP))


class CapExceededError(ValueError):
    pass


@dataclass(frozen=True)
class PrimePower:
    """q = p^m with p verified prime at construction."""

    p: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.m}")
        if not is_probable_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

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


class FieldCtx:
    """One level of the tower; immutable after construction.

    Safe to share across workers: every table is built in __init__ and never
    mutated afterwards.  p is trusted, as build_subfield has checked it;
    abs_degree is the degree m over F_p.
    """

    __slots__ = (
        "base",
        "modulus",
        "char",
        "order",
        "degree",
        "abs_degree",
        "gen_idx",
        "_exp",
        "_log",
        "_zech",
        "_n",
    )

    def __init__(self, base: "FieldCtx | None", modulus: tuple[int, ...] | None, p: int | None = None):
        if base is None:
            if modulus is not None:
                raise ValueError("prime field takes no modulus")
            self.base = None
            self.char = p
            self.degree = 1
            self.order = p
            self.abs_degree = 1
            self.modulus = None
        else:
            if modulus is None or len(modulus) < 3 or modulus[-1] != 1:
                raise ValueError("extension needs a monic modulus of degree >= 2")
            self.base = base
            self.char = base.char
            self.degree = len(modulus) - 1
            self.order = base.order**self.degree
            self.abs_degree = base.abs_degree * self.degree
            self.modulus = tuple(modulus)
        self._n = self.order - 1
        self.gen_idx = self._find_generator()
        self._build_tables()

    # --- raw polynomial arithmetic over the base (bootstrap only) ---

    def _decode(self, idx: int) -> list[int]:
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

    def _mul_raw(self, i: int, j: int) -> int:
        """Schoolbook multiply-and-reduce; used before tables exist."""
        if self.base is None:
            return i * j % self.char
        b = self.base
        u, v = self._decode(i), self._decode(j)
        prod = [0] * (2 * self.degree - 1)
        for x, cu in enumerate(u):
            if not cu:
                continue
            for y, cv in enumerate(v):
                if cv:
                    prod[x + y] = b.add(prod[x + y], b.mul(cu, cv))
        # reduce by the monic modulus
        for k in range(len(prod) - 1, self.degree - 1, -1):
            c = prod[k]
            if not c:
                continue
            prod[k] = 0
            for t in range(self.degree):
                mt = self.modulus[t]
                if mt:
                    prod[k - self.degree + t] = b.sub(prod[k - self.degree + t], b.mul(c, mt))
        return self._encode(prod[: self.degree])

    def _pow_raw(self, i: int, e: int) -> int:
        acc = 1
        while e:
            if e & 1:
                acc = self._mul_raw(acc, i)
            i = self._mul_raw(i, i)
            e >>= 1
        return acc

    def _find_generator(self) -> int:
        n = self._n
        if n == 1:
            return 1
        primes = _prime_factors(n)
        for cand in range(2, self.order):
            if all(self._pow_raw(cand, n // ell) != 1 for ell in primes):
                return cand
        raise AssertionError("no generator found")  # pragma: no cover

    def _build_tables(self):
        n = self._n
        exp = array("i", [0]) * n
        log = array("i", [-1]) * self.order  # zero has no log: -1
        cur = 1
        g = self.gen_idx
        if self.base is None:
            p = self.char
            for k in range(n):
                exp[k] = cur
                log[cur] = k
                cur = cur * g % p
        elif self.degree == 2 and self.base.base is None:
            # F_p[X]/(X^2 + m1*X + m0) with g = g0 + g1*X: (c0 + c1*X)*g is
            # (c0*g0 - c1*k0) + (c0*g1 + c1*k1)*X, k0 = g1*m0, k1 = g0 - g1*m1
            p = self.char
            g1, g0 = divmod(g, p)
            k0, k1 = g1 * self.modulus[0], g0 - g1 * self.modulus[1]
            c0, c1 = 1, 0
            for k in range(n):
                cur = c0 + c1 * p
                exp[k] = cur
                log[cur] = k
                c0, c1 = (c0 * g0 - c1 * k0) % p, (c0 * g1 + c1 * k1) % p
            cur = c0 + c1 * p
        else:
            for k in range(n):
                exp[k] = cur
                log[cur] = k
                cur = self._mul_raw(cur, g)
        if cur != 1:  # pragma: no cover
            raise AssertionError("generator order mismatch")
        self._exp = exp
        self._log = log
        if self.base is None:
            self._zech = array("i")
            return
        # Z[k] = log(1 + g^k).  Adding 1 steps only the lowest base-p digit
        # of an index, v -> v + 1, or v - (p - 1) when v % p = p - 1, so
        # log(1 + v) over all v is log shifted down one place with every
        # p-th entry taken from the start of its digit block.  log[0] = -1
        # lands at the one k where 1 + g^k = 0.
        p = self.char
        log_succ = log[1:]
        log_succ.append(-1)
        log_succ[p - 1 :: p] = log[::p]
        self._zech = array("i", map(log_succ.__getitem__, exp))

    # --- fast index arithmetic ---

    def add(self, i: int, j: int) -> int:
        if self.base is None:
            return (i + j) % self.char
        if not i:
            return j
        if not j:
            return i
        n = self._n
        li = self._log[i]
        z = self._zech[(self._log[j] - li) % n]
        return 0 if z < 0 else self._exp[(li + z) % n]

    def neg(self, i: int) -> int:
        if self.base is None:
            return -i % self.char
        if not i or self.char == 2:
            return i
        # -1 = g^(n/2) for odd p
        return self._exp[(self._log[i] + (self._n >> 1)) % self._n]

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def mul(self, i: int, j: int) -> int:
        if self.base is None:
            return i * j % self.char
        if i == 0 or j == 0:
            return 0
        return self._exp[(self._log[i] + self._log[j]) % self._n]

    def inv(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[-self._log[i] % self._n]

    def div(self, i: int, j: int) -> int:
        if j == 0:
            raise ZeroDivisionError("division by zero")
        if i == 0:
            return 0
        return self._exp[(self._log[i] - self._log[j]) % self._n]

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

    # --- structure ---

    def coeffs(self, idx: int) -> list[int]:
        """Coefficient vector over the base field (indexes)."""
        if self.base is None:
            return [idx]
        return self._decode(idx)

    def in_subfield(self, idx: int) -> bool:
        """Is this element in the base field (coefficients above c_0 all zero)?"""
        if self.base is None:
            return True
        return idx < self.base.order

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

    def render(self, idx: int) -> str:
        if self.base is None:
            return str(idx)
        return "[" + ",".join(self.base.render(c) for c in self._decode(idx)) + "]"

    def parse(self, text: str) -> int:
        """Accepts the bracket form, g^k exponent notation, or a bare integer."""
        text = text.strip()
        if text.startswith("g^"):
            return self._exp[int(text[2:]) % self._n] if self._n else 1
        if text == "g":
            return self.gen_idx
        if not text.startswith("["):
            val = int(text)
            return val % self.char
        return self._parse_bracket(text)

    def _parse_bracket(self, text: str) -> int:
        if self.base is None:
            raise ValueError(f"unexpected bracket for prime-field element: {text}")
        inner = text.strip()
        if not (inner.startswith("[") and inner.endswith("]")):
            raise ValueError(f"bad element syntax: {text}")
        inner = inner[1:-1]
        parts = []
        depth = 0
        cur = ""
        for ch in inner:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append(cur)
                cur = ""
            else:
                cur += ch
        if cur.strip():
            parts.append(cur)
        digs = [self.base.parse(p) for p in parts]
        if len(digs) > self.degree:
            raise ValueError(f"too many coefficients in {text}")
        digs += [0] * (self.degree - len(digs))
        return self._encode(digs)

    def describe(self) -> dict:
        """Construction data: (p, m, modulus coefficient vectors)."""
        mod = None
        if self.modulus is not None:
            mod = [self.base.coeffs(c) if self.base.base else c for c in self.modulus]
        return {"p": self.char, "m": self.abs_degree, "modulus": mod}

    def __repr__(self):
        return f"FieldCtx(order={self.order}, char={self.char})"


class FieldElement:
    """A field value: owning context plus canonical index."""

    __slots__ = ("ctx", "idx")

    def __init__(self, ctx: FieldCtx, idx: int):
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
    def coeffs(self):
        return self.ctx.coeffs(self.idx)

    @property
    def text(self) -> str:
        return self.ctx.render(self.idx)

    def __repr__(self):
        return f"<{self.text} in GF({self.ctx.order})>"


def _lex_smallest_irreducible(base: FieldCtx, degree: int) -> tuple[int, ...]:
    """Smallest monic irreducible of the given degree over base, coefficients
    compared low-degree-first as indices (c_0 is the most significant
    position)."""
    candidates = (c + (1,) for c in itertools.product(range(base.order), repeat=degree))
    return next(f for f in candidates if mp_irreducible(f, base))


# Towers are cached least recently used first, up to this many bytes of
# exp/log/Zech tables over both levels; the newest tower is always kept.
TOWER_CACHE_BYTES = 256 * 2**20
_towers: OrderedDict[tuple[int, int, int], tuple[FieldCtx, FieldCtx]] = OrderedDict()


def _table_bytes(tower: tuple[FieldCtx, FieldCtx]) -> int:
    return sum(t.buffer_info()[1] * t.itemsize for f in tower for t in (f._exp, f._log, f._zech))


def build_tower(p: int, m: int, cap: int | None = None) -> tuple[FieldCtx, FieldCtx]:
    """Build (F_q, F_{q^2}) for q = p^m, deterministically.

    Raises if p is not prime or q^2 exceeds the enumeration cap (default
    10^7, override with the PERMBINOM_CAP environment variable).
    """
    cap = enumeration_cap() if cap is None else cap
    key = (p, m, cap)
    if key in _towers:
        _towers.move_to_end(key)
        return _towers[key]
    if p ** (2 * m) > cap:
        raise CapExceededError(f"q^2 = {p**(2*m)} exceeds the enumeration cap {cap}")
    fq = build_subfield(p, m, cap)
    tower = _towers[key] = fq, FieldCtx(fq, _lex_smallest_irreducible(fq, 2))
    held = sum(map(_table_bytes, _towers.values()))
    while held > TOWER_CACHE_BYTES and len(_towers) > 1:
        held -= _table_bytes(_towers.popitem(last=False)[1])
    return tower


def build_subfield(p: int, m: int, cap: int | None = None) -> FieldCtx:
    """F_q alone (cheap: only needs q <= cap, not q^2); checks p and m, once,
    for every tower."""
    cap = enumeration_cap() if cap is None else cap
    PrimePower(p, m)  # ValueError unless m >= 1 and p is prime
    if p**m > cap:
        raise CapExceededError(f"q = {p**m} exceeds the enumeration cap {cap}")
    fp = FieldCtx(None, None, p=p)
    if m == 1:
        return fp
    return FieldCtx(fp, _lex_smallest_irreducible(fp, m))


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


def enumerate_elements(ctx: FieldCtx, which: str = "all"):
    """Deterministic element stream: g^0, g^1, ..., then zero ('all'), or
    without the zero ('nonzero')."""
    n = ctx.order - 1
    if which == "all":
        for k in range(n):
            yield FieldElement(ctx, ctx._exp[k])
        yield FieldElement(ctx, 0)
    elif which == "nonzero":
        for k in range(n):
            yield FieldElement(ctx, ctx._exp[k])
    else:
        raise ValueError(f"unknown enumeration mode {which!r}")
