"""Permutation tests for f(x) = x^r (a + x^(t(q-1))) on F_{q^2}.

Two routes: a literal evaluate-everything check, and a power-sum criterion
that never touches individual field points.  A map on a field of order Q is
a bijection iff it has exactly one root and all power sums of exponent
1..Q-2 vanish; for these binomials the root count reduces to one norm
condition and the only sums that can survive are the closed-form brackets,
so the fast test is O(q * bracket length) per parameter set instead of
O(q^2).

For t = 2 everything a contributes to the verdict factors through
z = (-a)^(-q(q+1)/2): the root condition is z != 1 and each bracket is
E(z^2) + z*O(z^2) with E, O over F_q.  Since z^2 is always in F_q, a
verdict needs only F_q arithmetic; a z outside F_q passes a bracket iff its
minimal polynomial Z^2 - z^2 divides it.  The sweep exploits this to decide
every a of a field at once, and never scans the z values: the alpha = 1
bracket is a nonzero polynomial of degree <= 3 in z, so the only z that can
pass are its roots in F_q; no z outside F_q passes it (t2_passing_z gives
the proof).  Off the d = q-1 branch z = -1 is always a root, and the
quotient, like the d = q-1 bracket, is a quadratic solved by Tonelli-Shanks.
Those few are then tested bracket by bracket, but the norm-one z = -1 (the
paper's case (i)) needs none: sum_i (-1)^i C(alpha,i) C(i+s,alpha) =
(-1)^alpha puts its first failing alpha in closed form.  The sweep returns
the passing z, as F_q indices, and the first failing alpha of every other
z.  The t = 2 families are z values too: (r, z) = (1, 1/3) is family (iii)
and (r, z) = (3, 3) is family (iv).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import cycle

from .exactalg import is_probable_prime, mp_divmod, mp_eval, mp_gcd
from .ff import FieldCtx, FieldElement, PrimePower, PrimeField, build_subfield, check_cap, compute_z
from .powersum import PowerSumIndex, bracket, surviving_alphas

__all__ = [
    "BinomialParams",
    "Collision",
    "NonzeroPowerSum",
    "RootCountExcess",
    "PPVerdict",
    "FamilyTag",
    "is_pp_brute",
    "is_pp_powersum",
    "classify_family",
    "thm21_bound",
    "t2_z_first_failure",
    "t2_passing_z",
    "expand_z_to_a",
]

FAMILY_ORDER = ("family_i", "family_iii", "family_iv", "thm42", "family_ii")


class BinomialParams(namedtuple("BinomialParams", "a r t")):
    """Parameters (q, r, t, a) of one binomial; z is derived on each read."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.a.ctx.base is None:
            raise ValueError("a must live in the quadratic extension")
        if self.r < 1:
            raise ValueError(f"r={self.r} must be >= 1")
        if not 1 <= self.t <= self.q:
            raise ValueError(f"t={self.t} out of range 1..{self.q}")
        if self.a.idx == 0:
            raise ValueError("a must be nonzero")
        return self

    @property
    def ctx2(self) -> FieldCtx:
        return self.a.ctx

    @property
    def sub(self) -> FieldCtx | PrimeField:
        return self.a.ctx.base

    @property
    def q(self) -> int:
        return self.sub.order

    @property
    def p(self) -> int:
        return self.a.ctx.char

    @property
    def z(self) -> FieldElement:
        """The derived value for t = 2 (requires odd q)."""
        return compute_z(self.a)

    def __repr__(self):
        return f"BinomialParams(q={self.q}, r={self.r}, t={self.t}, a={self.a.text})"


class Collision(namedtuple("Collision", "x1 x2 value")):
    """Two distinct points with the same image; re-checked on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.x1 == self.x2:
            raise ValueError("collision needs distinct points")
        return self


NonzeroPowerSum = namedtuple("NonzeroPowerSum", "s alpha")
RootCountExcess = namedtuple("RootCountExcess", "count")
PPVerdict = namedtuple("PPVerdict", "is_pp method witness note", defaults=(None, ""))


class FamilyTag(namedtuple("FamilyTag", "tag fired")):
    """Classification against the known infinite families.

    tag is one of family_i..family_iv, thm42, sporadic, not_pp; fired lists
    every predicate that holds (families can overlap in their -1 branches).
    """

    __slots__ = ()


def is_pp_brute(params: BinomialParams) -> PPVerdict:
    """Decide f by the q+1 classes of x^(q-1); walk elements only for a witness.

    f(g^k) = g^(r*k) * (a + g^(te*k)); since te*(q+1) = 0 mod Q-1, the second
    factor depends only on k mod q+1, so one row of q+1 logs from
    FieldCtx.class_logs serves every element.  Class k holds the q-1 elements
    g^(k + (q+1)j), whose images have logs r*k + row[k] + (q+1)*(r*j mod q-1);
    so f permutes iff gcd(r, q-1) = 1, no row entry is -1 (a zero image) and
    k -> (r*k + row[k]) mod q+1 is a bijection (Park-Lee 2001; Zieve 2009).
    Otherwise elements are walked in the order 0, g^0, g^1, ..., g^(Q-2), and
    the first collision is returned as a witness: x2 is the first element
    whose image is already taken, x1 the earlier element with that image
    (x1 = 0 when the image is 0).  Images are marked by their logs in a
    bytearray of Q-1 bytes, and x1 is recovered by one rescan of the earlier
    elements.  A walk that ends without a collision contradicts the class
    test and raises AssertionError.
    """
    ctx2 = params.ctx2
    check_cap("q^2", params.p, ctx2.abs_degree)  # read now: a cached tower may predate a lower cap
    n = ctx2.order - 1
    q = params.q
    r, t = params.r, params.t
    row = ctx2.class_logs(params.a.idx, t * (q - 1), q + 1)  # log(a + g^(te*k)), -1 for 0
    if (math.gcd(r, q - 1) == 1 and -1 not in row
            and len({(r * k + lf) % (q + 1) for k, lf in enumerate(row)}) == q + 1):
        return PPVerdict(True, "brute")
    seen = bytearray(n)  # seen[e]: some earlier g^k has f(g^k) = g^e
    for k, rk, lf in zip(range(n), range(0, r * n, r), cycle(row)):
        if lf < 0:  # f(g^k) = 0 = f(0)
            zero = ctx2.zero()
            return PPVerdict(False, "brute", Collision(zero, ctx2.element(ctx2.exp(k)), zero))
        e = (rk + lf) % n
        if seen[e]:
            k1 = next(k1 for k1, rk1, lf1 in zip(range(k), range(0, r * k, r), cycle(row))
                      if (rk1 + lf1) % n == e)
            x1, x2, fx = (ctx2.element(ctx2.exp(j)) for j in (k1, k, e))
            return PPVerdict(False, "brute", Collision(x1, x2, fx))
        seen[e] = 1
    raise AssertionError(f"class test and element walk disagree on {params!r}")


def _root_excess(params: BinomialParams) -> int | None:
    """Number of roots of f beyond x = 0, decided algebraically: nonzero roots
    exist iff (-a)^((q+1)/gcd(q+1,t)) = 1, and then there are (q-1)*gcd(t, q+1)
    of them."""
    ctx2, q, t = params.ctx2, params.q, params.t
    g = math.gcd(q + 1, t)
    w = ctx2.pow(ctx2.neg(params.a.idx), (q + 1) // g)
    if w == 1:
        return (q - 1) * g
    return None


def t2_z_first_failure(sub: FieldCtx | PrimeField, q: int, r: int, z: int) -> int | None:
    """First odd alpha whose closed-form sum is nonzero, or None if all vanish.

    z is an index of sub, so it lies in F_q, and the alpha-th sum is
    B_alpha(z) up to a nonzero prefactor.  The brackets are keyed by q, not
    by sub.order, so F_p serves as sub whenever z lies in F_p.
    For odd r, z^2 = 1 (z = +-1) is closed form: E(1) = O(1) = (-1)^alpha,
    so z = 1 fails at alpha = 1 and z = -1 where d = q-1, at the first odd
    alpha with (alpha+1)(r-2) = 0 mod q+1.
    """
    if sub.mul(z, z) == 1:
        g = math.gcd(r - 2, q + 1)
        return 1 if z == 1 else (None if g == 1 else (q + 1) // g - 1)
    return next((alpha for alpha in surviving_alphas(q, 2)
                 if mp_eval(bracket(alpha, r, q, 2, sub.char)[1], z, sub)), None)


def _first_failure_mod(q: int, r: int, mu: list[int], sub: FieldCtx | PrimeField) -> int | None:
    """The first odd alpha whose bracket B = E(z^2) + z*O(z^2), taken over
    sub, leaves a nonzero remainder modulo mu, the monic minimal polynomial
    of z over sub; None if every bracket vanishes at z.  This decides a z
    outside sub, and each of its conjugates with it."""
    return next((alpha for alpha in surviving_alphas(q, 2)
                 if mp_divmod(bracket(alpha, r, q, 2, sub.char)[1], mu, sub)[1]), None)


def is_pp_powersum(params: BinomialParams) -> PPVerdict:
    """Power-sum permutation test; t in {1, 2} only.

    gcd(r, q-1) = 1 is necessary for any permutation binomial of this shape,
    so its failure is a not_pp verdict rather than an error.  t = 2 requires
    odd q (the closed form does).
    """
    q, r, t = params.q, params.r, params.t
    ctx2, sub = params.ctx2, params.sub
    if t not in (1, 2):
        raise ValueError("power-sum test covers t in {1, 2} only")
    if t == 2 and q % 2 == 0:
        raise ValueError("t = 2 power-sum test requires odd q")
    if math.gcd(r, q - 1) != 1:
        return PPVerdict(False, "powersum", None, "gcd(r, q-1) > 1")
    excess = _root_excess(params)
    if excess is not None:
        return PPVerdict(False, "powersum", RootCountExcess(1 + excess))
    if t == 2:
        z = params.z.idx
        if ctx2.in_subfield(z):
            alpha = t2_z_first_failure(sub, q, r, z)
        else:  # z^2 = y is in F_q, so z has minimal polynomial Z^2 - y over it
            alpha = _first_failure_mod(q, r, [sub.neg(ctx2.mul(z, z)), 0, 1], sub)
    else:
        h = sub.inv(ctx2.pow(params.a.idx, q + 1))  # a^(-(q+1))
        alpha = next((al for al in surviving_alphas(q, 1)
                      if mp_eval(bracket(al, r, q, 1, sub.char)[1], h, sub)), None)
    if alpha is None:
        return PPVerdict(True, "powersum")
    return PPVerdict(False, "powersum", NonzeroPowerSum(PowerSumIndex.useful(alpha, q).s, alpha))


def thm21_bound(r: int, p: int) -> int:
    """Nonexistence threshold on q for t = 2 with a of norm != 1, by case on
    r mod p: r = 3 gives r^2-4r+5; p = 3 or r = 7/4 gives 8r-15; else 6r-11."""
    if p == 2 or not is_probable_prime(p):
        raise ValueError("p must be an odd prime")
    if r <= 3 or r % 2 == 0:
        raise ValueError("bound is defined for odd r > 3")
    if (r - 3) % p == 0:
        return r * r - 4 * r + 5
    if p == 3 or (4 * r - 7) % p == 0:
        return 8 * r - 15
    return 6 * r - 11


def classify_family(params: BinomialParams) -> FamilyTag:
    """Match the parameters against the known infinite families.

    Every predicate that holds is recorded; the tag is the first holder in a
    fixed precedence order, sporadic if the map permutes but nothing fired,
    not_pp if it does not permute.  For t > 2 only the norm-one family
    applies; families (iii) and (iv) are read off z, with r taken mod
    q^2-1 since x^r depends only on that residue.  The permutation verdict
    is the brute test's, so the field must lie within the enumeration cap
    (ValueError above it).
    """
    ctx2 = params.ctx2
    q, r, t, p = params.q, params.r, params.t, params.p
    n = q * q - 1
    fired = []
    norm_one = ctx2.pow(params.a.idx, q + 1) == 1
    gcd_r = math.gcd(r, q - 1) == 1
    if norm_one and gcd_r and math.gcd(r - t, q + 1) == 1 and _root_excess(params) is None:
        fired.append("family_i")
    if t == 2 and q % 2 == 1 and p != 3:
        z, three = params.z.idx, ctx2.embed_int(3)
        if (r - 1) % n == 0 and ctx2.mul(three, z) == 1:
            fired.append("family_iii")
        if (r - 3) % n == 0 and (q - 1) % 3 != 0 and z == three:
            fired.append("family_iv")
    if t == 1 and gcd_r and (r - 1) % (q + 1) == 0 and not norm_one:
        fired.append("thm42")
        fired.append("family_ii")
    verdict = is_pp_brute(params)
    if not verdict.is_pp:
        return FamilyTag("not_pp", tuple(fired))
    for name in FAMILY_ORDER:
        if name in fired:
            return FamilyTag(name, tuple(fired))
    return FamilyTag("sporadic", tuple(fired))


# ------------------------------------------------------- z-level sweeping

def t2_passing_z(p: int, m: int, r: int, include_norm_one: bool = False) -> tuple[list, dict]:
    """(hits, first_failure): all z values whose parameters pass the t = 2
    power-sum test, for every a in F_{q^2}* at once, and for every other z
    the first odd alpha whose bracket is nonzero.

    The verdict for a is a pure function of z(a), and z ranges exactly over
    the elements with z^2 in F_q*: the q-1 elements of F_q* plus the two
    square roots of each nonsquare.  Hits are F_q indices, ascending; no z
    outside F_q ever passes.
    first_failure maps alpha, ascending, to its count of z decided.
    a has norm one iff z = +-1; z = 1 never passes (extra roots), z = -1 is
    included only when include_norm_one is set.

    Only roots of the alpha = 1 bracket are tested, every one in closed form.
    z in F_q must be a root of B_1(z) = E_1(z^2) + z*O_1(z^2).  Off the
    d = q-1 branch the rows are (s, -(s+1)) and (s', -(s'+1)), s' = s + 1/2
    mod p, so B_1(-1) = E_1(1) - O_1(1) = 0 and B_1 = (z + 1)*Q; on it O_1 = 0
    and B_1(-1) = E_1(1) = -1, so Q = B_1.  Either way deg Q <= 2.
    A z outside F_q passes alpha = 1 iff y = z^2, a nonsquare, is a common
    root of E_1 and O_1.  Off the branch there is none: E_1 - O_1 =
    (s - s')(1 - y) vanishes only at y = 1, where E_1 = -1.  On it, E_1's
    only root is y = -1, and the branch needs r = 2 mod (q+1)/2, which for
    odd r makes (q+1)/2 odd, so q = 1 mod 4 and -1 is a square.  Every such
    z fails at alpha = 1.

    The rows are residues mod p, so every candidate lies in F_p or F_{p^2},
    and the sweep decides over F_p alone.  A quadratic with no root in F_p
    has two Frobenius-conjugate roots, in F_q iff m is even, which share
    their verdict: both pass alpha iff it divides B_alpha over F_p, the
    remainder test every z outside its field of evaluation takes.  F_q
    itself is built only to name a conjugate pair that passes.
    """
    check_cap("q", p, m)
    if m < 1:
        PrimePower(p, m)  # raises: the extension degree
    fp = build_subfield(p, 1)
    q = p**m
    if q % 2 == 0:
        raise ValueError("t = 2 sweep requires odd q")
    if math.gcd(r, q - 1) != 1:
        return [], {}
    b1 = bracket(1, r, q, 2, p)[1]
    quo, rem = mp_divmod(b1, [1, 1], fp)  # rem = B_1(-1): 0, or -1 on the d = q-1 branch
    cofactor = mp_gcd(b1 if rem else quo, (), fp)  # monic
    roots = _small_roots(cofactor, fp)
    subs = [z for z in sorted(set(roots) if rem else {*roots, p - 1})
            if z > 1 and (include_norm_one or z != p - 1)]
    pair = m % 2 == 0 and len(cofactor) == 3 and not roots  # irreducible over F_p, split in F_q
    decided = q - 2 - (not include_norm_one) + (q - 1) // 2  # F_q* but 1 (and -1), nonsquares
    first = Counter({1: decided - len(subs) - 2 * pair})
    hits = []
    for z in subs:
        alpha = t2_z_first_failure(fp, q, r, z)
        if alpha == 1:  # pragma: no cover - a root of the alpha = 1 bracket
            raise AssertionError(f"candidate z = {z} fails alpha = 1 at q = {q}, r = {r}")
        if alpha is None:
            hits.append(z)
        else:
            first[alpha] += 1
    if pair:
        alpha = _first_failure_mod(q, r, cofactor, fp)
        if alpha is None:  # the roots lie outside F_p, so above every z in subs
            hits += _small_roots(cofactor, build_subfield(p, m))
        else:
            first[alpha] += 2
    return hits, {alpha: c for alpha, c in sorted(first.items()) if c}


# Polynomials over F_q are lists of F_q indices, constant term first; a
# bracket row's residues mod p are F_q indices too, as F_p is the indices
# below p.  Every root the sweep needs is found in closed form from them.

def _sqrt(a: int, sub: FieldCtx | PrimeField) -> int:
    """A square root of the square a in F_q, q odd, by Tonelli-Shanks with
    the generator as the nonsquare: for q-1 = 2^s*u, x^2 = a*t holds while
    the squares of c = g^u push t = a^u down the 2-power subgroups to 1."""
    s = ((sub.order - 1) & (1 - sub.order)).bit_length() - 1  # the 2-adic valuation of q-1
    u = (sub.order - 1) >> s
    x, t, c = sub.pow(a, (u + 1) // 2), sub.pow(a, u), sub.pow(sub.gen_idx, u)
    for i in range(s - 1, 0, -1):  # t^(2^i) = 1, c of order 2^(i+1)
        if sub.pow(t, 1 << (i - 1)) != 1:
            x, t = sub.mul(x, c), sub.mul(t, sub.mul(c, c))
        c = sub.mul(c, c)
    return x


def _small_roots(f, sub: FieldCtx | PrimeField) -> list[int]:
    """The distinct roots in F_q (q odd) of f of degree <= 2, ascending: of
    monic z + c, -c; of z^2 + b*z + c, -h +- sqrt(h^2 - c) with h = b/2 when
    h^2 - c passes Euler's criterion.  ValueError on the zero polynomial."""
    f = mp_gcd(f, (), sub)  # monic, trailing zeros dropped
    if not f:
        raise ValueError("roots of the zero polynomial")
    if len(f) < 3:
        return [sub.neg(f[0])] if len(f) == 2 else []
    h = sub.div(f[1], sub.add(1, 1))
    disc = sub.sub(sub.mul(h, h), f[0])
    if disc and sub.pow(disc, (sub.order - 1) // 2) != 1:
        return []
    root = _sqrt(disc, sub)
    return sorted({sub.sub(root, h), sub.neg(sub.add(root, h))})


def expand_z_to_a(ctx2: FieldCtx, z: int) -> list[tuple[int, FieldElement]]:
    """All a in F_{q^2}* whose derived value is z, as (dlog a, a), ascending;
    ValueError unless z^2 is in F_q*, the image of a -> z.

    With h = (q+1)/2, P = 2(q-1) and n = q^2-1 = h*P, log z = -q*h*log(-a)
    mod n, so log(-a) = (log z / h) * (-q)^(-1) mod P, plus j*P for j < h,
    and log a = log(-a) + n/2; z^2 is in F_q* iff h divides log z.
    """
    q, n = ctx2.base.order, ctx2.order - 1
    h, P = (q + 1) // 2, 2 * (q - 1)
    log_z = ctx2.dlog(z)
    if log_z % h:
        raise ValueError(f"z = {ctx2.render(z)} has z^2 outside F_q*, so no a maps to it")
    base = log_z // h * pow(-q, -1, P) % P + n // 2
    return [(k, ctx2.element(ctx2.exp(k))) for k in sorted((base + j * P) % n for j in range(h))]
