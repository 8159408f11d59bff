"""Transcribed reference constants for the verification suites.

Every constant the suites compare against is parsed from exactly one quoted
text block below, and each block is pinned by a SHA-256 digest so an
accidental edit fails loudly at import instead of silently shifting a
comparison.  The verification code treats these values as one-way targets:
they are never fed back into a computation whose output is compared against
them.

Bivariate blocks list one line per z-degree with the r-coefficients lowest
degree first; univariate blocks list coefficients lowest degree first, one
or more per line.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .exactalg import BiPolyRZ, Factorization, IntPoly

__all__ = ["REG", "verify_checksums"]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parse_bipoly(text: str) -> BiPolyRZ:
    rows: dict[int, IntPoly] = {}
    for line in text.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        k = int(head.strip().removeprefix("z^"))
        rows[k] = _parse_intpoly(rest)
    top = max(rows)
    return BiPolyRZ([rows.get(k, 0) for k in range(top + 1)])


def _parse_intpoly(text: str) -> IntPoly:
    return IntPoly(int(tok) for tok in text.split())


_BLOCKS: dict[str, str] = {}
_DIGESTS: dict[str, str] = {}


def _block(name: str, digest: str, text: str) -> str:
    _BLOCKS[name] = text
    _DIGESTS[name] = digest
    if _digest(text) != digest:
        raise ValueError(f"registry block {name!r} fails its checksum "
                         f"(expected {digest}, got {_digest(text)})")
    return text


def verify_checksums() -> list[str]:
    """Names of blocks whose text no longer matches its pinned digest."""
    return [name for name, text in _BLOCKS.items() if _digest(text) != _DIGESTS[name]]


# --- the degree-1 bracket cofactor: (2r-6) z^2 + z - 2r + 3

_A1 = _block("A1", "da1de8aa8171685e", """
z^0: 3 -2
z^1: 1
z^2: -6 2
""")

# --- the degree-3 bracket cofactor

_A3 = _block("A3", "ef540ca6bf5896e8", """
z^0: 105 -284 240 -64
z^1: 87 -132 48
z^2: -1032 1848 -1056 192
z^3: -408 408 -96
z^4: 2487 -3276 1392 -192
z^5: 393 -276 48
z^6: -1680 1712 -576 64
""")

# --- the degree-5 bracket cofactor

_A5 = _block("A5", "7cbd51f78176d632", """
z^0: 3465 -18258 36120 -33840 15120 -2592
z^1: 4215 -15150 19560 -10800 2160
z^2: -79290 295240 -424560 295200 -99360 12960
z^3: -55110 145400 -139440 57600 -8640
z^4: 505560 -1465580 1657440 -914400 246240 -25920
z^5: 211240 -436500 329760 -108000 12960
z^6: -1305190 3091080 -2872560 1310400 -293760 25920
z^7: -307610 516600 -319440 86400 -8640
z^8: 1462335 -2913490 2290440 -889200 170640 -12960
z^9: 150465 -210350 109560 -25200 2160
z^10: -591360 1011008 -686880 231840 -38880 2592
""")

# --- the three eliminant polynomials in r

_H13 = _block("h13", "39b66e8e2d4c7970", """
23 -32 8
""")

_H15 = _block("h15", "8d695880ed2cfc76", """
-50177175 192510160 -306413232 263268784 -132226368 38904064 -6220800 417792
""")

_H35 = _block("h35", "43a524f6d6cfb176", """
1640196174434693231689160015671875
-26137880501033434757380449712031250
199340494276328696648165448026683125
-968910653712017064601924894849677750
3372192212650154034800139553730275800
-8951174935307409932529759009356097240
18846211417895804224301626730504310302
-32316001910874766059468388718091396312
45980684429130187438483339370188443584
-55030900064677544182509145667872622016
55959309692846308509760642138106884928
-48706132767092416541853122916769684224
36479664536657352839953925385556203392
-23596172317266885038522124141212199936
13209244119542504384062885644435258368
-6404564332483459115509239563149737984
2688005876401609920053983363863560192
-974678059666820944936074552648400896
304297772497625768143155803975057408
-81379894636486495421006534236176384
18509319909682455299397692929605632
-3545224885397742156794256357851136
564228757279539380358831153348608
-73248462876723300946488091213824
7555969260252555507865718095872
-595640449348053724576692043776
33695682531771885297793499136
-1217802457851859262370742272
21119053438918950050070528
""")

# --- the r-free degree-10 specialization at r = 7/4 (times -2^5/5)

_B5 = _block("B5", "495adc52d3e1ef1e", """
-231 114 -499 184 -814 44 -1214 -1096 -2219 -19726 33649
""")

# --- specializations at r = 3/2, exact over Q

_A3_32 = _block("A3_at_3_2", "32a446959352c366", """
-1 1 -4 4 -19 -29 64
""")

_A5_32 = _block("A5_at_3_2", "7d04a67b7a1ad1c0", """
3 -3 18 -18 88 -88 718 -1998 -1467 3003
""")

# --- factor lists over F_3 and F_181

_F3_FACTORS = _block("f3_factors", "43f2909148059232", """
a1_at_4:      1 1 -1
a3_cubic:     -1 -1 -1 1
a7_quintic:   1 1 -1 0 0 1
theta7_c2_q:  1 1 1 -1 0 1 0 0 1
quad_fib:     -1 -1 1
""")

_F181_FACTORS = _block("f181_factors", "f09d78c327be2b05", """
quadratic:  67 177 1
octic:      152 33 62 165 68 69 163 8 1
lin_a:      116 1
lin_b:      137 1
lin_c:      159 1
lin_d:      142 1
""")


def _parse_named(text: str) -> dict[str, IntPoly]:
    out = {}
    for line in text.strip().splitlines():
        name, _, rest = line.partition(":")
        out[name.strip()] = _parse_intpoly(rest)
    return out


class _Registry:
    """Parsed reference constants, exposed as attributes."""

    def __init__(self):
        self.A1 = _parse_bipoly(_A1)
        self.A3 = _parse_bipoly(_A3)
        self.A5 = _parse_bipoly(_A5)
        self.h13 = _parse_intpoly(_H13)
        self.h15 = _parse_intpoly(_H15)
        self.h35 = _parse_intpoly(_H35)  # one coefficient per line, lowest degree first
        self.B5 = _parse_intpoly(_B5)
        self.A3_at_3_2 = _parse_intpoly(_A3_32)   # A3(3/2, z) = -3 * this
        self.A5_at_3_2 = _parse_intpoly(_A5_32)   # A5(3/2, z) = -5 z * this

        f3 = _parse_named(_F3_FACTORS)
        self.A1_at_4 = f3["a1_at_4"]              # -z^2 + z + 1
        self.A7_factors = (f3["a3_cubic"], f3["a7_quintic"])
        # (1/3)A3(4, z) over F_3: z * (z^2 - z - 1) * (z^3 - z^2 - z - 1)
        self.A3_at_4_factors = (IntPoly((0, 1)), IntPoly((-1, -1, 1)), f3["a3_cubic"])
        # (1/5)A5(4, z) over F_3: z^2 (z+1)^2 (z^2 - z - 1)^3; the transcribed
        # source displays the last factor without its multiplicity 3 (the
        # degrees only balance with the cube, and the displayed divisibility
        # claims hold either way)
        self.A5_at_4_factors = ((IntPoly((0, 1)), 2), (IntPoly((1, 1)), 2), (IntPoly((-1, -1, 1)), 3))
        # theta(7) in the c=1 regime over F_3: z^6 (z+1) A7(z)
        self.theta7_c1_factors = ((IntPoly((0, 1)), 6), (IntPoly((1, 1)), 1),
                                  (f3["a3_cubic"], 1), (f3["a7_quintic"], 1))
        # theta(7) in the c=2 regime over F_3: z^3 (z+1)(z^2-z-1)(z^8+z^5-z^3+z^2+z+1)
        self.theta7_c2_factors = ((IntPoly((0, 1)), 3), (IntPoly((1, 1)), 1),
                                  (f3["quad_fib"], 1), (f3["theta7_c2_q"], 1))

        f181 = _parse_named(_F181_FACTORS)
        # A1(r, z) at r = 7/4 over F_181: 88 (z+116)(z+137)
        self.p181_A1 = (88, (f181["lin_a"], f181["lin_b"]))
        # A3: 76 z (z+116)(z+137)(z+159)(z^2+177z+67)
        self.p181_A3 = (76, (IntPoly((0, 1)), f181["lin_a"], f181["lin_b"],
                             f181["lin_c"], f181["quadratic"]))
        # A5: 178 (z+116)(z+142)(octic)
        self.p181_A5 = (178, (f181["lin_a"], f181["lin_d"], f181["octic"]))
        self.p181_nonlinear = (f181["quadratic"], f181["octic"])
        self.p181_common_root = 65          # z = -116
        self.p181_theta7 = 46

        # scalar prefactors of the bracket expansions: theta(alpha) equals
        # prefactor * (1+z) * A_alpha
        self.theta_prefactors = {1: Fraction(1, 2), 3: Fraction(1, 48), 5: Fraction(1, 1280)}

        # resultants with respect to z, in factored form
        r_minus_3 = IntPoly((-3, 1))
        self.R13 = (Fraction(-(2**9), 3**2), ((r_minus_3, 2), (IntPoly((-7, 4)), 2), (self.h13, 1)))
        self.R15 = (Fraction(-(2**13), 5**2), ((r_minus_3, 2), (IntPoly((-3, 2)), 1), (self.h15, 1)))
        self.R35 = (Fraction(-(2**43), 3**8 * 5**6), ((r_minus_3, 2), (self.h35, 1)))

        # integer resultants, in prime factorization
        self.res_h13_h15 = Factorization(1, ((2, 20), (3, 4), (23, 1), (8681, 1)))
        self.res_h13_h35 = Factorization(
            1, ((2, 65), (3, 18), (7, 1), (41, 1),
                (185871968716987252172951795997086716801, 1)))
        self.res_quad_B5 = Factorization(1, ((2, 27), (3, 2), (181, 1)))

        # exact rational values of the r = 3/2 specializations at z = 1/3
        self.A3_at_3_2_value = Fraction(2**7 * 7, 3**5)
        self.A5_at_3_2_value = Fraction(-(2**11) * 5 * 13, 3**9)

        # resultant table over F_3, indexed by r mod 9
        self.f3_resultant_table = {4: 0, 5: 1, 8: 1, 1: -1 % 3, 2: -1 % 3, 7: -1 % 3}


REG = _Registry()
