"""permbinom: a verifiable toolkit for permutation binomials over F_{q^2}.

Covers the two-level field tower, exact polynomial algebra and resultants,
closed-form power sums with a brute-force oracle, permutation tests and
family classification, re-derivation of a transcribed set of reference
constants, and a deterministic parameter-space search harness with a CLI.
"""

__version__ = "0.1.0"
