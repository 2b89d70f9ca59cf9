"""Weight hierarchies of a family of cyclic codes built from trace evaluations.

Closed-form hierarchy plus two independent brute-force oracles (direct
subcode enumeration and a dual cyclotomy-intersection recount), with exact
finite-field arithmetic, numeric Gauss periods, and a reproducibility-minded
CLI.
"""

__version__ = "0.1.0"
