"""
Exact intertwining-coefficient combinatorics for finite Weyl groups:
Bruhat and weak orders, the Demazure monoid, Iwahori-Hecke pairing
polynomials, deformed R-polynomials, and the sigma(u, v, w) classification.
"""

from .coxeter import (
    CartanType,
    CoxeterGroup,
    Element,
    GroupMismatchError,
    OrderCapError,
    UnsupportedTypeError,
    WordError,
    build_group,
)
from .demazure import (
    circ,
    down_left,
    down_right,
    mixed_meet,
    up_left,
    up_right,
    v_min,
)
from .hecke import ThetaTable
from .kl import KLTable, check_theta_power_conjecture
from .polyring import LaurentPoly, RationalFn, binomial, binomial_divide
from .rpoly import RPolyTable, s_set
from .sigma import ClassificationReport, SigmaEngine, classify

__all__ = [
    "CartanType",
    "CoxeterGroup",
    "Element",
    "GroupMismatchError",
    "OrderCapError",
    "UnsupportedTypeError",
    "WordError",
    "build_group",
    "circ",
    "up_left",
    "down_left",
    "up_right",
    "down_right",
    "mixed_meet",
    "v_min",
    "ThetaTable",
    "KLTable",
    "check_theta_power_conjecture",
    "LaurentPoly",
    "RationalFn",
    "binomial",
    "binomial_divide",
    "RPolyTable",
    "s_set",
    "ClassificationReport",
    "SigmaEngine",
    "classify",
]

__version__ = "0.1.0"
