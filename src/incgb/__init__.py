"""Equivariant Groebner bases for polynomial rings with indexed variables.

Computes Groebner bases of ideals invariant under the monoid of strictly
increasing index maps, with a direct orbit Buchberger engine, a truncated
incremental engine, and a signature-based engine, plus a classical
finite-variable Buchberger engine (the direct engine's loop with ordinary
S-pairs and plain divisibility) used as a subroutine and cross-check.
"""

from .buchberger import (
    EgbResult,
    EngineLimits,
    autoreduce,
    classical_buchberger,
    egb_buchberger,
    egb_incremental,
    is_egb,
    orbit_truncate,
)
from .incmaps import IncMap, increasing_maps, map_to_tau
from .poly import Polynomial, act, lc, lm, normal_form
from .problems import parse, parse_polynomial, serialize
from .rings import FamilySpec, Monomial, Ring, pi_divides
from .signature import egb_signature
from .spairs import interlacings, spair_generators

__all__ = [
    "EgbResult",
    "EngineLimits",
    "FamilySpec",
    "IncMap",
    "Monomial",
    "Polynomial",
    "Ring",
    "act",
    "autoreduce",
    "classical_buchberger",
    "egb_buchberger",
    "egb_incremental",
    "egb_signature",
    "increasing_maps",
    "interlacings",
    "is_egb",
    "lc",
    "lm",
    "map_to_tau",
    "normal_form",
    "orbit_truncate",
    "parse",
    "parse_polynomial",
    "pi_divides",
    "serialize",
    "spair_generators",
]

__version__ = "0.1.0"
