"""affchar: exact-arithmetic affine Weyl combinatorics, Kazhdan-Lusztig
polynomials, and W-algebra characters.

No floating point is used anywhere; all values are integers or
fractions.Fraction.
"""

from .errors import AffcharError, DomainError, BallExhausted, TruncationOverflow
from .rootdata import (RootSystem, Level, build_root_system, form_value,
                       casimir_eigenvalue)
from . import affine, characters, hecke, qseries, sugawara, wstruct

__all__ = [
    "AffcharError",
    "DomainError",
    "BallExhausted",
    "TruncationOverflow",
    "RootSystem",
    "Level",
    "build_root_system",
    "form_value",
    "casimir_eigenvalue",
    "affine",
    "characters",
    "hecke",
    "qseries",
    "sugawara",
    "wstruct",
]

__version__ = "0.1.0"
