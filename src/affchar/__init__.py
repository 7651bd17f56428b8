"""affchar: exact-arithmetic affine Weyl combinatorics, Kazhdan-Lusztig
polynomials, and W-algebra characters.

No floating point is used anywhere; all values are integers or
fractions.Fraction.

Importing the package loads no layer: import the one you need, as
``from affchar import hecke`` or ``from affchar.rootdata import
build_root_system``.
"""

from .errors import AffcharError, DomainError, BallExhausted, TruncationOverflow

__all__ = [
    "AffcharError",
    "DomainError",
    "BallExhausted",
    "TruncationOverflow",
]

__version__ = "0.1.0"
