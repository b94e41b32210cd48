"""Desk-scale quadratic uniformity toolkit over F_p^n."""

from .gf import Group, group
from .factors import QuadraticFactor

__all__ = ["Group", "group", "QuadraticFactor"]
__version__ = "0.1.0"
