"""Exact-arithmetic toolkit for elliptic genera, the universal formal
group law and graded integral quotients of its coefficient ring."""

from .backend import BACKEND
from .core import Poly, Series1, Series2, VarTable

__version__ = "0.1.0"

__all__ = ["BACKEND", "Poly", "Series1", "Series2", "VarTable"]
