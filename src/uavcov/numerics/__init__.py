"""Numerical kernels: quadrature, series exponential, Laplace inversion."""

from .quadrature import AccuracyError, integrate, gauss_laguerre
from .jets import jet_exp
from .laplace import inverse_laplace

__all__ = [
    "AccuracyError",
    "integrate",
    "gauss_laguerre",
    "jet_exp",
    "inverse_laplace",
]
