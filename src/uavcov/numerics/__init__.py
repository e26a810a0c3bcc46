"""Numerical kernels: quadrature, jets, Laplace inversion."""

from .quadrature import QuadratureSpec, AccuracyError, integrate, gauss_laguerre
from .jets import (
    Jet,
    JetSingularityError,
    antiderivative_compose,
    jet_eval,
    jet_exp,
    jet_log,
)
from .laplace import inverse_laplace, inverse_laplace_cdf

__all__ = [
    "QuadratureSpec",
    "AccuracyError",
    "integrate",
    "gauss_laguerre",
    "Jet",
    "JetSingularityError",
    "jet_eval",
    "jet_exp",
    "jet_log",
    "antiderivative_compose",
    "inverse_laplace",
    "inverse_laplace_cdf",
]
