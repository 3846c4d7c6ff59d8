"""Exact truncated multivariate power series over the rationals:
Weierstrass division and preparation, implicit solving, even/odd descent
to a squared variable, and holomorphic extension with Cauchy-Riemann
verification."""

from .errors import (ExpressionError, InternalInvariantError,
                     PreconditionError, SeriesError)
from .series import FLAT, Series, term_sort_key
from .parser import parse_expression, parse_series
from .weierstrass import (DistinguishedPoly, DivisionResult,
                          PreparationResult, weierstrass_divide,
                          weierstrass_prepare)
from .localring import even_odd_split, solve_implicit
from .pipelines import (CauchyRiemannReport, ComplexExtension,
                        SemigroupReport, SquareSplit, SupportCheck,
                        cauchy_riemann_check, check_membership,
                        direct_complexification, holomorphic_extension,
                        normalize_cubic, reconstruct_split, semigroup_check,
                        split_square)

__all__ = [
    "FLAT",
    "Series",
    "term_sort_key",
    "SeriesError",
    "ExpressionError",
    "PreconditionError",
    "InternalInvariantError",
    "parse_expression",
    "parse_series",
    "DistinguishedPoly",
    "DivisionResult",
    "PreparationResult",
    "weierstrass_divide",
    "weierstrass_prepare",
    "solve_implicit",
    "even_odd_split",
    "SquareSplit",
    "split_square",
    "reconstruct_split",
    "SemigroupReport",
    "SupportCheck",
    "semigroup_check",
    "check_membership",
    "ComplexExtension",
    "CauchyRiemannReport",
    "normalize_cubic",
    "holomorphic_extension",
    "direct_complexification",
    "cauchy_riemann_check",
]

__version__ = "0.1.0"
