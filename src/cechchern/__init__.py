"""Exact Chern character cocycles from transition-function data on a cover.

The package root exports the exact-algebra entry points and the manifest
loader; everything else is imported from its module.
"""

from .scalars import GaussianRational
from .poly import Polynomial, poly_gcd
from .ratfunc import RationalFunction
from .exprparse import ExprError, parse_expr
from .forms import MatrixForm
from .linalg import SingularMatrixError
from .manifest import Manifest, ManifestError

__all__ = [
    "GaussianRational",
    "Polynomial",
    "poly_gcd",
    "RationalFunction",
    "ExprError",
    "parse_expr",
    "MatrixForm",
    "SingularMatrixError",
    "Manifest",
    "ManifestError",
]
