"""nilrep: faithful representations of nilpotent Lie algebras, exactly.

Given a nilpotent Lie algebra presented by structure constants over the
rationals or a prime field, this package computes faithful finite-dimensional
representations by four algorithms (Regular, Quotient, Dual, Affine), verifies
every result, and ships the benchmark algebras the algorithms were measured
on, including the filiform family f_n.
"""

from .fields import GF, QQ, Field, rational
from .liealg import AdaptedBasis, LieAlgebra, NotNilpotentError, abelian_algebra
from .linalg import SparseMatrix, Subspace
from .uea import TruncatedUEA
from .representation import (
    Representation,
    homomorphism_failure,
    is_faithful,
    is_homomorphism,
    kernel,
    verify_report,
)
from .regular import algorithm_regular, build_pruned_module
from .quotient import algorithm_quotient
from .dual import algorithm_dual
from .affine import AffineFail, AffineTimeout, algorithm_affine
from . import catalog

__all__ = [
    "GF",
    "QQ",
    "Field",
    "rational",
    "AdaptedBasis",
    "LieAlgebra",
    "NotNilpotentError",
    "abelian_algebra",
    "SparseMatrix",
    "Subspace",
    "TruncatedUEA",
    "Representation",
    "homomorphism_failure",
    "is_faithful",
    "is_homomorphism",
    "kernel",
    "verify_report",
    "algorithm_regular",
    "build_pruned_module",
    "algorithm_quotient",
    "algorithm_dual",
    "AffineFail",
    "AffineTimeout",
    "algorithm_affine",
    "catalog",
]

__version__ = "0.1.0"
