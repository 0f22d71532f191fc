"""nilrep: faithful representations of nilpotent Lie algebras, exactly.

Given a nilpotent Lie algebra presented by structure constants over the
rationals or a prime field, this package computes faithful finite-dimensional
representations by four algorithms (Regular, Quotient, Dual, Affine), verifies
every result, and ships the benchmark algebras the algorithms were measured
on, including the filiform family f_n.
"""

from .fields import GF, QQ, Field, rational
from .liealg import AdaptedBasis, CentralSeries, LieAlgebra, NotNilpotentError, abelian_algebra
from .linalg import SparseMatrix, Subspace, complement_in, intersect, nullspace, rref, solve
from .uea import TruncatedUEA, enumerate_monomials
from .representation import (
    Representation,
    annihilated_subspace,
    center_image,
    homomorphism_failure,
    is_faithful,
    is_homomorphism,
    kernel,
    verify_report,
)
from .regular import algorithm_regular, build_pruned_module, nu, partitions, regular_unpruned
from .quotient import algorithm_quotient, reduce_once
from .dual import algorithm_dual, spin_submodule
from .affine import AffineFail, AffineTimeout, algorithm_affine, extend_step, one_cocycles
from . import catalog

__all__ = [
    "GF",
    "QQ",
    "Field",
    "rational",
    "AdaptedBasis",
    "CentralSeries",
    "LieAlgebra",
    "NotNilpotentError",
    "abelian_algebra",
    "SparseMatrix",
    "Subspace",
    "complement_in",
    "intersect",
    "nullspace",
    "rref",
    "solve",
    "TruncatedUEA",
    "enumerate_monomials",
    "Representation",
    "annihilated_subspace",
    "center_image",
    "homomorphism_failure",
    "is_faithful",
    "is_homomorphism",
    "kernel",
    "verify_report",
    "algorithm_regular",
    "build_pruned_module",
    "nu",
    "partitions",
    "regular_unpruned",
    "algorithm_quotient",
    "reduce_once",
    "algorithm_dual",
    "spin_submodule",
    "AffineFail",
    "AffineTimeout",
    "algorithm_affine",
    "extend_step",
    "one_cocycles",
    "catalog",
]

__version__ = "0.1.0"
