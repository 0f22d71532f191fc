"""Algorithm Quotient: iterated reduction V -> V/W of a faithful module.

Each round computes S (vectors killed by all of g) and C (image of the
center), and W, a deterministic complement of S ∩ C in S: the echelon rows of
S are sifted in order into C, and a row is kept in W when it is independent of
C and the rows before it.  Sifting into C keeps the same rows as sifting into
S ∩ C: for v in S and K ⊆ S, v is in C + K iff v is in (S ∩ C) + K, since
v = c + k forces c = v - k into S.  The module is replaced by V/W, realised
concretely on the greedily-kept coordinate subset, until W = 0: each kept
column of every matrix is reduced against W by ``coordinate_projection``'s
``project``, fraction-free, so no projection matrix is formed.  Faithfulness
survives because the center still acts faithfully on the quotient.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .liealg import LieAlgebra
from .linalg import SparseMatrix, Subspace, coordinate_projection
from .regular import algorithm_regular
from .representation import Representation, annihilated_subspace, center_image


def reduce_once(rep: Representation, center: Subspace) -> Tuple[Representation, Subspace]:
    """One S/C/W round with the algebra's ``center``; returns the reduced
    representation and W (W = 0 at the fixpoint)."""
    fld = rep.field
    C = center_image(rep, center)
    W = Subspace(fld, rep.dim)
    for row in annihilated_subspace(rep).sparse.values():
        if C.add(row) is not None:
            W.add(row)
    if W.dim == 0:
        return rep, W
    kept, project = coordinate_projection(W)
    n = len(kept)
    mats = [SparseMatrix(fld, n, n, {t: image for t, k in enumerate(kept)
                                     if k in mat.cols and (image := project(mat.cols[k]))})
            for mat in rep.matrices]
    return Representation(rep.algebra, mats, dict(rep.provenance, algorithm="quotient_step")), W


def algorithm_quotient(
    g: LieAlgebra,
    regular_rep: Optional[Representation] = None,
) -> Representation:
    """Quotient: run Regular, then reduce V -> V/W until W = 0."""
    rep = regular_rep or algorithm_regular(g)
    center = rep.algebra.center()
    w_dims = []
    while True:
        new_rep, W = reduce_once(rep, center)
        if W.dim == 0:
            break
        if new_rep.dim >= rep.dim:
            raise RuntimeError("quotient round did not shrink the module")
        w_dims.append(W.dim)
        rep = new_rep
    # a new Representation: a regular_rep that is already a fixpoint keeps its provenance
    return Representation(
        rep.algebra,
        list(rep.matrices),
        {
            "algorithm": "quotient",
            "dim": rep.dim,
            "regular_dim": rep.dim + sum(w_dims),
            "w_dims": w_dims,
        },
    )
