"""Algorithm Quotient: iterated reduction V -> V/W of a faithful module.

Each round computes S (vectors killed by all of g) and C (image of the
center), and W, a deterministic complement of S ∩ C in S: the echelon rows of
S that enlarge C as they are sifted into it in order, independent by
construction.  Sifting into C keeps the same rows as sifting into S ∩ C: for
v in S and K ⊆ S, v is in C + K iff v is in (S ∩ C) + K, since v = c + k
forces c = v - k into S.  The module is replaced by V/W, realised concretely
on the greedily-kept coordinate subset, until W = 0: each kept column of
every matrix is reduced against W by ``coordinate_projection``'s
``project``, fraction-free, so no projection matrix is formed.  Faithfulness
survives because the center still acts faithfully on the quotient.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .liealg import LieAlgebra, _generators
from .linalg import SparseMatrix, Subspace, coordinate_projection
from .regular import algorithm_regular
from .representation import Representation, annihilated_subspace, center_image


def reduce_once(rep: Representation, center: Subspace, gens: list) -> Tuple[Representation, list]:
    """One S/C/W round with the algebra's ``center`` and ``_generators``
    ``gens``; returns the reduced representation and W's rows (none at a fixpoint)."""
    fld = rep.field
    C = center_image(rep, center)
    W = [row for row in annihilated_subspace(rep, gens).sparse.values()
         if C.add(row) is not None]
    if not W:
        return rep, W
    kept, project = coordinate_projection(fld, rep.dim, W)
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
    if rep.algebra != g:
        raise ValueError("regular_rep represents another algebra")
    center, gens = g.center(), _generators(g)[1]
    w_dims = []
    while True:
        new_rep, W = reduce_once(rep, center, gens)
        if not W:
            break
        if new_rep.dim >= rep.dim:
            raise RuntimeError("quotient round did not shrink the module")
        w_dims.append(len(W))
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
