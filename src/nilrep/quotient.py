"""Algorithm Quotient: iterated reduction V -> V/W of a faithful module.

Each round computes S (vectors killed by all of g), C (image of the center),
M = S ∩ C and a deterministic complement W of M in S; the module is replaced
by V/W, realised concretely on the greedily-kept coordinate subset, until
W = 0.  Faithfulness survives because the center still acts faithfully on the
quotient.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .liealg import LieAlgebra
from .linalg import SparseMatrix, Subspace, complement_in, coordinate_projection, intersect
from .regular import algorithm_regular
from .representation import Representation, annihilated_subspace, center_image


def reduce_once(rep: Representation) -> Tuple[Representation, Subspace]:
    """One S/C/M/W round; returns the reduced representation and W (W = 0 at the fixpoint)."""
    fld = rep.field
    S = annihilated_subspace(rep)
    C = center_image(rep)
    M = intersect(S, C)
    W = complement_in(M, S)
    if W.dim == 0:
        return rep, W
    kept, proj = coordinate_projection(W)
    new_mats = []
    for mat in rep.matrices:
        cols = {}
        for t, k in enumerate(kept):
            col = mat.cols.get(k)
            if col:
                image = proj.apply_sparse(col)
                if image:
                    cols[t] = image
        new_mats.append(SparseMatrix(fld, len(kept), len(kept), cols))
    new_rep = Representation(
        rep.algebra,
        new_mats,
        dict(rep.provenance, algorithm="quotient_step"),
    )
    return new_rep, W


def algorithm_quotient(
    g: LieAlgebra,
    regular_rep: Optional[Representation] = None,
) -> Representation:
    """Quotient: run Regular, then reduce V -> V/W until W = 0."""
    rep = regular_rep or algorithm_regular(g)
    w_dims = []
    while True:
        new_rep, W = reduce_once(rep)
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
