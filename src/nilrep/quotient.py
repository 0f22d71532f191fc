"""Algorithm Quotient: iterated reduction V -> V/W of a faithful module.

Each round computes S (vectors killed by all of g) and C (image of the
center), and W, a deterministic complement of S ∩ C in S: the echelon rows of
S, in primitive form, that enlarge C as they are sifted into it in order,
independent by construction.  Sifting into C keeps the same rows as sifting
into S ∩ C: for v in S and K ⊆ S, v is in C + K iff v is in (S ∩ C) + K,
since v = c + k forces c = v - k into S.  The module is replaced by V/W,
realised on the greedily kept coordinates of ``coordinate_projection``,
until W = 0.  Faithfulness survives because the center still acts
faithfully on the quotient.

A round reads two kinds of matrix only, named by ``g.adapted_basis()``,
which Regular builds.  S is the kernel of the M_v of its weight-one vectors
V, a complement of g² and so generators: the x with M_x S = 0 form a
subalgebra, since M_[x,y] = [M_x, M_y], and it contains V.  C is the sum of
the column spaces of the M_z for its central-flagged vectors z, a basis of
Z(g).  Both are read as canonical echelon forms, which these choices do not
change.  So the rounds carry these |V| + |Z| matrices and never project the
other n - |V| - |Z|.  Neither a kernel nor a column span changes when a whole
matrix is scaled, so a carried matrix is kept as ints over one scale that
is never recorded: ``project`` returns each column as ints over a scale of
its own, and the columns are brought to the lcm of those scales.

The input matrices are projected once, after the fixpoint, modulo the W
rows of every round lifted to V's coordinates.  Projecting modulo W₁ and
then modulo W₂ is projecting modulo W₁ + W₂: both maps are the identity on
the kept unit vectors and have the same kernel.  The kept coordinates
compose too: modulo W₁ a dropped e_j is a combination of kept unit vectors
before j, so e_k enlarges W₁ + W₂ plus the unit vectors before it exactly
when k is kept modulo W₁ and e_k enlarges W₂ plus the kept ones before it.
So the one projection gives the last round's matrices entry for entry; a
kept list other than the composed one raises RuntimeError.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from .liealg import LieAlgebra
from .linalg import SparseMatrix, Subspace, coordinate_projection, lincomb, relations
from .regular import algorithm_regular
from .representation import Representation


def _carried(fld, vec: dict, matrices: list) -> dict:
    """sum_l vec_l ``matrices[l]`` as a column map of ints over one scale."""
    return fld.integral_maps([lincomb(fld, vec, matrices).cols])[0][0]


def _projected(mat: dict, kept: list, project) -> dict:
    """The nonzero columns ``kept`` of the column map ``mat`` through
    ``coordinate_projection``'s ``project``, as ``{t: (r, s)}``: r is s > 0
    times the projected column."""
    return {t: image for t, k in enumerate(kept) if k in mat and (image := project(mat[k]))[0]}


def _one_scale(cols: dict) -> dict:
    """``_projected``'s columns as ints over the lcm of their scales."""
    m = lcm(1, *(s for _r, s in cols.values()))
    return {t: r if s == m else {i: x * (m // s) for i, x in r.items()}
            for t, (r, s) in cols.items()}


def algorithm_quotient(
    g: LieAlgebra,
    regular_rep: Optional[Representation] = None,
) -> Representation:
    """Quotient: run Regular, then reduce V -> V/W until W = 0.

    The provenance records ``w_dims``, dim W of each round, and
    ``regular_dim``, the dimension of the module the rounds started from.
    """
    rep = regular_rep or algorithm_regular(g)
    if rep.algebra != g:
        raise ValueError("regular_rep represents another algebra")
    fld = g.field
    basis = g.adapted_basis()
    gens = [_carried(fld, v, rep.matrices) for v, m in zip(basis.matrix, basis.weights) if m == 1]
    center = [_carried(fld, z, rep.matrices) for z, c in zip(basis.matrix, basis.central_flags) if c]
    kept = list(range(rep.dim))  # the coordinates of V the current module keeps
    lifted, w_dims = [], []
    while True:
        n = len(kept)
        S = relations(fld, [{t: mat[l] for t, mat in enumerate(gens) if l in mat}
                            for l in range(n)])
        C = Subspace(fld, n)
        for mat in center:
            for j in sorted(mat):
                C.add(mat[j])
        W = [row for pc in S.pivots if C.add(row := S.primitive_row(pc)) is not None]
        if not W:
            break
        now, project = coordinate_projection(fld, n, W)
        if len(now) >= n:
            raise RuntimeError("quotient round did not shrink the module")
        gens = [_one_scale(_projected(mat, now, project)) for mat in gens]
        center = [_one_scale(_projected(mat, now, project)) for mat in center]
        lifted += [{kept[c]: x for c, x in row.items()} for row in W]
        kept = [kept[k] for k in now]
        w_dims.append(len(W))
    matrices = list(rep.matrices)
    if lifted:
        once, project = coordinate_projection(fld, rep.dim, lifted)
        if once != kept:
            raise RuntimeError("the projection modulo every W keeps other coordinates "
                               "than the rounds")
        n = len(kept)
        matrices = [SparseMatrix(fld, n, n, {t: fld.divided(*image) for t, image
                                             in _projected(mat.cols, kept, project).items()})
                    for mat in rep.matrices]
    # a new Representation: a regular_rep that is already a fixpoint keeps its provenance
    return Representation(rep.algebra, matrices, {
        "algorithm": "quotient", "dim": len(kept), "regular_dim": rep.dim, "w_dims": w_dims})
