"""Workload definitions, reference columns and the seeded `rebased` inputs.

A job is one algebra with all the algorithms its workload runs on it.  The
reference dimension columns are copied from the published tables into this
file on purpose: the benchmark never reads them from ``nilrep.tables``, so a
change to the program cannot move its own yardstick.
"""

from __future__ import annotations

import json
import os
import random
from collections import defaultdict
from fractions import Fraction

ALL_ALGORITHMS = ("regular", "dual", "quotient", "affine")

# f_n: (n, regular, quotient, dual); Affine is expected to fail on every row.
FILIFORM = [
    (13, 85, 43, 43),
    (14, 105, 53, 53),
    (15, 145, 64, 64),
    (16, 185, 77, 77),
    (17, 256, 94, 94),
]

# N_{n,c}: (n, c, dim, regular = dual, affine dim or None where the
# reference Affine run failed; Affine is only run where it succeeded).
FREENILP = [
    (2, 5, 14, 20, 15),
    (2, 6, 23, 34, 24),
    (2, 7, 41, 65, None),
    (2, 8, 71, 117, None),
    (3, 4, 32, 41, 33),
    (3, 5, 80, 113, None),
    (4, 3, 30, 36, 31),
]

# rebased inputs: (job id, catalog name, characteristic)
REBASED = [
    ("U6-F2", "utri:6", 2),
    ("U6-F3", "utri:6", 3),
    ("U6-Q", "utri:6", 0),
    ("U7-F2", "utri:7", 2),
    ("U7-F3", "utri:7", 3),
    ("U7-Q", "utri:7", 0),
    ("f13-Q", "filiform:13", 0),
    ("f14-Q", "filiform:14", 0),
]

WORKLOADS = ("filiform", "freenilp", "rebased")


def _filiform_specs():
    specs = []
    for n, reg, quo, dual in FILIFORM:
        specs.append({
            "id": "f_%d" % n,
            "catalog": "filiform:%d" % n,
            "characteristic": 0,
            "algorithms": list(ALL_ALGORITHMS),
            "expect": {"dim": n, "regular": reg, "quotient": quo, "dual": dual},
            "affine": "may_fail",
        })
    return specs


def _freenilp_specs():
    specs = []
    for n, c, dim, reg, aff in FREENILP:
        algs = ["regular", "dual"] + (["affine"] if aff is not None else [])
        specs.append({
            "id": "N_%d,%d" % (n, c),
            "catalog": "freenilp:%d,%d" % (n, c),
            "characteristic": 0,
            "algorithms": algs,
            "expect": {"dim": dim, "regular": reg, "dual": reg},
            "affine": "must_succeed",
        })
    return specs


def _rebased_specs(input_dir):
    specs = []
    for job_id, _name, ch in REBASED:
        specs.append({
            "id": job_id,
            "file": os.path.join(input_dir, job_id + ".json"),
            "characteristic": ch,
            "algorithms": list(ALL_ALGORITHMS),
            "expect": {},
            "affine": "may_fail",
            "rebased": True,
        })
    return specs


def workload_jobs(workload, seed, input_dir=None):
    """The job specs of a workload, in the order drawn from the seed."""
    if workload == "filiform":
        specs = _filiform_specs()
    elif workload == "freenilp":
        specs = _freenilp_specs()
    elif workload == "rebased":
        specs = _rebased_specs(input_dir)
    else:
        raise ValueError("unknown workload %r" % workload)
    random.Random("order:%d" % seed).shuffle(specs)
    for spec in specs:
        spec["affine_seed"] = seed
    return specs


# ---------------------------------------------------------------------------
# seeded rebased inputs


class GeneratorError(RuntimeError):
    """A generated input is not a nilpotent Lie algebra: a benchmark bug."""


def _depths(g):
    """depth[i]: the largest m with basis vector x_i in g^m."""
    series = g.lower_central_series()
    depth = []
    for i in range(g.dim):
        unit = [g.field.zero] * g.dim
        unit[i] = g.field.one
        depth.append(max(m + 1 for m, gm in enumerate(series) if gm.contains(unit)))
    return depth


def rebase(g, rng):
    """Rewrite g in the basis y_i = x_i + s_i x_j, with x_j at least as deep as x_i.

    The basis is sorted by (depth, index) and cut into consecutive pairs; the
    first vector of a pair (the target) takes in the second (the source), and
    the seed draws each sign s_i.  No source is a target, so x_i = y_i - s_i y_j
    and the coefficients stay small.  Seed-drawn pairs made the cost of a job
    swing 2-3x between seeds.  Returns the algebra in nilrep's JSON algebra
    format; the arithmetic uses Fraction or ints mod p, not the program.
    """
    n = g.dim
    p = g.field.characteristic

    def scalar(text):
        return int(text) % p if p else Fraction(text)

    table = {key: {k: scalar(g.field.to_str(v)) for k, v in terms.items()}
             for key, terms in g.table.items()}
    depth = _depths(g)
    order = sorted(range(n), key=lambda i: (depth[i], i))
    partner = {order[k]: (order[k + 1], rng.choice((1, -1))) for k in range(0, n - 1, 2)}

    def in_old_basis(a):
        vec = {a: 1}
        if a in partner:
            j, s = partner[a]
            vec[j] = s
        return vec

    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            acc = defaultdict(int)  # [y_a, y_b] in the old basis
            for i, f in in_old_basis(a).items():
                for j, h in in_old_basis(b).items():
                    if i == j:
                        continue
                    sign = 1 if i < j else -1
                    for k, c in table.get((min(i, j), max(i, j)), {}).items():
                        acc[k] += sign * f * h * c
            out = defaultdict(int)  # ... and in the new one
            for k, v in acc.items():
                out[k] += v
                if k in partner:
                    j, s = partner[k]
                    out[j] -= s * v
            terms = [[m + 1, str(v % p if p else v)] for m, v in sorted(out.items())
                     if (v % p if p else v)]
            if terms:
                brackets.append({"i": a + 1, "j": b + 1, "terms": terms})
    return {
        "format": "nilrep-algebra",
        "version": 1,
        "dim": n,
        "field": {"kind": "prime_field" if p else "rationals", "characteristic": p},
        "brackets": brackets,
    }


def write_rebased_inputs(seed, input_dir):
    """Generate, validate and save every rebased input; returns the paths."""
    from nilrep import GF, QQ, NotNilpotentError, catalog, fileio

    os.makedirs(input_dir, exist_ok=True)
    paths = []
    for job_id, name, ch in REBASED:
        g = catalog.from_name(name, GF(ch) if ch else QQ)
        obj = rebase(g, random.Random("rebase:%d:%s" % (seed, job_id)))
        h = fileio.algebra_from_json(obj)
        if h.check_jacobi():
            raise GeneratorError("%s: rebased algebra breaks the Jacobi identity" % job_id)
        try:
            series = h.lower_central_series()
        except NotNilpotentError as exc:
            raise GeneratorError("%s: rebased algebra is not nilpotent: %s" % (job_id, exc))
        if [s.dim for s in series] != [s.dim for s in g.lower_central_series()]:
            raise GeneratorError("%s: rebasing changed the lower central series" % job_id)
        path = os.path.join(input_dir, job_id + ".json")
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)
            fh.write("\n")
        paths.append(path)
    return paths
