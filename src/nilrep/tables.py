"""Benchmark tables: reference dimensions and the reproduction harness.

The three tables cover strictly upper triangular algebras U_n over F_2, F_3
and Q, free nilpotent algebras N_{n,c} over Q, and the filiform family f_n.
Dimension columns are compared exactly; the reference running times (seconds,
2008-era hardware) are carried along purely as informational context and are
never part of any comparison.
"""

from __future__ import annotations

import time
from functools import partial
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from . import catalog
from .affine import AffineFail, AffineTimeout, algorithm_affine
from .dual import algorithm_dual
from .fields import QQ, field_from_characteristic
from .quotient import algorithm_quotient
from .regular import algorithm_regular, build_pruned_module
from .representation import verify_report

# (n, characteristic, dim, regular, dual, affine, t_regular, t_dual, t_affine)
TABLE1 = [
    (4, 2, 6, 7, 5, 7, 0.0, 0.1, 0.0),
    (5, 2, 10, 15, 11, 11, 0.25, 0.3, 0.3),
    (6, 2, 15, 35, 17, 16, 3.4, 3.6, 3.5),
    (7, 2, 21, 79, 35, 22, 65.0, 66.0, 45.0),
    (4, 3, 6, 7, 5, 7, 0.0, 0.0, 0.0),
    (5, 3, 10, 15, 11, 11, 0.2, 0.3, 0.3),
    (6, 3, 15, 35, 17, 16, 3.4, 3.6, 3.7),
    (7, 3, 21, 79, 35, 22, 65.0, 67.0, 46.0),
    (4, 0, 6, 7, 5, 7, 0.0, 0.0, 0.0),
    (5, 0, 10, 15, 11, 11, 0.2, 0.3, 0.3),
    (6, 0, 15, 35, 17, 16, 3.0, 3.2, 3.6),
    (7, 0, 21, 79, 35, 22, 66.0, 67.0, 45.0),
]

# (n, c, dim, regular=dual, affine or None for the reported failures, times)
TABLE2 = [
    (2, 5, 14, 20, 15, 0.2, 0.3, 0.5),
    (2, 6, 23, 34, 24, 0.9, 1.3, 8.4),
    (2, 7, 41, 65, None, 3.2, 4.8, None),
    (2, 8, 71, 117, None, 14.0, 21.0, None),
    (3, 4, 32, 41, 33, 0.8, 1.7, 54.0),
    (3, 5, 80, 113, None, 11.5, 17.5, None),
    (4, 3, 30, 36, 31, 0.9, 1.3, 37.0),
    (4, 4, 90, 113, None, 13.0, 19.7, None),
]

# (n, regular, quotient, dual; affine always failed, see CONJECTURED_NONE; times)
TABLE3 = [
    (13, 85, 43, 43, 8.6, 14.0, 12.3),
    (14, 105, 53, 53, 17.0, 28.0, 24.7),
    (15, 145, 64, 64, 33.0, 63.0, 50.0),
    (16, 185, 77, 77, 64.0, 125.0, 102.0),
    (17, 256, 94, 94, 123.0, 323.0, 218.0),
    (18, 316, 111, 111, 234.0, 731.0, 461.0),
    (19, 433, 134, 134, 487.0, 1844.0, 1162.0),
    (20, 538, 158, 158, 920.0, 4009.0, 3039.0),
]

# Affine reference of f_n: the reference runs failed, and the conjecture
# mu(f_n) > n+1 says no faithful representation of dimension n+1 exists.
CONJECTURED_NONE = "FAIL"


class RowResult(NamedTuple):
    """Outcome of one benchmark row: computed values vs. the reference ones.
    The defaults are read-only empties, so no two rows share a mutable one."""

    table: int
    label: str
    columns: dict  # column -> (computed, reference, status)
    verified: bool
    elapsed: float
    reference_seconds: Mapping = MappingProxyType({})
    notes: Sequence = ()

    @property
    def diff_count(self) -> int:
        return sum(1 for (_c, _r, status) in self.columns.values() if status == "DIFF")

    def format_line(self) -> str:
        cols = []
        for name, (computed, reference, status) in self.columns.items():
            ref = "-" if reference is None else reference
            cols.append("%s=%s/%s[%s]" % (name, computed, ref, status))
        note = ("  " + "; ".join(self.notes)) if self.notes else ""
        return "%-14s %s  (%.1fs)%s" % (self.label, "  ".join(cols), self.elapsed, note)


def table_rows(which: int) -> list:
    """(label, algebra builder, reference dimensions, Affine reference, reference
    seconds) of each row; the Affine reference is a dimension, None where the
    reference runs failed, or CONJECTURED_NONE."""
    if which == 1:
        return [("U_%d(%s)" % (n, "F%d" % ch if ch else "Q"),
                 partial(catalog.upper_triangular, n, field_from_characteristic(ch)),
                 {"dim": dim, "regular": reg, "dual": dual}, aff,
                 {"regular": t_reg, "dual": t_dual, "affine": t_aff})
                for n, ch, dim, reg, dual, aff, t_reg, t_dual, t_aff in TABLE1]
    if which == 2:
        return [("N_%d,%d(Q)" % (n, c), partial(catalog.free_nilpotent, n, c, QQ),
                 {"dim": dim, "regular": reg, "dual": reg}, aff,
                 {"regular": t_reg, "dual": t_dual, "affine": t_aff})
                for n, c, dim, reg, aff, t_reg, t_dual, t_aff in TABLE2]
    if which == 3:
        return [("f_%d" % n, partial(catalog.filiform_f, n),
                 {"regular": reg, "quotient": quo, "dual": dual}, CONJECTURED_NONE,
                 {"regular": t_reg, "quotient": t_quo, "dual": t_dual})
                for n, reg, quo, dual, t_reg, t_quo, t_dual in TABLE3]
    raise ValueError("table must be 1, 2 or 3")


def _affine_column(g, expected, seed, retries, timeout, notes):
    """(computed, reference, status) for an Affine cell, for an Affine reference
    as in ``table_rows``.

    A verified success of dimension dim(g)+1 is MATCH even on rows where the
    reference experiments failed, and SURPRISE where a conjecture says it cannot
    exist; failing where the reference run succeeded is flagged AFFINE-FAIL
    (and never counted as a dimension DIFF).
    """
    reference_failed = not isinstance(expected, int)
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        res = algorithm_affine(g, seed=seed, retries=retries, deadline=deadline)
    except AffineTimeout:
        if reference_failed:
            notes.append("affine timed out; the reference run also failed here")
            return ("TIMEOUT", expected, "SKIP")
        notes.append("affine timed out")
        return ("TIMEOUT", expected, "AFFINE-FAIL")
    if isinstance(res, AffineFail):
        return ("FAIL@%d" % res.deepest_step, expected,
                "MATCH" if reference_failed else "AFFINE-FAIL")
    ok = verify_report(res)["ok"]
    if expected == CONJECTURED_NONE:
        notes.append(
            "UNEXPECTED: Affine found a faithful representation of dimension %d "
            "for f_%d (verified=%s); the reference experiments never succeeded "
            "here and the underlying conjecture says none of dimension n+1 exists"
            % (res.dim, g.dim, ok)
        )
        return (res.dim, expected, "SURPRISE")
    return (res.dim, expected, "MATCH" if (res.dim == g.dim + 1 and ok) else "DIFF")


def check_rows(which: int, rows: Optional[list]):
    """Raise ValueError unless every index in ``rows`` is one of table
    ``which``'s rows."""
    nrows = len(table_rows(which))
    bad = sorted(set(rows or ()) - set(range(nrows)))
    if bad:
        raise ValueError("rows %s outside table %d's rows 0..%d"
                         % (",".join(map(str, bad)), which, nrows - 1))


def run_table(which: int, rows: Optional[list] = None, skip_affine: bool = False,
              seed: int = 0, retries: int = 10, affine_timeout: Optional[float] = 300.0):
    """Reproduce table ``which`` (1, 2 or 3), or its ``rows`` (0-based indices).

    Each row builds one pruned module for Regular and Dual, runs Quotient
    where the table has that column and Affine unless ``skip_affine``, and
    verifies every result exactly.  Raises ValueError, before any row runs,
    unless ``retries`` is at least 1, ``affine_timeout`` is None or positive
    and every index in ``rows`` is one of the table's rows; ``retries`` is
    checked with ``skip_affine`` too, as the CLI checks ``--retries``.
    """
    if retries < 1:
        raise ValueError("retries must be at least 1, got %r" % (retries,))
    if affine_timeout is not None and not affine_timeout > 0:
        raise ValueError("affine_timeout must be positive, got %r" % (affine_timeout,))
    check_rows(which, rows)
    out = []
    for idx, (label, build, reference, affine_ref, seconds) in enumerate(table_rows(which)):
        if rows is not None and idx not in rows:
            continue
        t0 = time.monotonic()
        notes = []
        g = build()
        module = build_pruned_module(g)
        reps = {"regular": algorithm_regular(g, module=module),
                "dual": algorithm_dual(g, module=module)}
        if "quotient" in reference:
            quo = reps["quotient"] = algorithm_quotient(g, regular_rep=reps["regular"])
            if quo.dim != reps["dual"].dim:
                notes.append("Quotient and Dual dimensions differ (%d vs %d)"
                             % (quo.dim, reps["dual"].dim))
        verified = all(verify_report(rep)["ok"] for rep in reps.values())
        computed = {"dim": g.dim, **{name: rep.dim for name, rep in reps.items()}}
        columns = {name: (computed[name], ref, "MATCH" if computed[name] == ref else "DIFF")
                   for name, ref in reference.items()}
        if not skip_affine:
            columns["affine"] = _affine_column(g, affine_ref, seed, retries, affine_timeout, notes)
        out.append(RowResult(which, label, columns, verified, time.monotonic() - t0,
                             seconds, notes))
    return out
