"""Command line interface: compute, verify, tables.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 Affine fail
(for `tables`, the exit code is the number of dimension-column DIFFs).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import __version__, catalog, fileio, tables
from .affine import AffineFail, algorithm_affine
from .dual import algorithm_dual
from .fields import BACKEND, GF, QQ, Field, parse_natural
from .liealg import LieAlgebra, NotNilpotentError
from .quotient import algorithm_quotient
from .regular import algorithm_regular
from .representation import verify_report


class InputError(ValueError):
    pass


def _parse_field(text: Optional[str]) -> Field:
    if text is None:
        return QQ
    t = text.strip().lower()
    if t in ("q", "qq", "0", "rational", "rationals"):
        return QQ
    try:
        return GF(parse_natural(t))  # rejects non-numbers; GF() rejects non-primes
    except ValueError:
        raise InputError("unknown field %r (use 'q' or a prime)" % text)


def _load_algebra_file(path: str) -> LieAlgebra:
    try:
        g = fileio.load_algebra(path)
    except (OSError, ValueError) as exc:
        raise InputError("cannot load algebra from %r: %s" % (path, exc))
    bad = g.check_jacobi()
    if bad:
        raise InputError("algebra in %r violates the Jacobi identity on basis triple %r"
                         % (path, bad[0]))
    return g


def _load_input(spec: str, field: Field) -> LieAlgebra:
    if spec.startswith("catalog:"):
        try:
            return catalog.from_name(spec[len("catalog:"):], field)
        except ValueError as exc:
            raise InputError(str(exc))
    return _load_algebra_file(spec)


def _check_retries(retries: int):
    if retries < 1:
        raise InputError("--retries must be at least 1, got %d" % retries)


ALGORITHMS = {  # compute --alg: the call on the algebra and the parsed arguments
    "regular": lambda g, args: algorithm_regular(g),
    "quotient": lambda g, args: algorithm_quotient(g),
    "dual": lambda g, args: algorithm_dual(g),
    "affine": lambda g, args: algorithm_affine(g, seed=args.seed, retries=args.retries),
}


def cmd_compute(args) -> int:
    _check_retries(args.retries)
    field = _parse_field(args.field)
    g = _load_input(args.input, field)
    t0 = time.monotonic()
    rep = ALGORITHMS[args.alg](g, args)
    elapsed = time.monotonic() - t0
    if isinstance(rep, AffineFail):
        summary = {
            "input": args.input,
            "algorithm": args.alg,
            "status": "fail",
            "deepest_step": rep.deepest_step,
            "attempts": rep.attempts,
            "elapsed_s": round(elapsed, 3),
        }
        print(json.dumps(summary, sort_keys=True))
        return 3
    report = verify_report(rep)
    summary = {
        "input": args.input,
        "algorithm": args.alg,
        "status": "ok" if report["ok"] else "fail",
        "algebra_dim": g.dim,
        "dim": rep.dim,
        "elapsed_s": round(elapsed, 3),
    }
    if args.input.startswith("catalog:"):
        family, _, params = args.input[len("catalog:"):].partition(":")
        summary["family"] = family
        if params:
            summary["params"] = params
        summary["field"] = "F%d" % g.field.characteristic if g.field.characteristic else g.field.kind
    if not report["ok"]:
        summary["verification"] = report
        print(json.dumps(summary, sort_keys=True))
        return 1
    if args.out:
        try:
            fileio.save_representation(rep, args.out)
        except OSError as exc:
            raise InputError("cannot write %r: %s" % (args.out, exc))
        summary["out"] = args.out
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    g = _load_algebra_file(args.algebra)
    try:
        rep = fileio.load_representation(args.rep, g)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc))
    report = verify_report(rep)
    print(json.dumps(report, sort_keys=True))
    return 0 if report["ok"] else 1


def _row_index(text: str) -> int:
    """One ``--rows`` piece: ASCII digits, or ``-`` and ASCII digits, which the
    range check then reports as outside the table."""
    text = text.strip()
    if text.startswith("-"):
        return -parse_natural(text[1:])
    return parse_natural(text)


def cmd_tables(args) -> int:
    _check_retries(args.retries)
    # `not > 0` also rejects nan, which would compare false against every clock
    if not args.affine_timeout > 0:
        raise InputError("--affine-timeout must be a positive number of seconds, got %r"
                         % args.affine_timeout)
    rows = None
    if args.rows is not None:
        try:
            rows = sorted({_row_index(r) for r in args.rows.split(",")})
        except ValueError:
            raise InputError("--rows expects a comma-separated list of row indices")
        try:
            tables.check_rows(args.which, rows)
        except ValueError as exc:
            raise InputError(str(exc))
    results = tables.run_table(
        args.which,
        rows=rows,
        skip_affine=args.skip_affine,
        seed=args.seed,
        retries=args.retries,
        affine_timeout=args.affine_timeout,
    )
    diffs = 0
    for row in results:
        print(row.format_line())
        ratio_bits = []
        for name, ref_s in row.reference_seconds.items():
            if ref_s:
                ratio_bits.append("%s ref %.1fs" % (name, ref_s))
        if ratio_bits:
            print("    reference times (2GHz, 2008): %s; this row %.1fs total"
                  % (", ".join(ratio_bits), row.elapsed))
        if not row.verified:
            print("    WARNING: verification failed on this row")
        diffs += row.diff_count
    print("rows=%d dimension-diffs=%d" % (len(results), diffs))
    return min(diffs, 255)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilrep",
        description="Faithful representations of nilpotent Lie algebras, computed exactly.",
    )
    parser.add_argument("--version", action="version",
                        version="nilrep %s (scalars: %s)" % (__version__, BACKEND))
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="run one algorithm on an algebra")
    p_compute.add_argument("--alg", required=True, choices=list(ALGORITHMS))
    p_compute.add_argument("--in", dest="input", required=True,
                           help="algebra file, or catalog:heisenberg | catalog:utri:N | "
                                "catalog:freenilp:N,C | catalog:filiform:N")
    p_compute.add_argument("--field", default=None,
                           help="field for catalog inputs: 'q' (default) or a prime p")
    p_compute.add_argument("--seed", type=int, default=0, help="random seed (affine)")
    p_compute.add_argument("--retries", type=int, default=10, help="restart budget (affine)")
    p_compute.add_argument("--out", default=None, help="write the representation to this file")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="verify a stored representation against its algebra")
    p_verify.add_argument("--algebra", required=True)
    p_verify.add_argument("--rep", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_tables = sub.add_parser("tables", help="reproduce a benchmark table and compare dimensions")
    p_tables.add_argument("--which", type=int, required=True, choices=[1, 2, 3])
    p_tables.add_argument("--rows", default=None, help="comma-separated row indices to run")
    p_tables.add_argument("--skip-affine", action="store_true")
    p_tables.add_argument("--seed", type=int, default=0)
    p_tables.add_argument("--retries", type=int, default=10)
    p_tables.add_argument("--affine-timeout", type=float, default=300.0,
                          help="per-row wall clock budget for Affine, in seconds")
    p_tables.set_defaults(func=cmd_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, NotNilpotentError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
