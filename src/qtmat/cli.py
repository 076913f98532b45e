"""Command line interface: matrix functions of a stored matrix.

Exit codes: 0 success, 2 precondition violation, 3 no convergence
(also an inverse that misses the tolerance), 64 usage or input-format
error.
"""

import argparse
import json
import os
import sys
import time

import numpy as np
import scipy.linalg

from .config import DEFAULT_CONFIG
from .contour import ContourSpec, funm_contour
from .cqt import CqtMatrix, finite_section
from .errors import (
    MalformedFileError,
    NoConvergenceError,
    PreconditionError,
)
from .fileio import read_file, write_file
from .finite import fqt_to_dense
from .series import SeriesSpec, funm_laurent, funm_taylor

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _report(case, result, elapsed, error):
    """The header and the one row that ``funm`` prints, columns aligned."""
    corr = result.corrections[0]
    table = [("case", "time", "band", "rows", "columns", "rank", "error"),
             (case, f"{elapsed:.3f}", str(result.symbol.support_len),
              str(corr.p), str(corr.q), str(corr.rank),
              "-" if error is None else f"{error:.3e}")]
    widths = [max(len(a), len(b)) for a, b in zip(*table)]
    return "\n".join("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)).rstrip()
                     for row in table)


def _build_config(args):
    cfg = DEFAULT_CONFIG
    updates = {}
    if getattr(args, "tol", None) is not None:
        updates["tol_stop"] = args.tol
    if getattr(args, "max_terms", None) is not None:
        updates["max_terms"] = args.max_terms
    if getattr(args, "max_levels", None) is not None:
        updates["max_levels"] = args.max_levels
    return cfg.updated(**updates) if updates else cfg


def _load_coeff_file(path):
    """Laurent polynomial coefficients, one `index re im` triple per line.

    Optional first line `radius <rho>` or `annulus <r> <R>` overrides the
    analyticity region; without it the series is treated as an exact
    (Laurent) polynomial.
    """
    cmap = {}
    radius = None
    annulus = None
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if fields[0] == "radius" and len(fields) == 2:
                radius = float(fields[1])
                continue
            if fields[0] == "annulus" and len(fields) == 3:
                annulus = (float(fields[1]), float(fields[2]))
                continue
            if len(fields) != 3:
                raise UsageError(
                    f"{path}:{ln}: expected 'index re im'")
            cmap[int(fields[0])] = complex(float(fields[1]),
                                           float(fields[2]))
    if not cmap:
        raise UsageError(f"{path}: no coefficients found")
    spec = SeriesSpec.laurent_polynomial(cmap)
    if annulus is not None:
        spec = SeriesSpec.laurent(spec.coeff, annulus[0], annulus[1],
                                  scalar=spec.scalar, name="coeff-file")
    elif radius is not None:
        if any(k < 0 for k in cmap):
            raise UsageError(f"{path}: radius given but negative "
                             f"indices present; use annulus")
        spec = SeriesSpec(coeff=spec.coeff, radius=radius,
                          scalar=spec.scalar, name="coeff-file")
    return spec


def _series_spec(func):
    if func == "exp":
        return SeriesSpec.exp()
    if func == "log1p":
        return SeriesSpec.log1p()
    if func == "sqrt1p":
        return SeriesSpec.sqrt1p()
    if func.startswith("coeff-file:"):
        return _load_coeff_file(func.split(":", 1)[1])
    raise UsageError(f"unknown function {func!r}")


def _dense_oracle(matrix, func, result):
    """Residual of the result against a dense matrix-function oracle."""
    if isinstance(matrix, CqtMatrix):
        n_ref, n_cmp = 600, 80
        dense = finite_section(matrix, n_ref)
        got = finite_section(result, n_cmp)
    else:
        n_ref = n_cmp = matrix.m
        dense = fqt_to_dense(matrix)
        got = fqt_to_dense(result)
    if func == "exp":
        ref = scipy.linalg.expm(dense)
    elif func == "log1p":
        ref = scipy.linalg.logm(np.eye(n_ref) + dense)
    elif func == "sqrt1p":
        ref = scipy.linalg.sqrtm(np.eye(n_ref) + dense)
    else:
        spec = _series_spec(func)
        vals, vecs = np.linalg.eig(dense)
        ref = vecs @ np.diag(spec.scalar(vals)) @ np.linalg.inv(vecs)
    return float(np.abs(got - ref[:n_cmp, :n_cmp]).max())


def cmd_funm(args):
    cfg = _build_config(args)
    matrix = read_file(args.input)
    center = complex(*(float(p) for p in args.contour_center.split(",")))
    contour = ContourSpec.circle(center, args.contour_radius)
    start = time.perf_counter()
    if args.method == "series":
        out = funm_taylor(matrix, _series_spec(args.func), cfg, args.info)
    elif args.method == "laurent":
        spec = _series_spec(args.func)
        if spec.annulus is None:
            raise UsageError(
                "method laurent requires a Laurent coefficient file")
        out = funm_laurent(matrix, spec, cfg, args.info)
    else:
        out = funm_contour(matrix, _series_spec(args.func).scalar, contour,
                           cfg, args.info)
    elapsed = time.perf_counter() - start
    if args.info:
        result, info = out
        print(json.dumps(info), file=sys.stderr)
    else:
        result = out
    write_file(args.output, result)
    error = None
    if args.oracle == "dense":
        error = _dense_oracle(matrix, args.func, result)
    print(_report(os.path.basename(args.output), result, elapsed, error))
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="qtmat",
                     description="Quasi-Toeplitz matrix functions")
    sub = parser.add_subparsers(dest="command", required=True)

    funm = sub.add_parser("funm", help="compute f(A) for a matrix file")
    funm.add_argument("--func", required=True,
                      help="exp | log1p | sqrt1p | coeff-file:<path>")
    funm.add_argument("--method", required=True,
                      choices=("series", "laurent", "contour"))
    funm.add_argument("--input", required=True)
    funm.add_argument("--output", required=True)
    funm.add_argument("--tol", type=float, default=None)
    funm.add_argument("--contour-center", default="1.5,0")
    funm.add_argument("--contour-radius", type=float, default=1.0)
    funm.add_argument("--max-terms", type=int, default=None)
    funm.add_argument("--max-levels", type=int, default=None)
    funm.add_argument("--oracle", choices=("none", "dense"), default="none")
    funm.add_argument("--info", action="store_true",
                      help="write the engine's run record as one JSON line "
                           "on stderr")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return cmd_funm(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NoConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
