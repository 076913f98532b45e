"""Truncation and stopping tolerances shared by all algebra operations."""

from dataclasses import dataclass, replace

# Two values are mirror images (f at conjugate contour nodes, a symbol and
# its reverse, the two corners of a finite matrix, the two ends of a symbol
# under truncation) when they differ by at most this many ulps of the
# larger or largest one: rounding in the evaluation or summation order
# keeps true mirrors off by a few.
MIRROR_ULPS = 16

# Compression keeps no singular value at or below this many ulps of the
# largest one (``correction._truncated_rank``): the SVD's own backward error
# is a small multiple of eps times the largest value, so smaller values are
# rounding noise the factorization cannot resolve (Golub and Van Loan,
# "Matrix Computations", 4th ed., section 8.6).
ROUNDING_ULPS = 8


@dataclass(frozen=True)
class ToleranceConfig:
    """Knobs controlling truncation, compression and iteration stopping.

    tol_trunc         relative mass any truncation may drop: symbol
                      tails, the grid and the factors of a symbol inverse,
                      and the compression of corrections; compression also
                      drops the singular values within ROUNDING_ULPS ulps
                      of the largest, so below ROUNDING_ULPS * eps (about
                      1.8e-15) that floor, not tol_trunc, governs the kept
                      ranks of corrections of norm 1 or more
    tol_stop          two meanings: the stopping rule of the engines (the
                      contour engine stops when it bounds the level
                      difference or the predicted trapezoidal error, see
                      ``contour.funm_contour``), and the bound on the
                      identity residual that certifies an inverse
                      (``cqt_inv``, ``fqt_inv``)
    max_terms         cap on the number of series terms, per side of a
                      Laurent series
    max_levels        cap on node-doubling levels of the contour engine
    """

    tol_trunc: float = 1e-14
    tol_stop: float = 1e-12
    max_terms: int = 512
    max_levels: int = 12

    def __post_init__(self):
        for name in ("tol_trunc", "tol_stop"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_terms", "max_levels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    def updated(self, **kwargs):
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = ToleranceConfig()
