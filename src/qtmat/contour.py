"""Matrix functions through the resolvent integral on a closed contour.

The integral (1/2*pi*i) of f(z) (zI - A)^{-1} along a contour enclosing the
spectrum indicator is approximated with the trapezoidal rule on a node
family whose count doubles per level.  The nodes of one level are the even
nodes of the next, so each level halves the previous sum and adds only its
new odd nodes: every resolvent is computed once, used once and dropped.
"""

import cmath
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import (
    EnclosureError,
    NoConvergenceError,
    NonzeroWindingError,
    OnSpectrumError,
    SingularMatrixError,
    ZeroOnCircleError,
)
from .symbol import eval_at_unit_roots

log = logging.getLogger(__name__)

_TWO_PI_I = 2j * math.pi

# Mirror nodes share one resolvent when f there matches conj f within this
# many ulps (the mirror node itself is off the exact conjugate by a few).
_CONJ_ULPS = 16
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class ContourSpec:
    """Closed integration contour with a differentiable parametrization."""

    gamma: Callable[[float], complex]
    dgamma: Callable[[float], complex]
    interval: tuple
    kind: str = "custom"
    center: Optional[complex] = None
    radius: Optional[float] = None

    @classmethod
    def circle(cls, center, radius):
        if radius <= 0:
            raise ValueError("radius must be positive")
        center = complex(center)

        def gamma(x):
            return center + radius * cmath.exp(1j * x)

        def dgamma(x):
            return radius * 1j * cmath.exp(1j * x)

        return cls(gamma=gamma, dgamma=dgamma, interval=(0.0, 2 * math.pi),
                   kind="circle", center=center, radius=radius)

    @classmethod
    def custom(cls, gamma, dgamma, interval):
        a, b = interval
        if not b > a:
            raise ValueError("interval must have positive length")
        if abs(gamma(a) - gamma(b)) > 1e-9 * max(1.0, abs(gamma(a))):
            raise ValueError("contour must be closed: gamma(a) == gamma(b)")
        return cls(gamma=gamma, dgamma=dgamma, interval=(float(a), float(b)))

    def contains(self, points):
        """Whether each point lies inside the contour."""
        points = np.atleast_1d(np.asarray(points, dtype=np.complex128))
        if self.kind == "circle":
            return np.abs(points - self.center) < self.radius
        # Polygonal winding of a dense sample of the curve around each point.
        a, b = self.interval
        xs = np.linspace(a, b, 1024)
        curve = np.array([self.gamma(x) for x in xs])
        out = np.empty(points.shape, dtype=bool)
        for i, pt in enumerate(points.ravel()):
            rel = curve - pt
            angles = np.angle(rel[1:] / rel[:-1])
            out.ravel()[i] = abs(np.sum(angles)) > math.pi
        return out


@dataclass(frozen=True)
class QuadratureLevel:
    """Trapezoidal nodes and weights of one doubling level."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray


def nodes_weights(contour, n):
    """Level-n trapezoidal family: 2^n + 1 equispaced nodes.

    The two endpoint weights are (b - a) / 2^(n+1); interior weights are
    (b - a) / 2^n.  Nodes are computed as a + (k * (b - a)) / 2^n so level-n
    nodes coincide bitwise with the even-index nodes of level n + 1.
    """
    if n < 1:
        raise ValueError("level must be at least 1")
    a, b = contour.interval
    count = (1 << n) + 1
    k = np.arange(count)
    nodes = a + (k * (b - a)) / (1 << n)
    weights = np.full(count, (b - a) / (1 << n))
    weights[0] = weights[-1] = (b - a) / (1 << (n + 1))
    return QuadratureLevel(n=n, nodes=nodes, weights=weights)


def resolvent(matrix, z, cfg=DEFAULT_CONFIG):
    """(zI - A)^{-1} in the algebra.

    Inversion failures (vanishing or winding symbol, singular sections) are
    reported as OnSpectrumError carrying the offending point.
    """
    shifted = matrix.identity_like().scale(z).add(matrix.scale(-1.0), cfg)
    try:
        return shifted.inv(cfg)
    except (ZeroOnCircleError, NonzeroWindingError, SingularMatrixError,
            NoConvergenceError) as exc:
        raise OnSpectrumError(z, f"resolvent failed at z={z}: {exc}") from exc


def _check_enclosure(symbol, contour, cfg):
    """Certify (indirectly) that the symbol curve lies inside the contour.

    Samples the symbol on the unit circle and requires every sample inside;
    crossing curves additionally trip the per-node resolvent checks.
    """
    if symbol.is_zero:
        samples = np.zeros(1, dtype=np.complex128)
    else:
        n = max(cfg.annulus_samples, 4 * symbol.support_len)
        samples = eval_at_unit_roots(symbol, 1 << (n - 1).bit_length())
    inside = contour.contains(samples)
    if not bool(np.all(inside)):
        raise EnclosureError(
            "sampled symbol curve leaves the integration contour")


def funm_contour(matrix, f, contour, cfg=DEFAULT_CONFIG, with_info=False):
    """f(A) through trapezoidal quadrature of the resolvent integral.

    Doubles the node count per level, T_n = T_{n-1} / 2 + h_n * (sum over
    the new odd nodes), until the algebra norm of T_n - T_{n-1} drops below
    the stopping tolerance.  A resolvent failure on a circular contour
    triggers one automatic retry with the radius inflated by 10 percent.

    Conjugate nodes share one resolvent.  Node k and its mirror 2^n - k are
    summed as 2 Re(c_k R(z_k)), and a node that is its own mirror (k = 0 or
    2^(n-1)) as Re(c_k R(z_k)), when all of these hold:

    - the contour is a circle whose centre has zero imaginary part;
    - the matrix is real (``matrix.is_real``);
    - f at the mirror node equals conj(f(z_k)) to within a few ulps; f is
      evaluated at every node, so a mirror is never assumed.

    Then R(conj z) = conj R(z), and the real part is formed exactly before
    the one compressed add of the node.  Any node that fails a test gets its
    own resolvent.

    With ``with_info`` the result comes with a dict: ``levels``, ``nodes``
    (2^levels), ``resolvents`` (the resolvents computed by the run that
    produced the result; 2^(levels-1) + 1 when every pair shares one, and
    2^levels when none does) and ``level_diffs``.

    Parameters
    ----------
    f : callable
        Scalar analytic function, evaluated at contour points.

    Raises
    ------
    EnclosureError     sampled symbol curve not inside the contour
    OnSpectrumError    resolvent failure (after the inflation retry)
    NoConvergenceError level cap reached
    """
    try:
        _check_enclosure(matrix.symbol, contour, cfg)
        return _iterate_levels(matrix, f, contour, cfg, with_info)
    except (OnSpectrumError, EnclosureError):
        if contour.kind != "circle":
            raise
        inflated = ContourSpec.circle(contour.center, contour.radius * 1.1)
        log.warning(
            "contour run failed near the spectrum; retrying once with "
            "radius inflated to %.6g", inflated.radius)
        _check_enclosure(matrix.symbol, inflated, cfg)
        return _iterate_levels(matrix, f, inflated, cfg, with_info)


def _iterate_levels(matrix, f, contour, cfg, with_info):
    a, b = contour.interval
    length = b - a
    # R(conj z) = conj R(z) for a real matrix, and a circle with a real
    # centre maps node k to the conjugate of node 2^n - k.
    mirrored = (contour.kind == "circle" and contour.center.imag == 0
                and matrix.is_real)
    resolvents = 0
    prev = None
    diffs = []
    for n in range(1, cfg.max_levels + 1):
        count = 1 << n
        h = length / count
        # Merged-endpoint trapezoidal sum: gamma(a) == gamma(b), so the
        # closed-curve sum uses 2^n nodes of equal weight.  The even nodes
        # are those of level n - 1, already summed in prev with twice the
        # weight, so only the odd nodes are new.
        ks = range(2) if n == 1 else range(1, count, 2)
        xs = {k: a + (k * length) / count for k in ks}
        zs = {k: contour.gamma(x) for k, x in xs.items()}
        fs = {k: f(z) for k, z in zs.items()}
        acc = matrix.zero_like() if prev is None else prev.scale(0.5)
        for k in ks:
            j = (count - k) % count
            paired = mirrored and _conjugate(fs[j], fs[k])
            if paired and j < k:
                continue  # summed with its mirror j
            coef = h * contour.dgamma(xs[k]) * fs[k] / _TWO_PI_I
            if paired and j != k:
                coef *= 2.0
            term = resolvent(matrix, zs[k], cfg).scale(coef)
            resolvents += 1
            acc = acc.add(term.real_part() if paired else term, cfg)
        if prev is not None:
            delta = acc.add(prev.scale(-1.0), cfg).norm_cqt()
            diffs.append(delta)
            if delta <= cfg.tol_stop:
                if with_info:
                    return acc, {"levels": n, "nodes": count,
                                 "resolvents": resolvents,
                                 "level_diffs": diffs}
                return acc
        prev = acc
    raise NoConvergenceError(
        f"contour quadrature did not converge within {cfg.max_levels} "
        f"levels; last differences {diffs[-3:]}")


def _conjugate(fj, fk):
    """Whether fj equals conj(fk) to within a few ulps of their size."""
    scale = max(abs(fj), abs(fk))
    return abs(fj - np.conj(fk)) <= _CONJ_ULPS * _EPS * scale
