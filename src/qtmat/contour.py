"""Matrix functions through the resolvent integral on a closed contour.

The integral (1/2*pi*i) of f(z) (zI - A)^{-1} along a contour enclosing the
spectrum indicator is approximated with the trapezoidal rule on a node
family whose count doubles per level.  The nodes of one level are the even
nodes of the next, so each level halves the previous sum and adds only its
new odd nodes, and no run inverts a node twice.

On an analytic periodic integrand the rule converges geometrically
(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56(3), 2014).  The level difference d_n = ||T_n - T_{n-1}||
measures the error of T_{n-1}, so the loop also stops when the predicted
error of T_n, d_n^2 / d_{n-1}, is below the stopping tolerance, once two
falling ratios show the decay has set in; otherwise convergence would be
seen one level, and as many new nodes as all earlier levels, late.

One level loop feeds one of two running-sum forms, chosen by the matrix's
size alone:

- dense, for a finite matrix whose node inverses ``fqt_inv`` would solve in
  every column (``finite.solves_every_column``: m <= 256 for a band
  narrower than 64).  Each node inverse is one ``?gbsv`` solve on the band of
  -A, built once per run, and the sum stays an exact dense array, split into
  band and corners once, after convergence.  When the band is centrosymmetric
  (J A J = A, J the anti-identity, as for I + H^10), so is every node inverse,
  and only its first ceil(m/2) columns are solved and summed;
- algebra, for semi-infinite and larger finite matrices.  Node resolvents
  are matrices of the algebra, summed by ``cqt.ExactSum``, the running sum
  the series engine shares: their symbol coefficients and each correction
  as a dense block grown to the largest node support, added exactly, with
  the symbol truncated and each block factored once, after convergence.

For a real matrix, conjugate nodes share one resolvent on any contour,
by a test on each level's nodes and coefficients.  What a node contributes
depends only on the matrix, the node and the tolerances, never on f, and
the matrix also decides the sum form.  So one module slot, keyed by the
matrix and the tolerances, keeps the node entries of the last run, a
resolvent in the algebra form and the certified inverse columns in the
dense form, up to a byte cap, and a later run on an equal matrix with the
same tolerances takes them from it, whatever its f.

Both forms sum exactly and split once, so the level differences carry no
compression noise and the predicted error is taken as it is.
"""

import cmath
import contextvars
import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_CONFIG, MIRROR_ULPS
from .cqt import ExactSum
from .errors import (
    CertificateError,
    EnclosureError,
    NoConvergenceError,
    NonzeroWindingError,
    OnSpectrumError,
    SingularMatrixError,
    ZeroOnCircleError,
)
from .finite import (
    BandMatrix,
    FiniteQtMatrix,
    fqt_from_dense,
    fqt_split_norm,
    mirrored_columns,
    solves_every_column,
)
from .symbol import LaurentSymbol, range_samples, sym_add, sym_truncate

_TWO_PI_I = 2j * math.pi

_EPS = np.finfo(np.float64).eps

# Bytes of node entries the slot keeps; past it they are used and dropped.
_SLOT_BYTES = 4 << 20


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
        """A closed curve gamma on ``interval``, run counterclockwise.

        Raises ValueError unless gamma(a) == gamma(b) and the signed
        (shoelace) area of the sampled curve is positive: on a clockwise
        curve the resolvent integral is -f(A).
        """
        a, b = interval
        if not b > a:
            raise ValueError("interval must have positive length")
        if abs(gamma(a) - gamma(b)) > 1e-9 * max(1.0, abs(gamma(a))):
            raise ValueError("contour must be closed: gamma(a) == gamma(b)")
        spec = cls(gamma=gamma, dgamma=dgamma, interval=(float(a), float(b)))
        curve = spec._samples()
        # Shoelace: twice the signed area is sum Im(conj(z_i) z_{i+1}).
        if not np.sum(np.conj(curve[:-1]) * curve[1:]).imag > 0:
            raise ValueError("contour must run counterclockwise")
        return spec

    def _samples(self):
        """gamma at 1024 equispaced points of the interval, both ends in."""
        a, b = self.interval
        return np.array([self.gamma(x) for x in np.linspace(a, b, 1024)])

    def contains(self, points):
        """Whether each point lies inside the contour."""
        points = np.atleast_1d(np.asarray(points, dtype=np.complex128))
        if self.kind == "circle":
            return np.abs(points - self.center) < self.radius
        # Polygonal winding of a dense sample of the curve around each point.
        curve = self._samples()
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

    zI - A is -A with z added to its symbol, so the corrections of A are
    negated, not recompressed.  The inverse's record goes to the list a
    ``funm_contour`` run collects, if any.  Inversion failures (vanishing
    or winding symbol, a singular capacitance matrix in ``cqt_inv`` or a
    singular band factorization in ``fqt_inv``, unresolved symbol factors)
    are reported as OnSpectrumError carrying the offending point.
    """
    negated = matrix.scale(-1.0)
    shifted = negated.with_symbol(sym_truncate(
        sym_add(LaurentSymbol.constant(z), negated.symbol), cfg.tol_trunc))
    try:
        inv, info = shifted.inv(cfg, with_info=True)
    except CertificateError:
        raise
    except (ZeroOnCircleError, NonzeroWindingError, SingularMatrixError,
            NoConvergenceError) as exc:
        raise OnSpectrumError(z, f"resolvent failed at z={z}: {exc}") from exc
    records = _inverse_records.get()
    if records is not None:
        records.append(info)
    return inv


# Inverse records of the nodes the current funm_contour run inverts.
_inverse_records = contextvars.ContextVar("inverse_records", default=None)


def _inverse_summary(records):
    """Counts per inverse path and per solved column count, worst residual.

    Inverses by Wiener-Hopf factors ("factored") solve no columns and
    count in the paths only.
    """
    paths, columns = {}, {}
    for rec in records:
        paths[rec["path"]] = paths.get(rec["path"], 0) + 1
        if "columns" in rec:
            columns[rec["columns"]] = columns.get(rec["columns"], 0) + 1
    worst = max((rec["residual"] for rec in records), default=None)
    return {"inverse_paths": paths, "inverse_columns": columns,
            "inverse_residual_max": worst}


def _stored_arrays(matrix):
    """The arrays a CqtMatrix or FiniteQtMatrix is stored in."""
    return [matrix.symbol.coeffs] + [x for c in matrix.corrections
                                     for x in (c.u, c.v)]


def _slot_key(matrix, cfg):
    """The matrix content and tolerances that fix every node resolvent.

    Built from values, not identity, so an equal matrix parsed afresh hits.
    """
    return (type(matrix), getattr(matrix, "m", None), matrix.symbol.min_deg,
            cfg) + tuple((x.shape, x.tobytes())
                         for x in _stored_arrays(matrix))


class _NodeResolvents:
    """Node entries of one slot key by exact node z, at most _SLOT_BYTES."""

    def __init__(self, key=None):
        self.key = key
        self.by_node = {}
        self.nbytes = 0
        self._lock = threading.Lock()

    def store(self, z, entry, size):
        with self._lock:
            if z not in self.by_node and self.nbytes + size <= _SLOT_BYTES:
                self.by_node[z] = entry
                self.nbytes += size


# The node entries of the last (matrix, cfg) pair.  A run binds the store
# it finds, or puts a new one in its place, once on entry, so runs on
# different matrices never read or write each other's entries.
_slot = _NodeResolvents()


def _check_enclosure(symbol, contour):
    """Certify (indirectly) that the symbol curve lies inside the contour.

    Samples the symbol on the unit circle and requires every sample inside;
    crossing curves additionally trip the per-node resolvent checks.
    """
    inside = contour.contains(range_samples(symbol))
    if not bool(np.all(inside)):
        raise EnclosureError(
            "sampled symbol curve leaves the integration contour")


def funm_contour(matrix, f, contour, cfg=DEFAULT_CONFIG, with_info=False):
    """f(A) through trapezoidal quadrature of the resolvent integral.

    Doubles the node count per level, T_n = T_{n-1} / 2 + h_n * (sum over
    the new odd nodes), until ``cfg.tol_stop`` bounds the level difference
    d_n, the algebra norm of T_n - T_{n-1}, or the predicted error of T_n.
    The prediction is d_n^2 / d_{n-1}, the geometric decay of the
    trapezoidal rule (Trefethen & Weideman, SIAM Review 56(3), 2014).  It
    counts only once two falling ratios,
    d_n / d_{n-1} <= d_{n-1} / d_{n-2} < 1, show that decay.  Both sum
    forms are exact until the result is split, so d_n carries no
    compression noise and the prediction is taken as it is.

    There is no retry: the caller's contour must enclose the spectrum of A
    and exclude the singularities of f, which the engine cannot see.  The
    enclosure is checked on sampled symbol values only, and a node that
    meets the spectrum raises OnSpectrumError.

    The sums take one of two forms, by the matrix's size (see the module
    docstring).  Both sum exactly and split once, after convergence, each
    correction budgeted ``cfg.tol_trunc`` times the summed node masses, sum
    over k of |c_k| times the mass of the node's resolvent, halved with the
    sum per level.  That is the scale the split of each node would spend.

    - In the algebra form each node adds its resolvent's symbol
      coefficients and the dense block of each correction into a
      ``cqt.ExactSum``.  The level difference is the exact ``norm_cqt`` of
      T_n - T_{n-1}: the Wiener norms of the symbol difference plus the
      entry sum of the correction differences.  The result truncates the
      symbol once with ``cfg.tol_trunc`` and factors each block once with
      ``Correction.from_dense``.  A node's mass is the Wiener norm of its
      symbol plus the entry mass of its corrections.
    - In the dense form, for a finite matrix with
      ``finite.solves_every_column``, each node's inverse is every column
      of one banded ``?gbsv`` solve of zI - A, certified on sampled columns
      as ``fqt_inv`` certifies (a singular factorization is an
      OnSpectrumError).  The sums are m x m arrays; the level difference is
      ``norm_cqt`` of their split with the corners summed entrywise
      (``finite.fqt_split_norm``), and the result is split by
      ``fqt_from_dense``.  A node's mass is the entry mass of its
      inverse.

    When A is mirrored (``BandMatrix.mirrored``: J A J = A up to rounding,
    its symbol and corners each within ``config.MIRROR_ULPS`` ulps of their
    own largest entry), every resolvent is centrosymmetric too, and the
    dense form solves and sums only its first h = ceil(m/2) columns: column
    j >= h is column m - 1 - j reversed.  The certificate reads its sampled
    columns past h from those mirrors and multiplies them by the band
    itself, so the symmetry is checked, not assumed.  The m x h sums are
    expanded to m x m for the level difference and the result.  If a half
    misses the certificate, the node's other columns are solved; when that
    full inverse certifies, the sums are expanded once and every later node
    is solved in full, and otherwise the run raises CertificateError.

    Conjugate nodes share one resolvent, on any contour.  With
    c_k = h gamma'(t_k) f(z_k) / (2 pi i) the coefficient of node k, node
    k and its mirror j = (2^n - k) mod 2^n are summed as 2 Re(c_k R(z_k)),
    and a node that is its own mirror (k = 0 or 2^(n-1)) as
    Re(c_k R(z_k)), when all of these hold:

    - the matrix is real (``matrix.is_real``);
    - z_j equals conj(z_k) to within ``config.MIRROR_ULPS`` ulps of the
      largest |z| of the level;
    - c_j equals conj(c_k) to within as many ulps of the largest |c| of
      the level.

    Every node and coefficient is evaluated, so a mirror is never assumed,
    whatever the kind of contour.  Then R(conj z) = conj R(z), and the real
    part is formed exactly before the node is added.  Its correction blocks (or
    dense entries) are real float64, so when every node pairs, the whole
    accumulation of the corrections (the adds, the halving of the previous
    level and the level difference) runs in real arithmetic.  Any node that
    fails a test gets its own resolvent.

    Calls on one matrix share what their nodes contribute, in both forms:
    the resolvent in the algebra form, and in the dense form the certified
    inverse columns with their entry mass.  A module slot keeps those of the
    last run, keyed by ``_slot_key(matrix, cfg)``, and a later call takes
    a node's entry from it, for any f, when all of these hold:

    - the matrix is of the same class and size, with a symbol and
      correction factors equal bit for bit (an equal matrix parsed afresh
      qualifies; identity does not matter);
    - ``cfg`` is equal in every field;
    - the node z is equal bit for bit, as on the same contour.

    The matrix decides the sum form and whether the dense sums start on half
    columns, so an equal key means the same form.  A stored entry is the array
    the same solve would return, added in the same order, so the result does
    not depend on what the slot holds.  The slot keeps at most 4 MiB of
    entries; past that they are used and dropped.  A dense entry of a mirrored
    band is m x ceil(m/2) complex values, 318 KB at m = 199, so the cap keeps
    the first 13 nodes there and every node of a small matrix.  A call on
    another matrix replaces the whole slot, and a run keeps the store it bound
    on entry, so concurrent calls on different matrices are safe and at worst
    miss.

    With ``with_info`` the result comes with a dict: ``levels``, ``nodes``
    (2^levels), ``resolvents`` (the distinct node resolvents the run that
    produced the result used; 2^(levels-1) + 1 when every pair shares one,
    and 2^levels when none does), ``reused`` (how many of those came from
    the slot rather than from a new inversion, in either form),
    ``level_diffs``, ``predicted_error`` (the guarded prediction at the
    last level, None when the decay guard did not hold there),
    ``stopped_on`` ("difference" or "prediction"), ``level_sum`` ("dense"
    or "algebra"), ``mirrored`` (whether the dense sums kept the half
    columns of a centrosymmetric band to the end; False in the algebra
    form), and, from the records of the inverses that run made,
    ``inverse_paths`` (a count per path: "banded" for a finite node
    inverse solved on its band, in the dense form or where ``fqt_inv``
    falls back to it, "factored" for a semi-infinite one or a larger
    finite one by Widom's formula, or "scalar"),
    ``inverse_columns`` (a count per number of inverse columns solved for
    a finite node: ceil(m/2) for a mirrored half, m for a full dense
    inverse) and
    ``inverse_residual_max`` (None when every node came from the slot).

    Parameters
    ----------
    f : callable
        Scalar analytic function, evaluated at contour points.

    Raises
    ------
    EnclosureError     sampled symbol curve not inside the contour, or a
                       node coefficient not finite (a pole of f on the
                       contour), raised at the first level that meets it
    OnSpectrumError    resolvent failure; its ``z`` is the node
    CertificateError   a node inverse misses ``cfg.tol_stop``
    NoConvergenceError level cap reached
    """
    _check_enclosure(matrix.symbol, contour)
    records = [] if with_info else None
    token = _inverse_records.set(records)
    try:
        dense = (isinstance(matrix, FiniteQtMatrix)
                 and solves_every_column(matrix))
        total = (_DenseSum if dense else _AlgebraSum)(matrix, cfg)
        result, info = _sum_levels(total, f, contour, cfg)
    finally:
        _inverse_records.reset(token)
    if with_info:
        info.update(_inverse_summary(records))
        return result, info
    return result


def _sum_levels(total, f, contour, cfg):
    """Trapezoidal levels of the integral, summed by ``total``.

    ``total`` is a running-sum form, ``_AlgebraSum`` or ``_DenseSum``: it
    starts each level from half the last one, adds the node terms exactly,
    measures the exact level difference and splits the converged sum once.
    """
    a, b = contour.interval
    length = b - a
    # R(conj z) = conj R(z) for a real matrix.
    real = total.matrix.is_real
    resolvents = 0
    diffs = []
    for n in range(1, cfg.max_levels + 1):
        count = 1 << n
        h = length / count
        # Merged-endpoint trapezoidal sum: gamma(a) == gamma(b), so the
        # closed-curve sum uses 2^n nodes of equal weight.  The even nodes
        # are those of level n - 1, already summed with twice the weight, so
        # only the odd nodes are new.
        ks = range(2) if n == 1 else range(1, count, 2)
        nodes = nodes_weights(contour, n).nodes
        zs = {k: contour.gamma(nodes[k]) for k in ks}
        cs = {k: h * contour.dgamma(nodes[k]) * f(z) / _TWO_PI_I
              for k, z in zs.items()}
        for k in ks:
            if not np.isfinite(cs[k]):
                raise EnclosureError(f"f is not finite at the node z={zs[k]}")
        paired = _conjugate_nodes(zs, cs, count) if real else ()
        total.next_level()
        for k in ks:
            j = (count - k) % count
            pair = k in paired
            if pair and j < k:
                continue  # summed with its mirror j
            total.add(zs[k], cs[k] * 2.0 if pair and j != k else cs[k], pair)
            resolvents += 1
        if n > 1:
            diffs.append(total.difference())
            predicted = _predicted_error(diffs)
            if diffs[-1] <= cfg.tol_stop:
                stopped_on = "difference"
            elif predicted is not None and predicted <= cfg.tol_stop:
                stopped_on = "prediction"
            else:
                continue
            return total.result(), {
                "levels": n, "nodes": count, "resolvents": resolvents,
                "reused": total.reused, "level_diffs": diffs,
                "predicted_error": predicted, "stopped_on": stopped_on,
                "level_sum": total.kind, "mirrored": total.mirrored}
    raise NoConvergenceError(
        f"contour quadrature did not converge within {cfg.max_levels} "
        f"levels; last differences {diffs[-3:]}")


def _predicted_error(diffs):
    """Geometric prediction d_n^2 / d_{n-1} of the error of the last sum.

    d_n = ||T_n - T_{n-1}|| measures the error of T_{n-1}; on a geometric
    decay the error of T_n is about d_n times the ratio d_n / d_{n-1}.  The
    prediction counts only after two falling ratios,
    d_n / d_{n-1} <= d_{n-1} / d_{n-2} < 1, so a pre-asymptotic dip cannot
    end a run.  None when the decay guard does not hold.
    """
    if len(diffs) < 3:
        return None
    d2, d1, d0 = diffs[-3:]
    if not d0 / d1 <= d1 / d2 < 1.0:
        return None
    return d0 * d0 / d1


class _SlotSum:
    """A running-sum form whose node entries pass through the slot.

    On entry it binds the store of ``_slot_key(matrix, cfg)``, or puts a
    new store in the slot's place; the matrix decides the form, so every
    entry on one key is of this form.  ``node`` takes a node's entry from
    that store, or solves it (``solve``) and stores it, up to the byte cap;
    ``reused`` counts the entries it took.
    """

    def __init__(self, matrix, cfg):
        global _slot
        key = _slot_key(matrix, cfg)
        store = _slot
        if store.key != key:
            store = _slot = _NodeResolvents(key)
        self.store, self.matrix, self.cfg = store, matrix, cfg
        self.reused = 0

    def node(self, z):
        entry = self.store.by_node.get(z)
        if entry is not None:
            self.reused += 1
            return entry
        entry, size = self.solve(z)
        self.store.store(z, entry, size)
        return entry


class _AlgebraSum(_SlotSum):
    """Level sums of node resolvents of the algebra.

    Each level's sum is a ``cqt.ExactSum``: node terms add exactly, and the
    result is truncated and factored once (see ``funm_contour``).  A node's
    entry is its resolvent.
    """

    kind = "algebra"
    mirrored = False

    def __init__(self, matrix, cfg):
        super().__init__(matrix, cfg)
        self.sum = ExactSum(matrix)
        self.prev = None

    def next_level(self):
        self.prev, self.sum = self.sum, self.sum.halved()

    def solve(self, z):
        r = resolvent(self.matrix, z, self.cfg)
        return r, sum(x.nbytes for x in _stored_arrays(r))

    def add(self, z, coef, paired):
        self.sum.add(self.node(z), coef, real=paired)

    def difference(self):
        return self.sum.distance(self.prev)

    def result(self):
        return self.sum.result(self.cfg.tol_trunc)


class _DenseSum(_SlotSum):
    """Level sums of a small finite matrix as dense arrays.

    Node inverses are columns of (zI - A)^{-1}, solved on the band of -A
    built once (``finite.BandMatrix``) and certified as ``fqt_inv``
    certifies; they are summed exactly, and the result is split into band
    and corners once, budgeted against the summed node masses.  A node's
    entry is its column block and the entry mass of the inverse it stands
    for.  On a mirrored band the sums keep the first ceil(m/2) columns
    only, until a node's half misses its certificate (see
    ``funm_contour``).  A stored half block read after the sums have gone
    full enters them expanded, as they were.
    """

    kind = "dense"

    def __init__(self, matrix, cfg):
        super().__init__(matrix, cfg)
        self.band = BandMatrix(matrix.scale(-1.0))
        self.mirrored = self.band.mirrored
        m = matrix.m
        # Column-major, as ?gbsv returns the node inverses.
        self.acc = np.zeros((m, (m + 1) // 2 if self.mirrored else m),
                            order="F")
        self.mass = 0.0

    def next_level(self):
        self.prev, self.acc = self.acc, 0.5 * self.acc
        self.mass *= 0.5

    def solve(self, z):
        try:
            x, worst = self.band.shifted_inverse(z, self.cfg,
                                                 half=self.mirrored)
        except SingularMatrixError as exc:
            raise OnSpectrumError(
                z, f"resolvent failed at z={z}: {exc}") from exc
        records = _inverse_records.get()
        if records is not None:
            records.append({"path": "banded", "columns": x.shape[1],
                            "residual": worst})
        m = self.matrix.m
        mass = float(np.abs(x).sum())
        if x.shape[1] < m:
            # The half stands for both halves, which share a middle column
            # when m is odd.
            middle = np.abs(x[:, -1]).sum() if m % 2 else 0.0
            mass = 2.0 * mass - float(middle)
        return (x, mass), x.nbytes

    def add(self, z, coef, paired):
        x, mass = self.node(z)
        if x.shape[1] != self.acc.shape[1]:
            # A full inverse ends the half sums for the rest of the run.
            x, self.acc, self.prev = map(mirrored_columns,
                                         (x, self.acc, self.prev))
            self.mirrored = False
        term = coef * x
        self.acc = self.acc + (term.real if paired else term)
        self.mass += abs(coef) * mass

    def difference(self):
        return fqt_split_norm(mirrored_columns(self.acc - self.prev),
                             self.cfg)

    def result(self):
        return fqt_from_dense(mirrored_columns(self.acc), self.cfg,
                              mass=self.mass)


def _conjugate_nodes(zs, cs, count):
    """Nodes k whose mirror j = (count - k) % count has conj z_k and conj c_k.

    Each to within MIRROR_ULPS ulps of the level's largest |z| or |c|: a
    scale per pair would refuse a node at the origin, whose rounding is
    large against its size.  A node and its mirror pass together.
    """
    z_tol = MIRROR_ULPS * _EPS * max(abs(z) for z in zs.values())
    c_tol = MIRROR_ULPS * _EPS * max(abs(c) for c in cs.values())
    return {k for k in zs
            if abs(zs[(count - k) % count] - np.conj(zs[k])) <= z_tol
            and abs(cs[(count - k) % count] - np.conj(cs[k])) <= c_tol}
