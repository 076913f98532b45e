"""Contour engine: quadrature family, resolvents, doubling convergence."""

import cmath
import logging
import math
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from qtmat import (
    CertificateError,
    ContourSpec,
    Correction,
    CqtMatrix,
    DEFAULT_CONFIG,
    EnclosureError,
    FiniteQtMatrix,
    LaurentSymbol,
    SeriesSpec,
    cqt_inv,
    finite_section,
    fqt_mul,
    fqt_to_dense,
    funm_contour,
    funm_taylor,
    nodes_weights,
    parse,
    resolvent,
    serialize,
)
from qtmat.finite import BandMatrix, solves_every_column
from qtmat.symbol import winding_number
import qtmat.contour
from qtmat.oracles import _laplacian_power, laplacian_symbol_coeffs

from tests.support import (
    centrosymmetric_fqt,
    dense_cqt_oracle,
    dense_fqt_oracle,
)


def unit_circle_contour():
    return ContourSpec.circle(0.0, 1.0)


def test_nodes_weights_level_one():
    lvl = nodes_weights(ContourSpec.circle(0.0, 1.0), 1)
    assert np.allclose(lvl.nodes, [0.0, math.pi, 2 * math.pi])
    assert np.allclose(lvl.weights, [math.pi / 2, math.pi, math.pi / 2])


def test_nodes_subset_at_odd_indices():
    c = ContourSpec.circle(0.0, 1.0)
    for n in (1, 2, 3, 5):
        coarse = nodes_weights(c, n)
        fine = nodes_weights(c, n + 1)
        assert np.array_equal(coarse.nodes, fine.nodes[::2])


def test_weights_sum_to_interval_length():
    c = ContourSpec.circle(0.0, 1.0)
    lvl = nodes_weights(c, 3)
    assert lvl.nodes.size == 9
    assert np.sum(lvl.weights) == pytest.approx(2 * math.pi, rel=1e-15)


def test_merged_endpoint_form_matches_weighted_sum():
    c = ContourSpec.circle(0.5, 2.0)

    def g(x):
        z = c.gamma(x)
        return z ** 3 - 2.0 * z + 1.0 / (z - 4.0)

    for n in (2, 4, 6):
        lvl = nodes_weights(c, n)
        weighted = sum(w * g(x) for x, w in zip(lvl.nodes, lvl.weights))
        h = 2 * math.pi / 2 ** n
        merged = h * sum(g(lvl.nodes[k]) for k in range(2 ** n))
        assert abs(weighted - merged) <= 1e-15 * max(1.0, abs(weighted))


def test_resolvent_of_zero_matrix():
    r = resolvent(CqtMatrix.zero(), 2.0)
    assert np.abs(finite_section(r, 5) - 0.5 * np.eye(5)).max() < 1e-13


def test_resolvent_of_scalar():
    r = resolvent(CqtMatrix(LaurentSymbol.constant(0.5)), 1.5)
    assert np.abs(finite_section(r, 5) - np.eye(5)).max() < 1e-13


def test_resolvent_vs_dense_section():
    a = CqtMatrix(LaurentSymbol([0.3, 0.0, 0.3], -1))
    z = 2.0 + 0.5j
    r = resolvent(a, z)
    big = 300
    dense = np.linalg.inv(z * np.eye(big) - dense_cqt_oracle(a, big))
    assert np.abs(finite_section(r, 40) - dense[:40, :40]).max() < 1e-10


def test_funm_contour_constant_function_gives_identity():
    a = CqtMatrix(LaurentSymbol([0.2, 0.0, 0.2], -1))
    got = funm_contour(a, lambda z: np.ones_like(z),
                       ContourSpec.circle(0.0, 1.0))
    assert np.abs(finite_section(got, 20) - np.eye(20)).max() \
        <= 10 * DEFAULT_CONFIG.tol_stop


def test_funm_contour_identity_function_recovers_matrix():
    a = CqtMatrix(LaurentSymbol.constant(0.5))
    got = funm_contour(a, lambda z: z, ContourSpec.circle(0.5, 0.4))
    assert np.abs(finite_section(got, 10)
                  - 0.5 * np.eye(10)).max() <= 10 * DEFAULT_CONFIG.tol_stop


def test_funm_contour_agrees_with_series_engine():
    a = CqtMatrix(LaurentSymbol([0.25, 0.1, 0.2], -1))
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-10)
    via_series = funm_taylor(a, SeriesSpec.exp(), cfg)
    via_contour = funm_contour(a, np.exp, ContourSpec.circle(0.0, 1.5), cfg)
    n = 40
    assert np.abs(finite_section(via_series, n)
                  - finite_section(via_contour, n)).max() < 1e-8


def test_funm_contour_finite_sqrt_squares_back():
    m = 80
    h = FiniteQtMatrix(m, LaurentSymbol(laplacian_symbol_coeffs(m), -1))
    a = fqt_mul(h, h).add(FiniteQtMatrix.identity(m))  # I + H^2
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-9)
    s, info = funm_contour(a, np.sqrt, ContourSpec.circle(1.5, 1.0), cfg,
                           with_info=True)
    sq = fqt_mul(s, s, cfg)
    assert np.abs(fqt_to_dense(sq) - dense_fqt_oracle(a)).max() < 1e-7
    assert info["levels"] >= 3


def test_funm_contour_cauchy_decay():
    m = 60
    h = FiniteQtMatrix(m, LaurentSymbol(laplacian_symbol_coeffs(m), -1))
    a = fqt_mul(h, h).add(FiniteQtMatrix.identity(m))
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-10)
    _, info = funm_contour(a, np.log, ContourSpec.circle(1.5, 1.0), cfg,
                           with_info=True)
    diffs = info["level_diffs"][-3:]
    assert len(diffs) == 3
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[1] <= 0.75 * diffs[0]
    assert diffs[2] <= 0.75 * diffs[1]


def _finite_i_plus_h2(m, symbol=None):
    h = FiniteQtMatrix(m, LaurentSymbol(laplacian_symbol_coeffs(m), -1))
    a = fqt_mul(h, h).add(FiniteQtMatrix.identity(m))
    if symbol is not None:
        a = a.add(FiniteQtMatrix(m, symbol))
    return a


# Past 2 * 128 fqt_inv takes the node inverses from two semi-infinite ones
# (Widom's formula), so the level sums stay in the algebra and node
# resolvents go through the slot.
_ALGEBRA_M = 257


def _finite_on_the_algebra_path(symbol=None):
    a = _finite_i_plus_h2(_ALGEBRA_M, symbol)
    assert not solves_every_column(a)
    return a


def _dense_funm(a, f):
    w, v = np.linalg.eig(dense_fqt_oracle(a))
    return (v * f(w)) @ np.linalg.inv(v)


def test_real_input_pairs_conjugate_nodes_exactly():
    a = _finite_i_plus_h2(40)
    assert a.is_real
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-9)
    got, info = funm_contour(a, np.sqrt, ContourSpec.circle(1.5, 1.0), cfg,
                             with_info=True)
    assert info["resolvents"] == 2 ** (info["levels"] - 1) + 1
    stored = [got.symbol.coeffs, got.corr_tl.u, got.corr_tl.v,
              got.corr_br.u, got.corr_br.v]
    assert all(np.all(x.imag == 0) for x in stored)
    assert np.abs(fqt_to_dense(got) - _dense_funm(a, np.sqrt)).max() < 1e-8


@pytest.mark.parametrize("case", ["complex-symbol", "non-symmetric-f"])
def test_unpaired_inputs_fall_back_to_one_resolvent_per_node(case):
    if case == "complex-symbol":
        a = _finite_i_plus_h2(40, LaurentSymbol([0.1j, 0.05, -0.1j], -1))
        f = np.sqrt
    else:
        a = _finite_i_plus_h2(40)
        f = lambda z: 1j * z  # noqa: E731
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-9)
    got, info = funm_contour(a, f, ContourSpec.circle(1.5, 1.0), cfg,
                             with_info=True)
    assert info["resolvents"] == 2 ** info["levels"]
    assert np.abs(fqt_to_dense(got) - _dense_funm(a, f)).max() < 1e-8


# 1.5 + cos t + 0.8i sin t: symmetric about the real axis, not a circle.
_REAL_ELLIPSE = ContourSpec.custom(
    lambda x: 1.5 + math.cos(x) + 0.8j * math.sin(x),
    lambda x: -math.sin(x) + 0.8j * math.cos(x),
    (0.0, 2 * math.pi))

_SEMI_CORR = Correction([[0.1], [0.05]], [[0.2], [0.1]])


@pytest.mark.parametrize("kind", ["finite", "semi"])
def test_any_contour_symmetric_about_the_real_axis_pairs_its_nodes(kind):
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-10)
    if kind == "finite":
        a = centrosymmetric_fqt(60)
    else:
        a = CqtMatrix(LaurentSymbol([0.2, 1.5, 0.1], -1), _SEMI_CORR)
    got, info = funm_contour(a, np.sqrt, _REAL_ELLIPSE, cfg, with_info=True)
    assert info["resolvents"] == 2 ** (info["levels"] - 1) + 1
    assert all(x.dtype == np.float64 for x in _stored(got))
    if kind == "finite":
        want = scipy.linalg.sqrtm(dense_fqt_oracle(a))
        assert np.abs(fqt_to_dense(got) - want).max() < 1e-13
    else:
        n = 40
        assert np.abs(finite_section(got.mul(got, cfg), n)
                      - finite_section(a, n)).max() < 1e-13


def test_a_node_at_the_origin_pairs_with_itself():
    # circle(1, 1) puts node 2^(n-1) at 1 + exp(i pi), about 1.2e-16i: a
    # tolerance scaled by that node's own size would not pair it, and the
    # result would turn complex.
    a = CqtMatrix(LaurentSymbol([0.1, 1.0, 0.1], -1), _SEMI_CORR)
    got, info = funm_contour(a, np.exp, ContourSpec.circle(1.0, 1.0),
                             with_info=True)
    assert info["resolvents"] == 17
    assert all(x.dtype == np.float64 for x in _stored(got))


def test_a_pole_of_f_on_a_node_is_an_enclosure_error():
    # f(z) = 1 / (z - 2.5) is not finite at node 0 of circle(1.5, 1), z =
    # 2.5; the run stops at level 1 instead of summing nans to the cap.
    a = CqtMatrix(LaurentSymbol([0.1, 1.5, 0.1], -1), _SEMI_CORR)
    calls = []

    def pole(z):
        # Python's inf, so the quadrature weight multiplies it unwarned.
        calls.append(z)
        return math.inf if z == 2.5 else 1.0 / (z - 2.5)

    with pytest.raises(EnclosureError, match=r"node z=\(2\.5\+0j\)"):
        funm_contour(a, pole, ContourSpec.circle(1.5, 1.0))
    assert len(calls) == 2


def _recording(monkeypatch):
    points = []

    def recording(matrix, z, cfg=DEFAULT_CONFIG):
        points.append(z)
        return resolvent(matrix, z, cfg)

    monkeypatch.setattr(qtmat.contour, "resolvent", recording)
    return points


def test_no_node_resolvent_is_computed_twice(monkeypatch):
    points = _recording(monkeypatch)
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-9)
    for symbol in (None, LaurentSymbol([0.1j], 0)):
        points.clear()
        a = _finite_on_the_algebra_path(symbol)
        _, info = funm_contour(a, np.log, ContourSpec.circle(1.5, 1.0), cfg,
                               with_info=True)
        assert len(points) == info["resolvents"] - info["reused"]
        assert len(set(points)) == len(points)
        if symbol is None:  # paired: no mirror node is inverted either
            assert not any(p.imag < 0 for p in points)


def _semi_i_plus_t():
    """Real I + T(a) + E whose symbol curve lies inside circle(1.5, 1.0)."""
    corr = Correction([[0.1, 0.02], [0.05, -0.03], [0.01, 0.02]],
                      [[0.05, 0.01], [0.02, 0.04], [0.0, 0.01]])
    return CqtMatrix(LaurentSymbol([0.1, 0.2, 1.5, 0.2, 0.1], -2), corr)


def _stored(a):
    corrs = [a.corr] if isinstance(a, CqtMatrix) else [a.corr_tl, a.corr_br]
    return [a.symbol.coeffs] + [x for c in corrs for x in (c.u, c.v)]


def _bit_equal(a, b):
    return (type(a) is type(b) and a.symbol.min_deg == b.symbol.min_deg
            and all(x.shape == y.shape and np.array_equal(x, y)
                    for x, y in zip(_stored(a), _stored(b))))


def _empty_slot():
    qtmat.contour._slot = qtmat.contour._NodeResolvents()


_CIRCLE = ContourSpec.circle(1.5, 1.0)
_CFG = DEFAULT_CONFIG.updated(tol_stop=1e-9)


@pytest.mark.parametrize("kind", ["finite", "semi"])
def test_log_reuses_the_node_resolvents_of_sqrt(kind, monkeypatch):
    text = serialize(_finite_on_the_algebra_path() if kind == "finite"
                     else _semi_i_plus_t())
    points = _recording(monkeypatch)
    funm_contour(parse(text), np.sqrt, _CIRCLE, _CFG)
    sqrt_points = set(points)
    points.clear()
    got, info = funm_contour(parse(text), np.log, _CIRCLE, _CFG,
                             with_info=True)
    log_missed = set(points)

    _empty_slot()
    points.clear()
    want, want_info = funm_contour(parse(text), np.log, _CIRCLE, _CFG,
                                   with_info=True)
    log_points = set(points)
    assert want_info["reused"] == 0
    assert info["resolvents"] == want_info["resolvents"] == len(log_points)
    assert info["reused"] == len(log_points & sqrt_points) > 0
    assert log_missed == log_points - sqrt_points
    assert _bit_equal(got, want)


def test_a_repeat_semi_infinite_run_factors_only_its_result(monkeypatch):
    # Every node comes from the slot and is summed exactly, so the run
    # compresses nothing and factors its one correction once, at the end.
    a = _semi_i_plus_t()
    _empty_slot()
    want = funm_contour(a, np.log, _CIRCLE, _CFG)
    compressed, factored = [], []
    compress = qtmat.correction.corr_compress
    from_dense = Correction.from_dense.__func__

    def counting_compress(e, tol):
        compressed.append(e)
        return compress(e, tol)

    def counting_from_dense(cls, *args, **kwargs):
        factored.append(args[0].shape)
        return from_dense(cls, *args, **kwargs)

    for mod in (qtmat.correction, qtmat.cqt, qtmat.finite, qtmat.series):
        monkeypatch.setattr(mod, "corr_compress", counting_compress)
    monkeypatch.setattr(Correction, "from_dense",
                        classmethod(counting_from_dense))
    got, info = funm_contour(a, np.log, _CIRCLE, _CFG, with_info=True)
    assert info["reused"] == info["resolvents"] > 0
    assert compressed == [] and len(factored) == 1
    assert _bit_equal(got, want)


def test_other_tolerances_or_an_ulp_off_matrix_reuse_nothing():
    a = _finite_on_the_algebra_path()
    funm_contour(a, np.sqrt, _CIRCLE, _CFG)
    _, info = funm_contour(a, np.log, _CIRCLE, _CFG.updated(tol_trunc=2e-14),
                           with_info=True)
    assert info["reused"] == 0

    funm_contour(a, np.sqrt, _CIRCLE, _CFG)
    u = np.array(a.corr_tl.u)
    # One ulp up on the real part, in the factor's own dtype.
    u.real[0, 0] = np.nextafter(u.real[0, 0], np.inf)
    nudged = FiniteQtMatrix(a.m, a.symbol, Correction(u, a.corr_tl.v),
                            a.corr_br)
    _, info = funm_contour(nudged, np.log, _CIRCLE, _CFG, with_info=True)
    assert info["reused"] == 0
    _, info = funm_contour(nudged, np.sqrt, _CIRCLE, _CFG, with_info=True)
    assert info["reused"] == info["resolvents"]


def test_byte_cap_bounds_the_slot_and_leaves_results_unchanged(monkeypatch):
    a = _finite_on_the_algebra_path()
    want = [funm_contour(a, f, _CIRCLE, _CFG) for f in (np.sqrt, np.log)]
    _empty_slot()
    cap = 8 << 10
    monkeypatch.setattr(qtmat.contour, "_SLOT_BYTES", cap)
    got = []
    for f in (np.sqrt, np.log):
        r, info = funm_contour(a, f, _CIRCLE, _CFG, with_info=True)
        got.append(r)
    slot = qtmat.contour._slot
    stored = sum(x.nbytes for r in slot.by_node.values() for x in _stored(r))
    assert stored == slot.nbytes <= cap
    assert 0 < info["reused"] == len(slot.by_node) < info["resolvents"]
    assert all(_bit_equal(g, w) for g, w in zip(got, want))


def test_threads_alternating_matrices_get_the_serial_results():
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-6)
    mats = [parse(serialize(_finite_i_plus_h2(24))), _semi_i_plus_t()]
    fs = [np.sqrt, np.log]
    serial = {}
    for mi, a in enumerate(mats):
        for fi, f in enumerate(fs):
            _empty_slot()
            serial[mi, fi] = funm_contour(a, f, _CIRCLE, cfg)

    results, errors = [], []

    def worker(t):
        try:
            for i in range(10):
                mi, fi = (i + t) % 2, (i // 2) % 2
                got = funm_contour(mats[mi], fs[fi], _CIRCLE, cfg)
                results.append(((mi, fi), got))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(results) == 20
    assert all(_bit_equal(got, serial[key]) for key, got in results)


def test_enclosure_error_when_curve_outside():
    a = CqtMatrix(LaurentSymbol.constant(5.0))  # symbol value 5
    with pytest.raises(EnclosureError):
        funm_contour(a, np.exp, ContourSpec.circle(0.0, 1.0))


def test_contour_contains_and_custom_parametrization():
    ellipse = ContourSpec.custom(
        lambda x: 2.0 * math.cos(x) + 1j * math.sin(x),
        lambda x: -2.0 * math.sin(x) + 1j * math.cos(x),
        (0.0, 2 * math.pi))
    assert bool(ellipse.contains(0.0 + 0.0j).all())
    assert not bool(ellipse.contains(3.0 + 0.0j).any())
    a = CqtMatrix(LaurentSymbol.constant(0.5))
    got = funm_contour(a, lambda z: z * z, ellipse)
    assert np.abs(finite_section(got, 6)
                  - 0.25 * np.eye(6)).max() <= 10 * DEFAULT_CONFIG.tol_stop


def test_contour_raises_enclosure_error_without_inflation_retry(caplog):
    # Each symbol curve leaves its circle just barely: the single point 0.6,
    # and the range [0.04, 1.96].  A circle 10 percent wider would enclose
    # the second one and also the pole of 1/z at 0, and the run on it
    # returned the zero matrix for A^-1.
    cases = [(CqtMatrix(LaurentSymbol.constant(0.6)), np.exp,
              ContourSpec.circle(0.5, 0.096)),
             (FiniteQtMatrix(40, LaurentSymbol([0.48, 1.0, 0.48], -1)),
              lambda z: 1.0 / z, ContourSpec.circle(1.0, 0.95))]
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-6)
    with caplog.at_level(logging.DEBUG, logger="qtmat.contour"):
        for a, f, circle in cases:
            start = time.perf_counter()
            with pytest.raises(EnclosureError):
                funm_contour(a, f, circle, cfg)
            assert time.perf_counter() - start < 1.0
    assert not caplog.records


def test_a_clockwise_custom_contour_is_refused():
    # The circle of radius 1 about 1.5, run clockwise: the resolvent integral
    # on it is -f(A), which the engine returned without an error.
    with pytest.raises(ValueError, match="counterclockwise"):
        ContourSpec.custom(lambda x: 1.5 + cmath.exp(-1j * x),
                           lambda x: -1j * cmath.exp(-1j * x),
                           (0.0, 2 * math.pi))
    counterclockwise = ContourSpec.custom(lambda x: 1.5 + cmath.exp(1j * x),
                                          lambda x: 1j * cmath.exp(1j * x),
                                          (0.0, 2 * math.pi))
    a = FiniteQtMatrix(30, LaurentSymbol([0.2, 1.5, 0.2], -1))
    got = funm_contour(a, np.sqrt, counterclockwise, _CFG)
    want = scipy.linalg.sqrtm(dense_fqt_oracle(a))
    assert np.abs(fqt_to_dense(got) - want).max() <= 1e-8


def test_invalid_contours():
    with pytest.raises(ValueError):
        ContourSpec.circle(0.0, -1.0)
    with pytest.raises(ValueError):
        ContourSpec.custom(lambda x: x, lambda x: 1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        nodes_weights(ContourSpec.circle(0.0, 1.0), 0)


def test_funm_contour_with_correction_agrees_with_series():
    from qtmat import Correction
    corr = Correction.rank_one([0.1, 0.05], [0.2, 0.0, 0.1])
    a = CqtMatrix(LaurentSymbol([0.2, 0.3, 0.2], -1), corr)
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-10)
    via_series = funm_taylor(a, SeriesSpec.exp(), cfg)
    via_contour = funm_contour(a, np.exp, ContourSpec.circle(0.0, 1.8), cfg)
    n = 40
    assert np.abs(finite_section(via_series, n)
                  - finite_section(via_contour, n)).max() < 1e-8


def test_resolvent_on_spectrum_raises():
    from qtmat import OnSpectrumError
    a = CqtMatrix(LaurentSymbol([1.0, 0.0, 1.0], -1))  # symbol range [-2, 2]
    with pytest.raises(OnSpectrumError) as info:
        resolvent(a, 1.0)
    assert info.value.z == 1.0


def test_sign_change_of_a_real_symbol_raises_without_refining():
    # 1 - 2 cos(theta) changes sign between unit roots, where no sample
    # falls below the zero floor; the grid is not refined to its cap.
    from qtmat import OnSpectrumError
    a = CqtMatrix(LaurentSymbol([1.0, 0.0, 1.0], -1))
    start = time.perf_counter()
    with pytest.raises(OnSpectrumError):
        resolvent(a, 1.0)
    assert time.perf_counter() - start < 0.05
    for coeffs in ([1.0, 4.0, 1.0], [1.0 - 2.0j, 5.0, 1.0 + 2.0j]):
        assert winding_number(LaurentSymbol(coeffs, -1)) == 0


@pytest.mark.parametrize("kind", ["finite", "semi"])
def test_resolvent_shifts_without_compressing(kind, monkeypatch):
    a = _finite_i_plus_h2(40) if kind == "finite" else _semi_i_plus_t()
    compress = qtmat.correction.corr_compress
    compressed = []

    def counting(e, tol):
        compressed.append(e)
        return compress(e, tol)

    for mod in (qtmat.correction, qtmat.cqt, qtmat.finite):
        monkeypatch.setattr(mod, "corr_compress", counting)
    inv = type(a).inv
    before_inv = []

    def inverting(self, *args, **kwargs):
        before_inv.append(len(compressed))
        return inv(self, *args, **kwargs)

    monkeypatch.setattr(type(a), "inv", inverting)
    z = 1.5 + 0.8j
    r = resolvent(a, z)
    assert before_inv == [0]
    if kind == "finite":
        want = np.linalg.inv(z * np.eye(40) - dense_fqt_oracle(a))
        got = fqt_to_dense(r)
    else:
        big = 300
        want = np.linalg.inv(z * np.eye(big)
                             - dense_cqt_oracle(a, big))[:40, :40]
        got = finite_section(r, 40)
    assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("kind", ["finite", "semi"])
def test_info_reports_the_inverse_of_every_node_inverted(kind, monkeypatch):
    a = _finite_on_the_algebra_path() if kind == "finite" \
        else _semi_i_plus_t()
    records = []
    inv = type(a).inv

    def recording(self, cfg=DEFAULT_CONFIG, with_info=False):
        out = inv(self, cfg, with_info)
        records.append(out[1])
        return out

    monkeypatch.setattr(type(a), "inv", recording)
    _, info = funm_contour(a, np.sqrt, _CIRCLE, _CFG, with_info=True)
    # Both classes invert from the Wiener-Hopf factors of the symbol.
    inverted = info["resolvents"] - info["reused"]
    assert info["inverse_paths"] == {"factored": inverted} \
        == {"factored": len(records)}
    worst = info["inverse_residual_max"]
    assert worst == max(rec["residual"] for rec in records)
    assert 0.0 < worst <= _CFG.tol_stop
    # A second run on the same matrix takes every node from the slot.
    records.clear()
    _, again = funm_contour(a, np.sqrt, _CIRCLE, _CFG, with_info=True)
    assert again["reused"] == again["resolvents"] and not records
    assert again["inverse_paths"] == {}
    assert again["inverse_residual_max"] is None


def test_finite_inverses_need_no_dense_inverse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    z = 1.5 + 1j
    want_small = np.linalg.inv(z * np.eye(40)
                               - dense_fqt_oracle(_finite_i_plus_h2(40)))
    monkeypatch.setattr(np.linalg, "inv", refuse)
    for m in (40, 300):
        a = _finite_i_plus_h2(m)
        r, info = a.identity_like().scale(z).add(a.scale(-1.0)).inv(
            with_info=True)
        assert info["path"] == ("banded" if m == 40 else "factored")
        if m == 40:
            assert np.abs(fqt_to_dense(r) - want_small).max() < 1e-12
    a = _finite_i_plus_h2(40)
    _, first = funm_contour(a, np.sqrt, _CIRCLE, _CFG, with_info=True)
    assert first["level_sum"] == "dense" and first["reused"] == 0
    assert first["inverse_paths"] == {"banded": first["resolvents"]}
    # The log run takes every node inverse of the sqrt run from the slot.
    got, info = funm_contour(a, np.log, _CIRCLE, _CFG, with_info=True)
    assert info["level_sum"] == "dense"
    assert info["reused"] == info["resolvents"] > 0
    assert info["inverse_paths"] == {} and info["inverse_columns"] == {}
    assert info["inverse_residual_max"] is None
    _empty_slot()
    want = funm_contour(a, np.log, _CIRCLE, _CFG)
    assert _bit_equal(got, want)


def _dense_entry_bytes(slot):
    return sum(x.nbytes for x, _ in slot.by_node.values())


def test_byte_cap_bounds_the_dense_entries_and_leaves_results_unchanged(
        monkeypatch):
    a = _finite_i_plus_h2(40)
    want = []
    for f in (np.sqrt, np.log):
        _empty_slot()
        want.append(funm_contour(a, f, _CIRCLE, _CFG))
    _empty_slot()
    # Room for five of the 40 x 20 complex half blocks.
    cap = 5 * 40 * 20 * 16
    monkeypatch.setattr(qtmat.contour, "_SLOT_BYTES", cap)
    got = []
    for f in (np.sqrt, np.log):
        r, info = funm_contour(a, f, _CIRCLE, _CFG, with_info=True)
        got.append(r)
    slot = qtmat.contour._slot
    assert info["level_sum"] == "dense" and info["mirrored"]
    assert _dense_entry_bytes(slot) == slot.nbytes <= cap
    assert 0 < info["reused"] == len(slot.by_node) < info["resolvents"]
    assert info["inverse_paths"] == {
        "banded": info["resolvents"] - info["reused"]}
    assert all(_bit_equal(g, w) for g, w in zip(got, want))


def test_uncertifiable_tolerance_is_not_an_on_spectrum_error(caplog):
    # At tol_stop=1e-16 the node inverses of I + H^10, 0.5 away from the
    # spectrum, certify only to rounding (the dense sum certifies the exact
    # solve, about 5e-16); the error says so, once.
    a = _laplacian_power(100).add(FiniteQtMatrix.identity(100))
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-16)
    with caplog.at_level(logging.WARNING, logger="qtmat.contour"):
        with pytest.raises(CertificateError,
                           match=r"^inverse residual \d\.\d\de-1[456] exceeds "
                                 r"tolerance 1\.00e-16$"):
            funm_contour(a, np.sqrt, _CIRCLE, cfg)
    assert not caplog.records


def _algebra_levels(a, f, contour, cfg):
    """The algebra-form sum of f(a), whatever form funm_contour would take.

    The slot is keyed by the matrix, which decides the form, so it is
    emptied first: a dense entry of a run on a must not reach this sum.
    """
    _empty_slot()
    return qtmat.contour._sum_levels(
        qtmat.contour._AlgebraSum(a, cfg), f, contour, cfg)


_ELLIPSE = ContourSpec.custom(
    lambda x: 1.5 + 0.8 * math.cos(x) + 0.5j * math.sin(x),
    lambda x: -0.8 * math.sin(x) + 0.5j * math.cos(x),
    (0.0, 2 * math.pi))


@pytest.mark.parametrize("case", ["sqrt", "log", "1j*z", "complex-symbol",
                                  "ellipse"])
def test_dense_and_algebra_sums_agree(case):
    symbol = LaurentSymbol([0.1j, 0.05, -0.1j], -1) \
        if case == "complex-symbol" else None
    a = _finite_i_plus_h2(40, symbol)
    f = {"log": np.log, "1j*z": lambda z: 1j * z}.get(case, np.sqrt)
    contour = _ELLIPSE if case == "ellipse" else _CIRCLE
    got, info = funm_contour(a, f, contour, _CFG, with_info=True)
    want, want_info = _algebra_levels(a, f, contour, _CFG)
    assert (info["level_sum"], want_info["level_sum"]) == ("dense", "algebra")
    assert info["levels"] == want_info["levels"]
    assert info["resolvents"] == want_info["resolvents"]
    assert info["reused"] == 0
    # The level differences measure the same norm, exactly instead of
    # through compressed corners.
    assert np.allclose(info["level_diffs"], want_info["level_diffs"],
                       rtol=0.0, atol=1e-11)
    assert np.abs(fqt_to_dense(got) - fqt_to_dense(want)).max() < 1e-11
    assert np.abs(fqt_to_dense(got) - _dense_funm(a, f)).max() < 1e-8


def test_dense_split_keeps_no_more_than_the_algebra_sum():
    # Budgeted by its own mass, the final split of log(I + H^10) at m = 190
    # keeps rank 37 of rounding noise; by the summed node masses, 12.
    a = _laplacian_power(190).add(FiniteQtMatrix.identity(190))
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-8)
    got, info = funm_contour(a, np.log, _CIRCLE, cfg, with_info=True)
    want, _ = _algebra_levels(a, np.log, _CIRCLE, cfg)
    assert info["level_sum"] == "dense"
    for corner in ("corr_tl", "corr_br"):
        assert getattr(got, corner).rank <= getattr(want, corner).rank


def test_the_engine_sums_densely_where_fqt_inv_solves_every_column():
    z = 1.5 + 1j
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-6)
    # Up to m = 256 for bands narrower than 64 fqt_inv solves the whole
    # inverse, of I + H^2 from its mirrored half; past it Widom's formula.
    for m, form in ((256, "dense"), (257, "algebra")):
        a = _finite_i_plus_h2(m)
        _, info = funm_contour(a, np.sqrt, _CIRCLE, cfg, with_info=True)
        assert info["level_sum"] == form
        _, inv_info = a.identity_like().scale(z).add(a.scale(-1.0)).inv(
            cfg, with_info=True)
        if form == "dense":
            assert inv_info["path"] == "banded"
            assert inv_info["columns"] == m // 2
        else:
            assert inv_info["path"] == "factored"
    # A band reaching z^64 is solved whole up to m = 512.
    wide = LaurentSymbol([1.0] + [0.0] * 63 + [0.01], 0)
    assert solves_every_column(FiniteQtMatrix(512, wide))
    assert not solves_every_column(FiniteQtMatrix(513, wide))


def _diagonal(m, first, last):
    """diag(first, 0, ..., 0, last) as a zero symbol with two 1 x 1 corners."""
    return FiniteQtMatrix(m, LaurentSymbol.zero(),
                          Correction.rank_one([first], [1.0]),
                          Correction.rank_one([last], [1.0]))


def test_singular_node_raises_on_spectrum_error_without_retry(caplog):
    # Both matrices have the eigenvalue 1.5 at node 0 of the circle.  For
    # the second a circle 10 percent wider would also enclose the pole of f
    # at 1.55, and the run on it returned 0 for the entry -20 of f(A).
    from qtmat import OnSpectrumError
    circle = ContourSpec.circle(0.5, 1.0)
    node = circle.gamma(0.0)
    d = np.array([0.3, 0.5, 0.7, 0.2, 0.4, 1.5])
    cases = [(_diagonal(6, node.real, 0.0), np.exp),
             (FiniteQtMatrix(6, LaurentSymbol([0.5]),
                             Correction(np.diag(d - 0.5), np.eye(6))),
              lambda z: 1.0 / (z - 1.55))]
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-9)
    with caplog.at_level(logging.DEBUG, logger="qtmat.contour"):
        for a, f in cases:
            start = time.perf_counter()
            with pytest.raises(OnSpectrumError) as err:
                funm_contour(a, f, circle, cfg)
            assert time.perf_counter() - start < 1.0
            assert err.value.z == node == 1.5
    assert not caplog.records


@pytest.mark.parametrize("m", [20, _ALGEBRA_M])
def test_certificate_error_passes_through_without_a_retry(m, caplog):
    a = _finite_i_plus_h2(m)
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-17)
    with caplog.at_level(logging.WARNING, logger="qtmat.contour"):
        with pytest.raises(CertificateError, match="exceeds tolerance"):
            funm_contour(a, np.sqrt, _CIRCLE, cfg)
    assert not caplog.records



def test_semi_infinite_certificate_miss_is_a_certificate_error(caplog):
    # At tol_stop=1e-15 every window of this inverse decays, but each one
    # certifies only to about 1.3e-15: the error says so at the second
    # window instead of doubling to the section cap, and funm_contour
    # passes it on without a retry or an on-spectrum error.
    a = CqtMatrix(LaurentSymbol([0.5, 3.0, 0.3], -1),
                  Correction.rank_one([0.2, 0.1], [0.1, 0.3]))
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-15)
    message = r"^inverse residual \d\.\d\de-15 exceeds tolerance 1\.00e-15$"
    start = time.perf_counter()
    with pytest.raises(CertificateError, match=message):
        cqt_inv(a, cfg)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    with caplog.at_level(logging.WARNING, logger="qtmat.contour"):
        with pytest.raises(CertificateError, match=message):
            funm_contour(a, np.sqrt, ContourSpec.circle(3, 2), cfg)
    assert time.perf_counter() - start < 5.0
    assert not caplog.records


# -- stopping on the predicted error ------------------------------------------


def _raw_prediction(diffs):
    """d_n^2 / d_{n-1} when two falling ratios hold, else None."""
    if len(diffs) < 3:
        return None
    d2, d1, d0 = diffs[-3:]
    return d0 * d0 / d1 if d0 / d1 <= d1 / d2 < 1.0 else None


@pytest.mark.parametrize("form", ["dense", "algebra"])
def test_info_records_the_prediction_and_the_test_that_stopped(form):
    a = _finite_i_plus_h2(40) if form == "dense" \
        else _finite_on_the_algebra_path()
    got, info = funm_contour(a, np.sqrt, _CIRCLE, _CFG, with_info=True)
    assert info["level_sum"] == form
    diffs = info["level_diffs"]
    raw = _raw_prediction(diffs)
    assert raw is not None
    assert info["predicted_error"] == raw <= _CFG.tol_stop
    # Both inputs converge one level before their difference shows it.
    assert diffs[-1] > _CFG.tol_stop
    assert info["stopped_on"] == "prediction"
    assert np.abs(fqt_to_dense(got) - _dense_funm(a, np.sqrt)).max() \
        <= _CFG.tol_stop


def test_info_has_no_prediction_before_two_falling_ratios():
    a = CqtMatrix(LaurentSymbol.constant(0.5))
    _, info = funm_contour(a, lambda z: z, ContourSpec.circle(0.5, 0.4),
                           with_info=True)
    assert len(info["level_diffs"]) < 3
    assert info["predicted_error"] is None
    assert info["stopped_on"] == "difference"


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("pole", [2.52, 2.6, 3.0])
def test_pole_near_the_contour_stops_within_tolerance(pole, tol):
    # 1/(p - z) with p just outside circle(1.5, 1.0): the first levels do
    # not decay geometrically, and the closer the pole, the longer the
    # pre-asymptotic stretch the decay guard has to sit out.
    a = _finite_i_plus_h2(40)
    f = lambda z: 1.0 / (pole - z)  # noqa: E731
    cfg = DEFAULT_CONFIG.updated(tol_stop=tol)
    got = funm_contour(a, f, _CIRCLE, cfg)
    assert np.abs(fqt_to_dense(got) - _dense_funm(a, f)).max() <= tol


@pytest.mark.parametrize("f, tol", [(np.sqrt, 5e-13), (np.log, 1e-12)])
def test_both_sum_forms_predict_without_a_floor(f, tol):
    # Both forms sum exactly, so the prediction is the bare
    # d_n^2 / d_{n-1}, even below tol_trunc * 2^n.
    cfg = DEFAULT_CONFIG.updated(tol_stop=tol)
    for form, a in (("dense", _finite_i_plus_h2(40)),
                    ("algebra", _finite_on_the_algebra_path())):
        got, info = funm_contour(a, f, _CIRCLE, cfg, with_info=True)
        assert info["level_sum"] == form
        assert info["predicted_error"] \
            == _raw_prediction(info["level_diffs"]) \
            < cfg.tol_trunc * info["nodes"]
        assert np.abs(fqt_to_dense(got) - _dense_funm(a, f)).max() <= tol


@pytest.mark.parametrize("f", [np.sqrt, np.log])
def test_i_plus_h10_converges_at_the_default_tolerance(f):
    a = _laplacian_power(100).add(FiniteQtMatrix.identity(100))
    got, info = funm_contour(a, f, _CIRCLE, with_info=True)
    assert np.abs(fqt_to_dense(got) - _dense_funm(a, f)).max() \
        <= DEFAULT_CONFIG.tol_stop
    if f is np.log:
        # The last difference is above the tolerance: stopping on it would
        # have taken one more level, twice the nodes.
        assert info["stopped_on"] == "prediction"
        assert info["level_diffs"][-1] > DEFAULT_CONFIG.tol_stop


# -- mirrored dense sums ------------------------------------------------------


def _every_column(monkeypatch):
    """Let no band mirror, so the dense sum solves every column.

    The slot is emptied too: its key is the matrix, which the patch leaves
    as it is, so it would hand the half blocks of an earlier run on.
    """
    monkeypatch.setattr(BandMatrix, "mirrored", False)
    _empty_slot()


@pytest.mark.parametrize("m", [1, 2, 121, 122])
@pytest.mark.parametrize("f", [np.sqrt, np.log])
def test_mirrored_dense_sum_agrees_with_the_all_columns_sum(
        m, f, monkeypatch):
    a = centrosymmetric_fqt(m)
    got, info = funm_contour(a, f, _CIRCLE, _CFG, with_info=True)
    assert info["level_sum"] == "dense" and info["mirrored"]
    assert info["inverse_columns"] == {(m + 1) // 2: info["resolvents"]}
    _every_column(monkeypatch)
    want, want_info = funm_contour(a, f, _CIRCLE, _CFG, with_info=True)
    assert not want_info["mirrored"]
    assert want_info["inverse_columns"] == {m: want_info["resolvents"]}
    assert info["levels"] == want_info["levels"]
    assert np.allclose(info["level_diffs"], want_info["level_diffs"],
                       rtol=0.0, atol=1e-13)
    assert np.abs(fqt_to_dense(got) - fqt_to_dense(want)).max() <= 1e-13


@pytest.mark.parametrize("case", ["symbol", "corner"])
def test_inputs_without_mirror_symmetry_solve_every_column(case):
    m = 121
    a = centrosymmetric_fqt(m)
    if case == "symbol":
        a = a.add(FiniteQtMatrix(m, LaurentSymbol([0.01, 0.0, 0.02], -1)))
    else:
        a = FiniteQtMatrix(m, a.symbol, a.corr_tl,
                           a.corr_br.scaled(1.0 + 1e-6))
    got, info = funm_contour(a, np.sqrt, _CIRCLE, _CFG, with_info=True)
    assert info["level_sum"] == "dense" and not info["mirrored"]
    assert info["inverse_columns"] == {m: info["resolvents"]}
    want = scipy.linalg.sqrtm(dense_fqt_oracle(a))
    assert np.abs(fqt_to_dense(got) - want).max() <= _CFG.tol_stop


def test_a_mirrored_miss_switches_the_run_to_every_column(monkeypatch):
    # The certificate of the half of the third node inverse is made to
    # miss; its full inverse certifies, so that node and every later one
    # is solved in full, and the run returns the all-columns result.
    m = 121
    a = centrosymmetric_fqt(m)
    calls = []
    residual = BandMatrix.residual

    def missing_once(self, x, cols, shift=0.0):
        calls.append(x.shape)
        worst = residual(self, x, cols, shift)
        return 1.0 if len(calls) == 3 else worst

    with monkeypatch.context() as patch:
        patch.setattr(BandMatrix, "residual", missing_once)
        got, info = funm_contour(a, np.sqrt, _CIRCLE, _CFG, with_info=True)
    assert not info["mirrored"]
    assert info["inverse_columns"] == {(m + 1) // 2: 2,
                                       m: info["resolvents"] - 2}
    assert info["inverse_residual_max"] <= _CFG.tol_stop
    _every_column(monkeypatch)
    want, want_info = funm_contour(a, np.sqrt, _CIRCLE, _CFG, with_info=True)
    assert info["levels"] == want_info["levels"]
    assert np.abs(fqt_to_dense(got) - fqt_to_dense(want)).max() <= 1e-13
