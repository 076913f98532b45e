"""Contour engine: quadrature family, resolvents, doubling convergence."""

import math

import numpy as np
import pytest

from qtmat import (
    ContourSpec,
    CqtMatrix,
    DEFAULT_CONFIG,
    EnclosureError,
    FiniteQtMatrix,
    LaurentSymbol,
    SeriesSpec,
    finite_section,
    fqt_mul,
    fqt_to_dense,
    funm_contour,
    funm_taylor,
    nodes_weights,
    resolvent,
)
import qtmat.contour
from qtmat.oracles import laplacian_symbol_coeffs

from tests.support import dense_cqt_oracle, dense_fqt_oracle


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


def test_no_node_resolvent_is_computed_twice(monkeypatch):
    points = []

    def recording(matrix, z, cfg=DEFAULT_CONFIG):
        points.append(z)
        return resolvent(matrix, z, cfg)

    monkeypatch.setattr(qtmat.contour, "resolvent", recording)
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-9)
    for symbol in (None, LaurentSymbol([0.1j], 0)):
        points.clear()
        a = _finite_i_plus_h2(30, symbol)
        _, info = funm_contour(a, np.log, ContourSpec.circle(1.5, 1.0), cfg,
                               with_info=True)
        assert len(points) == info["resolvents"]
        assert len(set(points)) == len(points)
        if symbol is None:  # paired: no mirror node is inverted either
            assert not any(p.imag < 0 for p in points)


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


def test_contour_inflation_retry(caplog):
    # Symbol curve is the single point 0.6, just outside the initial circle
    # around 0.5; one 10 percent inflation brings it inside.
    a = CqtMatrix(LaurentSymbol.constant(0.6))
    cfg = DEFAULT_CONFIG.updated(tol_stop=1e-6)
    import logging
    with caplog.at_level(logging.WARNING, logger="qtmat.contour"):
        got = funm_contour(a, np.exp, ContourSpec.circle(0.5, 0.096), cfg)
    assert any("inflated" in rec.message for rec in caplog.records)
    assert np.abs(finite_section(got, 6)
                  - math.exp(0.6) * np.eye(6)).max() < 1e-3


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
