"""Semi-infinite algebra against dense finite-section oracles."""

import sys
import time

import numpy as np
import pytest

import qtmat.symbol
from qtmat import (
    DEFAULT_CONFIG,
    CertificateError,
    Correction,
    CqtMatrix,
    LaurentSymbol,
    NoConvergenceError,
    NonzeroWindingError,
    SingularMatrixError,
    ZeroOnCircleError,
    cqt_add,
    cqt_inv,
    cqt_mul,
    cqt_norm,
    FiniteQtMatrix,
    finite_section,
    qt_norm,
)
from qtmat.cqt import _certificate_section, inverse_residual

from tests.support import (
    dense_cqt_oracle,
    random_cqt,
    random_invertible_symbol,
    random_correction,
)


def test_add_zero_identity():
    rng = np.random.default_rng(1)
    a = random_cqt(rng)
    assert cqt_add(a, CqtMatrix.zero()) is a
    assert cqt_add(CqtMatrix.zero(), a) is a


def test_add_toeplitz_parts():
    a = CqtMatrix(LaurentSymbol([1.0], 1))
    b = CqtMatrix(LaurentSymbol([1.0], -1))
    s = cqt_add(a, b)
    assert s.corr.is_zero
    assert s.symbol.coeff(1) == 1.0 and s.symbol.coeff(-1) == 1.0


def test_add_random_vs_dense():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_cqt(rng)
        b = random_cqt(rng)
        got = finite_section(cqt_add(a, b), 30)
        want = dense_cqt_oracle(a, 30) + dense_cqt_oracle(b, 30)
        assert np.abs(got - want).max() < 1e-12


def test_mul_minimal_identity_exact():
    # T(1/z) T(z) = I - e1 e1^T with no compression loss at all.
    a = CqtMatrix(LaurentSymbol([1.0], -1))
    b = CqtMatrix(LaurentSymbol([1.0], 1))
    p = cqt_mul(a, b)
    assert p.symbol.coeff(0) == 1.0 and p.symbol.support_len == 1
    section = finite_section(p, 5)
    want = np.eye(5, dtype=complex)
    want[0, 0] = 0.0
    assert np.array_equal(section, want)


def test_mul_rank_one_shift():
    # (I + e1 e1^T) T(z) = T(z) + e1 e2^T
    a = CqtMatrix(LaurentSymbol.one(), Correction.rank_one([1.0], [1.0]))
    b = CqtMatrix(LaurentSymbol([1.0], 1))
    p = cqt_mul(a, b)
    got = finite_section(p, 4)
    want = np.diag(np.ones(3, dtype=complex), 1)
    want[0, 1] += 1.0
    assert np.abs(got - want).max() < 1e-14


def test_mul_random_vs_dense_truncations():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_cqt(rng, max_len=8, corr_dim=10)
        b = random_cqt(rng, max_len=8, corr_dim=10)
        got = finite_section(cqt_mul(a, b), 60)
        want = (dense_cqt_oracle(a, 100) @ dense_cqt_oracle(b, 100))[:60, :60]
        assert np.abs(got - want).max() < 1e-12


def test_mul_submultiplicative_norm():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = random_cqt(rng)
        b = random_cqt(rng)
        lhs = cqt_norm(cqt_mul(a, b))
        rhs = cqt_norm(a) * cqt_norm(b)
        assert lhs <= rhs * (1 + 1e-10)


def test_mul_associative_on_sections():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b, c = (random_cqt(rng, max_len=5, corr_dim=5) for _ in range(3))
        left = finite_section(cqt_mul(cqt_mul(a, b), c), 40)
        right = finite_section(cqt_mul(a, cqt_mul(b, c)), 40)
        scale = max(1.0, np.abs(left).max())
        assert np.abs(left - right).max() <= 1e-11 * scale


def test_norms_simple():
    ident = CqtMatrix.identity()
    assert cqt_norm(ident) == 1.0
    assert qt_norm(ident) == 1.0
    a = CqtMatrix(LaurentSymbol([1.0, 0.0, 1.0], -1))  # z + 1/z
    assert cqt_norm(a) == 4.0
    assert qt_norm(a) == 2.0


def test_norms_ordering_random():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_cqt(rng)
        assert qt_norm(a) <= cqt_norm(a) + 1e-15


def test_finite_section_simple():
    assert np.array_equal(finite_section(CqtMatrix.identity(), 3), np.eye(3))
    got = finite_section(CqtMatrix(LaurentSymbol([1.0], 1)), 2)
    assert np.array_equal(got, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_finite_section_random_vs_entrywise():
    rng = np.random.default_rng(7)
    a = random_cqt(rng)
    n = 25
    got = finite_section(a, n)
    want = np.zeros((n, n), dtype=complex)
    dense_corr = np.asarray(a.corr.u) @ np.asarray(a.corr.v).T
    for i in range(n):
        for j in range(n):
            want[i, j] = a.symbol.coeff(j - i)
            if i < a.corr.p and j < a.corr.q:
                want[i, j] += dense_corr[i, j]
    assert np.abs(got - want).max() == 0.0


def test_inv_scalar():
    b = cqt_inv(CqtMatrix(LaurentSymbol.constant(2.0)))
    assert b.corr.is_zero
    assert b.symbol.coeff(0) == 0.5


def test_inv_triangular_geometric():
    a = CqtMatrix(LaurentSymbol([1.0, -0.5]))
    b = cqt_inv(a)
    assert b.corr.is_zero
    for k in range(10):
        assert b.symbol.coeff(k) == pytest.approx(0.5 ** k, abs=1e-12)
    assert inverse_residual(a, b) <= 1e-12


def test_inv_tridiagonal_vs_dense_section():
    a = CqtMatrix(LaurentSymbol([1.0, 4.0, 1.0], -1))
    b = cqt_inv(a)
    got = finite_section(b, 50)
    want = np.linalg.inv(dense_cqt_oracle(a, 400))[:50, :50]
    assert np.abs(got - want).max() < 1e-10


def test_inv_of_a_real_matrix_is_real():
    corr = Correction([[0.1, -0.05], [0.3, 0.02]], [[0.2, 0.1], [0.05, -0.03]])
    a = CqtMatrix(LaurentSymbol([0.3, -0.2, 2.0, 0.4, 0.1], -2), corr)
    b, info = cqt_inv(a, with_info=True)
    assert b.dtype == np.float64 and info["residual"] <= 1e-14
    c = cqt_inv(a.with_parts(LaurentSymbol(a.symbol.coeffs + 0j, -2),
                             [corr]))
    assert c.dtype == np.complex128
    assert np.abs(finite_section(b, 60) - finite_section(c, 60)).max() < 1e-14


def test_inv_certificate_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sym = random_invertible_symbol(rng)
        corr = random_correction(rng, 4, 4, 2, scale=0.1)
        a = CqtMatrix(sym, corr)
        b, info = cqt_inv(a, with_info=True)
        assert info["residual"] <= 1e-12
        n = info["certified_n"]
        resid = finite_section(cqt_mul(a, b), n) - np.eye(n)
        assert np.abs(resid).max() <= 1e-9


def test_inverse_residual_is_the_exact_product_of_sections():
    # a has a positive exponent (n_plus = 2) and a correction much wider
    # than tall, so the section of a that holds rows 0..n-1 is wider than
    # n, and a.corr.q is still inside it.
    rng = np.random.default_rng(12)
    a = CqtMatrix(LaurentSymbol([0.3, 0.2, 4.0, 0.5, 0.25], -2),
                  random_correction(rng, 2, 30, 2, scale=0.1))
    others = [cqt_inv(a), random_cqt(rng, max_len=6, corr_dim=6)]
    assert a.symbol.n_plus > 0
    for b in others:
        n = _certificate_section(a, b)
        assert a.corr.q < n
        got = inverse_residual(a, b)
        big = n + 40
        exact = (dense_cqt_oracle(a, big) @ dense_cqt_oracle(b, big))[:n, :n]
        want = np.abs(exact - np.eye(n)).max()
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
        # The section of the compressed algebra product agrees within the
        # budget of its compression.
        prod = finite_section(cqt_mul(a, b), n) - np.eye(n)
        budget = DEFAULT_CONFIG.tol_trunc * max(1.0, cqt_norm(a) * cqt_norm(b))
        assert abs(np.abs(prod).max() - got) <= budget
    assert inverse_residual(a, others[0]) <= DEFAULT_CONFIG.tol_stop


def test_inv_winding_error():
    with pytest.raises(NonzeroWindingError):
        cqt_inv(CqtMatrix(LaurentSymbol([1.0], 1)))


def test_inv_zero_on_circle_error():
    with pytest.raises(ZeroOnCircleError):
        cqt_inv(CqtMatrix(LaurentSymbol([1.0, -1.0])))


def test_inv_singular_operator_detected():
    # I - e1 e1^T has symbol 1 (winding 0) but is not invertible: its
    # capacitance matrix is exactly 0.  Nor is the zero matrix.
    a = CqtMatrix(LaurentSymbol.one(), Correction.rank_one([-1.0], [1.0]))
    for singular in (a, CqtMatrix.zero()):
        with pytest.raises(SingularMatrixError):
            cqt_inv(singular)


def test_inv_evaluates_each_unit_root_grid_once(monkeypatch):
    orig = qtmat.symbol.eval_at_unit_roots
    sizes = []

    def counted(sym, n):
        sizes.append(n)
        return orig(sym, n)

    # Every binding of the function in the package, so a call through a
    # ``from .symbol import eval_at_unit_roots`` name is counted as well.
    for name, mod in list(sys.modules.items()):
        if name == "qtmat" or name.startswith("qtmat."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    a = CqtMatrix(LaurentSymbol([1.0, 4.0, 1.0], -1),
                  Correction.rank_one([0.5, 0.2], [0.3]))
    cqt_inv(a)
    # The winding number comes from the first grid the log loop resolves.
    assert sizes and len(set(sizes)) == len(sizes)


def test_inv_matches_the_inverse_of_a_large_dense_section():
    rng = np.random.default_rng(11)
    inputs = []
    for _ in range(6):
        sym = random_invertible_symbol(rng)
        corr = random_correction(rng, int(rng.integers(1, 9)),
                                 int(rng.integers(1, 9)), 2, scale=0.2)
        inputs.append(CqtMatrix(sym, corr))
    for _ in range(6):
        # zI - A with z outside the disc that holds the symbol curve of A.
        sym = random_invertible_symbol(rng)
        corr = random_correction(rng, 5, 3, 2, scale=0.1)
        center = sym.coeff(0)
        radius = np.abs(sym.coeffs).sum() - abs(center)
        z = center + 1.1 * (radius + 0.3) * np.exp(1j * rng.uniform(0, 6.3))
        a = CqtMatrix(sym, corr)
        inputs.append(a.identity_like().scale(z).add(a.scale(-1.0)))
    for a in inputs:
        got, info = cqt_inv(a, with_info=True)
        want = np.linalg.inv(dense_cqt_oracle(a, 600))[:60, :60]
        assert np.abs(finite_section(got, 60) - want).max() < 1e-13
        assert info == {"path": "factored",
                        "certified_n": _certificate_section(a, got),
                        "residual": inverse_residual(a, got)}
        assert info["residual"] <= DEFAULT_CONFIG.tol_stop
        assert not got.corr.is_zero


def test_inv_below_rounding_raises_the_certificate_error_at_once():
    a = CqtMatrix(LaurentSymbol([0.5, 3.0, 0.3], -1),
                  Correction.rank_one([0.4, 0.1], [0.2, 0.3]))
    start = time.perf_counter()
    with pytest.raises(CertificateError,
                       match=r"inverse residual \d\.\d\de-1\d exceeds "
                             r"tolerance 1\.00e-16"):
        cqt_inv(a, DEFAULT_CONFIG.updated(tol_stop=1e-16))
    assert time.perf_counter() - start < 1.0


def test_inv_stops_once_rounding_holds_the_symbol_factors():
    # The symbol comes within 0.01 of zero on the unit circle; rounding
    # stops the log coefficients near 6e-14 on a grid of 8192, above
    # tol_trunc, and the grid goes no further.
    a = CqtMatrix(LaurentSymbol([-0.5, 0.81, -0.3], -1))
    start = time.perf_counter()
    with pytest.raises(NoConvergenceError, match="stopped falling"):
        cqt_inv(a)
    assert time.perf_counter() - start < 0.1


def test_inv_and_reciprocal_certify_symbols_near_rounding():
    # Symbols whose centre exceeds the off-centre mass by 2-30 % need grids
    # of up to 4096 at tol_trunc = 1e-14, where rounding can hold the
    # outer log mass above tol_trunc / 2; draw 34 stops there at 7.6e-15.
    # Every draw is certified except 49, which no grid resolves: the
    # residual of 1/a bottoms out at 2.8e-14 and its log mass at 1.5e-14.
    rng = np.random.default_rng(7)
    for draw in range(60):
        n_minus, n_plus = rng.integers(1, 4, 2)
        c = (rng.standard_normal(n_minus + n_plus + 1)
             + 1j * rng.standard_normal(n_minus + n_plus + 1))
        off = np.abs(c).sum() - abs(c[n_minus])
        c[n_minus] = ((1 + rng.uniform(0.02, 0.3)) * off
                      * np.exp(1j * rng.uniform(0, 6.28)))
        sym = LaurentSymbol(c, -n_minus)
        u, v = (0.2 * (rng.standard_normal((p, 2))
                       + 1j * rng.standard_normal((p, 2))) for p in (4, 3))
        if draw == 49:
            continue
        b = qtmat.symbol.sym_reciprocal(sym, 1e-14)
        residual = qtmat.symbol.sym_sub(qtmat.symbol.sym_mul(sym, b),
                                        LaurentSymbol.one())
        assert qtmat.symbol.norm_w(residual) <= 1e-14
        a = CqtMatrix(sym, Correction(u, v))
        got, info = cqt_inv(a, with_info=True)
        assert info["residual"] == inverse_residual(a, got) <= 1e-12


def test_finite_section_consistency_ops():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = random_cqt(rng, max_len=6, corr_dim=6)
        b = random_cqt(rng, max_len=6, corr_dim=6)
        n = 40
        margin = 40
        big = n + margin
        add_got = finite_section(cqt_add(a, b), n)
        add_want = (dense_cqt_oracle(a, big) + dense_cqt_oracle(b, big))[:n, :n]
        assert np.abs(add_got - add_want).max() < 1e-12
        mul_got = finite_section(cqt_mul(a, b), n)
        mul_want = (dense_cqt_oracle(a, big) @ dense_cqt_oracle(b, big))[:n, :n]
        assert np.abs(mul_got - mul_want).max() < 1e-12


def test_scale_and_matmul_operators():
    rng = np.random.default_rng(10)
    a = random_cqt(rng)
    half = a.scale(0.5)
    assert np.abs(finite_section(half, 20)
                  - 0.5 * dense_cqt_oracle(a, 20)).max() < 1e-13
    b = random_cqt(rng)
    assert np.abs(finite_section(a @ b, 20)
                  - finite_section(cqt_mul(a, b), 20)).max() == 0.0


@pytest.mark.parametrize("cls, size",
                         [(CqtMatrix, ()), (FiniteQtMatrix, (7,))])
def test_scalar_inverse_and_zero_of_both_classes(cls, size):
    c = 2.5 - 0.5j
    inv, info = cls.identity(*size).scale(c).inv(with_info=True)
    assert type(inv) is cls and info["path"] == "scalar"
    assert inv.symbol.min_deg == 0 and inv.symbol.coeffs.tolist() == [1 / c]
    assert all(e.is_zero for e in inv.corrections)
    with pytest.raises(SingularMatrixError):
        cls.zero(*size).inv()


def test_both_classes_agree_on_the_shared_members():
    rng = np.random.default_rng(31)
    real = Correction(rng.standard_normal((4, 2)), rng.standard_normal((3, 2)))
    cases = [(LaurentSymbol.zero(), None), (LaurentSymbol.one(), None),
             (LaurentSymbol.zero(), real),
             (LaurentSymbol([0.5, 2.0, -1.0], -1), real),
             (LaurentSymbol([0.5, 2.0, -1.0], -1),
              random_correction(rng, 5, 6, 2)),
             (LaurentSymbol([1j, 1.0], 0), None)]
    for sym, corr in cases:
        semi = CqtMatrix(sym, corr)
        fin = FiniteQtMatrix(12, sym, corr)
        for name in ("is_zero", "is_identity", "is_real"):
            assert getattr(semi, name) == getattr(fin, name), (sym, name)
        assert semi.norm_cqt() == fin.norm_cqt()
        assert qt_norm(semi) == qt_norm(fin)
        assert semi.scale(0).is_zero and fin.scale(0).is_zero
    assert CqtMatrix(LaurentSymbol.one()).is_identity
    assert not CqtMatrix(LaurentSymbol.one(), real).is_identity


def test_tolerance_config_validation():
    from qtmat import ToleranceConfig
    with pytest.raises(ValueError):
        ToleranceConfig(tol_trunc=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(max_terms=0)
    cfg = ToleranceConfig().updated(tol_stop=1e-8)
    assert cfg.tol_stop == 1e-8
