"""CLI contract: exit codes, report schema, oracles, reproducibility."""

import json

import numpy as np
import pytest
import scipy.linalg

from qtmat import (
    CqtMatrix,
    FiniteQtMatrix,
    LaurentSymbol,
    finite_section,
    read_file,
    sine_transform_oracle,
    write_file,
)
from qtmat.cli import main
from qtmat.oracles import laplacian_symbol_coeffs

from tests.support import random_cqt


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_funm_series_exp_of_zero_gives_identity(tmp_path, capsys):
    src = tmp_path / "zero.cqt"
    dst = tmp_path / "out.cqt"
    write_file(src, CqtMatrix.zero())
    code, out, _ = run_cli(capsys, "funm", "--func", "exp", "--method",
                           "series", "--input", str(src), "--output",
                           str(dst))
    assert code == 0
    assert out.splitlines()[0].split() == ["case", "time", "band", "rows",
                                           "columns", "rank", "error"]
    result = read_file(dst)
    assert np.array_equal(finite_section(result, 4), np.eye(4))


def test_funm_dense_oracle_row(tmp_path, capsys):
    src = tmp_path / "hess.cqt"
    dst = tmp_path / "out.cqt"
    write_file(src, CqtMatrix(LaurentSymbol(np.ones(4), -1)))  # k = 2
    code, out, _ = run_cli(capsys, "funm", "--func", "exp", "--method",
                           "series", "--input", str(src), "--output",
                           str(dst), "--oracle", "dense")
    assert code == 0
    err_field = out.splitlines()[1].split()[-1]
    assert float(err_field) < 1e-8


def test_funm_contour_defaults(tmp_path, capsys):
    m = 40
    src = tmp_path / "fin.cqt"
    dst = tmp_path / "out.cqt"
    h = FiniteQtMatrix(m, LaurentSymbol(laplacian_symbol_coeffs(m), -1))
    shifted = h.add(FiniteQtMatrix.identity(m))  # I + H, spectrum in (1, 2]
    write_file(src, shifted)
    code, _, _ = run_cli(capsys, "funm", "--func", "sqrt1p", "--method",
                         "contour", "--input", str(src), "--output",
                         str(dst), "--tol", "1e-9")
    assert code == 0
    got = read_file(dst)
    from qtmat import fqt_to_dense
    want = scipy.linalg.sqrtm(np.eye(m) + fqt_to_dense(shifted))
    assert np.abs(fqt_to_dense(got) - want).max() < 1e-6


def test_funm_precondition_exit_code(tmp_path, capsys):
    src = tmp_path / "big.cqt"
    dst = tmp_path / "out.cqt"
    write_file(src, CqtMatrix(LaurentSymbol([2.0, 2.0])))
    code, _, err = run_cli(capsys, "funm", "--func", "log1p", "--method",
                           "series", "--input", str(src), "--output",
                           str(dst))
    assert code == 2
    assert "precondition" in err


def test_funm_no_convergence_exit_code(tmp_path, capsys):
    src = tmp_path / "slow.cqt"
    dst = tmp_path / "out.cqt"
    write_file(src, CqtMatrix(LaurentSymbol([0.2, 0.0, 0.2], -1)))
    code, _, err = run_cli(capsys, "funm", "--func", "log1p", "--method",
                           "series", "--input", str(src), "--output",
                           str(dst), "--max-terms", "5")
    assert code == 3
    assert "no convergence" in err


def test_usage_errors_exit_64(tmp_path, capsys):
    code, _, err = run_cli(capsys, "funm", "--func", "exp")
    assert code == 64
    src = tmp_path / "bad.cqt"
    src.write_text("not a matrix\n")
    code, _, err = run_cli(capsys, "funm", "--func", "exp", "--method",
                           "series", "--input", str(src), "--output",
                           str(tmp_path / "o.cqt"))
    assert code == 64
    assert "input error" in err


def test_malformed_func_exit_64(tmp_path, capsys):
    src = tmp_path / "a.cqt"
    write_file(src, CqtMatrix.zero())
    code, _, _ = run_cli(capsys, "funm", "--func", "sinh", "--method",
                         "series", "--input", str(src), "--output",
                         str(tmp_path / "o.cqt"))
    assert code == 64


def test_coeff_file_laurent(tmp_path, capsys):
    src = tmp_path / "a.cqt"
    dst = tmp_path / "out.cqt"
    coeffs = tmp_path / "f.coeffs"
    write_file(src, CqtMatrix(LaurentSymbol.constant(2.0)))
    coeffs.write_text("1 1 0\n-1 1 0\n")
    code, _, _ = run_cli(capsys, "funm", "--func",
                         f"coeff-file:{coeffs}", "--method", "laurent",
                         "--input", str(src), "--output", str(dst))
    assert code == 0
    got = read_file(dst)
    assert got.symbol.coeff(0) == pytest.approx(2.5, abs=1e-12)


def test_cli_reproducible_output(tmp_path, capsys):
    rng = np.random.default_rng(5)
    src = tmp_path / "a.cqt"
    write_file(src, random_cqt(rng, max_len=4, corr_dim=4, scale=0.2))
    outputs = []
    for name in ("o1.cqt", "o2.cqt"):
        dst = tmp_path / name
        code, _, _ = run_cli(capsys, "funm", "--func", "exp", "--method",
                             "series", "--input", str(src), "--output",
                             str(dst))
        assert code == 0
        outputs.append(dst.read_bytes())
    assert outputs[0] == outputs[1]


def test_sine_transform_oracle_identity_case():
    m = 3
    col = sine_transform_oracle(m, lambda lam: lam, 1)
    scale = 2.0 + 2.0 * np.cos(np.pi / (m + 1))
    want = np.array([2.0, 1.0, 0.0]) / scale
    assert np.abs(col - want).max() < 1e-13


def test_sine_transform_oracle_constant_function():
    m = 7
    col = sine_transform_oracle(m, lambda lam: np.ones_like(lam), 1)
    want = np.zeros(m)
    want[0] = 1.0
    assert np.abs(col - want).max() < 1e-12


def test_sine_transform_oracle_vs_dense_eigensolver():
    m = 100
    scale = 2.0 + 2.0 * np.cos(np.pi / (m + 1))
    h = (np.diag(np.full(m, 2.0)) + np.diag(np.ones(m - 1), 1)
         + np.diag(np.ones(m - 1), -1)) / scale
    a = np.linalg.matrix_power(h, 10)
    want = scipy.linalg.expm(a)[:, 0]
    got = sine_transform_oracle(m, lambda lam: np.exp(lam ** 10), 1)
    assert np.abs(got - want).max() < 1e-11


def _without_time(report):
    return [line.split()[:1] + line.split()[2:] for line in report.splitlines()]


@pytest.mark.parametrize("method", ["series", "contour", "contour-finite"])
def test_funm_info_writes_one_json_line_on_stderr(tmp_path, capsys, method):
    src = tmp_path / "in.cqt"
    symbol = LaurentSymbol([0.1, 1.4, 0.1], -1)
    finite = method == "contour-finite"
    write_file(src, FiniteQtMatrix(40, symbol) if finite
               else CqtMatrix(symbol))
    method = method.split("-")[0]
    argv = ["funm", "--func", "sqrt1p" if method == "contour" else "exp",
            "--method", method, "--input", str(src), "--tol", "1e-9"]
    code, out, err = run_cli(capsys, *argv, "--info", "--output",
                             str(tmp_path / "info.cqt"))
    assert code == 0
    code, plain_out, plain_err = run_cli(
        capsys, *argv, "--output", str(tmp_path / "info.cqt"))
    assert code == 0 and plain_err == ""
    assert _without_time(out) == _without_time(plain_out)
    assert err.endswith("\n") and err.count("\n") == 1
    info = json.loads(err)
    if method == "contour":
        path = "banded" if finite else "factored"
        assert info["inverse_paths"] == {
            path: info["resolvents"] - info["reused"]}
        assert info["inverse_residual_max"] <= 1e-9
        assert info["level_sum"] == ("dense" if finite else "algebra")
        assert info["stopped_on"] in ("difference", "prediction")
        assert "predicted_error" in info
    else:
        assert info["terms"] >= 1


def test_uncertifiable_tolerance_exits_as_no_convergence(tmp_path, capsys):
    src = tmp_path / "in.cqt"
    write_file(src, FiniteQtMatrix(40, LaurentSymbol([0.1, 1.4, 0.1], -1)))
    code, _, err = run_cli(capsys, "funm", "--func", "sqrt1p", "--method",
                           "contour", "--input", str(src), "--output",
                           str(tmp_path / "o.cqt"), "--tol", "1e-17")
    assert code == 3
    assert err.startswith("no convergence: inverse residual ")
    assert err.rstrip().endswith("exceeds tolerance 1.00e-17")
