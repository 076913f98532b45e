"""Serialization round trips and parse diagnostics."""

import numpy as np
import pytest

from qtmat import (
    Correction,
    CqtMatrix,
    FiniteQtMatrix,
    LaurentSymbol,
    MalformedFileError,
    parse,
    read_file,
    serialize,
    write_file,
)

from tests.support import random_cqt, random_fqt


def identical_semi(a, b):
    return (a.symbol.min_deg == b.symbol.min_deg
            and np.array_equal(a.symbol.coeffs, b.symbol.coeffs)
            and np.array_equal(a.corr.u, b.corr.u)
            and np.array_equal(a.corr.v, b.corr.v))


def identical_finite(a, b):
    return (a.m == b.m
            and a.symbol.min_deg == b.symbol.min_deg
            and np.array_equal(a.symbol.coeffs, b.symbol.coeffs)
            and np.array_equal(a.corr_tl.u, b.corr_tl.u)
            and np.array_equal(a.corr_tl.v, b.corr_tl.v)
            and np.array_equal(a.corr_br.u, b.corr_br.u)
            and np.array_equal(a.corr_br.v, b.corr_br.v))


def test_round_trip_identity():
    a = CqtMatrix.identity()
    assert identical_semi(parse(serialize(a)), a)


def test_round_trip_zero_correction_blocks():
    a = CqtMatrix(LaurentSymbol([1.0, 2.0], -1))
    b = parse(serialize(a))
    assert b.corr.is_zero
    assert identical_semi(a, b)


def test_round_trip_random_semi():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = random_cqt(rng)
        assert identical_semi(parse(serialize(a)), a)


def test_round_trip_random_finite():
    rng = np.random.default_rng(2)
    for _ in range(25):
        a = random_fqt(rng, int(rng.integers(4, 40)))
        assert identical_finite(parse(serialize(a)), a)


def test_round_trip_file(tmp_path):
    rng = np.random.default_rng(3)
    a = random_cqt(rng)
    path = tmp_path / "a.cqt"
    write_file(path, a)
    assert identical_semi(read_file(path), a)


def test_round_trip_exact_17_digits():
    # Value with no short decimal representation survives exactly.
    x = 0.1 + 1.0 / 3.0
    a = CqtMatrix(LaurentSymbol([x, x * 1j], -1))
    b = parse(serialize(a))
    assert b.symbol.coeffs[0] == x


def test_parse_recanonicalizes_symbol():
    text = ("cqt 1 semi\n"
            "symbol -1 3\n"
            "0 0\n"
            "1 0\n"
            "0 0\n"
            "correction 0 0 0\n")
    a = parse(text)
    assert a.symbol.min_deg == 0
    assert a.symbol.coeffs.size == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MalformedFileError, match="line 1"):
        parse("nope\n")
    with pytest.raises(MalformedFileError, match="line 2"):
        parse("cqt 1 semi\nsymbol x 1\n1 0\ncorrection 0 0 0\n")
    with pytest.raises(MalformedFileError, match="line 3"):
        parse("cqt 1 semi\nsymbol 0 1\n1\ncorrection 0 0 0\n")
    with pytest.raises(MalformedFileError, match="end of file"):
        parse("cqt 1 semi\nsymbol 0 1\n1 0\n")
    with pytest.raises(MalformedFileError, match="trailing"):
        parse("cqt 1 semi\nsymbol 0 1\n1 0\ncorrection 0 0 0\nextra\n")
    with pytest.raises(MalformedFileError):
        parse("cqt 2 semi\nsymbol 0 0\ncorrection 0 0 0\n")


def test_parse_finite_validates_band():
    text = ("cqt 1 finite 2\n"
            "symbol -5 11\n" + "1 0\n" * 11
            + "correction 0 0 0\n"
            + "correction 0 0 0\n")
    with pytest.raises(MalformedFileError, match="invalid finite matrix"):
        parse(text)


def test_serialize_rejects_unknown_type():
    with pytest.raises(TypeError):
        serialize(np.eye(3))


def test_finite_blocks_order_tl_then_br():
    a = FiniteQtMatrix(6, LaurentSymbol.one(),
                       Correction.rank_one([1.0], [2.0]),
                       Correction.rank_one([3.0], [4.0]))
    b = parse(serialize(a))
    assert b.corr_tl.u[0, 0] == 1.0
    assert b.corr_br.u[0, 0] == 3.0


def test_real_and_complex_storage_serialize_alike():
    rng = np.random.default_rng(31)
    u = rng.standard_normal((4, 2))
    v = rng.standard_normal((3, 2))
    u[0, 0] = -0.0
    real = Correction(u, v)
    cplx = Correction(u.astype(complex), v.astype(complex))
    assert real.u.dtype == np.float64 and cplx.u.dtype == np.complex128
    sym = LaurentSymbol([0.5, 2.0, -0.25], -1)
    assert serialize(CqtMatrix(sym, real)) == serialize(CqtMatrix(sym, cplx))
    assert serialize(FiniteQtMatrix(9, sym, real, real)) \
        == serialize(FiniteQtMatrix(9, sym, cplx, cplx))
