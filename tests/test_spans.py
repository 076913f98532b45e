"""The perfbench span tracer still finds every function it traces."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import qtmat

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_uninstalls():
    # install() looks up every traced name and fails on one that is gone.
    spans = _load_spans()
    taylor, qr = qtmat.funm_taylor, np.linalg.qr
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert qtmat.funm_taylor is not taylor
    finally:
        tracer.uninstall()
    assert qtmat.funm_taylor is taylor and np.linalg.qr is qr


def test_tracer_sees_the_finite_inverse_call_the_semi_infinite_one():
    # At m = 300 fqt_inv takes Widom's formula: two cqt_inv calls, each a
    # span of its own inside the fqt_inv span.
    spans = _load_spans()
    a = qtmat.FiniteQtMatrix(300, qtmat.LaurentSymbol([1.0, 3.0, 0.5], -1))
    tracer = spans.Tracer()
    try:
        tracer.install()
        qtmat.fqt_inv(a)
    finally:
        tracer.uninstall()
    stats = tracer.function_stats()
    assert stats["finite.fqt_inv"][0] == 1
    assert stats["cqt.cqt_inv"][0] == 2
    inner = tracer.names.index("cqt.cqt_inv")
    outer = tracer.names.index("finite.fqt_inv")
    ids = np.frombuffer(tracer.name_ids, dtype=np.int32)
    parents = np.frombuffer(tracer.parents, dtype=np.int32)
    assert (ids[parents[ids == inner]] == outer).all()


def test_a_series_past_its_term_cap_raises_before_the_first_product():
    # exp of the Hessenberg band T(z^-1 + 1 + ... + z^8), ||A|| = 10, needs
    # far more than 20 terms; the coefficients alone say so.
    spans = _load_spans()
    a = qtmat.CqtMatrix(qtmat.LaurentSymbol(np.ones(10), -1))
    cfg = qtmat.DEFAULT_CONFIG.updated(max_terms=20)
    tracer = spans.Tracer()
    try:
        tracer.install()
        with pytest.raises(qtmat.NoConvergenceError):
            qtmat.funm_taylor(a, qtmat.SeriesSpec.exp(), cfg)
    finally:
        tracer.uninstall()
    stats = tracer.function_stats()
    assert stats["series.funm_taylor"][0] == stats["series.funm_taylor"][3] \
        == 1
    assert stats.get("cqt.cqt_mul", (0,))[0] == 0
