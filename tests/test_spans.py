"""The perfbench span tracer still finds every function it traces."""

import importlib.util
from pathlib import Path

import numpy as np

import qtmat

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_installs_and_uninstalls():
    # install() looks up every traced name and fails on one that is gone.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    taylor, qr = qtmat.funm_taylor, np.linalg.qr
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert qtmat.funm_taylor is not taylor
    finally:
        tracer.uninstall()
    assert qtmat.funm_taylor is taylor and np.linalg.qr is qr
