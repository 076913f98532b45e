"""Fast self-test of the benchmark on tiny inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# One import for every in-process test, so exception classes stay the same.
QT = harness.import_qtmat()


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def test_declared_workloads_and_metrics_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == harness.per_layer_units()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_tiny_run_prints_exactly_the_declared_metrics(workload, trace,
                                                      section):
    proc = run_cli(ROOT, "--workload", workload, "--seed", "5",
                   "--seconds", "1", "--trace", str(trace),
                   "--size", "tiny", "--max-jobs", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 0)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    for name, unit in declared.items():
        assert f"{name} " in proc.stdout and unit in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_jobs_and_result_entries(workload):
    jobs = make_jobs(QT, workload, 7, 2, "tiny")
    assert make_jobs(QT, workload, 7, 2, "tiny") == jobs
    assert make_jobs(QT, workload, 8, 2, "tiny") != jobs
    entries = []
    for _ in range(2):
        outcomes, wall = harness.closed_loop(QT, jobs, math.inf,
                                             SpeedProbe(), max_jobs=3)
        harness.check_outcomes(QT, outcomes)
        metrics, _ = harness.end_to_end(outcomes, wall, 1.0, [1.0], 1.0)
        entries.append(metrics["result_entries"])
    assert entries[0] == entries[1] > 0


@pytest.mark.parametrize("workload, share", [("semi-series", 0.0),
                                             ("finite-series", 0.0),
                                             ("contour-resolvent", 0.5)])
def test_repeated_inputs_are_exactly_the_declared_share(workload, share):
    jobs = make_jobs(QT, workload, 3, 4)
    first = {}
    for job in jobs:
        first.setdefault(job.text, job.job_id)
        expected = None if first[job.text] == job.job_id \
            else first[job.text]
        assert job.repeat_of == expected
    repeats = sum(job.repeat_of is not None for job in jobs)
    assert repeats / len(jobs) == share


def test_raised_and_inaccurate_jobs_count_as_failed():
    jobs = make_jobs(QT, "semi-series", 3, 1, "tiny")[:4]
    jobs[1] = dataclasses.replace(jobs[1], text="not a matrix\n")
    jobs[2] = dataclasses.replace(jobs[2], tol=0.0)
    outcomes, wall = harness.closed_loop(QT, jobs, math.inf, SpeedProbe())
    harness.check_outcomes(QT, outcomes)
    assert outcomes[1].raised.startswith("MalformedFileError")
    assert outcomes[1].seconds > 0.0
    assert outcomes[2].error > 0.0
    assert [o.ok for o in outcomes] == [True, False, False, True]
    metrics, _ = harness.end_to_end(outcomes, wall, 1.0, [1.0], 1.0)
    assert metrics["jobs_per_s"] == 2 / wall
    # Failed jobs rank above every completed one, never as fast ones.
    done = sorted(o.seconds for o in outcomes if o.ok)
    assert metrics["job_s_p50"] == wall
    assert min(done) < metrics["job_s_p50"]


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", "semi-series", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def _laplacian_power_plus_identity(m, power):
    h = QT.FiniteQtMatrix(m, QT.LaurentSymbol(
        np.array([1.0, 2.0, 1.0]) / (2.0 + 2.0 * np.cos(np.pi / (m + 1))),
        -1))
    a = h
    for _ in range(power - 1):
        a = QT.fqt_mul(a, h)
    return a.add(QT.FiniteQtMatrix.identity(m))


@pytest.mark.xfail(raises=QT.NoConvergenceError, strict=True,
                   reason="at tol_stop=1e-12 the level differences of "
                          "funm_contour stall near 1e-12 for I + H^10 at "
                          "m >= 100; contour-resolvent states 1e-8")
def test_contour_converges_at_default_tolerance_for_m100():
    a = _laplacian_power_plus_identity(100, 10)
    QT.funm_contour(a, np.sqrt, QT.ContourSpec.circle(1.5, 1.0))


def test_contour_converges_at_default_tolerance_for_m64():
    a = _laplacian_power_plus_identity(64, 10)
    QT.funm_contour(a, np.sqrt, QT.ContourSpec.circle(1.5, 1.0))
