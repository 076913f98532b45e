"""The output-hash replay tool, run end to end on a short prefix."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def test_replay_tool_hashes_and_scores_a_contour_prefix():
    # A separate process: the tool imports a fresh qtmat, purging the
    # package from sys.modules.
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_outputs.py"),
         "--seed", "1", "--rounds", "contour-resolvent=1", "--digits"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    per_workload = [x.split()[0] for x in lines
                    if re.fullmatch(r"\S+ outputs sha256 [0-9a-f]{64}", x)]
    assert per_workload == ["contour-resolvent"]
    jobs = int(next(x for x in lines if x.startswith("jobs ")).split()[1])
    kinds = [x.split() for x in lines if " raised " in x]
    assert kinds and all("digits_min" in x for x in kinds)
    assert sum(int(x[x.index("jobs") + 1]) for x in kinds) == jobs


def test_replay_tool_times_passes_and_checks_they_agree():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "replay_outputs.py"),
         "--seed", "1", "--rounds", "contour-resolvent=1", "--passes", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    timed = [x.split() for x in lines if " min_of_2_s " in x]
    assert [x[0] for x in timed] == ["contour-resolvent"]
    assert float(timed[0][2]) > 0.0
    assert next(x for x in lines if x.startswith("jobs ")) == "jobs 8"


def test_replay_tool_fails_when_a_pass_changes_an_output(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "replay_outputs", ROOT / "tools" / "replay_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    passes = []

    def replay(root, seed, rounds):
        passes.append(seed)
        job = SimpleNamespace(job_id=0, kind="finite-sqrt")
        yield "w", job, f"output {len(passes)}", {}, None, 0.1

    monkeypatch.setattr(tool, "replay", replay)
    assert tool.main(["--rounds", "w=1", "--passes", "2"]) == 1
    assert len(passes) == 2
    assert "outputs differ between passes: w 0" in capsys.readouterr().err
