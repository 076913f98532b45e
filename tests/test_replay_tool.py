"""The output-hash replay tool, run end to end on a short prefix."""

import re
import subprocess
import sys
from pathlib import Path

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
