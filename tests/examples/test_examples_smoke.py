"""Smoke tests: every script in ``examples/`` must run to completion.

Examples are the first thing a reader executes, and nothing else imports
them — without this suite they rot silently whenever an API they touch
moves.  Each script runs as a subprocess with the repository's ``src`` on
``PYTHONPATH`` and a temporary working directory.  An example runs what no
artifact runs; an experiment's walkthrough is its ``python -m repro.bench
<artifact>`` line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"
EXAMPLE_SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_populated():
    assert [script.name for script in EXAMPLE_SCRIPTS] == [
        "anomaly_detection.py", "quickstart.py", "session_guarantees.py",
        "tpcc_on_hats.py"]


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS,
                         ids=[script.name for script in EXAMPLE_SCRIPTS])
def test_example_runs_clean(script, tmp_path):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + \
        env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}\n"
        f"--- stdout ---\n{completed.stdout[-2000:]}\n"
        f"--- stderr ---\n{completed.stderr[-2000:]}"
    )
    assert completed.stdout.strip(), f"{script.name} printed nothing"
