"""One measurement per interpreter.

A memory pin that reads what freeing returns to ``tracemalloc`` depends on
how full the interpreter's free lists already are, so the same run read
772 B per transaction alone and 817 B after another pin in one process.
Such a pin measures in a child interpreter that nothing else ran in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def measured_alone(script: str):
    """What ``python script`` prints, read as JSON: the script's
    ``__main__`` block takes its measurement and prints it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS)]))
    done = subprocess.run([sys.executable, script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)
