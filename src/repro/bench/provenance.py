"""Provenance headers stamped into every bench artifact JSON.

An artifact file that outlives its run is only evidence if it says what
produced it: which commit, which parameterisation, which schema.  The
bench CLI injects this header under the ``"provenance"`` key of every
JSON payload it writes, so a downloaded CI artifact can always be traced
back to the exact tree and knobs that generated it.

The header is injected *centrally* by :mod:`repro.bench.__main__` — the
experiment payloads themselves stay byte-identical to what the report
functions return, which is what the golden-artifact regression tests pin.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Dict, Optional

__all__ = ["SCHEMA_VERSION", "git_sha", "provenance_header"]

#: Bump when the shape of any artifact payload changes incompatibly.
SCHEMA_VERSION = 1


def git_sha() -> str:
    """The HEAD commit of the tree this package runs from (or "unknown")."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def provenance_header(artifact: str, quick: bool,
                      jobs: Optional[int] = None,
                      seed: int = 0) -> Dict[str, object]:
    """The header dict written under ``"provenance"`` in artifact JSON."""
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact": artifact,
        "git_sha": git_sha(),
        "generated_by": "repro.bench",
        "python": platform.python_version(),
        "config": {"quick": quick, "jobs": jobs, "seed": seed},
    }
