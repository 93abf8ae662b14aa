"""Golden pins: ``assert_pin``, the one way a test pins an artifact.

``tests/data/golden_pins.json`` maps each pin's name to its record: the
``sha256`` of the rendering the test builds (``text``, else the payload as
``json.dumps(payload, indent=2)``), which decides, and the ``tree``, which
says where.  The tree is the payload cut at depth 3: scalars down to that
depth kept as they are; a list or object at depth 3, or a string of over
256 characters, kept as a digest; a list of over 64 items kept as 64
digested runs keyed by index range (``"0-143"``).  A mismatch names every
key path (JSON-pointer spelling) that moved, was added or was removed.  A
text-only pin passes the text as its payload: its tree is its lines.  Any
other key of a record (``about``: where and why it was taken) survives a
re-pin.  ``PYTHONPATH=src python -m pytest tests --repin`` rewrites every
pin the run checks and prints the key paths that moved in each.
"""

import hashlib
import json
from pathlib import Path

import pytest

PINS = Path(__file__).resolve().parent / "data" / "golden_pins.json"
DEPTH, WIDTH, LONGEST = 3, 64, 256
REPIN = "PYTHONPATH=src python -m pytest tests --repin"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(value) -> str:
    return "#" + _sha(json.dumps(value))[:16]


def cut(value, depth=DEPTH):
    """``value`` as a pin's tree keeps it (see the module docstring)."""
    if isinstance(value, list) and len(value) > WIDTH:
        run = -(-len(value) // WIDTH)
        return {f"{i}-{min(i + run, len(value)) - 1}": _digest(value[i:i + run])
                for i in range(0, len(value), run)}
    nested = isinstance(value, (dict, list))
    if nested and not depth or isinstance(value, str) and len(value) > LONGEST:
        return _digest(value)
    if not nested:
        return value
    if isinstance(value, dict):
        return {key: cut(item, depth - 1) for key, item in value.items()}
    return [cut(item, depth - 1) for item in value]


def record(payload, text=None) -> dict:
    if isinstance(payload, str):
        payload, text = payload.splitlines(), payload
    if text is None:
        text = json.dumps(payload, indent=2, allow_nan=False)
    return {"sha256": _sha(text),
            "tree": cut(json.loads(json.dumps(payload, allow_nan=False)))}


def moved_paths(pinned, actual, path="") -> list:
    """Each key path at which two trees differ, with both sides."""
    if type(pinned) is not type(actual) or not isinstance(actual, (dict, list)):
        return [] if pinned == actual else [f"{path or '/'}: {pinned!r} -> {actual!r}"]
    if isinstance(actual, list):
        pinned, actual = dict(enumerate(pinned)), dict(enumerate(actual))
    found = []
    for key in {**pinned, **actual}:
        at = f"{path}/" + str(key).replace("~", "~0").replace("/", "~1")
        if key not in actual or key not in pinned:
            found.append(f"{at} {'removed' if key in pinned else 'added'}")
        else:
            found += moved_paths(pinned[key], actual[key], at)
    return found


class PinBook:
    """The pin file, checked against (or, re-pinning, rewritten by) a run."""

    def __init__(self, path: Path = PINS, repin: bool = False):
        self.path, self.repin = path, repin
        self.pins = json.loads(path.read_text())
        self.moved = {}  # re-pinning: name -> the key paths that moved

    def check(self, name: str, payload, text=None) -> None:
        new = record(payload, text)
        old = self.pins.get(name)
        if old is not None and old["sha256"] == new["sha256"]:
            return
        where = (moved_paths(old["tree"], new["tree"]) or
                 ["only the rendering moved"]) if old else ["no such pin yet"]
        if self.repin:
            self.pins[name] = {**(old or {}), **new}
            self.moved[name] = where
            return
        pytest.fail(f"pin {name!r} moved at:\n  " + "\n  ".join(where)
                    + f"\nDeliberate? re-pin with `{REPIN}`", pytrace=False)

    def write(self) -> list:
        """Write the file; return the report of what moved, a line each."""
        self.path.write_text(json.dumps(self.pins, indent=1, sort_keys=True) + "\n")
        lines = [f"re-pinned {self.path.name}: {len(self.moved)} pin(s) moved"]
        for name, where in sorted(self.moved.items()):
            lines += [f"{name}:", *(f"  {path}" for path in where)]
        return lines
