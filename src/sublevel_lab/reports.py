"""Deterministic report serialization (JSON and CSV).

Reports must reproduce bit-identically across runs and worker counts, so
all floats are written with shortest round-trip repr and JSON keys are
sorted with fixed separators.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def pyify(obj):
    """Recursively convert numpy scalars inside dicts and lists to plain
    Python objects suitable for deterministic JSON dumps."""
    if isinstance(obj, dict):
        return {str(k): pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [pyify(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def dumps_json(obj) -> str:
    """Strict JSON: a NaN or infinity raises ValueError, so `write_json`
    leaves no file behind."""
    return json.dumps(pyify(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj))


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, rows: list[dict]) -> None:
    """One column per row key, in order of first appearance with `pass`
    last; a key that a row lacks leaves its cell empty."""
    keys = dict.fromkeys(k for r in rows for k in r)
    header = [k for k in keys if k != "pass"] + ["pass"]
    lines = [",".join(header)]
    lines += [",".join(format_cell(r.get(k)) for k in header) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")
