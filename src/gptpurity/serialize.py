"""JSON helpers shared by the harness and the CLI.

Complex arrays travel as nested [re, im] pairs; floats are emitted with 12
significant digits so report files diff cleanly.
"""

from __future__ import annotations

import json

import numpy as np


def complex_to_pairs(arr) -> list:
    arr = np.asarray(arr, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def pairs_to_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError("expected nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


#: significant digits of every float in emitted JSON
_DIGITS = 12


def round_floats(obj):
    """Recursively round floats to ``_DIGITS`` significant digits."""
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.{_DIGITS}g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dump_json(obj) -> str:
    """Sorted-key JSON, indented by 2, with floats rounded by ``round_floats``."""
    return json.dumps(round_floats(obj), indent=2, sort_keys=True)
