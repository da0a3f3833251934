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


def round_floats(obj, sig: int = 12):
    """Recursively round floats to `sig` significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.{sig}g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round_floats(obj.tolist(), sig)
    if isinstance(obj, dict):
        return {k: round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v, sig) for v in obj]
    return obj


def dump_json(obj, sig: int = 12, indent: int | None = 2) -> str:
    return json.dumps(round_floats(obj, sig), indent=indent, sort_keys=True)
