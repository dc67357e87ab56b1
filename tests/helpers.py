"""Helpers shared by the test modules."""

import json

import numpy as np

from bnnsim.functional import ThresholdVector


def constant_thresholds(n_out: int, t: int, flip: bool = False) -> ThresholdVector:
    """Thresholds of `n_out` channels that all compare against `t`, all
    flipped or none."""
    return ThresholdVector(np.full(n_out, t, dtype=np.int32), np.full(n_out, flip, dtype=bool))


def _leaves(value, key=()):
    """(key path, value) of every leaf of nested dicts and lists."""
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(v, key + (k,))
    else:
        yield key, value


def write_pins(path, pins: dict) -> None:
    """Write `pins` to the JSON file `path`, first printing the key path of
    every pin whose value differs from the file's (e.g. `bundled
    sed_freesound 38+38` or `stream 1+1 156`)."""
    old = dict(_leaves(json.loads(path.read_text()))) if path.exists() else {}
    for key, value in _leaves(pins):
        if old.get(key) != value:
            print(" ".join(map(str, key)), "moved")
    path.write_text(json.dumps(pins, indent=1) + "\n")
