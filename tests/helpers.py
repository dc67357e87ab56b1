"""Helpers shared by the test modules."""

import numpy as np

from bnnsim.functional import ThresholdVector


def constant_thresholds(n_out: int, t: int, flip: bool = False) -> ThresholdVector:
    """Thresholds of `n_out` channels that all compare against `t`, all
    flipped or none."""
    return ThresholdVector(np.full(n_out, t, dtype=np.int32), np.full(n_out, flip, dtype=bool))
