"""The feature-map alias and the input check the learners share.

Every example-based learner takes an optional ``feature_map`` — the
challenge *representation*, e.g.
:func:`repro.pufs.arbiter.parity_transform`, under which an arbiter
chain is linear — and applies it to the +/-1 challenges both when it
fits and when its result scores new challenges.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

FeatureMap = Callable[[np.ndarray], np.ndarray]


def _mapped(x: np.ndarray, feature_map: Optional[FeatureMap]) -> np.ndarray:
    """``x`` under ``feature_map`` (the identity when None), as float64."""
    feats = x if feature_map is None else feature_map(x)
    return np.asarray(feats, dtype=np.float64)


def _fit_inputs(
    x: np.ndarray, y: np.ndarray, feature_map: Optional[FeatureMap]
) -> Tuple[np.ndarray, np.ndarray]:
    """Check a +/-1 training set and map it: ``(features, labels)``.

    Raises ``ValueError`` unless ``x`` is a non-empty (m, n) matrix and
    ``y`` has length m; both returned arrays are float64.
    """
    x = np.asarray(x)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("x must be (m, n) and y length m")
    if x.shape[0] == 0:
        raise ValueError("need at least one example")
    return _mapped(x, feature_map), y
