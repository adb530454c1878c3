"""Hot numeric kernels: per-step box penetration and batched trajectory scoring.

The kernels vectorize over the batch axis with numpy. Boxes are passed as a
float64 array of shape ``(n_boxes, 4)`` with columns ``t_lo, t_hi, y_lo,
y_hi``. Containment is closed on all faces and the penetration depth at a
face is 0, which keeps the score continuous.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def penetration_profile_batch(values: np.ndarray, times: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Per-step penetration score for a batch of 1-D trajectories.

    ``values`` has shape (B, m); returns (B, m) with entries <= 0. A point
    inside several boxes takes the most negative per-box depth.
    """
    s = np.zeros_like(values)
    for b in range(boxes.shape[0]):
        t_lo, t_hi, y_lo, y_hi = boxes[b]
        in_t = (times >= t_lo) & (times <= t_hi)
        inside = in_t[None, :] & (values >= y_lo) & (values <= y_hi)
        depth = np.minimum(values - y_lo, y_hi - values)
        s = np.where(inside, np.minimum(s, -depth), s)
    return s


# Scoring keeps its own reference, so rebinding the public name (as a
# per-layer profiler does) counts only the direct penetration checks.
_profile = penetration_profile_batch


def batch_scores(
    values: np.ndarray,
    times: np.ndarray,
    boxes: np.ndarray,
    lambda_jerk: float,
    dt: float,
) -> np.ndarray:
    """Mean penetration for colliding rows, exp(-lambda_jerk * mean
    |third finite difference| / dt^3) for collision-free ones; (B, m) -> (B,)."""
    s = _profile(values, times, boxes)
    colliding = (s < 0.0).any(axis=1)
    penalty = s.mean(axis=1)
    d3 = values[:, 3:] - 3.0 * values[:, 2:-1] + 3.0 * values[:, 1:-2] - values[:, :-3]
    bonus = np.exp(-lambda_jerk * (np.abs(d3).mean(axis=1) / dt**3))
    return np.where(colliding, penalty, bonus)
