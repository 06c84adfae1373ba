"""Parameter initialization helpers shared across modules."""

from __future__ import annotations

import numpy as np


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02,
                 bound: float = 2.0) -> np.ndarray:
    """Normal(0, std) samples rejected outside +/- bound*std.

    Each round redraws only the entries still out of bounds, one draw per
    entry in ascending flat order: the same draws, in the same order, as
    redrawing through a boolean mask of the whole array.
    """
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)  # a view: the draw is a fresh contiguous array
    limit = bound * std
    idx = np.flatnonzero(np.abs(flat) > limit)
    while idx.size:
        redraw = rng.normal(0.0, std, size=idx.size)
        flat[idx] = redraw
        idx = idx[np.abs(redraw) > limit]
    return out


def identity_depthwise_kernel(channels: int, k: int = 3) -> np.ndarray:
    """[C, 1, k, k] kernel that reproduces its input (center tap one)."""
    kern = np.zeros((channels, 1, k, k))
    kern[:, 0, k // 2, k // 2] = 1.0
    return kern


def inv_softplus(y: np.ndarray) -> np.ndarray:
    """x such that log(1 + exp(x)) = y, for y > 0."""
    return y + np.log(-np.expm1(-y))
