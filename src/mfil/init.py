"""Parameter initialization helpers shared across modules."""

from __future__ import annotations

import numpy as np

# trunc_normal rejects samples beyond this many standard deviations.
TRUNC_BOUND = 2.0


def trunc_normal(rng: np.random.Generator, shape,
                 std: float = 0.02) -> np.ndarray:
    """Normal(0, std) samples rejected outside +/- TRUNC_BOUND * std.

    Each round redraws only the entries still out of bounds, one draw per
    entry in ascending flat order: the same draws, in the same order, as
    redrawing through a boolean mask of the whole array.
    """
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)  # a view: the draw is a fresh contiguous array
    limit = TRUNC_BOUND * std
    idx = np.flatnonzero(np.abs(flat) > limit)
    while idx.size:
        redraw = rng.normal(0.0, std, size=idx.size)
        flat[idx] = redraw
        idx = idx[np.abs(redraw) > limit]
    return out


def identity_depthwise_kernel(channels: int) -> np.ndarray:
    """[C, 1, 3, 3] kernel that reproduces its input (center tap one); the
    cost tables count every depthwise filter as 3x3."""
    kern = np.zeros((channels, 1, 3, 3))
    kern[:, 0, 1, 1] = 1.0
    return kern


def inv_softplus(y: np.ndarray) -> np.ndarray:
    """x such that log(1 + exp(x)) = y, for y > 0."""
    return y + np.log(-np.expm1(-y))
