"""Portable graymap emission for maps and sample images."""

from __future__ import annotations

import numpy as np

__all__ = ["write_pgm", "write_matrix_text"]


def _quantize(grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    lo, hi = float(g.min()), float(g.max())
    if hi > lo:
        g = (g - lo) / (hi - lo)
    else:
        g = np.zeros_like(g)
    return np.round(g * 255.0).astype(np.uint8)


def write_pgm(path, grid: np.ndarray):
    """Binary PGM (P5), values rescaled so the max pixel is 255."""
    g = _quantize(grid)
    if g.ndim != 2:
        raise ValueError(f"PGM wants a 2-D grid, got shape {g.shape}")
    h, w = g.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(g.tobytes())


def write_matrix_text(path, grid: np.ndarray):
    """Plain-text matrix, one row per line, for external plotting."""
    g = np.asarray(grid, dtype=np.float64)
    with open(path, "w") as f:
        for row in np.atleast_2d(g):
            f.write(" ".join(f"{v:.8e}" for v in row) + "\n")
