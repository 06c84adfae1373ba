"""Synthetic oriented-pattern dataset.

Classes are defined by spatial frequency content so the gradient-filter
branches are discriminative by construction: horizontal stripes, vertical
stripes, a checkerboard product, and low-frequency blobs. Every image gets
per-pixel Gaussian noise; everything is deterministic in the dataset seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SyntheticDataset", "CLASS_NAMES"]

CLASS_NAMES = ("horizontal_stripes", "vertical_stripes", "checkerboard",
               "blob")


def _stripes(rng, size: int, axis: int) -> np.ndarray:
    freq = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    coord = np.arange(size) / size
    wave = np.sin(2.0 * np.pi * freq * coord + phase)
    return np.tile(wave[:, None], (1, size)) if axis == 0 \
        else np.tile(wave[None, :], (size, 1))


def _checkerboard(rng, size: int) -> np.ndarray:
    freq = rng.uniform(2.0, 6.0)
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    coord = np.arange(size) / size
    return np.outer(np.sin(2.0 * np.pi * freq * coord + p1),
                    np.sin(2.0 * np.pi * freq * coord + p2))


def _blob(rng, size: int) -> np.ndarray:
    cy, cx = rng.uniform(0.25 * size, 0.75 * size, size=2)
    sigma = rng.uniform(size / 8.0, size / 4.0)
    yy, xx = np.mgrid[0:size, 0:size]
    bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma ** 2))
    return float(rng.choice((-1.5, 1.5))) * bump


def _render(rng, label: int, size: int) -> np.ndarray:
    if label == 0:
        return _stripes(rng, size, axis=0)
    if label == 1:
        return _stripes(rng, size, axis=1)
    if label == 2:
        return _checkerboard(rng, size)
    return _blob(rng, size)


class SyntheticDataset:
    """Pre-rendered balanced image set; [size, 3, S, S] float32 in memory."""

    def __init__(self, image_size: int = 32, num_classes: int = 4,
                 size: int = 512, noise: float = 0.25, seed: int = 0):
        if not 2 <= num_classes <= len(CLASS_NAMES):
            raise ValueError(
                f"num_classes must be in [2, {len(CLASS_NAMES)}], got "
                f"{num_classes}")
        self.image_size = image_size
        self.num_classes = num_classes
        self.size = size
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Round-robin labels keep every contiguous window balanced within 1.
        self.labels = np.arange(size, dtype=np.int64) % num_classes
        images = np.zeros((size, 3, image_size, image_size),
                          dtype=np.float32)
        for i, label in enumerate(self.labels):
            pattern = _render(rng, int(label), image_size)
            for c in range(3):
                images[i, c] = pattern + rng.normal(
                    0.0, noise, size=pattern.shape)
        self.images = images

    def __len__(self):
        return self.size

    def epoch_order(self, rng: np.random.Generator) -> np.ndarray:
        """Shuffled index order; class counts stay balanced (whole epochs)."""
        return rng.permutation(self.size)

    def batch(self, indices, flip_rng: np.random.Generator | None = None):
        """Fetch a batch; optional horizontal-flip augmentation."""
        x = self.images[np.asarray(indices)].copy()
        if flip_rng is not None:
            flips = flip_rng.random(len(indices)) < 0.5
            x[flips] = x[flips, :, :, ::-1]
        return x, self.labels[np.asarray(indices)]
