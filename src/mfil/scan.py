"""Multi-filter scanning: filtered views, stacking, scan, adaptive fusion.

Instead of traversing the same feature map in several directions, the input
is expanded into four parallel views: the map itself, two Sobel-filtered
gradient maps refined by learnable depthwise convolutions, and a learnable
depthwise-separable dynamic map. The four views are flattened row-major,
concatenated into one token sequence, scanned by a single selective SSM,
split back into per-view maps, and fused as a softmax-weighted convex
combination.
"""

from __future__ import annotations

import numpy as np

from .init import identity_depthwise_kernel, trunc_normal
from .ssm import SsmCore, selective_scan
from .tensor import (Tensor, add, concat, conv2d, depthwise_conv2d, mul,
                     reshape, slice_axis, softmax, take, transpose)

__all__ = [
    "SOBEL_X", "SOBEL_Y", "FilterBank", "AdaptiveWeights",
    "orthogonal_maps", "dynamic_map", "stack_scans", "unstack_scans",
    "adaptive_merge", "mfil_ssm", "SCAN_MODES", "num_scans",
    "cross_scan_permutations",
]

# Canonical Sobel pair in the cross-correlation convention. SOBEL_X responds
# to vertical edges (gradient along width), SOBEL_Y = SOBEL_X^T to horizontal
# ones. Rows of SOBEL_X and columns of SOBEL_Y sum to zero, so any constant
# input produces an exactly-zero response.
SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()

SCAN_MODES = ("multi_filter", "single_flatten", "cross_4dir",
              "original_plus_one_filter")


def num_scans(scan_mode: str) -> int:
    return {"multi_filter": 4, "single_flatten": 1, "cross_4dir": 4,
            "original_plus_one_filter": 2}[scan_mode]


class FilterBank:
    """The scan generators: fixed Sobel pair, refiners, dynamic filter.

    The Sobel kernels are constants (excluded from the parameter map); the
    two depthwise refiners and the depthwise-separable dynamic filter are
    learnable. Refiners and the dynamic depthwise stage start as identity
    kernels so the refined maps begin as pure Sobel responses.
    """

    def __init__(self, channels: int, rng: np.random.Generator | None = None,
                 dtype: str = "f32", include_orthogonal: bool = True):
        if rng is None:
            rng = np.random.default_rng(0)
        self.channels = channels
        self.include_orthogonal = include_orthogonal
        self.sobel_x = Tensor(
            np.tile(SOBEL_X, (channels, 1, 1, 1)), dtype=dtype)
        self.sobel_y = Tensor(
            np.tile(SOBEL_Y, (channels, 1, 1, 1)), dtype=dtype)
        ident = identity_depthwise_kernel(channels)
        if include_orthogonal:
            self.refine_h = Tensor(ident.copy(), dtype=dtype,
                                   grad_enabled=True)
            self.refine_v = Tensor(ident.copy(), dtype=dtype,
                                   grad_enabled=True)
        else:
            self.refine_h = None
            self.refine_v = None
        self.dyn_depthwise = Tensor(ident.copy(), dtype=dtype,
                                    grad_enabled=True)
        self.dyn_pointwise = Tensor(
            trunc_normal(rng, (channels, channels, 1, 1)), dtype=dtype,
            grad_enabled=True)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        if self.include_orthogonal:
            out["refine_h"] = self.refine_h
            out["refine_v"] = self.refine_v
        out["dyn_depthwise"] = self.dyn_depthwise
        out["dyn_pointwise"] = self.dyn_pointwise
        return out


class AdaptiveWeights:
    """Learnable per-scan scalars; softmax turns them into fusion weights."""

    def __init__(self, n: int = 4, dtype: str = "f32"):
        self.w = Tensor(np.zeros(n), dtype=dtype, grad_enabled=True)

    def alphas(self) -> Tensor:
        return softmax(self.w, axis=0)

    def parameters(self) -> dict[str, Tensor]:
        return {"w": self.w}


def orthogonal_maps(image: Tensor, bank: FilterBank):
    """Sobel-filtered horizontal/vertical maps, each depthwise-refined.

    Sobel kernels are applied depthwise (the same 3x3 kernel per channel)
    with zero padding 1 so the spatial shape is preserved. Returns
    (F_h, F_v) = (refine_h(I * K_y), refine_v(I * K_x)).
    """
    _check_spatial(image)
    gh = depthwise_conv2d(image, bank.sobel_y, stride=1, padding=1)
    gv = depthwise_conv2d(image, bank.sobel_x, stride=1, padding=1)
    f_h = depthwise_conv2d(gh, bank.refine_h, stride=1, padding=1)
    f_v = depthwise_conv2d(gv, bank.refine_v, stride=1, padding=1)
    return f_h, f_v


def dynamic_map(image: Tensor, bank: FilterBank) -> Tensor:
    """Depthwise 3x3 stage followed by a pointwise 1x1 channel mix."""
    _check_spatial(image)
    d = depthwise_conv2d(image, bank.dyn_depthwise, stride=1, padding=1)
    return conv2d(d, bank.dyn_pointwise, stride=1, padding=0)


def _check_spatial(image: Tensor):
    # The 3x3 filters run with padding 1, so any H, W >= 1 is valid (late
    # stages of small inputs legitimately reach 2x2 and 1x1 grids).
    if image.data.ndim != 4:
        raise ValueError(f"expected [B, C, H, W], got {image.shape}")
    _, _, h, w = image.shape
    if h < 1 or w < 1:
        raise ValueError(f"spatial extents must be >= 1, got {h}x{w}")


def _to_tokens(fmap: Tensor) -> Tensor:
    """[B, C, H, W] -> [B, H*W, C], row-major over the spatial grid."""
    b, c, h, w = fmap.shape
    return reshape(transpose(fmap, (0, 2, 3, 1)), (b, h * w, c))


def _from_tokens(tokens: Tensor, h: int, w: int) -> Tensor:
    b, hw, c = tokens.shape
    return transpose(reshape(tokens, (b, h, w, c)), (0, 3, 1, 2))


def _stack(maps) -> Tensor:
    """n [B, C, H, W] maps -> [B, n*H*W, C], one map after another.

    One channel-axis concat and one transpose through [B, n, C, H*W] move
    all n maps at once; each map's tokens stay row-major.
    """
    b, c, h, w = maps[0].shape
    n = len(maps)
    grouped = reshape(concat(maps, axis=1), (b, n, c, h * w))
    return reshape(transpose(grouped, (0, 1, 3, 2)), (b, n * h * w, c))


def stack_scans(f_orig: Tensor, f_h: Tensor, f_v: Tensor,
                f_dyn: Tensor) -> Tensor:
    """Concatenate the four views into one [B, 4*H*W, C] token sequence.

    Each map is flattened row-major; the streams follow the fixed order
    (original, horizontal, vertical, dynamic). The original map is included
    so the scan keeps access to unfiltered visual cues.
    """
    maps = (f_orig, f_h, f_v, f_dyn)
    shape = f_orig.shape
    for m in maps[1:]:
        if m.shape != shape:
            raise ValueError(
                f"stack_scans: shape mismatch {m.shape} vs {shape}")
    return _stack(maps)


def unstack_scans(tokens: Tensor, h: int, w: int, n: int = 4):
    """Split a [B, n*H*W, C] sequence back into n [B, C, H, W] maps."""
    hw = h * w
    b, length, c = tokens.shape
    if length != n * hw:
        raise ValueError(
            f"unstack_scans: sequence length {length} != {n}*{hw}")
    grouped = transpose(reshape(tokens, (b, n, hw, c)), (0, 1, 3, 2))
    maps = reshape(grouped, (b, n * c, h, w))
    return [slice_axis(maps, 1, i * c, (i + 1) * c) for i in range(n)]


def adaptive_merge(maps, weights: AdaptiveWeights | None) -> Tensor:
    """Softmax-weighted convex combination of per-scan outputs.

    With ``weights=None`` the maps are averaged uniformly. Either way the
    result lies in the elementwise convex hull of the inputs.
    """
    shape = maps[0].shape
    for m in maps[1:]:
        if m.shape != shape:
            raise ValueError(
                f"adaptive_merge: shape mismatch {m.shape} vs {shape}")
    if weights is None:
        out = maps[0]
        for m in maps[1:]:
            out = add(out, m)
        return mul(out, 1.0 / len(maps))
    alphas = weights.alphas()
    if alphas.shape != (len(maps),):
        raise ValueError(
            f"adaptive_merge: {alphas.shape[0]} weights for {len(maps)} maps")
    out = None
    for i, m in enumerate(maps):
        coef = reshape(slice_axis(alphas, 0, i, i + 1), ())
        term = mul(m, coef)
        out = term if out is None else add(out, term)
    return out


def cross_scan_permutations(h: int, w: int) -> list[np.ndarray]:
    """Token orderings of the four-directional cross scan.

    Row-major, column-major, and the two reversals; applied to the flattened
    original map in place of filtered views.
    """
    rm = np.arange(h * w, dtype=np.int64)
    cm = rm.reshape(h, w).T.reshape(-1)
    return [rm, cm, rm[::-1].copy(), cm[::-1].copy()]


def _invert_permutation(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(p.size, dtype=p.dtype)
    return inv


def mfil_ssm(x: Tensor, bank: FilterBank | None, core: SsmCore,
             weights: AdaptiveWeights | None,
             scan_mode: str = "multi_filter") -> Tensor:
    """Filtered views -> stacked sequence -> selective scan -> fusion.

    ``scan_mode`` selects the ablation variant:
      - multi_filter: the full four-view pipeline.
      - single_flatten: flatten, scan, unflatten (no views, no fusion).
      - cross_4dir: four traversal orders of the same map, no filters.
      - original_plus_one_filter: original plus the dynamic view only.
    """
    if scan_mode not in SCAN_MODES:
        raise ValueError(f"unknown scan_mode {scan_mode!r}")
    _check_spatial(x)
    b, c, h, w = x.shape
    hw = h * w

    if scan_mode == "single_flatten":
        tokens = _to_tokens(x)
        out = selective_scan(tokens, core, n_segments=1)
        return _from_tokens(out, h, w)

    if scan_mode == "cross_4dir":
        perms = cross_scan_permutations(h, w)
        base = _to_tokens(x)
        streams = [take(base, p, axis=1) for p in perms]
        seq = concat(streams, axis=1)
        out = selective_scan(seq, core, n_segments=4)
        # Undo each view's permutation on the tokens, then leave tokens once.
        inv = np.concatenate([_invert_permutation(p) + i * hw
                              for i, p in enumerate(perms)])
        maps = unstack_scans(take(out, inv, axis=1), h, w, n=4)
        return adaptive_merge(maps, weights)

    if scan_mode == "original_plus_one_filter":
        f_dyn = dynamic_map(x, bank)
        seq = _stack((x, f_dyn))
        out = selective_scan(seq, core, n_segments=2)
        maps = unstack_scans(out, h, w, n=2)
        return adaptive_merge(maps, weights)

    f_h, f_v = orthogonal_maps(x, bank)
    f_dyn = dynamic_map(x, bank)
    seq = stack_scans(x, f_h, f_v, f_dyn)
    out = selective_scan(seq, core, n_segments=4)
    maps = unstack_scans(out, h, w, n=4)
    return adaptive_merge(maps, weights)
