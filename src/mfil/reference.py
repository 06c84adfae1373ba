"""Independent oracles for the vectorized primitives and the scan.

The loop-level oracles are deliberately written as plain nested loops over
numpy scalars (or one-token-at-a-time recurrences) so they share no code
path with the implementations they check. Slow on purpose; use small
shapes.

The kernel-form oracles check the scan's time-invariant case:
``discretize_zoh`` (zero-order hold of a diagonal or a general A),
``lti_kernel`` (the convolution kernel of a discretized system) and
``causal_conv``. With constant delta, B and C the model's ``ssm_scan``
must equal ``causal_conv(x, lti_kernel(...))``. The diagonal path of
``discretize_zoh`` calls the scan's own ``_zoh_weight``, so its checks
cover the arithmetic the scan runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ssm import _ZOH_LIMIT, _zoh_weight


def conv2d_reference(x: np.ndarray, k: np.ndarray, stride: int = 1,
                     padding: int = 0) -> np.ndarray:
    """Six-nested-loop cross-correlation oracle."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=x.dtype)
    for b in range(n):
        for co in range(c_out):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(c_in):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += (k[co, ci, dy, dx] *
                                        xp[b, ci, oy * stride + dy,
                                           ox * stride + dx])
                    out[b, co, oy, ox] = acc
    return out


def depthwise_conv2d_reference(x: np.ndarray, k: np.ndarray, stride: int = 1,
                               padding: int = 0) -> np.ndarray:
    n, c, h, w = x.shape
    _, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for b in range(n):
        for ch in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for dy in range(kh):
                        for dx in range(kw):
                            acc += (k[ch, 0, dy, dx] *
                                    xp[b, ch, oy * stride + dy,
                                       ox * stride + dx])
                    out[b, ch, oy, ox] = acc
    return out


def linear_reference(x: np.ndarray, w: np.ndarray,
                     b: np.ndarray | None = None) -> np.ndarray:
    """Explicit dot-product oracle over the trailing axis."""
    lead = x.shape[:-1]
    d_in = x.shape[-1]
    d_out = w.shape[0]
    x2 = x.reshape(-1, d_in)
    out = np.zeros((x2.shape[0], d_out), dtype=x.dtype)
    for r in range(x2.shape[0]):
        for o in range(d_out):
            acc = 0.0
            for i in range(d_in):
                acc += x2[r, i] * w[o, i]
            if b is not None:
                acc += b[o]
            out[r, o] = acc
    return out.reshape(lead + (d_out,))


def layer_norm_reference(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                         eps: float = 1e-5) -> np.ndarray:
    """Two-pass mean/variance oracle over the trailing axis."""
    c = x.shape[-1]
    x2 = x.reshape(-1, c)
    out = np.zeros_like(x2)
    for r in range(x2.shape[0]):
        mu = sum(x2[r, i] for i in range(c)) / c
        var = sum((x2[r, i] - mu) ** 2 for i in range(c)) / c
        for i in range(c):
            out[r, i] = (x2[r, i] - mu) / np.sqrt(var + eps) * gamma[i] + beta[i]
    return out.reshape(x.shape)


def discretize_zoh(A, B, delta, diagonal: bool = True):
    """Zero-order-hold discretization of (A, B) with step ``delta``.

    Two paths:
      - diagonal (the default): A holds per-state diagonal entries (any
        shape); both outputs are elementwise, with |delta*a| < 1e-8
        falling back to the first-order limit B_bar = delta * B.
      - general (``diagonal=False``): A is an [N, N] matrix;
        A_bar = expm(delta A),
        B_bar = (delta A)^{-1} (expm(delta A) - I) delta B. Requires a
        scalar delta and delta A nonsingular.

    Returns (A_bar, B_bar) as numpy arrays.
    """
    a = np.asarray(A, dtype=np.float64)
    b = np.asarray(B, dtype=np.float64)
    d = np.asarray(delta, dtype=np.float64)
    if np.any(d <= 0):
        raise ValueError("discretize_zoh: delta must be positive")
    if not diagonal:
        if d.ndim != 0:
            raise ValueError("general matrix path takes a scalar delta")
        # Only the verification suites take this path, so a training or
        # analysis run never loads scipy.linalg.
        from scipy.linalg import expm
        da = float(d) * a
        n = a.shape[0]
        a_bar = expm(da)
        db = float(d) * b.reshape(n, -1)
        try:
            cond = np.linalg.cond(da)
        except np.linalg.LinAlgError:
            cond = np.inf
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError("discretize_zoh: delta * A is singular")
        b_bar = np.linalg.solve(da, (a_bar - np.eye(n)) @ db)
        return a_bar, b_bar.reshape(b.shape)
    da = d * a
    a_bar = np.exp(da)
    return a_bar, _zoh_weight(d, da, a, a_bar)[0] * b


def lti_kernel(A_bar, B_bar, C, L: int) -> np.ndarray:
    """Convolution kernel (C B_bar, C A_bar B_bar, ..., C A_bar^{L-1} B_bar)
    of a diagonal system; per-state vectors [N] (scalars are promoted)."""
    if L < 1:
        raise ValueError("lti_kernel: L must be >= 1")
    a_bar, b_bar, c = (np.atleast_1d(np.asarray(v, dtype=np.float64))
                       for v in (A_bar, B_bar, C))
    powers = a_bar[None, :] ** np.arange(L, dtype=np.float64)[:, None]
    return powers @ (c * b_bar)


def causal_conv(x, kern) -> np.ndarray:
    """y[t] = sum_{s<=t} kern[t-s] x[s]; the convolution form of the scan."""
    x = np.asarray(x, dtype=np.float64)
    kern = np.asarray(kern, dtype=np.float64)
    return np.convolve(x, kern)[:x.shape[0]]


def selective_scan_reference(x: np.ndarray, core,
                             n_segments: int = 1) -> np.ndarray:
    """One-token-at-a-time selective scan, independent of the fused path.

    x: [B, L, C]. ``core`` is an SsmCore; its projection weights are read as
    plain arrays here, and its ``exact_input_discretization`` and
    ``segment_reset`` flags select the input term and the state resets;
    ``n_segments`` must divide L.
    Per token: delta = softplus(dt_proj(x_proj_dt(x)) + dt_bias), B/C read
    from the projection, state updated with the discretized recurrence,
    output C.h + D*x.
    """
    b, l, c = x.shape
    if n_segments < 1 or l % n_segments:
        raise ValueError(
            f"selective_scan: n_segments {n_segments} does not divide "
            f"sequence length {l} into equal segments")
    n = core.d_state
    seg_len = l // n_segments
    a = -np.exp(core.A_log.data)  # [C, N]
    out = np.zeros((b, l, c), dtype=x.dtype)
    for bi in range(b):
        h = np.zeros((c, n), dtype=x.dtype)
        for t in range(l):
            if core.segment_reset and t % seg_len == 0:
                h = np.zeros((c, n), dtype=x.dtype)
            xt = x[bi, t]  # [C]
            proj = core.x_proj_weight.data @ xt
            dt_raw = proj[:core.dt_rank]
            b_t = proj[core.dt_rank:core.dt_rank + n]
            c_t = proj[core.dt_rank + n:]
            delta = np.logaddexp(
                0.0, core.dt_proj_weight.data @ dt_raw + core.dt_bias.data)
            da = delta[:, None] * a  # [C, N]
            a_bar = np.exp(da)
            if core.exact_input_discretization:
                w = np.where(np.abs(da) < _ZOH_LIMIT,
                             delta[:, None], (a_bar - 1.0) / a)
            else:
                w = delta[:, None]
            h = a_bar * h + (w * b_t[None, :]) * xt[:, None]
            out[bi, t] = h @ c_t + core.D_skip.data * xt
    return out


def rel_err(got, want) -> float:
    """Max elementwise deviation relative to the reference scale."""
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def max_err(*errors) -> float:
    """The largest of ``errors``, or NaN if any is NaN. Python's ``max``
    drops a NaN that is not its first argument, so a NaN error would pass
    a ``<=`` tolerance."""
    return float(np.max(errors))


@dataclass(frozen=True)
class Check:
    """One verification verdict. With a ``tolerance`` it passes when
    ``value <= tolerance``, so a NaN fails; without one, ``value`` is a
    fact (a bool) and is the verdict. ``str`` is its printed line."""

    label: str
    value: float | bool
    tolerance: float | None = None

    @property
    def passed(self) -> bool:
        if self.tolerance is None:
            return bool(self.value)
        return bool(self.value <= self.tolerance)

    def __str__(self):
        if self.tolerance is None:
            return f"{self.label}: {bool(self.value)}"
        return f"{self.label}: {self.value:.3e} (tol {self.tolerance:g})"


def stencil_points(x, h: float) -> tuple:
    """The perturbed values of the central stencil, in evaluation order:
    x + h, x - h, x + 2h, x - 2h."""
    return x + h, x - h, x + 2 * h, x - 2 * h


def fourth_order_difference(fp: float, fm: float, fp2: float, fm2: float,
                            h: float) -> float:
    """Derivative from the losses at the four ``stencil_points``."""
    return (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h)


def central_difference(f, flat: np.ndarray, i: int, h: float) -> float:
    """Central difference of scalar-valued ``f`` in element i of ``flat``.

    The four-point stencil keeps truncation error well below 1e-4 relative
    at h=1e-4 even for sharply curved losses. Element i is restored even
    when ``f`` raises.
    """
    orig = flat[i]
    values = []
    try:
        for v in stencil_points(orig, h):
            flat[i] = v
            values.append(f())
    finally:
        flat[i] = orig
    return fourth_order_difference(*values, h)
