"""Discretized selective state-space scan.

Covers the continuous-to-discrete bridge (zero-order hold), the reference
recurrence, the time-invariant convolution-kernel form, and the
input-dependent scan used inside every block. The recurrence per channel c
and state index n is

    h[t] = A_bar[t] * h[t-1] + B_bar[t] * x[t],    y[t] = C[t] . h[t] + D * x[t]

with A_bar = exp(delta * A). The input term uses the simplified
B_bar = delta * B by default; the full zero-order-hold expression
B_bar = (delta A)^{-1} (exp(delta A) - I) delta B is available behind
``exact_input_discretization`` and agrees with the simplified form as
delta -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import reference
from .init import inv_softplus, trunc_normal
from .tensor import (Tensor, linear, neg, record_op, recording, slice_axis,
                     softplus, tile_leading, exp as texp, _tally)

__all__ = [
    "SsmCore", "LtiSsm", "discretize_zoh", "scan_recurrent", "lti_kernel",
    "causal_conv", "ssm_scan", "selective_scan",
]

# Below this threshold the input-term discretization switches to its
# first-order limit B_bar = delta * B (removable singularity at a = 0).
_ZOH_LIMIT = 1e-8


def _as_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def discretize_zoh(A, B, delta, diagonal: bool | None = None):
    """Zero-order-hold discretization of (A, B) with step ``delta``.

    Two paths:
      - general: A is an [N, N] matrix; A_bar = expm(delta A),
        B_bar = (delta A)^{-1} (expm(delta A) - I) delta B. Requires
        delta A nonsingular.
      - diagonal: A holds per-state diagonal entries (any shape); both
        outputs are elementwise, with |delta*a| < 1e-8 falling back to the
        first-order limit B_bar = delta * B.

    ``diagonal=None`` infers: 2-D square A takes the general path.
    Returns (A_bar, B_bar) as numpy arrays.
    """
    a = _as_array(A)
    b = _as_array(B)
    d = _as_array(delta)
    if np.any(d <= 0):
        raise ValueError("discretize_zoh: delta must be positive")
    if diagonal is None:
        diagonal = not (a.ndim == 2 and a.shape[0] == a.shape[1])
    if not diagonal:
        if d.ndim != 0:
            raise ValueError("general matrix path takes a scalar delta")
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
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(np.abs(da) < _ZOH_LIMIT, d * np.ones_like(da),
                          (a_bar - 1.0) / np.where(a == 0, 1.0, a))
    return a_bar, factor * b


def scan_recurrent(A_bar, B_bar, C, x, h0=None) -> np.ndarray:
    """Run the discrete recurrence over a 1-D input sequence.

    A_bar, B_bar, C: per-state vectors [N] (scalars are promoted);
    x: [L]. Returns y: [L] with y[t] = C . h[t].
    """
    a_bar = np.atleast_1d(_as_array(A_bar)).astype(np.float64)
    b_bar = np.atleast_1d(_as_array(B_bar)).astype(np.float64)
    c = np.atleast_1d(_as_array(C)).astype(np.float64)
    x = np.atleast_1d(_as_array(x)).astype(np.float64)
    h = (np.zeros_like(a_bar) if h0 is None
         else np.atleast_1d(_as_array(h0)).astype(np.float64).copy())
    y = np.zeros(x.shape[0], dtype=np.float64)
    for t in range(x.shape[0]):
        h = a_bar * h + b_bar * x[t]
        y[t] = c @ h
    return y


def lti_kernel(A_bar, B_bar, C, L: int) -> np.ndarray:
    """Convolution kernel (C B_bar, C A_bar B_bar, ..., C A_bar^{L-1} B_bar)."""
    if L < 1:
        raise ValueError("lti_kernel: L must be >= 1")
    a_bar = np.atleast_1d(_as_array(A_bar)).astype(np.float64)
    b_bar = np.atleast_1d(_as_array(B_bar)).astype(np.float64)
    c = np.atleast_1d(_as_array(C)).astype(np.float64)
    powers = a_bar[None, :] ** np.arange(L, dtype=np.float64)[:, None]
    return powers @ (c * b_bar)


def causal_conv(x, kern) -> np.ndarray:
    """y[t] = sum_{s<=t} kern[t-s] x[s]; the convolution form of the scan."""
    x = _as_array(x)
    kern = _as_array(kern)
    return np.convolve(x, kern)[:x.shape[0]]


@dataclass
class LtiSsm:
    """Time-invariant triple (A, B, C) plus a positive step size."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    delta: float
    diagonal: bool = True

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("LtiSsm: delta must be positive")

    def discretize(self):
        return discretize_zoh(self.A, self.B, self.delta,
                              diagonal=self.diagonal)

    def kernel(self, L: int) -> np.ndarray:
        a_bar, b_bar = self.discretize()
        return lti_kernel(a_bar, b_bar, self.C, L)

    def scan(self, x) -> np.ndarray:
        a_bar, b_bar = self.discretize()
        return scan_recurrent(a_bar, b_bar, self.C, x)


# ---------------------------------------------------------------------------
# Fused scan primitive (taped, with hand-derived backward)

def ssm_scan(u: Tensor, delta: Tensor, a: Tensor, b_tok: Tensor,
             c_tok: Tensor, d_skip: Tensor | None = None, *,
             exact_input_discretization: bool = False,
             reset_interval: int | None = None,
             chunk: int = 64) -> Tensor:
    """Time-varying scan over a token sequence.

    u, delta: [B, L, C]; a: [C, N] (negative entries); b_tok, c_tok:
    [B, L, N]; d_skip: [C] or None. The recurrence runs sequentially over L
    but is vectorized over (B, C, N); discretized parameters are produced in
    chunks of ``chunk`` tokens to bound the working set, with the hidden
    state carried across chunk boundaries, and the readout is formed chunk
    by chunk. Only a taped call keeps every state h[t], which its backward
    reads; exp(delta * A) is recomputed there. ``reset_interval`` zeroes the
    state every that-many tokens (segment-independent processing).
    """
    bsz, length, ch = u.shape
    n = a.shape[1]
    if delta.shape != (bsz, length, ch):
        raise ValueError(f"ssm_scan: delta shape {delta.shape} != {u.shape}")
    if b_tok.shape != (bsz, length, n) or c_tok.shape != (bsz, length, n):
        raise ValueError("ssm_scan: token projections must be [B, L, N]")
    dtype = u.data.dtype
    carry = np.ones(length, dtype=dtype)
    if reset_interval is not None and reset_interval < length:
        carry[::reset_interval] = 0.0

    ud, dd, ad, bd, cd = u.data, delta.data, a.data, b_tok.data, c_tok.data
    inputs = ((u, delta, a, b_tok, c_tok) if d_skip is None
              else (u, delta, a, b_tok, c_tok, d_skip))
    # The backward reads every h[t]; an untaped call keeps one chunk of them.
    taped = recording(inputs)
    h_all = np.empty((bsz, length if taped else min(chunk, length), ch, n),
                     dtype=dtype)
    y = np.empty((bsz, length, ch), dtype=dtype)
    prev = np.zeros((bsz, ch, n), dtype=dtype)
    for t0 in range(0, length, chunk):
        t1 = min(t0 + chunk, length)
        hs = h_all[:, t0:t1] if taped else h_all[:, :t1 - t0]
        da = dd[:, t0:t1, :, None] * ad[None, None]
        a_bar = np.exp(da)
        if exact_input_discretization:
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(np.abs(da) < _ZOH_LIMIT, dd[:, t0:t1, :, None],
                             (a_bar - 1.0) / np.where(ad == 0, 1.0, ad))
        else:
            w = dd[:, t0:t1, :, None]
        bx = w * bd[:, t0:t1, None, :] * ud[:, t0:t1, :, None]
        # h[t] is written straight into its slot of the chunk.
        for i, t in enumerate(range(t0, t1)):
            h = hs[:, i]
            if carry[t] == 0.0:
                h[...] = bx[:, i]
            else:
                np.multiply(a_bar[:, i], prev, out=h)
                np.add(h, bx[:, i], out=h)
            prev = h
        y[:, t0:t1] = np.einsum("blcn,bln->blc", hs, cd[:, t0:t1])
    if d_skip is not None:
        y += ud * d_skip.data[None, None, :]
    _tally(2 * bsz * length * ch * n)

    def bwd(gy):
        g_ctok = np.einsum("blc,blcn->bln", gy, h_all)
        if d_skip is not None:
            g_d = np.einsum("blc,blc->c", gy, ud)
            g_u = gy * d_skip.data[None, None, :]
        else:
            g_d = None
            g_u = np.zeros_like(ud)
        # Reverse-time accumulation of dL/dh[t]: gh_all starts as the
        # readout term gy[t] * C[t] of every token; ca[t] is overwritten
        # with the gradient that h[t] passes back to h[t-1].
        gh_all = gy[:, :, :, None] * cd[:, :, None, :]
        # Recomputed rather than saved: the same products and exp as the
        # forward's chunks, so the same bytes.
        a_bar_all = np.exp(dd[:, :, :, None] * ad[None, None])
        ca = carry[None, :, None, None] * a_bar_all
        back = np.zeros((bsz, ch, n), dtype=dtype)
        for t in range(length - 1, -1, -1):
            gh = gh_all[:, t]
            np.add(gh, back, out=gh)
            back = ca[:, t]
            np.multiply(back, gh, out=back)
        h_prev = np.empty_like(h_all)
        h_prev[:, 0] = 0.0
        h_prev[:, 1:] = h_all[:, :-1]
        # d h[t] / d A_bar[t] = carry[t] * h[t-1]; the input term is never
        # gated, so its chain uses gh_all directly.
        g_abar = gh_all * h_prev * carry[None, :, None, None]
        g_delta = np.einsum("blcn,blcn,cn->blc", g_abar, a_bar_all, ad)
        g_a = np.einsum("blcn,blcn,blc->cn", g_abar, a_bar_all, dd)
        if exact_input_discretization:
            da = dd[:, :, :, None] * ad[None, None]
            safe_a = np.where(ad == 0, 1.0, ad)
            limit = np.abs(da) < _ZOH_LIMIT
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(limit, dd[:, :, :, None],
                             (a_bar_all - 1.0) / safe_a)
                dw_da = np.where(
                    limit, 0.5 * dd[:, :, :, None] ** 2,
                    (dd[:, :, :, None] * a_bar_all * safe_a
                     - a_bar_all + 1.0) / (safe_a * safe_a))
            dw_ddelta = a_bar_all
            g_a = g_a + np.einsum("blcn,blcn,bln,blc->cn",
                                  gh_all, dw_da, bd, ud)
        else:
            w = dd[:, :, :, None]
            dw_ddelta = None
        g_btok = np.einsum("blcn,blcn,blc->bln", gh_all, w, ud)
        g_u = g_u + np.einsum("blcn,blcn,bln->blc", gh_all, w, bd)
        if dw_ddelta is None:
            g_delta = g_delta + np.einsum("blcn,bln->blc", gh_all, bd) * ud
        else:
            g_delta = g_delta + np.einsum("blcn,blcn,bln->blc",
                                          gh_all, dw_ddelta, bd) * ud
        if d_skip is None:
            return g_u, g_delta, g_a, g_btok, g_ctok
        return g_u, g_delta, g_a, g_btok, g_ctok, g_d
    return record_op("ssm_scan", inputs, y, bwd)


# ---------------------------------------------------------------------------
# Selective core

class SsmCore:
    """Parameters of one scan: evolution diagonal plus token projections.

    The evolution diagonal is stored log-parameterized, A = -exp(A_log), so
    it stays strictly negative and the discrete factor exp(delta*A) stays in
    (0, 1) for any positive step. In selective mode the step size and the
    input/output projections are functions of the current token; in
    ``lti_mode`` they are learned constants, which makes the scan a
    per-channel time-invariant system.
    """

    def __init__(self, d_model: int, d_state: int = 1,
                 dt_rank: int | None = None, *, lti_mode: bool = False,
                 exact_input_discretization: bool = False,
                 segment_reset: bool = False, use_skip: bool = True,
                 dt_min: float = 1e-3, dt_max: float = 1e-1,
                 rng: np.random.Generator | None = None, dtype: str = "f32"):
        if rng is None:
            rng = np.random.default_rng(0)
        self.d_model = d_model
        self.d_state = d_state
        self.dt_rank = dt_rank if dt_rank is not None else max(
            math.ceil(d_model / 16), 1)
        self.lti_mode = lti_mode
        self.exact_input_discretization = exact_input_discretization
        self.segment_reset = segment_reset

        a_row = np.log(np.arange(1, d_state + 1, dtype=np.float64))
        self.A_log = Tensor(np.tile(a_row, (d_model, 1)), dtype=dtype,
                            grad_enabled=True)
        # Step sizes start log-uniform in [dt_min, dt_max].
        dt = np.exp(rng.uniform(np.log(dt_min), np.log(dt_max),
                                size=d_model))
        self.dt_bias = Tensor(inv_softplus(dt), dtype=dtype,
                              grad_enabled=True)
        self.D_skip = (Tensor(np.ones(d_model), dtype=dtype,
                              grad_enabled=True) if use_skip else None)
        if lti_mode:
            self.x_proj_weight = None
            self.dt_proj_weight = None
            self.B_const = Tensor(trunc_normal(rng, (d_state,), 1.0),
                                  dtype=dtype, grad_enabled=True)
            self.C_const = Tensor(trunc_normal(rng, (d_state,), 1.0),
                                  dtype=dtype, grad_enabled=True)
        else:
            # Fan-in-scaled init keeps the token-dependent pathway alive at
            # init; a 0.02-normal here would suppress cross-token
            # sensitivity below measurement thresholds.
            bound_x = 1.0 / math.sqrt(d_model)
            bound_dt = 1.0 / math.sqrt(self.dt_rank)
            self.x_proj_weight = Tensor(
                rng.uniform(-bound_x, bound_x,
                            (self.dt_rank + 2 * d_state, d_model)),
                dtype=dtype, grad_enabled=True)
            self.dt_proj_weight = Tensor(
                rng.uniform(-bound_dt, bound_dt, (d_model, self.dt_rank)),
                dtype=dtype, grad_enabled=True)
            self.B_const = None
            self.C_const = None

    def parameters(self) -> dict[str, Tensor]:
        out = {"A_log": self.A_log, "dt_bias": self.dt_bias}
        if self.lti_mode:
            out["B_const"] = self.B_const
            out["C_const"] = self.C_const
        else:
            out["x_proj_weight"] = self.x_proj_weight
            out["dt_proj_weight"] = self.dt_proj_weight
        if self.D_skip is not None:
            out["D_skip"] = self.D_skip
        return out


def selective_scan(x: Tensor, core: SsmCore, *, path: str = "fast",
                   n_segments: int = 1) -> Tensor:
    """Scan a [B, L, C] token sequence with input-dependent parameters.

    ``path="fast"`` runs the chunked vectorized implementation (taped, used
    for training); ``path="reference"`` runs the one-token-at-a-time oracle
    and returns an untaped tensor. ``n_segments`` marks the sequence as that
    many equal segments; with ``core.segment_reset`` the hidden state is
    zeroed at each segment start, otherwise it carries across the whole
    sequence.
    """
    if x.data.ndim != 3:
        raise ValueError(f"selective_scan expects [B, L, C], got {x.shape}")
    bsz, length, ch = x.shape
    if ch != core.d_model:
        raise ValueError(
            f"selective_scan: channel extent {ch} != core d_model "
            f"{core.d_model}")
    if length < 1:
        raise ValueError("selective_scan: sequence must be non-empty")
    if path == "reference":
        out = reference.selective_scan_reference(
            x.data.astype(np.float64), core, n_segments=n_segments)
        return Tensor(out.astype(x.data.dtype))
    if path != "fast":
        raise ValueError(f"unknown scan path {path!r}")

    n = core.d_state
    if core.lti_mode:
        delta = tile_leading(softplus(core.dt_bias), (bsz, length))
        b_tok = tile_leading(core.B_const, (bsz, length))
        c_tok = tile_leading(core.C_const, (bsz, length))
        _tally(2 * bsz * length * n)
    else:
        proj = linear(x, core.x_proj_weight)
        dt_raw = slice_axis(proj, 2, 0, core.dt_rank)
        b_tok = slice_axis(proj, 2, core.dt_rank, core.dt_rank + n)
        c_tok = slice_axis(proj, 2, core.dt_rank + n, core.dt_rank + 2 * n)
        delta = softplus(linear(dt_raw, core.dt_proj_weight, core.dt_bias))
    a = neg(texp(core.A_log))
    reset = None
    if core.segment_reset and n_segments > 1:
        reset = length // n_segments
    return ssm_scan(x, delta, a, b_tok, c_tok, core.D_skip,
                    exact_input_discretization=core.exact_input_discretization,
                    reset_interval=reset)
