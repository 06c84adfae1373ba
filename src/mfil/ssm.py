"""The selective state-space scan that every block runs.

Delta, B and C are functions of each token. The recurrence per channel c
and state index n is

    h[t] = A_bar[t] * h[t-1] + B_bar[t] * x[t],    y[t] = C[t] . h[t] + D * x[t]

with A_bar = exp(delta * A). The input term uses the simplified
B_bar = delta * B by default; the full zero-order-hold expression
B_bar = (delta A)^{-1} (exp(delta A) - I) delta B is available behind
``exact_input_discretization`` and agrees with the simplified form as
delta -> 0. Its sequential oracle is
``mfil.reference.selective_scan_reference``; the zero-order-hold and
kernel-form oracles of the time-invariant case live in ``mfil.reference``
too, and ``reference.discretize_zoh`` shares ``_zoh_weight`` with the scan.
"""

from __future__ import annotations

import math

import numpy as np

from .init import inv_softplus
from .tensor import (Tensor, linear, neg, record_op, recording, slice_axis,
                     softplus, exp as texp, _tally)

__all__ = ["SsmCore", "ssm_scan", "selective_scan", "dt_rank"]

# Below this threshold the input-term discretization switches to its
# first-order limit B_bar = delta * B (removable singularity at a = 0).
_ZOH_LIMIT = 1e-8

# Tokens per chunk of discretized parameters in ``ssm_scan``.
_CHUNK = 64

# Initial step sizes are drawn log-uniform in [_DT_MIN, _DT_MAX].
_DT_MIN, _DT_MAX = 1e-3, 1e-1


def _zoh_weight(delta, da, a, a_bar):
    """ZOH input weight (a_bar - 1) / a of a diagonal system, with its
    limit delta where |da| < ``_ZOH_LIMIT``; also the limit mask and ``a``
    with zeros replaced by 1, which the scan's backward reuses."""
    limit = np.abs(da) < _ZOH_LIMIT
    safe_a = np.where(a == 0, 1.0, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(limit, delta, (a_bar - 1.0) / safe_a)
    return w, limit, safe_a


# ---------------------------------------------------------------------------
# Fused scan primitive (taped, with hand-derived backward)

def _scan_states(hs, a_bar, bx, prev):
    """h[t] = a_bar[t] * h[t-1] + bx[t] over one chunk, in place.

    hs, a_bar, bx: [B, T, C, N] for the chunk's tokens; ``prev`` is h
    before the chunk. Each h[t] is written straight into its slot of
    ``hs``; returns the last one.
    """
    for h, a_t, bx_t in zip(hs.swapaxes(0, 1), a_bar.swapaxes(0, 1),
                            bx.swapaxes(0, 1)):
        np.multiply(a_t, prev, out=h)
        np.add(h, bx_t, out=h)
        prev = h
    return prev


def _sweep_states_back(gh_all, ca):
    """Reverse-time accumulation of dL/dh[t] into ``gh_all``, in place.

    gh_all, ca: [B, L, C, N]. gh_all[t] starts as the readout term and
    gains ca[t + 1] * dL/dh[t + 1]; ca[t] is overwritten with
    ca[t] * dL/dh[t].
    """
    back = np.zeros_like(gh_all[:, 0])
    for gh, ca_t in zip(gh_all.swapaxes(0, 1)[::-1], ca.swapaxes(0, 1)[::-1]):
        np.add(gh, back, out=gh)
        back = ca_t
        np.multiply(back, gh, out=back)


def ssm_scan(u: Tensor, delta: Tensor, a: Tensor, b_tok: Tensor,
             c_tok: Tensor, d_skip: Tensor, *,
             exact_input_discretization: bool = False) -> Tensor:
    """Time-varying scan over a token sequence.

    u, delta: [B, L, C]; a: [C, N] (negative entries); b_tok, c_tok:
    [B, L, N]; d_skip: [C]. Each batch row is one sequence whose state
    starts at zero. The recurrence runs sequentially over L but is
    vectorized over (B, C, N); discretized parameters are produced in
    chunks of ``_CHUNK`` tokens to bound the working set, with the hidden
    state carried across chunk boundaries, and the readout is formed chunk
    by chunk. Only a taped call keeps every state h[t], which its backward
    reads; exp(delta * A) is recomputed there.
    """
    bsz, length, ch = u.shape
    n = a.shape[1]
    if delta.shape != (bsz, length, ch):
        raise ValueError(f"ssm_scan: delta shape {delta.shape} != {u.shape}")
    if b_tok.shape != (bsz, length, n) or c_tok.shape != (bsz, length, n):
        raise ValueError("ssm_scan: token projections must be [B, L, N]")
    dtype = u.data.dtype

    ud, dd, ad, bd, cd = u.data, delta.data, a.data, b_tok.data, c_tok.data
    inputs = (u, delta, a, b_tok, c_tok, d_skip)
    # The backward reads every h[t]; an untaped call keeps one chunk of them.
    taped = recording(inputs)
    h_all = np.empty((bsz, length if taped else min(_CHUNK, length), ch, n),
                     dtype=dtype)
    y = np.empty((bsz, length, ch), dtype=dtype)
    prev = np.zeros((bsz, ch, n), dtype=dtype)
    for t0 in range(0, length, _CHUNK):
        t1 = min(t0 + _CHUNK, length)
        hs = h_all[:, t0:t1] if taped else h_all[:, :t1 - t0]
        da = dd[:, t0:t1, :, None] * ad[None, None]
        a_bar = np.exp(da)
        if exact_input_discretization:
            w = _zoh_weight(dd[:, t0:t1, :, None], da, ad, a_bar)[0]
        else:
            w = dd[:, t0:t1, :, None]
        bx = w * bd[:, t0:t1, None, :] * ud[:, t0:t1, :, None]
        prev = _scan_states(hs, a_bar, bx, prev)
        y[:, t0:t1] = np.einsum("blcn,bln->blc", hs, cd[:, t0:t1])
    dskip = d_skip.data
    y += ud * dskip[None, None, :]
    _tally(2 * bsz * length * ch * n)

    def bwd(gy):
        g_ctok = np.einsum("blc,blcn->bln", gy, h_all)
        g_d = np.einsum("blc,blc->c", gy, ud)
        g_u = gy * dskip[None, None, :]
        # Reverse-time accumulation of dL/dh[t]: gh_all starts as the
        # readout term gy[t] * C[t] of every token; ca[t] is overwritten
        # with the gradient that h[t] passes back to h[t-1].
        gh_all = gy[:, :, :, None] * cd[:, :, None, :]
        # Recomputed rather than saved: the same products and exp as the
        # forward's chunks, so the same bytes. The sweep overwrites ``ca``.
        a_bar_all = np.exp(dd[:, :, :, None] * ad[None, None])
        ca = a_bar_all.copy()
        _sweep_states_back(gh_all, ca)
        h_prev = np.empty_like(h_all)
        h_prev[:, 0] = 0.0
        h_prev[:, 1:] = h_all[:, :-1]
        g_abar = gh_all * h_prev
        g_delta = np.einsum("blcn,blcn,cn->blc", g_abar, a_bar_all, ad)
        g_a = np.einsum("blcn,blcn,blc->cn", g_abar, a_bar_all, dd)
        if exact_input_discretization:
            da = dd[:, :, :, None] * ad[None, None]
            w, limit, safe_a = _zoh_weight(dd[:, :, :, None], da, ad,
                                           a_bar_all)
            with np.errstate(divide="ignore", invalid="ignore"):
                dw_da = np.where(
                    limit, 0.5 * dd[:, :, :, None] ** 2,
                    (dd[:, :, :, None] * a_bar_all * safe_a
                     - a_bar_all + 1.0) / (safe_a * safe_a))
            g_a = g_a + np.einsum("blcn,blcn,bln,blc->cn",
                                  gh_all, dw_da, bd, ud)
            # d w / d delta = a_bar
            g_delta = g_delta + np.einsum("blcn,blcn,bln->blc",
                                          gh_all, a_bar_all, bd) * ud
        else:
            w = dd[:, :, :, None]
            g_delta = g_delta + np.einsum("blcn,bln->blc", gh_all, bd) * ud
        g_btok = np.einsum("blcn,blcn,blc->bln", gh_all, w, ud)
        g_u = g_u + np.einsum("blcn,blcn,bln->blc", gh_all, w, bd)
        return g_u, g_delta, g_a, g_btok, g_ctok, g_d
    return record_op("ssm_scan", inputs, y, bwd)


# ---------------------------------------------------------------------------
# Selective core

def dt_rank(d_model: int) -> int:
    """Width of the low-rank step-size projection: ceil(d_model / 16), at
    least 1."""
    return max(math.ceil(d_model / 16), 1)


class SsmCore:
    """Parameters of one selective scan: evolution diagonal, skip gain and
    the token projections that give delta, B and C.

    The evolution diagonal is stored log-parameterized, A = -exp(A_log), so
    it stays strictly negative and the discrete factor exp(delta*A) stays in
    (0, 1) for any positive step. ``dt_rank`` is the width of the low-rank
    step-size projection (``dt_rank(d_model)``).
    """

    def __init__(self, d_model: int, d_state: int = 1, *,
                 exact_input_discretization: bool = False,
                 segment_reset: bool = False,
                 rng: np.random.Generator, dtype: str = "f32"):
        self.d_model = d_model
        self.d_state = d_state
        self.dt_rank = dt_rank(d_model)
        self.exact_input_discretization = exact_input_discretization
        self.segment_reset = segment_reset

        a_row = np.log(np.arange(1, d_state + 1, dtype=np.float64))
        self.A_log = Tensor(np.tile(a_row, (d_model, 1)), dtype=dtype,
                            grad_enabled=True)
        dt = np.exp(rng.uniform(np.log(_DT_MIN), np.log(_DT_MAX),
                                size=d_model))
        self.dt_bias = Tensor(inv_softplus(dt), dtype=dtype,
                              grad_enabled=True)
        self.D_skip = Tensor(np.ones(d_model), dtype=dtype, grad_enabled=True)
        # Fan-in-scaled init keeps the token-dependent pathway alive at
        # init; a 0.02-normal here would suppress cross-token sensitivity
        # below measurement thresholds.
        bound_x = 1.0 / math.sqrt(d_model)
        bound_dt = 1.0 / math.sqrt(self.dt_rank)
        self.x_proj_weight = Tensor(
            rng.uniform(-bound_x, bound_x,
                        (self.dt_rank + 2 * d_state, d_model)),
            dtype=dtype, grad_enabled=True)
        self.dt_proj_weight = Tensor(
            rng.uniform(-bound_dt, bound_dt, (d_model, self.dt_rank)),
            dtype=dtype, grad_enabled=True)

    def parameters(self) -> dict[str, Tensor]:
        return {"A_log": self.A_log, "dt_bias": self.dt_bias,
                "x_proj_weight": self.x_proj_weight,
                "dt_proj_weight": self.dt_proj_weight,
                "D_skip": self.D_skip}


def selective_scan(x: Tensor, core: SsmCore) -> Tensor:
    """Scan a [B, L, C] token sequence with input-dependent parameters.

    Runs ``ssm_scan`` (taped): a per-token loop vectorized over (B, C, N),
    with the discretization computed in chunks of tokens. Each batch row is
    one sequence that starts from a zero state.
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

    n = core.d_state
    proj = linear(x, core.x_proj_weight)
    dt_raw = slice_axis(proj, 2, 0, core.dt_rank)
    b_tok = slice_axis(proj, 2, core.dt_rank, core.dt_rank + n)
    c_tok = slice_axis(proj, 2, core.dt_rank + n, core.dt_rank + 2 * n)
    delta = softplus(linear(dt_raw, core.dt_proj_weight, core.dt_bias))
    a = neg(texp(core.A_log))
    return ssm_scan(x, delta, a, b_tok, c_tok, core.D_skip,
                    exact_input_discretization=core.exact_input_discretization)
