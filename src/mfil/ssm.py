"""The selective state-space scan that every block runs.

Delta, B and C are functions of each token. The recurrence per channel c
and state index n is

    h[t] = A_bar[t] * h[t-1] + B_bar[t] * x[t],    y[t] = C[t] . h[t] + D * x[t]

with A_bar = exp(delta * A). The input term uses the simplified
B_bar = delta * B by default; the full zero-order-hold expression
B_bar = (delta A)^{-1} (exp(delta A) - I) delta B is available behind
``exact_input_discretization`` and agrees with the simplified form as
delta -> 0.

A scan records two nodes: the x_proj ``linear`` and ``ssm_scan``, which
runs dt_proj on the x_proj output's step columns, forms delta =
softplus(dt + dt_bias) and A = -exp(A_log), reads B and C from the same
output, and runs ``recurrence``. The recurrence's rule takes the forward's
u and delta back in rather than keep them: ``ssm_scan`` rebuilds delta from
the step columns it keeps, and ``scan.mfil_ssm``, which runs the scan
through ``_kept_scan`` inside one node of its own, also rebuilds u and the
scan output. The scan's sequential oracle is
``mfil.reference.selective_scan_reference``; the zero-order-hold and
kernel-form oracles of the time-invariant case live in ``mfil.reference``
too, and ``reference.discretize_zoh`` shares ``_zoh_weight`` with the scan.
"""

from __future__ import annotations

import math

import numpy as np

from .init import inv_softplus
from .tensor import (NonFiniteError, Tensor, linear, record_op, recording,
                     _affine, _affine_grads, _sigmoid_np, _softplus_np,
                     _tally, _untaped)

__all__ = ["SsmCore", "recurrence", "ssm_scan", "selective_scan",
           "dt_rank"]

# Below this threshold the input-term discretization switches to its
# first-order limit B_bar = delta * B (removable singularity at a = 0).
_ZOH_LIMIT = 1e-8

# Tokens per chunk of discretized parameters in ``recurrence``.
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
# The recurrence and the fused scan node (hand-derived backward)

def _time_major(a):
    """[B, T, ...] as a C-contiguous [T, B, ...] array, so each token is
    one contiguous row; at B = 1 that is ``a`` itself, viewed."""
    return np.ascontiguousarray(a.swapaxes(0, 1))


def _scan_states(hs, a_bar, bx, prev):
    """h[t] = a_bar[t] * h[t-1] + bx[t] over one chunk.

    hs, a_bar, bx: [B, T, C, N] for the chunk's tokens; ``prev`` is h
    before the chunk. The loop runs over time-major rows: a token's
    strided [B, C, N] slice of the batch-major arrays costs a ufunc call
    several times as much once B > 1. The states are then copied into
    ``hs``; returns the last one.
    """
    rows = np.empty((hs.shape[1],) + prev.shape, dtype=hs.dtype)
    for h, a_t, bx_t in zip(rows, _time_major(a_bar), _time_major(bx)):
        np.multiply(a_t, prev, out=h)
        np.add(h, bx_t, out=h)
        prev = h
    hs[...] = rows.swapaxes(0, 1)
    return prev


def _sweep_states_back(gh_all, a_bar_all):
    """Reverse-time accumulation of dL/dh[t] into ``gh_all``, in place.

    gh_all, a_bar_all: [B, L, C, N]. gh_all[t] starts as the readout term
    and gains a_bar[t + 1] * dL/dh[t + 1]. The sweep runs over time-major
    rows, as in ``_scan_states``, with a scratch copy of ``a_bar_all``
    whose row t it overwrites with a_bar[t] * dL/dh[t].
    """
    gh_rows = _time_major(gh_all)
    ca = np.array(a_bar_all.swapaxes(0, 1), order="C")
    back = np.zeros_like(gh_rows[0])
    for gh, ca_t in zip(gh_rows[::-1], ca[::-1]):
        np.add(gh, back, out=gh)
        back = ca_t
        np.multiply(back, gh, out=back)
    gh_all[...] = gh_rows.swapaxes(0, 1)


def _readout(hs, c):
    """C[t] . h[t] of the states hs [B, T, C, N] and c [B, T, N]."""
    return np.einsum("blcn,bln->blc", hs, c)


def _add_skip(y, u, d_skip):
    """y + D * u, in place; returns y."""
    y += u * d_skip[None, None, :]
    return y


def recurrence(u, delta, a, b, c, d_skip, *,
               exact_input_discretization: bool = False,
               taped: bool = False):
    """The scan on arrays: y for u, delta [B, L, C], a [C, N], b, c
    [B, L, N] and d_skip [C], and with ``taped`` its rule, else None.

    Each batch row is one sequence whose state starts at zero. The
    recurrence runs sequentially over L but is vectorized over (B, C, N);
    discretized parameters are produced in chunks of ``_CHUNK`` tokens to
    bound the working set, with the hidden state carried across chunk
    boundaries, and the readout is formed chunk by chunk. Only a taped call
    keeps every state h[t]. The rule is a pair of functions of the
    forward's u and delta, which it does not keep: ``backward(gy, u,
    delta)`` -> (g_u, g_delta, g_a, g_b, g_c, g_d_skip), which recomputes
    exp(delta * A), and ``outputs(u)``, y again, read out of the kept
    states chunk by chunk as the forward read it.
    """
    bsz, length, ch = u.shape
    n = a.shape[1]
    h_all = np.empty((bsz, length if taped else min(_CHUNK, length), ch, n),
                     dtype=u.dtype)
    y = np.empty((bsz, length, ch), dtype=u.dtype)
    prev = np.zeros((bsz, ch, n), dtype=u.dtype)
    for t0 in range(0, length, _CHUNK):
        t1 = min(t0 + _CHUNK, length)
        hs = h_all[:, t0:t1] if taped else h_all[:, :t1 - t0]
        da = delta[:, t0:t1, :, None] * a[None, None]
        a_bar = np.exp(da)
        if exact_input_discretization:
            w = _zoh_weight(delta[:, t0:t1, :, None], da, a, a_bar)[0]
        else:
            w = delta[:, t0:t1, :, None]
        bx = w * b[:, t0:t1, None, :] * u[:, t0:t1, :, None]
        prev = _scan_states(hs, a_bar, bx, prev)
        y[:, t0:t1] = _readout(hs, c[:, t0:t1])
    _add_skip(y, u, d_skip)
    _tally(2 * bsz * length * ch * n)
    if not taped:
        return y, None

    def outputs(u):
        y = np.empty((bsz, length, ch), dtype=u.dtype)
        for t0 in range(0, length, _CHUNK):
            t1 = min(t0 + _CHUNK, length)
            y[:, t0:t1] = _readout(h_all[:, t0:t1], c[:, t0:t1])
        return _add_skip(y, u, d_skip)

    def backward(gy, u, delta):
        g_c = np.einsum("blc,blcn->bln", gy, h_all)
        g_d = np.einsum("blc,blc->c", gy, u)
        # Reverse-time accumulation of dL/dh[t]: gh_all starts as the
        # readout term gy[t] * C[t] of every token.
        gh_all = gy[:, :, :, None] * c[:, :, None, :]
        # Recomputed rather than saved: the same products and exp as the
        # forward's chunks, so the same bytes.
        a_bar_all = np.exp(delta[:, :, :, None] * a[None, None])
        _sweep_states_back(gh_all, a_bar_all)
        # dL/da_bar[t] = dL/dh[t] * h[t - 1], with h[-1] = 0.
        g_abar = np.empty_like(gh_all)
        np.multiply(gh_all[:, 1:], h_all[:, :-1], out=g_abar[:, 1:])
        np.multiply(gh_all[:, 0], 0.0, out=g_abar[:, 0])
        g_delta = np.einsum("blcn,blcn,cn->blc", g_abar, a_bar_all, a)
        g_a = np.einsum("blcn,blcn,blc->cn", g_abar, a_bar_all, delta)
        del g_abar
        if exact_input_discretization:
            da = delta[:, :, :, None] * a[None, None]
            w, limit, safe_a = _zoh_weight(delta[:, :, :, None], da, a,
                                           a_bar_all)
            with np.errstate(divide="ignore", invalid="ignore"):
                dw_da = np.where(
                    limit, 0.5 * delta[:, :, :, None] ** 2,
                    (delta[:, :, :, None] * a_bar_all * safe_a
                     - a_bar_all + 1.0) / (safe_a * safe_a))
            g_a = g_a + np.einsum("blcn,blcn,bln,blc->cn",
                                  gh_all, dw_da, b, u)
            # d w / d delta = a_bar
            g_delta = g_delta + np.einsum("blcn,blcn,bln->blc",
                                          gh_all, a_bar_all, b) * u
        else:
            w = delta[:, :, :, None]
            g_delta = g_delta + np.einsum("blcn,bln->blc", gh_all, b) * u
        del a_bar_all
        g_b = np.einsum("blcn,blcn,blc->bln", gh_all, w, u)
        g_u = gy * d_skip[None, None, :] + np.einsum("blcn,blcn,bln->blc",
                                                     gh_all, w, b)
        return g_u, g_delta, g_a, g_b, g_c, g_d
    return y, (backward, outputs)


def _check_finite(name: str, values: np.ndarray):
    if not np.isfinite(values).all():
        raise NonFiniteError(f"ssm_scan: {name} is non-finite")


def _scan(u: Tensor, dt_proj: Tensor, a_log: Tensor, proj: Tensor,
          dt_bias: Tensor, d_skip: Tensor, exact: bool, taped: bool):
    """``ssm_scan``'s arithmetic: y, and with ``taped`` its rule, else
    None. The rule is ``(backward(gy, u), outputs(u))`` of the forward's
    u, which it does not keep; ``backward`` gives the gradients of the six
    inputs in order and ``outputs`` is ``recurrence``'s."""
    bsz, length, ch = u.shape
    n = a_log.shape[1]
    w_dt, b_dt = dt_proj.data, dt_bias.data
    rank = w_dt.shape[1]
    width = rank + 2 * n
    if w_dt.shape[0] != ch:
        raise ValueError(f"ssm_scan: dt_proj shape {w_dt.shape} does not "
                         f"map to {ch} channels")
    if proj.shape != (bsz, length, width):
        raise ValueError("ssm_scan: proj must be [B, L, R + 2N]")
    m = bsz * length
    steps = np.ascontiguousarray(proj.data[..., :rank]).reshape(m, rank)

    def step_pre():
        return _affine(steps, w_dt).reshape(bsz, length, ch) + b_dt

    with np.errstate(over="ignore"):  # overflow surfaces as NonFiniteError
        pre = step_pre()
        _check_finite("the step-size pre-activation", pre)
        delta = _softplus_np(pre)
        _check_finite("delta", delta)
        e = np.exp(a_log.data)
        _check_finite("exp(A_log)", e)
    _tally(m * ch * rank + 5 * delta.size + 5 * e.size)
    del pre  # not held through the recurrence; the backward rebuilds it
    b_tok = np.ascontiguousarray(proj.data[..., width - 2 * n:width - n])
    c_tok = np.ascontiguousarray(proj.data[..., width - n:])
    y, rule = recurrence(
        u.data, delta, -e, b_tok, c_tok, d_skip.data,
        exact_input_discretization=exact, taped=taped)
    if rule is None:
        return y, None
    scan_bwd, outputs = rule

    def backward(gy, u):
        # The forward's delta, then its pre-activation again: neither is
        # held through the recurrence's backward.
        with np.errstate(over="ignore"):
            delta = _softplus_np(step_pre())
        g_u, g_delta, g_a, g_b, g_c, g_d = scan_bwd(gy, u, delta)
        del delta
        with np.errstate(over="ignore"):
            pre = step_pre()
        g_pre = (g_delta * _sigmoid_np(pre)).reshape(m, ch)
        g_steps, g_w = _affine_grads(g_pre, steps, w_dt, bias=False)
        g_proj = np.empty((bsz, length, width), dtype=gy.dtype)
        g_proj[..., :rank] = g_steps.reshape(bsz, length, rank)
        g_proj[..., width - 2 * n:width - n] = g_b
        g_proj[..., width - n:] = g_c
        g_proj += 0.0
        return g_u, g_w, -g_a * e, g_proj, g_pre.sum(axis=0), g_d
    return y, (backward, outputs)


def ssm_scan(u: Tensor, dt_proj: Tensor, a_log: Tensor, proj: Tensor,
             dt_bias: Tensor, d_skip: Tensor, *,
             exact_input_discretization: bool = False) -> Tensor:
    """The selective scan as one node, from its parameters' raw forms.

    u: [B, L, C], the scan input; dt_proj: [C, R], the step-size
    projection; a_log: [C, N]; proj: [B, L, R + 2N], the x_proj output,
    whose first R columns are the step columns and last 2N are B and C;
    dt_bias, d_skip: [C]. Inside, dt = dt_proj(step columns), delta =
    softplus(dt + dt_bias) and A = -exp(A_log), as the ``delta_bias`` and
    ``delta_softplus`` arguments of Mamba's ``selective_scan_fn`` do; then
    ``recurrence``. dt is ``linear``'s product, the activations are
    ``tensor``'s own forms, and their gradients the products and sums those
    nodes' rules take, so the bytes are those of the graph that runs them
    as nodes; the gradient of proj turns each -0.0 into +0.0, as that
    graph's sum over the slices of proj did. The step-size pre-activation,
    delta and exp(A_log) are each checked to be finite. The backward keeps
    u, the step columns and the states, and rebuilds the pre-activation
    and delta from the step columns.
    """
    inputs = (u, dt_proj, a_log, proj, dt_bias, d_skip)
    y, rule = _scan(*inputs, exact_input_discretization, recording(inputs))
    u_data = u.data
    return record_op("ssm_scan", inputs, y,
                     rule and (lambda gy: rule[0](gy, u_data)))


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

    Two nodes: the x_proj linear and the fused ``ssm_scan``, a per-token
    loop vectorized over (B, C, N) with the discretization computed in
    chunks of tokens. Each batch row is one sequence that starts from a
    zero state.
    """
    proj = _projected(x, core)
    return ssm_scan(x, core.dt_proj_weight, core.A_log, proj, core.dt_bias,
                    core.D_skip,
                    exact_input_discretization=core.exact_input_discretization)


def _projected(x: Tensor, core: SsmCore) -> Tensor:
    """The x_proj output of a checked [B, L, C] scan input."""
    if x.data.ndim != 3:
        raise ValueError(f"selective_scan expects [B, L, C], got {x.shape}")
    bsz, length, ch = x.shape
    if ch != core.d_model:
        raise ValueError(
            f"selective_scan: channel extent {ch} != core d_model "
            f"{core.d_model}")
    if length < 1:
        raise ValueError("selective_scan: sequence must be non-empty")
    return linear(x, core.x_proj_weight)


def _kept_scan(x: Tensor, core: SsmCore):
    """``selective_scan`` of x, its primitives run untaped, with the rule
    ``_scan`` keeps: (the output, (backward, outputs)). A fused node that
    holds the rule drops x and rebuilds it for the backward."""
    with _untaped():
        proj = _projected(x, core)
        inputs = (x, core.dt_proj_weight, core.A_log, proj, core.dt_bias,
                  core.D_skip)
        y, rule = _scan(*inputs, core.exact_input_discretization, True)
        return record_op("ssm_scan", inputs, y, None), rule
