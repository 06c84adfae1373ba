"""The residual block: gated multi-filter SSM plus a convolutional FFN.

Data flow for a channel-last input x of shape [B, H, W, C]; every map in
the block, the scan's views included, keeps that layout, so the norms,
linears, depthwise convolutions and the scan run without a layout copy:

    x'  = LN(x)
    u   = Linear(x')                             (width 2 * C_inner, split)
    z'  = MFil-SSM(SiLU(DWConv(u[..., :C_inner])))
    z'' = SiLU(u[..., C_inner:])
    y'  = Linear(z' * z'') + x
    y   = y' + LN(ConvFFN(y'))

The norm after the FFN sits inside the residual on purpose. The projection
back to C and the FFN's second linear are drawn like the other linears,
from a truncated normal with std 0.02, so a block is not the identity map
at initialization.

The block runs as two halves: ``mixer_forward`` (x -> y') and
``ffn_forward`` (y' -> y), each owning the parameters it reads. The
backbone holds each half as its own segment.

A block takes its width and a ``VariantConfig`` for every other option.
``_widths`` and ``_fusion_weights`` hold the width and fusion-weight rules
once; the constructor and the cost table ``block_cost`` both read them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .init import identity_depthwise_kernel, trunc_normal
from .scan import (AdaptiveWeights, FilterBank, filter_bank_cost, mfil_ssm,
                   num_scans)
from .ssm import SsmCore, dt_rank
from .tensor import (Tensor, add, depthwise_conv2d, gelu, layer_norm, linear,
                     mul, record_op, recording, scale_per_sample, silu,
                     slice_axis, _affine, _affine_grads, _depthwise,
                     _depthwise_grads, _depthwise_taps, _gelu_np, _silu_np,
                     _untaped)

if TYPE_CHECKING:
    from .backbone import VariantConfig

__all__ = ["MfilBlock", "block_cost", "conv_ffn", "gate"]


def _widths(dim: int, config: VariantConfig) -> tuple[int, int]:
    """(scan width C_inner, FFN hidden width) of a block of width ``dim``."""
    return (int(round(config.ssm_ratio * dim)),
            int(round(config.ffn_ratio * dim)))


def _fusion_weights(config: VariantConfig) -> int:
    """Learned fusion weights per block: one per view, and none unless
    adaptive weighting has two or more views to fuse."""
    views = num_scans(config.scan_mode)
    return views if config.adaptive_weighting and views > 1 else 0


def _drop_path(delta: Tensor, rate: float, train: bool,
               rng: np.random.Generator | None) -> Tensor:
    """Per-sample stochastic depth on a residual delta; identity when off."""
    if not train or rate <= 0.0:
        return delta
    if rng is None:
        raise ValueError("drop_path needs an rng in training mode")
    keep = (rng.random(delta.shape[0]) >= rate).astype(delta.data.dtype)
    return scale_per_sample(delta, keep / (1.0 - rate))


class _ConvFfn:
    """Linear expansion, depthwise 3x3, GELU, linear projection back."""

    def __init__(self, dim: int, hidden: int, rng, dtype):
        self.fc1_weight = Tensor(trunc_normal(rng, (hidden, dim)),
                                 dtype=dtype, grad_enabled=True)
        self.fc1_bias = Tensor(np.zeros(hidden), dtype=dtype,
                               grad_enabled=True)
        self.dw_weight = Tensor(identity_depthwise_kernel(hidden),
                                dtype=dtype, grad_enabled=True)
        self.fc2_weight = Tensor(trunc_normal(rng, (dim, hidden)),
                                 dtype=dtype, grad_enabled=True)
        self.fc2_bias = Tensor(np.zeros(dim), dtype=dtype, grad_enabled=True)

    def parameters(self):
        return {"fc1.weight": self.fc1_weight, "fc1.bias": self.fc1_bias,
                "dw.weight": self.dw_weight, "fc2.weight": self.fc2_weight,
                "fc2.bias": self.fc2_bias}


def _ffn_chain(x, fc1_weight, fc1_bias, dw_weight, fc2_weight, fc2_bias):
    h = linear(x, fc1_weight, fc1_bias)
    h = gelu(depthwise_conv2d(h, dw_weight, stride=1, padding=1))
    return linear(h, fc2_weight, fc2_bias)


def conv_ffn(x: Tensor, ffn: _ConvFfn) -> Tensor:
    """Apply a ConvFFN to a [B, H, W, C] map; shape preserved.

    One node for fc1, the depthwise 3x3, GELU and fc2. The forward runs
    those four primitives untaped, so each map is checked and tallied as
    their nodes were. A taped call keeps only x: its backward reruns fc1,
    the depthwise and the GELU with its derivative factor through the
    primitives' own helpers, and takes their gradients in their order, so
    the output and every gradient have the bytes of the four-node chain.
    The rerun tallies no flops.
    """
    inputs = (x, *ffn.parameters().values())
    if not recording(inputs):
        return _ffn_chain(*inputs)
    with _untaped():
        out = _ffn_chain(*inputs)
    x_data, w1, b1, _, w2, b2 = (t.data for t in inputs)
    taps = _depthwise_taps([ffn.dw_weight])
    *lead, dim = x.shape
    hidden = w1.shape[0]
    shape = (*lead, hidden)
    m = x_data.size // dim
    x2 = x_data.reshape(m, dim)

    def bwd(g):
        h1 = _affine(x2, w1, b1).reshape(shape)
        h3, factor = _gelu_np(_depthwise(h1, taps, 1, *shape[1:3]), True)
        g3, gw2, gb2 = _affine_grads(g.reshape(m, dim), h3.reshape(m, hidden),
                                     w2)
        del h3
        g1, gk = _depthwise_grads(g3.reshape(shape) * factor, shape, taps, 1,
                                  x=h1)
        gx, gw1, gb1 = _affine_grads(g1.reshape(m, hidden), x2, w1)
        return gx.reshape(x_data.shape), gw1, gb1, gk, gw2, gb2
    return record_op("conv_ffn", inputs, out.data, bwd)


def gate(z: Tensor, u2: Tensor, out_proj: Tensor) -> Tensor:
    """The mixer's gated projection out_proj(z * SiLU(u2)), as one node.

    The forward runs ``silu``, ``mul`` and ``linear`` untaped, so each map
    is checked and tallied as their nodes were. A taped call keeps z and
    u2: its backward rebuilds the SiLU with its factor and the gated map
    through ``tensor``'s helpers and takes the three nodes' gradients in
    their order, so the output and every gradient have the bytes of the
    chain. The rebuild tallies no flops. An untaped call runs the three
    primitives. ``MfilBlock.mixer_forward`` calls it only when its scan
    was recorded and runs the primitives itself otherwise.
    """
    if not recording((z, u2, out_proj)):
        return linear(mul(z, silu(u2)), out_proj)
    with _untaped():
        out = gate(z, u2, out_proj)
    z_data, u_data, w = z.data, u2.data, out_proj.data
    m = z_data.size // z_data.shape[-1]

    def bwd(g):
        act, factor = _silu_np(u_data, True)
        g_gated, g_w = _affine_grads(g.reshape(m, w.shape[0]),
                                     (z_data * act).reshape(m, -1), w,
                                     bias=False)
        g_gated = g_gated.reshape(z_data.shape)
        return g_gated * act, g_gated * z_data * factor, g_w
    return record_op("gate", (z, u2, out_proj), out.data, bwd)


class MfilBlock:
    """A residual block of width ``dim``, options from a VariantConfig."""

    def __init__(self, dim: int, config: VariantConfig,
                 rng: np.random.Generator, dtype: str = "f32"):
        ci, hidden = _widths(dim, config)
        self.dim = dim
        self.d_inner = ci
        self.scan_mode = config.scan_mode
        self.drop_path = config.drop_path

        self.norm1_gamma = Tensor(np.ones(dim), dtype=dtype,
                                  grad_enabled=True)
        self.norm1_beta = Tensor(np.zeros(dim), dtype=dtype,
                                 grad_enabled=True)
        self.in_proj = Tensor(trunc_normal(rng, (2 * ci, dim)), dtype=dtype,
                              grad_enabled=True)
        self.branch_conv = Tensor(identity_depthwise_kernel(ci), dtype=dtype,
                                  grad_enabled=True)
        self.bank = FilterBank(ci, rng=rng, dtype=dtype,
                               scan_mode=config.scan_mode)
        self.core = SsmCore(
            ci, d_state=config.d_state,
            exact_input_discretization=config.exact_input_discretization,
            segment_reset=config.segment_reset, rng=rng, dtype=dtype)
        n_weights = _fusion_weights(config)
        self.weights = (AdaptiveWeights(n_weights, dtype=dtype)
                        if n_weights else None)
        self.out_proj = Tensor(trunc_normal(rng, (dim, ci)), dtype=dtype,
                               grad_enabled=True)
        self.norm2_gamma = Tensor(np.ones(dim), dtype=dtype,
                                  grad_enabled=True)
        self.norm2_beta = Tensor(np.zeros(dim), dtype=dtype,
                                 grad_enabled=True)
        self.ffn = _ConvFfn(dim, hidden, rng, dtype)

    def mixer_parameters(self) -> dict[str, Tensor]:
        """Parameters of the mixer half, norm1 through out_proj."""
        out = {
            "norm1.gamma": self.norm1_gamma, "norm1.beta": self.norm1_beta,
            "in_proj.weight": self.in_proj,
            "branch_conv.weight": self.branch_conv,
        }
        for prefix, part in (("bank", self.bank), ("core", self.core),
                             ("weights", self.weights)):
            if part is not None:
                for k, v in part.parameters().items():
                    out[f"{prefix}.{k}"] = v
        out["out_proj.weight"] = self.out_proj
        return out

    def ffn_parameters(self) -> dict[str, Tensor]:
        """Parameters of the FFN half: norm2 and the ConvFFN."""
        out = {"norm2.gamma": self.norm2_gamma, "norm2.beta": self.norm2_beta}
        for k, v in self.ffn.parameters().items():
            out[f"ffn.{k}"] = v
        return out

    def mixer_forward(self, x: Tensor, train: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Mixer half, x -> y' = x + drop_path(out_proj(...)); [B, H, W, C]."""
        ci = self.d_inner
        xn = layer_norm(x, self.norm1_gamma, self.norm1_beta)
        u = linear(xn, self.in_proj)
        u1 = slice_axis(u, 3, 0, ci)
        u2 = slice_axis(u, 3, ci, 2 * ci)

        branch = depthwise_conv2d(u1, self.branch_conv, stride=1, padding=1)
        z_scan = mfil_ssm(silu(branch), self.bank, self.core, self.weights,
                          scan_mode=self.scan_mode)
        # A recorded scan means a tape records the gate too. Otherwise the
        # gate's primitives run here, so an untaped forward makes no call
        # around them; under a tape they record the same gradients.
        if z_scan.node is not None:
            delta1 = gate(z_scan, u2, self.out_proj)
        else:
            delta1 = linear(mul(z_scan, silu(u2)), self.out_proj)
        return add(x, _drop_path(delta1, self.drop_path, train, rng))

    def ffn_forward(self, y1: Tensor, train: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
        """FFN half, y' -> y' + drop_path(LN(ConvFFN(y'))); [B, H, W, C]."""
        normed = layer_norm(conv_ffn(y1, self.ffn), self.norm2_gamma,
                            self.norm2_beta)
        return add(y1, _drop_path(normed, self.drop_path, train, rng))

    def forward(self, x: Tensor, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        """[B, H, W, C] -> [B, H, W, C]: the mixer half, then the FFN half.

        Each half draws its drop-path mask from ``rng`` in that order.
        """
        return self.ffn_forward(self.mixer_forward(x, train, rng), train, rng)

    __call__ = forward


def block_cost(dim: int, config: VariantConfig) -> tuple[int, float, float]:
    """(parameters, flops per pixel, flops per forward) of one block.

    One row per component. Convolutions and linears count one unit per
    multiply-accumulate (the convention the published size tables use),
    the scan two units per state per token, norms and activations five
    ops per element; arithmetic glue (adds, gating products) is uncounted.
    Every term that sees the map is linear in H * W. ``exp(A_log)`` and
    the fusion softmax see parameters alone, so a forward pays them once
    whatever the batch. The tests assert bit-exact agreement with the
    instantiated tally and with the instrumented counter.
    """
    ci, r = _widths(dim, config)
    nst = config.d_state
    rank = dt_rank(ci)
    views = num_scans(config.scan_mode)
    fusion = _fusion_weights(config)
    rows = [  # (parameters, flops per pixel, flops per forward)
        (2 * dim, 5 * dim, 0),                            # norm1
        (2 * ci * dim, 2 * ci * dim, 0),                  # in_proj, no bias
        (9 * ci, 9 * ci + 5 * ci, 0),                     # branch dw + silu
        (*filter_bank_cost(config.scan_mode, ci), 0),     # filter bank
        (ci * nst, 0, 5 * ci * nst),                      # A_log, exp
        (ci, 0, 0),                                       # dt_bias
        ((rank + 2 * nst) * ci, views * (rank + 2 * nst) * ci, 0),  # x_proj
        (ci * rank, views * ci * rank, 0),                # dt_proj
        (0, views * (5 * ci + 2 * ci * nst), 0),          # softplus, scan
        (ci, 0, 0),                                       # D_skip
        (fusion, 0, 5 * fusion),                          # fusion softmax
        (dim * ci, 5 * ci + dim * ci, 0),                 # gate silu, out_proj
        (2 * dim, 5 * dim, 0),                            # norm2
        (r * dim + r, r * dim, 0),                        # ffn fc1
        (9 * r, 9 * r + 5 * r, 0),                        # ffn dw + gelu
        (dim * r + dim, dim * r, 0),                      # ffn fc2
    ]
    params, per_pixel, per_forward = (sum(col) for col in zip(*rows))
    return params, float(per_pixel), float(per_forward)
