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
"""

from __future__ import annotations

import numpy as np

from .init import identity_depthwise_kernel, trunc_normal
from .scan import (AdaptiveWeights, FilterBank, filter_bank_cost, mfil_ssm,
                   num_scans)
from .ssm import SsmCore, dt_rank
from .tensor import (Tensor, add, depthwise_conv2d, gelu, layer_norm, linear,
                     mul, scale_per_sample, silu, slice_axis)

__all__ = ["MfilBlock", "block_param_count", "conv_ffn"]


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


def conv_ffn(x: Tensor, ffn: _ConvFfn) -> Tensor:
    """Apply a ConvFFN to a [B, H, W, C] map; shape preserved."""
    h = linear(x, ffn.fc1_weight, ffn.fc1_bias)
    h = gelu(depthwise_conv2d(h, ffn.dw_weight, stride=1, padding=1))
    return linear(h, ffn.fc2_weight, ffn.fc2_bias)


class MfilBlock:
    def __init__(self, dim: int, d_state: int = 1, ssm_ratio: float = 1.0,
                 ffn_ratio: float = 4.0, scan_mode: str = "multi_filter",
                 adaptive_weighting: bool = True,
                 exact_input_discretization: bool = False,
                 segment_reset: bool = False, drop_path: float = 0.0,
                 rng: np.random.Generator | None = None, dtype: str = "f32"):
        if rng is None:
            rng = np.random.default_rng(0)
        self.dim = dim
        self.d_inner = int(round(ssm_ratio * dim))
        self.scan_mode = scan_mode
        self.drop_path = drop_path
        ci = self.d_inner

        self.norm1_gamma = Tensor(np.ones(dim), dtype=dtype,
                                  grad_enabled=True)
        self.norm1_beta = Tensor(np.zeros(dim), dtype=dtype,
                                 grad_enabled=True)
        self.in_proj = Tensor(trunc_normal(rng, (2 * ci, dim)), dtype=dtype,
                              grad_enabled=True)
        self.branch_conv = Tensor(identity_depthwise_kernel(ci), dtype=dtype,
                                  grad_enabled=True)
        self.bank = FilterBank(ci, rng=rng, dtype=dtype, scan_mode=scan_mode)
        self.core = SsmCore(
            ci, d_state=d_state,
            exact_input_discretization=exact_input_discretization,
            segment_reset=segment_reset, rng=rng, dtype=dtype)
        n_scans = num_scans(scan_mode)
        self.weights = (AdaptiveWeights(n_scans, dtype=dtype)
                        if adaptive_weighting and n_scans > 1 else None)
        self.out_proj = Tensor(trunc_normal(rng, (dim, ci)), dtype=dtype,
                               grad_enabled=True)
        self.norm2_gamma = Tensor(np.ones(dim), dtype=dtype,
                                  grad_enabled=True)
        self.norm2_beta = Tensor(np.zeros(dim), dtype=dtype,
                                 grad_enabled=True)
        self.ffn = _ConvFfn(dim, int(round(ffn_ratio * dim)), rng, dtype)

    def mixer_parameters(self) -> dict[str, Tensor]:
        """Parameters of the mixer half, norm1 through out_proj."""
        out = {
            "norm1.gamma": self.norm1_gamma, "norm1.beta": self.norm1_beta,
            "in_proj.weight": self.in_proj,
            "branch_conv.weight": self.branch_conv,
        }
        for k, v in self.bank.parameters().items():
            out[f"bank.{k}"] = v
        for k, v in self.core.parameters().items():
            out[f"core.{k}"] = v
        if self.weights is not None:
            out["weights.w"] = self.weights.w
        out["out_proj.weight"] = self.out_proj
        return out

    def ffn_parameters(self) -> dict[str, Tensor]:
        """Parameters of the FFN half: norm2 and the ConvFFN."""
        out = {"norm2.gamma": self.norm2_gamma, "norm2.beta": self.norm2_beta}
        for k, v in self.ffn.parameters().items():
            out[f"ffn.{k}"] = v
        return out

    def parameters(self) -> dict[str, Tensor]:
        return {**self.mixer_parameters(), **self.ffn_parameters()}

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
        gated = mul(z_scan, silu(u2))
        delta1 = linear(gated, self.out_proj)
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


def block_param_count(dim: int, d_state: int = 1, ssm_ratio: float = 1.0,
                      ffn_ratio: float = 4.0,
                      scan_mode: str = "multi_filter",
                      adaptive_weighting: bool = True) -> int:
    """Closed-form learnable-parameter count of one block.

    Must stay in lockstep with the constructor above; the test suite asserts
    bit-exact agreement with the instantiated tally.
    """
    ci = int(round(ssm_ratio * dim))
    r = int(round(ffn_ratio * dim))
    rank = dt_rank(ci)
    n = 2 * dim                       # norm1
    n += 2 * ci * dim                 # in_proj, no bias
    n += 9 * ci                       # branch depthwise 3x3
    n += filter_bank_cost(scan_mode, ci)[0]  # filter bank
    n += ci * d_state                 # A_log
    n += ci                           # dt_bias
    n += (rank + 2 * d_state) * ci    # x_proj
    n += ci * rank                    # dt_proj
    n += ci                           # D_skip
    scans = num_scans(scan_mode)
    if adaptive_weighting and scans > 1:
        n += scans
    n += dim * ci                     # out_proj, no bias
    n += 2 * dim                      # norm2
    n += r * dim + r                  # ffn fc1
    n += 9 * r                        # ffn depthwise
    n += dim * r + dim                # ffn fc2
    return n
