"""Multi-filter scanning: filtered views, stacking, scan, adaptive fusion.

Instead of traversing the same feature map in several directions, the input
is expanded into parallel views: the map itself, two Sobel-filtered gradient
maps refined by learnable depthwise convolutions, and a learnable
depthwise-separable dynamic map. The views are flattened into one token
sequence, scanned by a single selective SSM, and fused as a
softmax-weighted convex combination of the per-view outputs.

Maps are channel-last, [B, H, W, C], so a map is its own row-major token
sequence. Building and stacking the views is one primitive,
``filter_views``, which writes the [B, n*H*W, C] sequence.
``orthogonal_maps`` and ``dynamic_map`` followed by ``stack_scans`` are
the same arithmetic as separate depthwise, 1x1 conv2d and concat nodes;
they are its reference in the tests, not the path ``mfil_ssm`` runs. The
fusion is one primitive too, ``merge_views``, which reads the stacked scan
output in place; ``unstack_scans`` followed by ``adaptive_merge`` is its
reference, which the tests and suite merge check. An untaped ``mfil_ssm``
runs these primitives; a taped one records them as one node, which keeps
neither the views nor the per-view outputs.

Each scan mode is one entry of ``SCAN_VIEWS``: the (map, token order) rows
it stacks, in stream order. Maps are ``input``, ``sobel_h``, ``sobel_v`` and
``dynamic``; orders are ``row``, ``col``, ``row_rev`` and ``col_rev``, the
traversals of ``cross_scan_permutations``. The scan count, the learnable
filters a ``FilterBank`` builds and their parameter and flop cost are read
from the table, and ``mfil_ssm`` runs the same path for every mode.
"""

from __future__ import annotations

import numpy as np

from .init import identity_depthwise_kernel, trunc_normal
from .ssm import SsmCore, selective_scan, _kept_scan
from .tensor import (Tensor, add, concat, conv2d, depthwise_conv2d, mul,
                     record_op, recording, reshape, slice_axis, softmax,
                     take, _active_tape, _affine_grads,
                     _depthwise_kernel_grads, _depthwise_taps, _take_grad,
                     _tally, _untaped, _window_tap_sum)

__all__ = [
    "SOBEL_X", "SOBEL_Y", "FilterBank", "AdaptiveWeights",
    "orthogonal_maps", "dynamic_map", "stack_scans", "filter_views",
    "unstack_scans", "adaptive_merge", "merge_views", "mfil_ssm",
    "SCAN_VIEWS", "SCAN_MODES", "num_scans", "filter_bank_cost",
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

# scan mode -> (map, token order) per stream, in stream order.
SCAN_VIEWS = {
    "multi_filter": (("input", "row"), ("sobel_h", "row"),
                     ("sobel_v", "row"), ("dynamic", "row")),
    "single_flatten": (("input", "row"),),
    "cross_4dir": (("input", "row"), ("input", "col"),
                   ("input", "row_rev"), ("input", "col_rev")),
    "original_plus_one_filter": (("input", "row"), ("dynamic", "row")),
}
SCAN_MODES = tuple(SCAN_VIEWS)

# Token orders, in the order cross_scan_permutations returns them.
_ORDERS = ("row", "col", "row_rev", "col_rev")


def num_scans(scan_mode: str) -> int:
    return len(SCAN_VIEWS[scan_mode])


def _filters(scan_mode: str) -> tuple[bool, bool]:
    """(orthogonal, dynamic): the filter groups a mode's views read.

    The Sobel maps come as a pair: a mode reading either builds both.
    """
    maps = {m for m, _ in SCAN_VIEWS[scan_mode]}
    return bool(maps & {"sobel_h", "sobel_v"}), "dynamic" in maps


def filter_bank_cost(scan_mode: str, channels: int) -> tuple[int, int]:
    """(learnable parameters, flops per pixel) of a mode's filter bank.

    Flops count one unit per multiply-accumulate: each 3x3 depthwise
    filter costs 9 per channel, the dynamic pointwise stage C per channel.
    """
    orthogonal, dynamic = _filters(scan_mode)
    c = channels
    params = flops = 0
    if orthogonal:
        params += 2 * 9 * c           # refiners
        flops += 4 * 9 * c            # Sobel pair + refiners
    if dynamic:
        params += 9 * c + c * c       # dynamic depthwise + pointwise
        flops += 9 * c + c * c
    return params, flops


class FilterBank:
    """The scan generators: fixed Sobel pair, refiners, dynamic filter.

    Only the filters ``scan_mode``'s views read are built. The Sobel
    kernels are constants (excluded from the parameter map); the two
    depthwise refiners and the depthwise-separable dynamic filter are
    learnable. Refiners and the dynamic depthwise stage start as identity
    kernels so the refined maps begin as pure Sobel responses.
    """

    def __init__(self, channels: int, rng: np.random.Generator,
                 dtype: str = "f32", scan_mode: str = "multi_filter"):
        self.channels = channels
        orthogonal, dynamic = _filters(scan_mode)
        ident = identity_depthwise_kernel(channels)
        if orthogonal:
            self.sobel_x = Tensor(
                np.tile(SOBEL_X, (channels, 1, 1, 1)), dtype=dtype)
            self.sobel_y = Tensor(
                np.tile(SOBEL_Y, (channels, 1, 1, 1)), dtype=dtype)
            self.refine_h = Tensor(ident.copy(), dtype=dtype,
                                   grad_enabled=True)
            self.refine_v = Tensor(ident.copy(), dtype=dtype,
                                   grad_enabled=True)
        if dynamic:
            self.dyn_depthwise = Tensor(ident.copy(), dtype=dtype,
                                        grad_enabled=True)
            self.dyn_pointwise = Tensor(
                trunc_normal(rng, (channels, channels, 1, 1)), dtype=dtype,
                grad_enabled=True)

    def parameters(self) -> dict[str, Tensor]:
        names = ("refine_h", "refine_v", "dyn_depthwise", "dyn_pointwise")
        return {k: getattr(self, k) for k in names if hasattr(self, k)}


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
    with zero padding 1 so the spatial shape is preserved. Takes and
    returns [B, H, W, C] maps: (F_h, F_v) = (refine_h(I * K_y),
    refine_v(I * K_x)).
    """
    _check_spatial(image)
    gh = depthwise_conv2d(image, bank.sobel_y, stride=1, padding=1)
    gv = depthwise_conv2d(image, bank.sobel_x, stride=1, padding=1)
    f_h = depthwise_conv2d(gh, bank.refine_h, stride=1, padding=1)
    f_v = depthwise_conv2d(gv, bank.refine_v, stride=1, padding=1)
    return f_h, f_v


def dynamic_map(image: Tensor, bank: FilterBank) -> Tensor:
    """Depthwise 3x3 stage then a pointwise 1x1 channel mix; [B, H, W, C]."""
    _check_spatial(image)
    d = depthwise_conv2d(image, bank.dyn_depthwise, stride=1, padding=1)
    return conv2d(d, bank.dyn_pointwise)


def _check_spatial(image: Tensor):
    # The 3x3 filters run with padding 1, so any H, W >= 1 is valid (late
    # stages of small inputs legitimately reach 2x2 and 1x1 grids).
    if image.data.ndim != 4:
        raise ValueError(f"expected [B, H, W, C], got {image.shape}")
    _, h, w, _ = image.shape
    if h < 1 or w < 1:
        raise ValueError(f"spatial extents must be >= 1, got {h}x{w}")


def stack_scans(*maps: Tensor) -> Tensor:
    """Concatenate n [B, H, W, C] views into one [B, n*H*W, C] sequence.

    Each map is flattened row-major and the maps follow one another in
    argument order; ``mfil_ssm`` passes them in ``SCAN_VIEWS`` row order.
    One concat along H and a reshape move all n maps at once; a single
    map is only reshaped.
    """
    shape = maps[0].shape
    for m in maps[1:]:
        if m.shape != shape:
            raise ValueError(
                f"stack_scans: shape mismatch {m.shape} vs {shape}")
    b, h, w, c = shape
    n = len(maps)
    grouped = maps[0] if n == 1 else concat(maps, axis=1)
    return reshape(grouped, (b, n * h * w, c))


def _view_plan(bank: FilterBank | None, scan_mode: str):
    """(the learnable kernels of ``scan_mode``'s views, in node input
    order; the plan ``_stacked_views`` and ``_view_grads`` read). The plan
    is the rows, the taps of the filters that read x in the order they ran
    as nodes, the refiners' taps and the dynamic pointwise matrix; each of
    the last three is None when no row reads it."""
    if scan_mode not in SCAN_VIEWS:
        raise ValueError(f"unknown scan_mode {scan_mode!r}")
    orthogonal, dynamic = _filters(scan_mode)
    if bank is None and (orthogonal or dynamic):
        raise ValueError(f"scan_mode {scan_mode!r} filters its input: it "
                         "needs a FilterBank, got None")
    first = ([bank.sobel_y, bank.sobel_x] if orthogonal else []) + (
        [bank.dyn_depthwise] if dynamic else [])
    kernels = (([bank.refine_h, bank.refine_v] if orthogonal else [])
               + ([bank.dyn_depthwise, bank.dyn_pointwise] if dynamic else []))
    plan = (SCAN_VIEWS[scan_mode],
            _depthwise_taps(first) if first else None,
            _depthwise_taps([bank.refine_h, bank.refine_v]) if orthogonal
            else None,
            bank.dyn_pointwise.data.reshape(bank.dyn_pointwise.shape[:2])
            if dynamic else None)
    return kernels, plan


def _stacked_views(x: np.ndarray, plan) -> np.ndarray:
    """The [B, n*H*W, C] sequence of the views of an [B, H, W, C] array x,
    as ``filter_views`` gives it; tallies nothing."""
    rows, taps1, taps2, kmat = plan
    b, h, w, c = x.shape
    maps = {"input": x}
    if taps1 is not None:
        filtered = _window_tap_sum([x], taps1, 1, h, w)
    if taps2 is not None:
        refined = _window_tap_sum(filtered[:2], taps2, 1, h, w)
        maps["sobel_h"] = refined[0, ..., :c]
        maps["sobel_v"] = refined[1, ..., :c]
    if kmat is not None:
        cols = np.ascontiguousarray(filtered[-1, ..., :c]).reshape(-1, c)
        maps["dynamic"] = (cols @ kmat.T).reshape(b, h, w, c)
    out = np.stack([maps[m] for m, _ in rows], axis=1)
    return out.reshape(b, len(rows) * h * w, c)


def _view_grads(g: np.ndarray, shape, x: np.ndarray | None, plan):
    """``filter_views``' gradients from g, the stacked views': those of
    x, of ``shape``, and of the plan's learnable kernels. x is read only
    by the filters, and may be None when there are none."""
    rows, taps1, taps2, kmat = plan
    b, h, w, c = shape
    n = len(rows)
    views = g.reshape(b, n, h, w, c)
    if n == 1:
        return (views[:, 0],)
    gx, piece = None, {}
    for i, (m, _) in enumerate(rows):
        piece[m] = np.ascontiguousarray(views[:, i])
        if m == "input":
            gx = piece[m] if gx is None else gx + piece[m]
    if taps1 is None:
        return (gx,)
    # The first-stage maps are rebuilt from x rather than kept.
    filtered = _window_tap_sum([x], taps1, 1, h, w)
    # Per kernel: the map it read and its output's gradient; per filter
    # that reads x, its output's gradient, in the order they ran as nodes.
    read, g_out, g_first, g_pw = [], [], [], ()
    if taps2 is not None:
        g_out += [piece["sobel_h"], piece["sobel_v"]]
        read += [filtered[0], filtered[1]]
        g_first += list(_window_tap_sum(g_out, taps2, 1, h, w, flip=True))
    if kmat is not None:
        g2 = piece["dynamic"].reshape(b * h * w, c)
        cols = np.ascontiguousarray(filtered[-1, ..., :c]).reshape(-1, c)
        g_pw = ((g2.T @ cols).reshape(c, c, 1, 1),)
        g_dyn = (g2 @ kmat).reshape(b, h, w, c)
        g_dyn += 0.0  # -0.0 -> +0.0, as conv2d's zero-grid scatter does
        g_out.append(g_dyn)
        read.append(x)
        g_first.append(g_dyn)
    g_in = _window_tap_sum(g_first, taps1, 1, h, w, flip=True)
    for term in g_in[::-1]:
        gx = gx + term[..., :c]
    # Every learnable depthwise kernel is 3x3 in the layout of taps1.
    return (gx, *_depthwise_kernel_grads(read, g_out, taps1, 1), *g_pw)


def filter_views(x: Tensor, bank: FilterBank | None,
                 scan_mode: str = "multi_filter") -> Tensor:
    """The [B, n*H*W, C] sequence of ``scan_mode``'s views, as one node.

    The views follow ``SCAN_VIEWS`` row order, each flattened row-major:
    the values ``stack_scans`` gives for the maps ``orthogonal_maps`` and
    ``dynamic_map`` build. The filters that read x (Sobel-y, Sobel-x, the
    dynamic depthwise stage) run as one K-filter call of ``tensor``'s
    depthwise helpers, the two refiners as one more, and the dynamic
    pointwise stage is ``conv2d``'s 1x1 GEMM, so each filter's output and
    gradients have the bytes of its own ``depthwise_conv2d`` or ``conv2d``
    node. x's gradient is summed in the order the sweep summed those
    nodes': the input rows' in row order, then the dynamic, Sobel-x and
    Sobel-y terms. The Sobel kernels are constants and take no gradient.
    The backward keeps x and rebuilds the first-stage maps from it.
    ``bank`` may be None only when the rows read just the input.
    """
    kernels, plan = _view_plan(bank, scan_mode)
    _check_spatial(x)
    b, h, w, c = x.shape
    out = _stacked_views(x.data, plan)
    _tally(filter_bank_cost(scan_mode, c)[1] * b * h * w)
    x_saved = x.data if kernels else None
    return record_op("filter_views", (x, *kernels), out,
                     lambda g: _view_grads(g, (b, h, w, c), x_saved, plan))


def unstack_scans(tokens: Tensor, h: int, w: int, n: int = 4):
    """Split a [B, n*H*W, C] sequence back into n [B, H, W, C] maps."""
    hw = h * w
    b, length, c = tokens.shape
    if length != n * hw:
        raise ValueError(
            f"unstack_scans: sequence length {length} != {n}*{hw}")
    maps = reshape(tokens, (b, n * h, w, c))
    if n == 1:
        return [maps]
    return [slice_axis(maps, 1, i * h, (i + 1) * h) for i in range(n)]


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


def merge_views(tokens: Tensor, alphas: Tensor | None, h: int,
                w: int) -> Tensor:
    """Fuse the n >= 2 views of a [B, n*H*W, C] scan output; [B, H, W, C].

    One node for ``adaptive_merge(unstack_scans(tokens, h, w, n), ...)``,
    given the softmax ``alphas`` of the weights, or None for the uniform
    mean. The products and sums run in the same order, so the output and
    both gradients have the bytes of that reference graph; ``_merge_grads``
    takes the gradients.
    """
    b, length, c = tokens.shape
    n = length // (h * w)
    if n < 2 or length != n * h * w:
        raise ValueError(
            f"merge_views: sequence length {length} is not n*{h * w} "
            "with n >= 2")
    if alphas is not None and alphas.shape != (n,):
        raise ValueError(
            f"merge_views: alphas shape {alphas.shape} for {n} views")
    views = tokens.data.reshape(b, n, h, w, c)
    coefs = _merge_coefs(alphas, n, views.dtype)
    if alphas is None:
        out = views[:, 0] + views[:, 1]
        for i in range(2, n):
            out += views[:, i]
        out *= coefs[0]
    else:
        out = views[:, 0] * coefs[0]
        term = np.empty_like(out)
        for i in range(1, n):
            np.multiply(views[:, i], coefs[i], out=term)
            out += term

    # Only the weights' gradient reads the views.
    saved = None if alphas is None else tokens.data
    inputs = (tokens,) if alphas is None else (tokens, alphas)
    return record_op("merge_views", inputs, out,
                     lambda g: _merge_grads(g, coefs, saved))


def _merge_coefs(alphas: Tensor | None, n: int, dtype) -> list:
    """``merge_views``' coefficient of each view: an alpha, or 1/n."""
    if alphas is None:
        return [np.asarray(1.0 / n, dtype=dtype)] * n
    return list(alphas.data)


def _merge_grads(g, coefs, tokens=None):
    """``merge_views``' gradients from g [B, H, W, C]: the [B, n*H*W, C]
    tokens', and the weights' when given the tokens it fused. Every view's
    gradient is written into one buffer. The reference added one
    zero-filled array per view, which turns each -0.0 into +0.0, and so
    does the ``+= 0.0`` here."""
    b, h, w, c = g.shape
    n = len(coefs)
    gv = np.empty((b, n, h, w, c), dtype=g.dtype)
    for i in range(n):
        np.multiply(g, coefs[i], out=gv[:, i])
    gv += 0.0
    gtokens = gv.reshape(b, n * h * w, c)
    if tokens is None:
        return (gtokens,)
    views = tokens.reshape(b, n, h, w, c)
    # np.sum starts from +0.0, so it never returns -0.0.
    return gtokens, np.array([np.sum(g * views[:, i]) for i in range(n)],
                             dtype=g.dtype)


def cross_scan_permutations(h: int, w: int) -> list[np.ndarray]:
    """Token orderings of the four-directional cross scan.

    Row-major, column-major, and the two reversals: the ``SCAN_VIEWS``
    token orders row, col, row_rev and col_rev, as indices into the
    row-major flattened map.
    """
    rm = np.arange(h * w, dtype=np.int64)
    cm = rm.reshape(h, w).T.reshape(-1)
    return [rm, cm, rm[::-1].copy(), cm[::-1].copy()]


def _view_order(rows, h: int, w: int) -> np.ndarray | None:
    """Index putting each stacked view into its row's token order.

    None when every row is row-major, the order ``stack_scans`` produces.
    """
    if all(order == "row" for _, order in rows):
        return None
    perms = dict(zip(_ORDERS, cross_scan_permutations(h, w)))
    return np.concatenate([perms[order] + i * h * w
                           for i, (_, order) in enumerate(rows)])


def _mfil_chain(x: Tensor, bank: FilterBank | None, scan_mode: str,
                segment_reset: bool, alphas: Tensor | None, scan):
    """``mfil_ssm``'s primitives in order, with ``scan`` taking a [B', L,
    C] sequence to its scan output."""
    seq = filter_views(x, bank, scan_mode)
    rows = SCAN_VIEWS[scan_mode]
    _, h, w, _ = x.shape
    order = _view_order(rows, h, w)
    if order is not None:
        seq = take(seq, order, axis=1)
    if segment_reset:
        # Each view is a sequence of its own: a batch row of H*W tokens.
        b, length, c = seq.shape
        out = reshape(scan(reshape(seq, (b * len(rows), h * w, c))),
                      (b, length, c))
    else:
        out = scan(seq)
    if order is not None:
        out = take(out, np.argsort(order), axis=1)
    if len(rows) == 1:
        return reshape(out, (out.shape[0], h, w, out.shape[2]))
    return merge_views(out, alphas, h, w)


def mfil_ssm(x: Tensor, bank: FilterBank | None, core: SsmCore,
             weights: AdaptiveWeights | None,
             scan_mode: str = "multi_filter") -> Tensor:
    """Filtered views -> stacked sequence -> selective scan -> fusion.

    Takes and returns a [B, H, W, C] map. ``SCAN_VIEWS[scan_mode]`` names
    the views, one (map, token order) row per stream. The path is the same
    for every mode: build and stack the views (``filter_views``), reorder
    the tokens of rows that are not row-major, scan, restore the order, and
    fuse with ``merge_views`` (a single view is only reshaped). The scan
    carries its state from one view into the next; with
    ``core.segment_reset`` each view is scanned as a batch row of its own,
    [n*B, H*W, C], so every view starts from a zero state. ``bank`` may be
    None when the rows read only the input.

    An untaped call runs those primitives. A taped call runs them untaped
    too, so each checks and tallies its output as before, and records one
    node from x to the fused map. It keeps x, the scan's step, B and C
    columns and states, and the fusion weights. Its backward rebuilds the
    stacked views from x and every view's scan output from the states with
    the forward's helpers, then takes each primitive's gradient in the
    order the sweep took them, so the output and every gradient have the
    bytes of the node chain.
    """
    # filter_views rejects an unknown mode.
    n = len(SCAN_VIEWS.get(scan_mode, ()))
    alphas = None if weights is None or n == 1 else weights.alphas()
    if _active_tape() is not None:
        kernels, plan = _view_plan(bank, scan_mode)
        inputs = (x, *kernels, core.x_proj_weight, core.dt_proj_weight,
                  core.A_log, core.dt_bias, core.D_skip,
                  *(() if alphas is None else (alphas,)))
        if recording(inputs):
            return _mfil_node(inputs, plan, bank, core, alphas, scan_mode)
    return _mfil_chain(x, bank, scan_mode, core.segment_reset, alphas,
                       lambda seq: selective_scan(seq, core))


def _mfil_node(inputs, plan, bank: FilterBank | None, core: SsmCore,
               alphas: Tensor | None, scan_mode: str) -> Tensor:
    """The taped ``mfil_ssm`` on ``inputs``, x first, whose views
    ``plan`` gives, as one node."""
    x = inputs[0]
    rules = []

    def scan(seq):
        out, rule = _kept_scan(seq, core)
        rules.append(rule)
        return out
    with _untaped():
        out = _mfil_chain(x, bank, scan_mode, core.segment_reset, alphas,
                          scan)
    (scan_bwd, outputs), = rules
    b, h, w, c = x.shape
    n = len(plan[0])
    length = n * h * w
    order = _view_order(plan[0], h, w)
    inverse = None if order is None else np.argsort(order)
    scan_shape = (b * n, h * w, c) if core.segment_reset else (b, length, c)
    x_data, w_x = x.data, core.x_proj_weight.data
    coefs = None if n == 1 else _merge_coefs(alphas, n, x_data.dtype)
    adaptive = alphas is not None

    def bwd(g):
        # Each rebuilt map is dropped once its last reader is done.
        # _view_grads runs the first filter stage on x once more rather
        # than hold its maps through the scan's backward.
        u = _stacked_views(x_data, plan)
        if order is not None:
            u = np.take(u, order, axis=1)
        u = u.reshape(scan_shape)
        g_alpha = ()
        if n == 1:
            gy = g
        else:
            y = None
            if adaptive:
                y = outputs(u).reshape(b, length, c)
                if order is not None:
                    y = np.take(y, inverse, axis=1)
            gy, *g_alpha = _merge_grads(g, coefs, y)
            del y
            if order is not None:
                gy = _take_grad(gy, inverse, 1, (b, length, c))
        g_u, g_dt, g_a, g_proj, g_dt_bias, g_d = scan_bwd(
            gy.reshape(scan_shape), u)
        del gy
        m = u.size // c
        g_seq, g_x_proj = _affine_grads(g_proj.reshape(m, -1),
                                        u.reshape(m, c), w_x, bias=False)
        del g_proj, u
        g_seq = (g_u + g_seq.reshape(scan_shape)).reshape(b, length, c)
        del g_u
        if order is not None:
            g_seq = _take_grad(g_seq, order, 1, (b, length, c))
        return (*_view_grads(g_seq, x_data.shape, x_data, plan), g_x_proj,
                g_dt, g_a, g_dt_bias, g_d, *g_alpha)
    return record_op("mfil_ssm", inputs, out.data, bwd)
