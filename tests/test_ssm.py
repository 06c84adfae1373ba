import numpy as np
import pytest

from conftest import grad_close, numeric_gradient, rel_err
from mfil import reference, ssm
from mfil.reference import discretize_zoh, lti_kernel
from mfil.ssm import SsmCore, selective_scan
from mfil.tensor import Tape, Tensor, mul, reshape, tsum


# ---------------------------------------------------------------------------
# zero-order hold

def test_zoh_scalar_analytic():
    a_bar, b_bar = discretize_zoh(-1.0, 1.0, np.log(2.0))
    assert abs(float(a_bar) - 0.5) <= 1e-12
    assert abs(float(b_bar) - 0.5) <= 1e-12


def test_zoh_limit_branch_first_order():
    delta = 1e-12
    a_bar, b_bar = discretize_zoh(np.array([-1.0]), np.array([3.0]), delta)
    assert abs(float(a_bar[0]) - 1.0) <= 1e-6
    assert abs(float(b_bar[0]) - delta * 3.0) / (delta * 3.0) <= 1e-6


def test_zoh_general_matrix_matches_diagonal(rng):
    diag = -np.exp(rng.standard_normal(5))
    b = rng.standard_normal(5)
    a_m, b_m = discretize_zoh(np.diag(diag), b.reshape(5, 1), 0.21,
                              diagonal=False)
    a_d, b_d = discretize_zoh(diag, b, 0.21)
    assert rel_err(np.diag(a_m), a_d) <= 1e-9
    assert rel_err(b_m.ravel(), b_d) <= 1e-9


def test_zoh_rejects_singular_and_nonpositive():
    with pytest.raises(ValueError):
        discretize_zoh(np.zeros((2, 2)), np.ones((2, 1)), 1.0,
                       diagonal=False)
    with pytest.raises(ValueError):
        discretize_zoh(-1.0, 1.0, 0.0)


def test_zoh_square_diagonal_entries_are_elementwise_by_default():
    # A [2, 2] array of per-state entries (an SsmCore A with C = N) is
    # not a matrix: the default path exponentiates each entry.
    a = -np.array([[1.0, 2.0], [3.0, 4.0]])
    a_bar, b_bar = discretize_zoh(a, np.ones((2, 2)), 0.5)
    assert np.array_equal(a_bar, np.exp(0.5 * a))
    assert np.array_equal(b_bar, (np.exp(0.5 * a) - 1.0) / a)


def test_zoh_zero_diagonal_uses_limit():
    a_bar, b_bar = discretize_zoh(np.array([0.0]), np.array([2.0]), 1e-9)
    assert float(a_bar[0]) == 1.0
    assert abs(float(b_bar[0]) - 2e-9) <= 1e-15


# ---------------------------------------------------------------------------
# recurrence and kernel forms

def _lti_scan(x):
    """The model's scan recurrence with a = -1, delta = ln 2, b = c = 1
    and exact discretization, so a_bar = b_bar = 0.5."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1, 1)
    length = x.shape[1]
    ones = np.ones((1, length, 1))
    return ssm.recurrence(x, np.log(2.0) * ones, -np.ones((1, 1)), ones,
                          ones, np.zeros(1),
                          exact_input_discretization=True)[0][0, :, 0]


def test_scan_recurrent_single_step():
    y = _lti_scan([1.0])
    assert np.allclose(y, [0.5])


def test_scan_recurrent_zero_input():
    y = _lti_scan(np.zeros(6))
    assert np.array_equal(y, np.zeros(6))


def test_scan_recurrent_hand_unrolled():
    y = _lti_scan([1.0, 0.0, 0.0])
    assert np.allclose(y, [0.5, 0.25, 0.125], atol=1e-15)


def test_lti_kernel_values():
    k = lti_kernel(0.5, 0.5, 1.0, 3)
    assert np.allclose(k, [0.5, 0.25, 0.125], atol=1e-15)


def test_lti_kernel_memoryless():
    k = lti_kernel(0.0, 0.7, 2.0, 4)
    assert np.allclose(k, [1.4, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# selective scan

def _core(ch=4, nst=2, seed=0, **kw):
    return SsmCore(ch, d_state=nst, rng=np.random.default_rng(seed),
                   dtype="f64", **kw)


def test_selective_scan_zero_input_zero_output():
    core = _core()
    y = selective_scan(Tensor(np.zeros((2, 8, 4))), core).data
    assert np.all(y == 0.0)


def test_selective_scan_single_token_formula(rng):
    core = _core(ch=3, nst=2, seed=1)
    x = rng.standard_normal((1, 1, 3))
    y = selective_scan(Tensor(x), core).data
    xt = x[0, 0]
    proj = core.x_proj_weight.data @ xt
    r = core.dt_rank
    b_t = proj[r:r + 2]
    c_t = proj[r + 2:]
    delta = np.logaddexp(0.0, core.dt_proj_weight.data @ proj[:r]
                         + core.dt_bias.data)
    h = (delta[:, None] * b_t[None, :]) * xt[:, None]
    want = h @ c_t + core.D_skip.data * xt
    assert rel_err(y[0, 0], want) <= 1e-12


@pytest.mark.parametrize("exact", [False, True])
def test_fast_path_matches_sequential_reference(rng, exact):
    worst = 0.0
    for i in range(25):
        bsz = int(rng.integers(1, 3))
        length = int(rng.integers(1, 129))
        ch = int(rng.integers(1, 9))
        nst = int(rng.integers(1, 3))
        core = _core(ch, nst, seed=50 + i,
                     exact_input_discretization=exact)
        x = Tensor(rng.standard_normal((bsz, length, ch)))
        fast = selective_scan(x, core).data
        ref = reference.selective_scan_reference(x.data, core)
        worst = max(worst, rel_err(fast, ref))
    assert worst <= 1e-5


def _views_as_rows(x, n):
    """[B, n*L, C] -> [B*n, L, C]: each of n equal segments a batch row."""
    b, length, c = x.shape
    return x.reshape(b * n, length // n, c)


def test_segment_reset_matches_reference(rng):
    # Segments scanned as batch rows are the oracle's reset segments.
    core = _core(ch=3, nst=1, seed=7, segment_reset=True)
    x = rng.standard_normal((2, 12, 3))
    fast = selective_scan(Tensor(_views_as_rows(x, 4)), core).data
    ref = reference.selective_scan_reference(x, core, n_segments=4)
    assert rel_err(fast.reshape(x.shape), ref) <= 1e-12
    # Resetting actually changes the result vs carrying state across.
    carried = selective_scan(Tensor(x), core).data
    assert not np.allclose(fast.reshape(x.shape), carried)


def test_segment_reset_equals_independent_segments(rng):
    # Each batch row is a sequence of its own, whatever its neighbours.
    core = _core(ch=3, nst=2, seed=8)
    x = rng.standard_normal((1, 12, 3))
    full = selective_scan(Tensor(_views_as_rows(x, 3)), core).data
    for s in range(3):
        piece = selective_scan(Tensor(x[:, 4 * s:4 * (s + 1)]), core).data
        assert rel_err(full[s:s + 1], piece) <= 1e-12


def test_causality(rng):
    core = _core(seed=3)
    x = rng.standard_normal((1, 24, 4))
    y0 = selective_scan(Tensor(x), core).data
    x2 = x.copy()
    x2[0, 15] += 0.7
    y1 = selective_scan(Tensor(x2), core).data
    assert np.array_equal(y0[0, :15], y1[0, :15])
    assert not np.allclose(y0[0, 15:], y1[0, 15:])


def test_stability_bound(rng):
    # |A_bar| < 1 always; hidden state obeys the geometric-series bound.
    for seed in range(5):
        core = _core(ch=3, nst=2, seed=seed)
        lrng = np.random.default_rng(100 + seed)
        x = lrng.uniform(-2.0, 2.0, size=(1, 64, 3))
        m = 2.0
        a = -np.exp(core.A_log.data)
        h = np.zeros((3, 2))
        max_h = 0.0
        max_abar = 0.0
        max_bbar = 0.0
        for t in range(64):
            xt = x[0, t]
            proj = core.x_proj_weight.data @ xt
            r = core.dt_rank
            delta = np.logaddexp(0.0, core.dt_proj_weight.data @ proj[:r]
                                 + core.dt_bias.data)
            a_bar = np.exp(delta[:, None] * a)
            assert np.all(np.abs(a_bar) < 1.0)
            b_bar = delta[:, None] * proj[r:r + 2][None, :]
            h = a_bar * h + b_bar * xt[:, None]
            max_h = max(max_h, float(np.max(np.abs(h))))
            max_abar = max(max_abar, float(np.max(np.abs(a_bar))))
            max_bbar = max(max_bbar, float(np.max(np.abs(b_bar))))
        bound = m * max_bbar / (1.0 - max_abar)
        assert max_h <= bound * (1.0 + 1e-9)


def test_selective_scan_is_nonlinear(rng):
    x1 = rng.standard_normal((1, 16, 3))
    x2 = rng.standard_normal((1, 16, 3))
    sel = _core(ch=3, nst=2, seed=11)
    lhs = selective_scan(Tensor(2.0 * x1 + 3.0 * x2), sel).data
    rhs = (2.0 * selective_scan(Tensor(x1), sel).data
           + 3.0 * selective_scan(Tensor(x2), sel).data)
    assert rel_err(lhs, rhs) > 1e-3  # nonlinear by design


def test_exact_and_first_order_input_terms_agree_as_delta_vanishes(rng):
    kw = dict(ch=3, nst=2, seed=13)
    first = _core(**kw)
    exact = _core(**kw, exact_input_discretization=True)
    for core in (first, exact):
        core.dt_bias.data = np.full(3, -15.0)  # delta ~ 3e-7
    x = Tensor(rng.standard_normal((1, 16, 3)))
    y_first = selective_scan(x, first).data
    y_exact = selective_scan(x, exact).data
    assert rel_err(y_exact, y_first) <= 1e-6


@pytest.mark.parametrize("mode", ["selective", "exact"])
def test_selective_scan_parameter_gradients(mode):
    rng = np.random.default_rng(17)
    core = _core(ch=4, nst=2, seed=21,
                 exact_input_discretization=(mode == "exact"))
    x = Tensor(rng.standard_normal((2, 10, 4)), grad_enabled=True)
    readout = Tensor(rng.standard_normal((2, 10, 4)))
    params = list(core.parameters().values()) + [x]

    def build():
        from mfil.tensor import mul
        return tsum(mul(selective_scan(x, core), readout))

    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss, params)
    for p in params:
        numeric = numeric_gradient(lambda: float(build().data), p.data)
        assert grad_close(grads[p].data, numeric), \
            f"{mode}: mismatch for param shape {p.shape}"


def test_segment_reset_gradients_across_chunk_edges():
    """Two segments of 75 tokens: each row crosses the chunk edge at 64."""
    rng = np.random.default_rng(23)
    core = _core(ch=3, nst=2, seed=29, segment_reset=True)
    x = Tensor(rng.standard_normal((1, 150, 3)), grad_enabled=True)
    readout = Tensor(rng.standard_normal((1, 150, 3)))
    fast = selective_scan(Tensor(_views_as_rows(x.data, 2)), core).data
    ref = reference.selective_scan_reference(x.data, core, n_segments=2)
    assert rel_err(fast.reshape(x.shape), ref) <= 1e-12
    params = list(core.parameters().values()) + [x]

    def build():
        rows = selective_scan(reshape(x, (2, 75, 3)), core)
        return tsum(mul(reshape(rows, (1, 150, 3)), readout))

    with Tape() as tape:
        loss = build()
    grads = tape.gradients(loss, params)
    for p in params:
        numeric = numeric_gradient(lambda: float(build().data), p.data)
        assert grad_close(grads[p].data, numeric), \
            f"mismatch for param shape {p.shape}"


def _states_per_token(hs, a_bar, bx, prev):
    """Oracle for ``ssm._scan_states``: one indexed token at a time."""
    for i in range(hs.shape[1]):
        h = hs[:, i]
        np.multiply(a_bar[:, i], prev, out=h)
        np.add(h, bx[:, i], out=h)
        prev = h
    return prev


def _sweep_per_token(gh_all, a_bar_all):
    """Oracle for ``ssm._sweep_states_back``: one indexed token at a time."""
    ca = a_bar_all.copy()
    back = np.zeros_like(gh_all[:, 0])
    for t in range(gh_all.shape[1] - 1, -1, -1):
        gh = gh_all[:, t]
        np.add(gh, back, out=gh)
        back = ca[:, t]
        np.multiply(back, gh, out=back)


def _scan_bytes(bsz, nst, dtype, exact):
    """Untaped output, taped output and every input gradient, as bytes."""
    rng = np.random.default_rng(31)
    length, ch = 150, 3

    def t(a, grad=True):
        return Tensor(a, dtype=dtype, grad_enabled=grad)
    # u, dt_proj, A_log, the x_proj output (one step column, then B and
    # C), dt_bias and D.
    args = (t(rng.standard_normal((bsz, length, ch))),
            t(0.5 * rng.standard_normal((ch, 1))),
            t(rng.standard_normal((ch, nst))),
            t(rng.standard_normal((bsz, length, 1 + 2 * nst))),
            t(rng.standard_normal(ch) - 2.0),
            t(rng.standard_normal(ch)))
    kw = dict(exact_input_discretization=exact)
    readout = t(rng.standard_normal((bsz, length, ch)), grad=False)
    out = [ssm.ssm_scan(*(t(a.data, grad=False) for a in args), **kw).data]
    with Tape() as tape:
        y = ssm.ssm_scan(*args, **kw)
        grads = tape.gradients(tsum(mul(y, readout)), list(args))
    out += [y.data] + [grads[a].data for a in args]
    return [a.tobytes() for a in out]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("nst", [1, 4])
# The ids keep their former names, whose second field was a reset interval.
@pytest.mark.parametrize("exact", [pytest.param(False, id="False-None"),
                                   pytest.param(True, id="True-None")])
def test_scan_token_loops_are_byte_identical_to_per_token_loops(
        monkeypatch, dtype, bsz, nst, exact):
    """150 tokens: the state crosses the 64-token chunk edges."""
    fast = _scan_bytes(bsz, nst, dtype, exact)
    monkeypatch.setattr(ssm, "_scan_states", _states_per_token)
    monkeypatch.setattr(ssm, "_sweep_states_back", _sweep_per_token)
    assert fast == _scan_bytes(bsz, nst, dtype, exact)


def test_selective_scan_shape_validation(rng):
    core = _core(ch=4)
    with pytest.raises(ValueError, match="B, L, C"):
        selective_scan(Tensor(np.zeros((4, 4))), core)
    with pytest.raises(ValueError, match="channel"):
        selective_scan(Tensor(np.zeros((1, 4, 3))), core)


@pytest.mark.parametrize("length,n_segments", [(10, 3), (4, 0), (2, 3)])
def test_selective_scan_reference_rejects_unequal_segments(length,
                                                           n_segments):
    # L=10 in 3 segments would reset at token 9, and 0 segments would
    # divide by zero.
    core = _core(ch=4, segment_reset=True)
    with pytest.raises(ValueError, match=rf"n_segments {n_segments}\b.*"
                                         rf"length {length}\b"):
        reference.selective_scan_reference(np.zeros((1, length, 4)), core,
                                           n_segments=n_segments)
