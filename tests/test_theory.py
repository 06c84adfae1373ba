import numpy as np
import pytest

from mfil import theory
from mfil.scan import SOBEL_X, SOBEL_Y
from mfil.tensor import Tensor, conv2d


# ---------------------------------------------------------------------------
# empirical moments

def test_two_point_distribution(rng):
    v = rng.standard_normal(9)
    m = theory.empirical_moments(np.stack([v, -v]))
    assert np.allclose(m.mean, 0.0, atol=1e-15)
    assert np.allclose(m.covariance, np.outer(v, v), atol=1e-12)


def test_identical_samples_zero_covariance(rng):
    v = rng.standard_normal(6)
    m = theory.empirical_moments(np.tile(v, (5, 1)))
    assert np.allclose(m.covariance, 0.0, atol=1e-14)


def test_requires_two_samples(rng):
    with pytest.raises(ValueError, match="2 samples"):
        theory.empirical_moments(rng.standard_normal((1, 4)))


def _streaming_two_pass(samples):
    n, d = samples.shape
    mean = np.zeros(d)
    for row in samples:
        mean += row
    mean /= n
    cov = np.zeros((d, d))
    for row in samples:
        c = row - mean
        cov += np.outer(c, c)
    return mean, cov / n


def test_matches_streaming_two_pass_oracle(rng):
    samples = rng.standard_normal((100, 12))
    m = theory.empirical_moments(samples)
    mean, cov = _streaming_two_pass(samples)
    assert np.max(np.abs(m.mean - mean)) <= 1e-10
    assert np.max(np.abs(m.covariance - cov)) <= 1e-10


def test_moment_invariants(rng):
    m = theory.empirical_moments(rng.standard_normal((50, 16)))
    assert m.symmetry_error() <= 1e-10
    assert m.min_eigenvalue() >= -1e-8


# ---------------------------------------------------------------------------
# operator matrices

def test_identity_kernel_gives_identity_matrix():
    op = theory.conv_as_matrix(np.array([[1.0]]), 4, 4)
    assert np.array_equal(op, np.eye(16))


def test_scalar_kernel_scales_identity():
    op = theory.conv_as_matrix(np.array([[2.5]]), 3, 5)
    assert np.array_equal(op, 2.5 * np.eye(15))


def test_sobel_matrix_columns_are_impulse_responses():
    op = theory.conv_as_matrix(SOBEL_X, 4, 4, padding=1)
    for j in range(16):
        impulse = np.zeros((4, 4))
        impulse[j // 4, j % 4] = 1.0
        response = conv2d(Tensor(impulse[None, :, :, None]),
                          Tensor(SOBEL_X[None, None]), 1, 1).data.ravel()
        assert np.array_equal(op[:, j], response)


def test_conv_as_matrix_agrees_with_conv2d_random(rng):
    for kern, pad in [(SOBEL_X, 1), (rng.standard_normal((2, 2)), 0),
                      (rng.standard_normal((3, 3)), 1)]:
        op = theory.conv_as_matrix(kern, 6, 6, padding=pad)
        for _ in range(50):
            z = rng.standard_normal((6, 6))
            via_op = op @ z.ravel()
            via_conv = conv2d(Tensor(z[None, :, :, None]),
                              Tensor(np.asarray(kern)[None, None]),
                              1, pad).data.ravel()
            assert np.max(np.abs(via_op - via_conv)) <= 1e-10


def test_grid_cap():
    with pytest.raises(ValueError, match="too large"):
        theory.conv_as_matrix(SOBEL_X, 17, 8, padding=1)


def test_permutation_matrix_structure(rng):
    perm = rng.permutation(12)
    op = theory.permutation_matrix(perm)
    assert np.array_equal(op, np.eye(12)[perm])
    assert np.max(np.abs(op.T @ op - np.eye(12))) <= 1e-12
    v = rng.standard_normal(12)
    assert np.array_equal(op @ v, v[perm])
    with pytest.raises(ValueError):
        theory.permutation_matrix([0, 0, 1])


# ---------------------------------------------------------------------------
# the reorder identity

def test_identity_permutations_reproduce_covariance(rng):
    samples = rng.standard_normal((60, 9))
    m = theory.empirical_moments(samples)
    eye = theory.permutation_matrix(np.arange(9))
    rep = theory.verify_permutation_identity(eye, eye, m, samples)
    assert rep.passed and rep.value <= 1e-12


def test_two_element_swap_relabels_covariance(rng):
    samples = rng.standard_normal((200, 2))
    m = theory.empirical_moments(samples)
    swap = theory.permutation_matrix([1, 0])
    a, b_, c = m.covariance[0, 0], m.covariance[0, 1], m.covariance[1, 1]
    swapped = swap @ m.covariance @ swap.T
    assert np.allclose(swapped, [[c, b_], [b_, a]], atol=1e-14)
    rep = theory.verify_permutation_identity(swap, swap, m, samples)
    assert rep.passed


def test_random_permutations_on_grids(rng):
    samples = rng.standard_normal((200, 36))
    m = theory.empirical_moments(samples)
    for _ in range(5):
        p_i = theory.permutation_matrix(rng.permutation(36))
        p_j = theory.permutation_matrix(rng.permutation(36))
        rep = theory.verify_permutation_identity(p_i, p_j, m, samples)
        assert rep.value <= 1e-10


def test_permutation_identity_rejects_non_permutations(rng):
    samples = rng.standard_normal((10, 36))
    m = theory.empirical_moments(samples)
    sob = theory.conv_as_matrix(SOBEL_X, 6, 6, padding=1)
    with pytest.raises(ValueError, match="permutation"):
        theory.verify_permutation_identity(sob, sob, m, samples)


# ---------------------------------------------------------------------------
# the filter identity

def test_scalar_filter_scales_covariance(rng):
    samples = rng.standard_normal((80, 16))
    m = theory.empirical_moments(samples)
    op = theory.conv_as_matrix(np.array([[3.0]]), 4, 4)
    rep = theory.verify_filter_identity(op, op, m, samples)
    assert rep.passed
    lhs = op @ m.covariance @ op.T
    assert np.allclose(lhs, 9.0 * m.covariance, atol=1e-10)


def test_filter_identity_with_identity_second_operator(rng):
    samples = rng.standard_normal((80, 36))
    m = theory.empirical_moments(samples)
    sob = theory.conv_as_matrix(SOBEL_X, 6, 6, padding=1)
    eye = theory.conv_as_matrix(np.array([[1.0]]), 6, 6)
    rep = theory.verify_filter_identity(sob, eye, m, samples)
    assert rep.passed
    transformed = [sob @ s for s in samples]
    direct = theory.cross_covariance(np.stack(transformed), samples)
    assert np.max(np.abs(direct - sob @ m.covariance)) <= 1e-10


def test_sobel_pair_identity(rng):
    samples = rng.standard_normal((200, 36))
    m = theory.empirical_moments(samples)
    f_i = theory.conv_as_matrix(SOBEL_X, 6, 6, padding=1)
    f_j = theory.conv_as_matrix(SOBEL_Y, 6, 6, padding=1)
    rep = theory.verify_filter_identity(f_i, f_j, m, samples)
    assert rep.value <= 1e-10


# ---------------------------------------------------------------------------
# spectra

def test_identity_covariance_spectrum_under_permutation(rng):
    perm = theory.permutation_matrix(rng.permutation(16))
    filt = theory.conv_as_matrix(np.array([[1.0]]), 4, 4)
    rep = theory.spectrum_report(np.eye(16), perm, filt)
    assert np.allclose(rep.eig_permuted, 1.0, atol=1e-10)
    assert rep.invariance.passed


def test_sobel_on_identity_equals_squared_singular_values(rng):
    sob = theory.conv_as_matrix(SOBEL_X, 6, 6, padding=1)
    perm = theory.permutation_matrix(rng.permutation(36))
    rep = theory.spectrum_report(np.eye(36), perm, sob)
    svals = np.linalg.svd(sob, compute_uv=False)
    assert np.max(np.abs(rep.eig_filtered - np.sort(svals ** 2))) <= 1e-8
    assert rep.filter_distance > 1e-3  # spectrum genuinely moved


def test_random_psd_spectral_separation(rng):
    for _ in range(3):
        s = rng.standard_normal((36, 36))
        sigma = (s @ s.T) / 36
        perm = theory.permutation_matrix(rng.permutation(36))
        sob = theory.conv_as_matrix(SOBEL_X, 6, 6, padding=1)
        rep = theory.spectrum_report(sigma, perm, sob)
        assert rep.permutation_distance <= 1e-8
        assert rep.filter_distance > 1e-3


def test_spectrum_report_rejects_asymmetric(rng):
    perm = theory.permutation_matrix(np.arange(4))
    filt = theory.conv_as_matrix(np.array([[1.0]]), 2, 2)
    with pytest.raises(ValueError, match="symmetric"):
        theory.spectrum_report(rng.standard_normal((4, 4)), perm, filt)


def test_spectrum_report_rejects_a_filter_that_changes_the_grid(rng):
    # An unpadded 3x3 filter maps the 4x4 grid to 2x2: a [4, 16] operator.
    perm = theory.permutation_matrix(rng.permutation(16))
    filt = theory.conv_as_matrix(np.ones((3, 3)), 4, 4)
    with pytest.raises(ValueError, match=r"\(4, 16\).*\(16, 16\)"):
        theory.spectrum_report(np.eye(16), perm, filt)


def test_spectrum_report_returns_a_moved_spectrum_as_its_verdict():
    # 2I is no permutation: it scales every eigenvalue of I by four.
    filt = theory.conv_as_matrix(np.array([[1.0]]), 3, 3)
    rep = theory.spectrum_report(np.eye(9), 2.0 * np.eye(9), filt)
    assert rep.permutation_distance == 3.0
    assert not rep.invariance.passed


def test_report_text_format(rng):
    samples = rng.standard_normal((50, 9))
    m = theory.empirical_moments(samples)
    eye = theory.permutation_matrix(np.arange(9))
    rep = theory.verify_permutation_identity(eye, eye, m, samples)
    assert str(rep) == (f"permutation_identity.max_abs_error: "
                        f"{rep.value:.3e} (tol 1e-10)")
    assert rep.passed
