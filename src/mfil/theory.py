"""Second-order analysis of scan orderings versus spatial filters.

A traversal reordering is a permutation matrix P, and the cross-covariance
of two reordered copies of the same random map is P_i Sigma P_j^T: the
spatial covariance is only shuffled, never reshaped, and its eigenvalue
multiset is untouched. A convolution is a structured (doubly block Toeplitz)
operator F, and the corresponding identity Sigma_ij = F_i Sigma F_j^T
reweights and reorients the covariance, moving the spectrum. Both identities
are linear in Sigma, so they hold exactly on finite-sample moments; this
module checks them numerically on small grids where the operators fit in
explicit matrices. Spectra come from ``np.linalg.eigvalsh``. Each verdict
is a ``reference.Check`` held to this module's ``IDENTITY_TOLERANCE`` or
``SPECTRUM_TOLERANCE``, so ``mfil verify`` and ``mfil report`` print the
same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reference import Check

__all__ = [
    "EmpiricalMoments", "empirical_moments", "permutation_matrix",
    "conv_as_matrix", "cross_covariance", "verify_permutation_identity",
    "verify_filter_identity", "spectrum_report", "SpectrumReport",
]

_MAX_GRID = 16
# Largest max-abs error at which a covariance identity holds: both sides
# are the same linear algebra, so anything above f64 roundoff is a bug.
IDENTITY_TOLERANCE = 1e-10
# Largest eigenvalue shift at which a permutation leaves a spectrum
# invariant.
SPECTRUM_TOLERANCE = 1e-8


def permutation_matrix(perm) -> np.ndarray:
    """The [n, n] matrix that maps x to x[perm]."""
    perm = np.asarray(perm, dtype=np.int64)
    n = perm.size
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    m = np.zeros((n, n))
    m[np.arange(n), perm] = 1.0
    return m


def conv_as_matrix(kernel: np.ndarray, H: int, W: int,
                   padding: int = 0) -> np.ndarray:
    """Stride-1 single-channel convolution as an explicit [H'W', HW] matrix.

    Row r holds the kernel taps contributing to output position r (doubly
    block Toeplitz). Grids are capped at 16x16, so a matrix has at most
    256 x 256 entries and a dense eigendecomposition of it stays cheap.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2:
        raise ValueError("kernel must be 2-D")
    if H > _MAX_GRID or W > _MAX_GRID:
        raise ValueError(f"grid {H}x{W} too large (max {_MAX_GRID})")
    kh, kw = kernel.shape
    oh = H + 2 * padding - kh + 1
    ow = W + 2 * padding - kw + 1
    if oh < 1 or ow < 1:
        raise ValueError("kernel larger than padded grid")
    m = np.zeros((oh * ow, H * W))
    for oy in range(oh):
        for ox in range(ow):
            row = oy * ow + ox
            for dy in range(kh):
                for dx in range(kw):
                    iy = oy - padding + dy
                    ix = ox - padding + dx
                    if 0 <= iy < H and 0 <= ix < W:
                        m[row, iy * W + ix] += kernel[dy, dx]
    return m


@dataclass
class EmpiricalMoments:
    """Sample mean and biased (1/n) covariance of vectorized maps."""

    mean: np.ndarray
    covariance: np.ndarray

    def symmetry_error(self) -> float:
        return float(np.max(np.abs(self.covariance - self.covariance.T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.covariance)[0])


def empirical_moments(samples) -> EmpiricalMoments:
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        x = x.reshape(x.shape[0], -1)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mu = x.mean(axis=0)
    xc = x - mu
    cov = (xc.T @ xc) / n
    cov = 0.5 * (cov + cov.T)  # kill asymmetric roundoff
    return EmpiricalMoments(mu, cov)


def cross_covariance(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Biased sample cross-covariance E[(x - mu_x)(y - mu_y)^T]."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = xs.shape[0]
    xc = xs - xs.mean(axis=0)
    yc = ys - ys.mean(axis=0)
    return (xc.T @ yc) / n


def _verify_identity(name, op_i: np.ndarray, op_j: np.ndarray,
                     moments: EmpiricalMoments, samples) -> Check:
    x = np.asarray(samples, dtype=np.float64).reshape(len(samples), -1)
    xi = x @ op_i.T
    xj = x @ op_j.T
    lhs = cross_covariance(xi, xj)
    rhs = op_i @ moments.covariance @ op_j.T
    return Check(f"{name}.max_abs_error", float(np.max(np.abs(lhs - rhs))),
                 IDENTITY_TOLERANCE)


def verify_permutation_identity(p_i: np.ndarray, p_j: np.ndarray,
                                moments: EmpiricalMoments,
                                samples) -> Check:
    """Cross-covariance of reordered copies equals P_i Sigma P_j^T.

    An exact linear-algebra identity on the empirical moments, held to
    ``IDENTITY_TOLERANCE``. Raises ``ValueError`` unless both operators are
    square 0/1 matrices with one 1 in every row and column (to within
    1e-12).
    """
    for name, op in (("P_i", p_i), ("P_j", p_j)):
        ones = np.abs(op - 1.0) <= 1e-12
        zeros = np.abs(op) <= 1e-12
        if not (op.ndim == 2 and op.shape[0] == op.shape[1]
                and np.all(ones | zeros)
                and np.all(ones.sum(axis=0) == 1)
                and np.all(ones.sum(axis=1) == 1)):
            raise ValueError(f"{name} is not a permutation matrix")
    return _verify_identity("permutation_identity", p_i, p_j, moments,
                            samples)


def verify_filter_identity(f_i: np.ndarray, f_j: np.ndarray,
                           moments: EmpiricalMoments,
                           samples) -> Check:
    """Cross-covariance of filtered copies equals F_i Sigma F_j^T."""
    return _verify_identity("filter_identity", f_i, f_j, moments, samples)


@dataclass
class SpectrumReport:
    eig_base: np.ndarray
    eig_permuted: np.ndarray
    eig_filtered: np.ndarray
    permutation_distance: float
    filter_distance: float

    @property
    def invariance(self) -> Check:
        """The verdict that the permutation leaves the spectrum in place."""
        return Check("spectrum.permutation_distance",
                     self.permutation_distance, SPECTRUM_TOLERANCE)


def spectrum_report(sigma: np.ndarray, perm: np.ndarray,
                    filt: np.ndarray) -> SpectrumReport:
    """Compare eigenvalues of Sigma, P Sigma P^T and F Sigma F^T.

    Conjugation by an orthogonal permutation is a similarity transform, so
    the first two spectra agree (``invariance``); a genuine filter
    reshapes the spectrum, and the report carries that distance.
    Raises ``ValueError`` unless ``filt`` maps the grid to itself.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.max(np.abs(sigma - sigma.T)) > 1e-10 * max(1.0, np.max(np.abs(sigma))):
        raise ValueError("sigma must be symmetric")
    if filt.shape != sigma.shape:
        raise ValueError(f"filter operator {filt.shape} does not map the "
                         f"grid to itself: sigma is {sigma.shape}")
    eig_base = np.linalg.eigvalsh(sigma)
    eig_perm = np.linalg.eigvalsh(perm @ sigma @ perm.T)
    eig_filt = np.linalg.eigvalsh(filt @ sigma @ filt.T)
    perm_dist = float(np.max(np.abs(eig_perm - eig_base)))
    filt_dist = float(np.max(np.abs(eig_filt - eig_base)))
    return SpectrumReport(eig_base, eig_perm, eig_filt, perm_dist, filt_dist)
