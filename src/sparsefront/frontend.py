"""Sparsifying front end: keep the K largest-magnitude wavelet coefficients.

The functions work on (batch, N) stacks of flat images; only the
certificate takes a single image. The defended input is
``x_hat = G top_K(F x)``, with F the analysis and G the synthesis operator.
Once the retained support S is frozen, the front end is the linear map
``G_S F_S``; ``frozen_adjoint`` applies its adjoint ``F_S^T G_S^T``, which
is what every white-box attack steers along.

``check_high_snr`` certifies that no l-infinity perturbation of size epsilon
can change the retained support: it requires the gap between the K-th and
the (K+1)-th coefficient magnitudes to exceed 2 epsilon M, with M the
largest l1 norm over analysis rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transform
from .transform import Basis

__all__ = [
    "FrontEndConfig",
    "CertificateReport",
    "top_k_batch",
    "apply_batch",
    "support_batch",
    "frozen_adjoint",
    "check_high_snr",
]

# rows per forward/top-K/inverse pass in apply_batch, bounding its scratch memory
_CHUNK = 4096


@dataclass(frozen=True)
class FrontEndConfig:
    """Front-end parameters: basis plus sparsity fraction rho = K/N.

    K is derived as round(rho * N), clamped to at least 1. Ties at the K-th
    magnitude break toward the lowest coefficient index.
    """

    basis: Basis
    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")

    @property
    def k(self) -> int:
        return max(1, int(round(self.rho * self.basis.size)))


@dataclass(frozen=True)
class CertificateReport:
    certified: bool
    gap: float  # |c|_(K) - |c|_(K+1), with |c|_(N+1) = 0
    m: float
    threshold: float  # 2*M, the bound gap/epsilon must strictly exceed
    epsilon: float


def top_k_batch(values, k):
    """Keep the k largest-magnitude entries of each row of a (batch, N) array, zeroing the rest.

    Ties at the K-th magnitude go to the lowest indices. Non-finite values
    raise ValueError.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"K must be in [1, {n}], got {k}")
    if not np.isfinite(values).all():
        raise ValueError("top-K needs finite values")
    mags = np.abs(values)
    kth = np.partition(mags, n - k, axis=-1)[:, n - k, None]
    above = mags > kth
    tied = mags == kth
    # slots left after every magnitude strictly above the K-th, filled from
    # the ties in index order
    room = k - np.count_nonzero(above, axis=-1, keepdims=True)
    keep = above | (tied & (np.cumsum(tied, axis=-1) <= room))
    return np.where(keep, values, 0.0)


def apply_batch(config: FrontEndConfig, images) -> np.ndarray:
    """Sparsify a (batch, N) stack of flat images: analyze, keep top K, synthesize."""
    images = np.asarray(images, dtype=np.float64)
    out = np.empty_like(images)
    for start in range(0, images.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        coeffs = transform.forward_batch(config.basis, images[sl])
        out[sl] = transform.inverse_batch(config.basis, top_k_batch(coeffs, config.k))
    return out


def support_batch(config: FrontEndConfig, images) -> list:
    """Per-row retained supports for a (batch, N) stack.

    Each support is sorted ascending and omits exact zeros, so it can be
    shorter than K.
    """
    kept = top_k_batch(transform.forward_batch(config.basis, images), config.k)
    return [np.flatnonzero(row) for row in kept]


def frozen_adjoint(config: FrontEndConfig, x, v) -> np.ndarray:
    """F_S^T (G_S^T v[s]) for each row s, with S the support retained at x[s].

    x is a (B, N) stack of clean inputs; v is (B, N) or (B, L, N). This is
    the gradient, with respect to the input, of v[s] . G_S F_S x: the
    steering vector of a white-box attack on the frozen front end. Each atom
    is an outer product of 1-D atoms (``transform.atom_tables``), so both
    G_S^T and F_S^T act on v as an h x w image without a dense operator.
    """
    fy, fx, gy, gx = transform.atom_tables(config.basis)
    v = np.asarray(v, dtype=np.float64)
    supports = support_batch(config, x)
    # each support padded to K entries; the padding gets zero weight
    kept = np.arange(config.k) < np.array([s.size for s in supports])[:, None]
    idx = np.zeros(kept.shape, dtype=np.intp)
    idx[kept] = np.concatenate(supports)
    images = v.reshape(v.shape[0], -1, config.basis.height, config.basis.width)  # (B, L, h, w)
    # G_S^T v: c[s, l, k] = gy_k^T V[s, l] gx_k, with g_k = gy_k (x) gx_k
    c = ((gy[idx][:, None] @ images) * gx[idx][:, None]).sum(axis=-1)  # (B, L, K)
    c *= kept[:, None, :]
    # F_S^T c: sum_k c[s, l, k] fy_k (x) fx_k
    out = (fy[idx].transpose(0, 2, 1)[:, None] * c[:, :, None, :]) @ fx[idx][:, None]
    return out.reshape(v.shape)


def check_high_snr(config: FrontEndConfig, x, epsilon: float) -> CertificateReport:
    """Certificate that the support of one flat image survives any ||e||_inf <= epsilon.

    Each coefficient moves by at most epsilon * M, so the K retained ones
    stay strictly above the rest when gap/epsilon > 2M (strict), with gap =
    |c|_(K) - |c|_(K+1). For an exactly K-sparse input the gap is the
    smallest retained magnitude. epsilon = 0 is always certified; an
    all-zero input with epsilon > 0 never is.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    coeffs = transform.forward_batch(config.basis, np.asarray(x, dtype=np.float64)[None, :])[0]
    mags = np.concatenate([np.sort(np.abs(coeffs))[::-1], [0.0]])
    gap = float(mags[config.k - 1] - mags[config.k])
    m = transform.max_l1_norm(config.basis)
    threshold = 2.0 * m
    certified = epsilon == 0.0 or gap / epsilon > threshold
    return CertificateReport(certified, gap, m, threshold, epsilon)
