"""Sparsifying front end: keep the K largest-magnitude wavelet coefficients.

The functions work on (batch, N) stacks of flat images. The defended input is
``x_hat = G top_K(F x)``, with F the analysis and G the synthesis operator.
A retained support S is held as a (batch, N) boolean kept mask, True at the
coefficients top-K keeps; ``support_batch`` gives it with x_hat from one
analysis. Once S is frozen, the front end is the linear map ``G_S F_S``;
``frozen_adjoint`` applies its adjoint ``F_S^T G_S^T`` for a kept mask, which
every white-box attack steers along and the attenuation lab measures.

``certified_radius_batch`` gives, per input, the l-infinity radius within
which no perturbation can change the retained support: gap / (2M), with gap
the difference of the K-th and (K+1)-th coefficient magnitudes and M the
largest l1 norm over analysis rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transform
from .data import check_real
from .transform import Basis

__all__ = [
    "FrontEndConfig",
    "top_k_batch",
    "apply_batch",
    "defend",
    "support_batch",
    "frozen_adjoint",
    "certified_radius_batch",
]

# rows per forward/top-K/inverse pass of the front end: its scratch is a few
# chunk-sized temporaries (1.6 MB each at N = 784), whatever the batch
_CHUNK = 256


@dataclass(frozen=True)
class FrontEndConfig:
    """Front-end parameters: basis plus sparsity fraction rho = K/N.

    K is derived as round(rho * N), clamped to at least 1. Ties at the K-th
    magnitude break toward the lowest coefficient index.
    """

    basis: Basis
    rho: float

    def __post_init__(self):
        check_real("rho", self.rho, "(0, 1]")

    @property
    def k(self) -> int:
        return max(1, int(round(self.rho * self.basis.size)))


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


def _sparsify(config: FrontEndConfig, images, kept=None) -> np.ndarray:
    """Analyze, keep top K and synthesize, _CHUNK rows at a time; fills kept when given one."""
    out = np.empty_like(images)
    for start in range(0, images.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        coeffs = top_k_batch(transform.forward_batch(config.basis, images[sl]), config.k)
        if kept is not None:
            np.not_equal(coeffs, 0.0, out=kept[sl])
        out[sl] = transform.inverse_batch(config.basis, coeffs)
    return out


def apply_batch(config: FrontEndConfig, images) -> np.ndarray:
    """Sparsify a (batch, N) stack of flat images: analyze, keep top K, synthesize."""
    return _sparsify(config, np.asarray(images, dtype=np.float64))


def defend(config: FrontEndConfig | None, images, clip) -> np.ndarray:
    """The input a defended model sees: ``apply_batch``, clamped to [0, 1] under clip."""
    if config is None:
        return images
    out = apply_batch(config, images)
    return np.clip(out, 0.0, 1.0, out=out) if clip else out


def support_batch(config: FrontEndConfig, images) -> tuple[np.ndarray, np.ndarray]:
    """The defended input and its kept mask from one analysis: (x_hat, kept), both (batch, N).

    x_hat is ``apply_batch``'s output. kept[s] is True at the coefficients
    top-K retains for row s, except exact zeros, so a row can keep fewer
    than K.
    """
    images = np.asarray(images, dtype=np.float64)
    kept = np.empty(images.shape, dtype=bool)
    return _sparsify(config, images, kept), kept


def frozen_adjoint(basis: Basis, kept, v) -> np.ndarray:
    """F_S^T (G_S^T v[s]) for each row s, with S the coefficients that kept[s] marks True.

    kept is a (B, N) boolean mask, as ``support_batch`` gives it, and v is
    (B, N) or (B, L, N). This is the gradient, with respect to the input, of
    v[s] . G_S F_S x: the steering vector of a white-box attack on the frozen
    front end. Each atom is an outer product of 1-D atoms
    (``transform.atom_tables``), so both G_S^T and F_S^T act on v as an
    h x w image without a dense operator. Each row's kept atoms are taken in
    ascending index order and padded, with zero weight, to the count of the
    row that keeps the most, since a row can keep fewer than K.
    """
    fy, fx, gy, gx = transform.atom_tables(basis)
    v = np.asarray(v, dtype=np.float64)
    counts = np.count_nonzero(kept, axis=1)
    real = np.arange(counts.max()) < counts[:, None]  # False on the padding
    idx = np.zeros(real.shape, dtype=np.intp)
    idx[real] = np.nonzero(kept)[1]
    images = v.reshape(v.shape[0], -1, basis.height, basis.width)  # (B, L, h, w)
    # G_S^T v: c[s, l, k] = gy_k^T V[s, l] gx_k, with g_k = gy_k (x) gx_k
    c = ((gy[idx][:, None] @ images) * gx[idx][:, None]).sum(axis=-1)  # (B, L, K)
    c *= real[:, None, :]
    # F_S^T c: sum_k c[s, l, k] fy_k (x) fx_k
    out = (fy[idx].transpose(0, 2, 1)[:, None] * c[:, :, None, :]) @ fx[idx][:, None]
    return out.reshape(v.shape)


def certified_radius_batch(config: FrontEndConfig, x) -> np.ndarray:
    """Per-row radius gap / (2M) of a (B, N) stack within which the support cannot change.

    Each coefficient moves by at most epsilon * M, so the K retained ones
    stay strictly above the rest when epsilon < radius (strict), with gap =
    |c|_(K) - |c|_(K+1) and |c|_(N+1) = 0. For an exactly K-sparse input the
    gap is the smallest retained magnitude. A row is certified at epsilon
    when radius > epsilon; epsilon = 0 is always certified, and an all-zero
    input, whose radius is 0, never is at epsilon > 0. Non-finite input
    raises ValueError.
    """
    mags = np.abs(transform.forward_batch(config.basis, x))
    if not np.isfinite(mags).all():
        raise ValueError("the certificate needs finite input")
    mags = np.concatenate([-np.sort(-mags, axis=1), np.zeros((mags.shape[0], 1))], axis=1)
    gap = mags[:, config.k - 1] - mags[:, config.k]
    return gap / (2.0 * transform.max_l1_norm(config.basis))
