"""Multi-level 2D wavelet analysis/synthesis.

Two bases are provided, declared in ``WAVELETS`` under their short names:

* ``haar`` (``haar_orthonormal``) -- the orthonormal Haar transform. Odd-length
  rows or columns keep their last sample in the low band unchanged, which
  preserves orthonormality at every level.
* ``cdf97`` (``cdf97_biorthogonal``) -- the Cohen-Daubechies-Feauveau 9/7 biorthogonal
  transform, computed with the standard four-step lifting factorization plus
  a final scaling; synthesis runs the same steps in reverse with negated
  constants. Boundaries use whole-sample symmetric extension (the JPEG2000
  convention), applied without padding: at each edge a lifting step lacks at
  most one neighbour, and uses the mirrored sample it already has in its
  place. Odd lengths are handled exactly and the output agrees with direct
  FIR filtering of the symmetrically extended signal.

Normalization: the analysis lowpass has DC gain sqrt(2) for both bases, so a
constant image gains a factor of 2 per 2D level.

Coefficient vectors are flat, length N = height*width, in subband-major
order: the coarsest LL block first, then per level from coarsest to finest
the LH, HL, HH blocks, each flattened row-major. ``subband_layout`` gives
the extents.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .data import check_int

__all__ = [
    "WAVELETS",
    "Basis",
    "forward_batch",
    "inverse_batch",
    "max_l1_norm",
    "atom_tables",
    "analysis_matrix",
    "synthesis_matrix",
    "subband_layout",
]

# Lifting constants for the CDF 9/7 factorization (two predicts, two updates,
# one scaling). With these values the analysis filters equal the published
# 9/7 taps scaled to DC gain sqrt(2) on the lowpass side.
CDF97_ALPHA = -1.586134342059924
CDF97_BETA = -0.052980118572961
CDF97_GAMMA = 0.882911075530934
CDF97_DELTA = 0.443506852043971
CDF97_ZETA = 1.149604398860241

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Basis:
    """An invertible analysis/synthesis transform pair over height*width images."""

    kind: str  # the kind of a wavelet in WAVELETS
    height: int
    width: int
    levels: int

    def __post_init__(self):
        if self.kind not in _BY_KIND:
            raise ValueError(f"unknown basis kind: {self.kind!r}")
        for name in ("height", "width", "levels"):
            check_int(name, getattr(self, name), 1)
        if min(self.height, self.width) < 2:
            raise ValueError(f"a wavelet basis needs at least 2 pixels per side, "
                             f"got {self.height}x{self.width}")
        max_levels = int(math.floor(math.log2(min(self.height, self.width))))
        if self.levels > max_levels:
            raise ValueError(
                f"levels must be in [1, {max_levels}] for a "
                f"{self.height}x{self.width} image, got {self.levels}"
            )

    @property
    def size(self) -> int:
        return self.height * self.width


def _level_extents(height, width, levels):
    """[(h, w)] of the block each level transforms, then the final LL extent."""
    dims = [(height, width)]
    for _ in range(levels):
        h, w = dims[-1]
        dims.append(((h + 1) // 2, (w + 1) // 2))
    return dims


# ---------------------------------------------------------------------------
# 1D kernels. All kernels act on the last axis of an array; s is the
# even-indexed (low) phase, d the odd-indexed (high) phase. A transformed
# axis is laid out [low ceil(n/2) | high floor(n/2)].
# ---------------------------------------------------------------------------


def _lift_predict(d, s, c):
    # d[i] += c*(s[i] + s[i+1])
    m = s.shape[-1] - 1
    d[..., :m] += c * (s[..., :m] + s[..., 1:])
    if d.shape[-1] > m:  # even length: s[m+1] mirrors s[m]
        d[..., m] += c * (s[..., m] + s[..., m])


def _lift_update(s, d, c):
    # s[i] += c*(d[i-1] + d[i])
    nd = d.shape[-1]
    s[..., 0] += c * (d[..., 0] + d[..., 0])  # d[-1] mirrors d[0]
    s[..., 1:nd] += c * (d[..., : nd - 1] + d[..., 1:])
    if s.shape[-1] > nd:  # odd length: d[nd] mirrors d[nd-1]
        s[..., nd] += c * (d[..., nd - 1] + d[..., nd - 1])


def _cdf97_analyze(x):
    s = x[..., 0::2].copy()
    d = x[..., 1::2].copy()
    _lift_predict(d, s, CDF97_ALPHA)
    _lift_update(s, d, CDF97_BETA)
    _lift_predict(d, s, CDF97_GAMMA)
    _lift_update(s, d, CDF97_DELTA)
    ns = s.shape[-1]
    out = np.empty(x.shape)
    out[..., :ns] = CDF97_ZETA * s
    out[..., ns:] = (1.0 / CDF97_ZETA) * d
    return out


def _cdf97_synthesize(c):
    """Inverse of :func:`_cdf97_analyze`."""
    ns = (c.shape[-1] + 1) // 2
    s = c[..., :ns] / CDF97_ZETA
    d = c[..., ns:] * CDF97_ZETA
    _lift_update(s, d, -CDF97_DELTA)
    _lift_predict(d, s, -CDF97_GAMMA)
    _lift_update(s, d, -CDF97_BETA)
    _lift_predict(d, s, -CDF97_ALPHA)
    x = np.empty(c.shape)
    x[..., 0::2] = s
    x[..., 1::2] = d
    return x


def _haar_analyze(x):
    n = x.shape[-1]
    m = n // 2
    a = x[..., 0 : 2 * m : 2]
    b = x[..., 1 : 2 * m : 2]
    out = np.empty(x.shape)
    out[..., :m] = (a + b) / _SQRT2
    out[..., n - m :] = (a - b) / _SQRT2
    if n % 2 == 1:
        out[..., m] = x[..., -1]  # unpaired sample passes through
    return out


def _haar_synthesize(c):
    n = c.shape[-1]
    m = n // 2
    s = c[..., :m]
    d = c[..., n - m :]
    x = np.empty(c.shape)
    x[..., 0 : 2 * m : 2] = (s + d) / _SQRT2
    x[..., 1 : 2 * m : 2] = (s - d) / _SQRT2
    if n % 2 == 1:
        x[..., -1] = c[..., m]
    return x


Wavelet = namedtuple("Wavelet", "kind analyze synthesize")
# short name (the CLI's --basis) -> the Basis.kind a model file records and the 1-D kernels
WAVELETS = {
    "haar": Wavelet("haar_orthonormal", _haar_analyze, _haar_synthesize),
    "cdf97": Wavelet("cdf97_biorthogonal", _cdf97_analyze, _cdf97_synthesize),
}
_BY_KIND = {wavelet.kind: wavelet for wavelet in WAVELETS.values()}


def _along_axis(fn, block, axis):
    """Apply a 1D transform along ``axis`` of a (batch, h, w) stack."""
    return np.moveaxis(fn(np.moveaxis(block, axis, -1)), -1, axis)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

@functools.cache
def subband_layout(basis: Basis) -> tuple:
    """Extents of each subband in the flat coefficient vector. Cached.

    A tuple of (name, level, rows, cols, offset) entries where name is "ll",
    "lh", "hl" or "hh" (first letter = vertical band, second = horizontal
    band), rows/cols are (start, stop) slices into the 2D pyramid arrangement
    and offset is the subband's start in the flat vector. The order is LL at
    the deepest level, then (lh, hl, hh) per level from deepest to level 1.
    """
    dims = _level_extents(basis.height, basis.width, basis.levels)
    hL, wL = dims[basis.levels]
    bands = [("ll", basis.levels, (0, hL), (0, wL), 0)]
    offset = hL * wL
    for lev in range(basis.levels, 0, -1):
        hp, wp = dims[lev - 1]  # parent extents
        hc, wc = dims[lev]
        for name, rows, cols in (
            ("lh", (0, hc), (wc, wp)),
            ("hl", (hc, hp), (0, wc)),
            ("hh", (hc, hp), (wc, wp)),
        ):
            bands.append((name, lev, rows, cols, offset))
            offset += (rows[1] - rows[0]) * (cols[1] - cols[0])
    assert offset == basis.size
    return tuple(bands)


def _pyramid_to_flat(pyr, basis):
    """(batch, h, w) pyramid -> (batch, N) subband-major flat vectors."""
    return np.concatenate([pyr[:, slice(*rows), slice(*cols)].reshape(pyr.shape[0], -1)
                           for _, _, rows, cols, _ in subband_layout(basis)], axis=-1)


def _flat_to_pyramid(flat, basis):
    pyr = np.empty((flat.shape[0], basis.height, basis.width))
    for _, _, rows, cols, offset in subband_layout(basis):
        band = pyr[:, slice(*rows), slice(*cols)]
        band[...] = flat[:, offset : offset + band.shape[1] * band.shape[2]].reshape(band.shape)
    return pyr


def _stack(basis, x, what):
    """`x` as a float64 (batch, N) array for `basis`; ValueError names `what` otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != basis.size:
        raise ValueError(f"expected (batch, {basis.size}) {what} for a "
                         f"{basis.height}x{basis.width} basis, got {x.shape}")
    return x


def forward_batch(basis: Basis, images) -> np.ndarray:
    """Analysis of a (batch, N) stack of flat images; returns (batch, N) coefficients."""
    block = _stack(basis, images, "images").reshape(-1, basis.height, basis.width).copy()
    for h, w in _level_extents(basis.height, basis.width, basis.levels)[:-1]:
        sub = block[:, :h, :w]
        sub = _along_axis(_BY_KIND[basis.kind].analyze, sub, 2)
        sub = _along_axis(_BY_KIND[basis.kind].analyze, sub, 1)
        block[:, :h, :w] = sub
    return _pyramid_to_flat(block, basis)


def inverse_batch(basis: Basis, coeffs) -> np.ndarray:
    """Synthesis of a (batch, N) stack of flat coefficient vectors."""
    block = _flat_to_pyramid(_stack(basis, coeffs, "coefficient vectors"), basis)
    for h, w in reversed(_level_extents(basis.height, basis.width, basis.levels)[:-1]):
        sub = block[:, :h, :w]
        sub = _along_axis(_BY_KIND[basis.kind].synthesize, sub, 1)
        sub = _along_axis(_BY_KIND[basis.kind].synthesize, sub, 2)
        block[:, :h, :w] = sub
    return block.reshape(-1, basis.size)


def _atoms_1d(kind, extents):
    """Rows of the 1-D l-level analysis operators and columns of their inverses.

    ``extents`` is one axis's per-level lengths, as ``_level_extents`` gives
    them. Returns (analysis, synthesis), each (levels, n, n): analysis[l - 1, p]
    is row p of the l-level analysis operator, synthesis[l - 1, p] column p of
    the l-level synthesis operator. Unit vectors go through the 1-D lifting
    kernels, so the kernels stay the one definition of the transform.
    """
    n, levels = extents[0], len(extents) - 1
    analysis = np.empty((levels, n, n))
    synthesis = np.empty((levels, n, n))
    block = np.eye(n)  # row i: the image of unit sample i
    for lev, m in enumerate(extents[:-1]):
        block[:, :m] = _BY_KIND[kind].analyze(block[:, :m])
        analysis[lev] = block.T
    for lev in range(levels):
        block = np.eye(n)  # row p: the synthesis of unit coefficient p
        for m in reversed(extents[: lev + 1]):
            block[:, :m] = _BY_KIND[kind].synthesize(block[:, :m])
        synthesis[lev] = block
    return analysis, synthesis


@functools.cache
def atom_tables(basis: Basis):
    """Separable atoms of every coefficient: (fy (N, h), fx (N, w), gy (N, h), gx (N, w)).

    Every wavelet atom has rank one. Row k of the analysis operator, as an
    h x w image, is the outer product of fy[k] and fx[k]; column k of the
    synthesis operator is that of gy[k] and gx[k]. For a coefficient of a
    level-l band at pyramid position (p, q), fy[k] is row p of the l-level
    1-D analysis operator along the height, and so on. Cached.
    """
    dims = _level_extents(basis.height, basis.width, basis.levels)
    fh, gh = _atoms_1d(basis.kind, [h for h, _ in dims])
    fw, gw = _atoms_1d(basis.kind, [w for _, w in dims])
    # level, pyramid row and pyramid column of each flat coefficient
    lev, p, q = [], [], []
    for _, level, rows, cols, _ in subband_layout(basis):
        pp, qq = np.meshgrid(np.arange(*rows), np.arange(*cols), indexing="ij")
        lev.append(np.full(pp.size, level - 1))
        p.append(pp.ravel())
        q.append(qq.ravel())
    lev, p, q = (np.concatenate(a) for a in (lev, p, q))
    tables = (fh[lev, p], fw[lev, q], gh[lev, p], gw[lev, q])
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def synthesis_matrix(basis: Basis) -> np.ndarray:
    """Dense N x N synthesis operator; column j is the image of the j-th unit coefficient."""
    return inverse_batch(basis, np.eye(basis.size)).T


def analysis_matrix(basis: Basis) -> np.ndarray:
    """Dense N x N analysis operator; row k maps an image to coefficient k."""
    return forward_batch(basis, np.eye(basis.size)).T


def max_l1_norm(basis: Basis) -> float:
    """max_k of the l1 norm over analysis rows.

    Coefficient k moves by at most epsilon * ||a_k||_1 under a perturbation
    with ||e||_inf <= epsilon, so this is the certificate's M.
    """
    fy, fx, _, _ = atom_tables(basis)
    # the l1 norm of an outer product is the product of the factors' l1 norms
    return float((np.abs(fy).sum(axis=1) * np.abs(fx).sum(axis=1)).max())
