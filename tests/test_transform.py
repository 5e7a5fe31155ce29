import hashlib
import math

import numpy as np
import pytest

from sparsefront import transform as T
from sparsefront.transform import Basis

# Published CDF 9/7 filter taps (analysis lowpass normalized to unit DC
# gain), upscaled to this package's sqrt(2) normalization. These constants
# are the independent record the lifting implementation is checked against.
_SQRT2 = math.sqrt(2.0)
FIR_ANALYSIS_LO = _SQRT2 * np.array([
    0.026748757410810, -0.016864118442875, -0.078223266528990,
    0.266864118442875, 0.602949018236360, 0.266864118442875,
    -0.078223266528990, -0.016864118442875, 0.026748757410810,
])
FIR_ANALYSIS_HI = (1.0 / _SQRT2) * np.array([
    0.091271763114250, -0.057543526228500, -0.591271763114250,
    1.115087052457000, -0.591271763114250, -0.057543526228500,
    0.091271763114250,
])


def fir_analyze_1d(x):
    """Direct-convolution 9/7 analysis with whole-sample symmetric extension."""
    n = x.shape[0]
    pad = 16
    ext = np.pad(x, pad, mode="reflect")
    lo = np.array([
        sum(FIR_ANALYSIS_LO[k] * ext[pad + 2 * i + k - 4] for k in range(9))
        for i in range((n + 1) // 2)
    ])
    hi = np.array([
        sum(FIR_ANALYSIS_HI[k] * ext[pad + 2 * i + 1 + k - 3] for k in range(7))
        for i in range(n // 2)
    ])
    return lo, hi


def fir_analyze_2d(image, levels):
    """Separable multi-level 9/7 analysis, packed pyramid layout."""
    out = image.astype(float).copy()
    h, w = out.shape
    for _ in range(levels):
        block = out[:h, :w].copy()
        for r in range(h):
            lo, hi = fir_analyze_1d(block[r, :w])
            block[r, : lo.size] = lo
            block[r, lo.size : w] = hi
        for c in range(w):
            lo, hi = fir_analyze_1d(block[:h, c])
            block[: lo.size, c] = lo
            block[lo.size : h, c] = hi
        out[:h, :w] = block
        h, w = (h + 1) // 2, (w + 1) // 2
    return out


def pyramid_of(basis, flat_coeffs):
    pyr = np.empty((basis.height, basis.width))
    for _, _, rows, cols, offset in T.subband_layout(basis):
        hh = rows[1] - rows[0]
        ww = cols[1] - cols[0]
        pyr[rows[0]:rows[1], cols[0]:cols[1]] = flat_coeffs[offset:offset + hh * ww].reshape(hh, ww)
    return pyr


ALL_BASES = [
    Basis("haar_orthonormal", 28, 28, 1),
    Basis("haar_orthonormal", 28, 28, 2),
    Basis("haar_orthonormal", 28, 28, 4),
    Basis("cdf97_biorthogonal", 28, 28, 1),
    Basis("cdf97_biorthogonal", 28, 28, 2),
    Basis("cdf97_biorthogonal", 28, 28, 3),
    Basis("cdf97_biorthogonal", 2, 4, 1),
    Basis("cdf97_biorthogonal", 7, 7, 2),
]
# non-square and odd sizes at their maximum levels exercise the edge steps
ALL_BASES += [
    Basis(kind, h, w, levels)
    for kind in ("haar_orthonormal", "cdf97_biorthogonal")
    for h, w, levels in ((7, 13, 2), (16, 5, 2), (3, 9, 1))
]


class TestPerfectReconstruction:
    @pytest.mark.parametrize("basis", ALL_BASES, ids=str)
    def test_roundtrip_random_images(self, basis, rng):
        x = rng.standard_normal((100, basis.size))
        back = T.inverse_batch(basis, T.forward_batch(basis, x))
        assert np.max(np.abs(back - x)) < 1e-9

    @pytest.mark.parametrize("basis", ALL_BASES, ids=str)
    def test_forward_of_inverse_is_identity(self, basis, rng):
        c = rng.standard_normal((20, basis.size))
        again = T.forward_batch(basis, T.inverse_batch(basis, c))
        assert np.max(np.abs(again - c)) < 1e-9

    def test_one_row_roundtrip(self, rng):
        basis = Basis("cdf97_biorthogonal", 28, 28, 2)
        x = rng.random((1, 784))
        coeffs = T.forward_batch(basis, x)
        assert np.max(np.abs(T.inverse_batch(basis, coeffs) - x)) < 1e-9


class TestHaar:
    def test_constant_image_one_level(self):
        basis = Basis("haar_orthonormal", 4, 4, 1)
        c = T.forward_batch(basis, np.ones((1, 16)))[0]
        pyr = pyramid_of(basis, c)
        assert np.allclose(pyr[:2, :2], 2.0, atol=1e-12)  # 2x2 average = sum/2
        detail = pyr.copy()
        detail[:2, :2] = 0.0
        assert np.max(np.abs(detail)) < 1e-12

    def test_orthonormal_columns(self):
        basis = Basis("haar_orthonormal", 28, 28, 2)
        g = T.synthesis_matrix(basis)
        assert np.max(np.abs(g.T @ g - np.eye(784))) < 1e-9

    def test_isometry(self, rng):
        basis = Basis("haar_orthonormal", 28, 28, 3)
        x = rng.standard_normal((50, 784))
        c = T.forward_batch(basis, x)
        assert np.max(np.abs(np.linalg.norm(c, axis=1) - np.linalg.norm(x, axis=1))) < 1e-9

    def test_unit_coarse_coefficient_synthesizes_constant(self):
        # inverse of the indicator at the single LL position of a 2x2 image
        basis = Basis("haar_orthonormal", 2, 2, 1)
        e = np.zeros(4)
        e[0] = 1.0
        x = T.inverse_batch(basis, e[None, :])[0]
        assert np.allclose(x, 0.5, atol=1e-12)

    def test_2x2_columns_have_half_magnitude_entries(self):
        basis = Basis("haar_orthonormal", 2, 2, 1)
        assert np.allclose(np.abs(T.synthesis_matrix(basis)), 0.5, atol=1e-12)

    def test_odd_length_level_stays_orthonormal(self):
        # level 3 of 28x28 transforms 7-sample rows; the unpaired tail sample
        # passes into the low band, preserving orthonormality
        basis = Basis("haar_orthonormal", 28, 28, 3)
        g = T.synthesis_matrix(basis)
        assert np.max(np.abs(g.T @ g - np.eye(784))) < 1e-9


class TestCdf97Oracle:
    def test_matches_direct_fir_8x8_two_levels(self, rng):
        img = rng.standard_normal((8, 8))
        basis = Basis("cdf97_biorthogonal", 8, 8, 2)
        ours = pyramid_of(basis, T.forward_batch(basis, img.reshape(1, -1))[0])
        oracle = fir_analyze_2d(img, 2)
        assert np.max(np.abs(ours - oracle)) < 1e-8

    def test_matches_direct_fir_28x28_odd_levels(self, rng):
        img = rng.random((28, 28))
        basis = Basis("cdf97_biorthogonal", 28, 28, 3)  # level 3 hits 7-sample edges
        ours = pyramid_of(basis, T.forward_batch(basis, img.reshape(1, -1))[0])
        oracle = fir_analyze_2d(img, 3)
        assert np.max(np.abs(ours - oracle)) < 1e-8

    # (2, n, 1) covers both parities down to rows shorter than the 9-tap filter
    @pytest.mark.parametrize("h,w,levels", [(7, 13, 2), (16, 5, 2), (3, 9, 1), (2, 3, 1)]
                             + [(2, n, 1) for n in range(2, 18)])
    def test_matches_direct_fir_odd_and_non_square(self, h, w, levels, rng):
        img = rng.standard_normal((h, w))
        basis = Basis("cdf97_biorthogonal", h, w, levels)
        ours = pyramid_of(basis, T.forward_batch(basis, img.reshape(1, -1))[0])
        oracle = fir_analyze_2d(img, levels)
        assert np.max(np.abs(ours - oracle)) < 1e-8

    def test_biorthogonal_duality(self):
        basis = Basis("cdf97_biorthogonal", 8, 8, 2)
        f = T.analysis_matrix(basis)
        g = T.synthesis_matrix(basis)
        assert np.max(np.abs(f @ g - np.eye(64))) < 1e-9


# SHA-256 of forward_batch and inverse_batch bytes on the arithmetic input
# below; any change to the order of floating-point operations shows here.
DIGESTS = [
    ("haar_orthonormal", 28, 28, 1,
     "ad2f200a33973138ded51edebf03319b7524b82224e28c0145f584ccf75d328c",
     "a32388b5220d9f9bbf710251537154a9c7d00d2b85caafd149c63a5a1e8fb667"),
    ("haar_orthonormal", 28, 28, 2,
     "360bea6e6879d49bff2f3c354db4be60287e5c26b9f42e93ff9c95d4b061536c",
     "4520c2c51668e6275ec3955f4c5a67d967c0859034875fba230bf76cc3444f86"),
    ("haar_orthonormal", 28, 28, 3,
     "c4c0d3540409faabf0d3b4a93a8226317b3f608e626a53a514d39dcb2a0a7d00",
     "cdeb61cbd034baf388f8810fde422a9fb36660b85520135f7defb88b59067a2b"),
    ("haar_orthonormal", 7, 13, 2,
     "9ead5d19cc7da80119365176554df10811d75d7388e250661143a81538903356",
     "ae4ae5d0a13af388440e9e62c0f10519a7bf71ab88dce7f2d6ae265b506cfe88"),
    ("haar_orthonormal", 2, 3, 1,
     "30ca4fb995fc061e36b0caf36a59f2f4e2cf696bf3a69baec6368f0aa9ef5da6",
     "79eab5a9e71301c202ad56436f2748ba28ee14f212768cbcbd31420f09ad774a"),
    ("cdf97_biorthogonal", 28, 28, 1,
     "0f6d09460f4581023220d587338fd7b67ea348b4ddbcf65a38217687d4efcd64",
     "03d173e7a34b131ecd01800bb14dc51573645f73df90b980cbcb4625354b52a3"),
    ("cdf97_biorthogonal", 28, 28, 2,
     "7691f0ae3bc0cb3a43983236b4d3156d8d44915ecca3894444d5e950fb1fc45e",
     "9b6975183061dc08ce43304deca7a9ee86c97ab8442fdf4ed5f5cb9d9e4a03a2"),
    ("cdf97_biorthogonal", 28, 28, 3,
     "e5ed68340ec34903f2e4c7653f4cb18b3e62afa59d9623aa61bb8a75e4ee61bb",
     "fb4f575287743444b4de1c92a29d44c417a26d48bcdd882dccad28b0943ec258"),
    ("cdf97_biorthogonal", 7, 13, 2,
     "1b93ca668bd8ab67bf84237ca096c811b59f63b7710d8ba87e9c903be9171aa5",
     "0371664eda9185f4f91bff8fa9154ccc68932bee14a6325a9d4ea3c07df903ce"),
    ("cdf97_biorthogonal", 2, 3, 1,
     "cbbde9ebc5025c8d4a9dd0849b0afbf03e6e656397026da98ef2cc3f6545f663",
     "dacda523fa66d5dfb356a1f9c59f76b51234579be9d58d54749d6f4ef4e7c5d2"),
]


class TestReproducibility:
    """Every report inherits the transform's exact bits, so they are pinned."""

    @pytest.mark.parametrize("kind,h,w,levels,forward,inverse", DIGESTS,
                             ids=[f"{d[0]}-{d[1]}x{d[2]}-L{d[3]}" for d in DIGESTS])
    def test_output_bytes_pinned(self, kind, h, w, levels, forward, inverse):
        basis = Basis(kind, h, w, levels)
        x = (np.arange(3 * basis.size) * 7919 % 256).reshape(3, basis.size) / 255
        assert hashlib.sha256(T.forward_batch(basis, x).tobytes()).hexdigest() == forward
        assert hashlib.sha256(T.inverse_batch(basis, x).tobytes()).hexdigest() == inverse


class TestLinearity:
    @pytest.mark.parametrize("kind", ["haar_orthonormal", "cdf97_biorthogonal"])
    def test_forward_linear(self, kind, rng):
        basis = Basis(kind, 28, 28, 2)
        x, y = rng.standard_normal((2, 1, 784))
        a, b = 0.7, -2.3
        lhs = T.forward_batch(basis, a * x + b * y)
        rhs = a * T.forward_batch(basis, x) + b * T.forward_batch(basis, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestOperatorsAndNorms:
    def test_synthesis_column_is_unit_coefficient_image(self, rng):
        basis = Basis("cdf97_biorthogonal", 8, 8, 1)
        g = T.synthesis_matrix(basis)
        for j in rng.choice(64, size=8, replace=False):
            unit = np.zeros((1, 64))
            unit[0, j] = 1.0
            assert np.array_equal(T.inverse_batch(basis, unit)[0], g[:, int(j)])

    def test_max_l1_norm_2x2(self):
        assert T.max_l1_norm(Basis("haar_orthonormal", 2, 2, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_max_l1_norm_brute_force(self):
        basis = Basis("haar_orthonormal", 28, 28, 2)
        # a_k[j] is coefficient k of the unit image e_j
        rows = np.stack([T.forward_batch(basis, np.eye(784)[j : j + 1])[0] for j in range(784)]).T
        brute = max(np.abs(rows[k]).sum() for k in range(784))
        assert T.max_l1_norm(basis) == pytest.approx(brute, abs=1e-12)

    def test_max_l1_norm_nondecreasing_in_levels(self):
        values = [T.max_l1_norm(Basis("haar_orthonormal", 28, 28, lv)) for lv in (1, 2, 3, 4)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


class TestValidation:
    def test_levels_cap(self):
        with pytest.raises(ValueError):
            Basis("haar_orthonormal", 28, 28, 5)  # floor(log2 28) = 4
        with pytest.raises(ValueError):
            Basis("haar_orthonormal", 2, 2, 2)

    # no wavelet level fits a side of 1, so the levels bound would be the empty [1, 0]
    @pytest.mark.parametrize("height,width", [(1, 1), (1, 8)])
    def test_side_below_two(self, height, width):
        with pytest.raises(ValueError, match=f"a wavelet basis needs at least 2 pixels per side, "
                                             f"got {height}x{width}$"):
            Basis("haar_orthonormal", height, width, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Basis("dct", 28, 28, 1)

    @pytest.mark.parametrize("height,width", [(0, 28), (28, 0)])
    def test_zero_dimension(self, height, width):
        with pytest.raises(ValueError, match="positive"):
            Basis("haar_orthonormal", height, width, 1)

    def test_dimension_mismatch(self):
        basis = Basis("haar_orthonormal", 28, 28, 1)
        with pytest.raises(ValueError):
            T.forward_batch(basis, np.zeros(784))
        with pytest.raises(ValueError):
            T.forward_batch(basis, np.zeros((3, 100)))
        with pytest.raises(ValueError):
            T.inverse_batch(basis, np.zeros((3, 100)))

    def test_layout_tiles_grid(self):
        for basis in ALL_BASES:
            layout = T.subband_layout(basis)
            total = sum((r1 - r0) * (c1 - c0) for _, _, (r0, r1), (c0, c1), _ in layout)
            assert total == basis.size

    def test_zero_coeffs_synthesize_zero(self):
        basis = Basis("cdf97_biorthogonal", 28, 28, 2)
        x = T.inverse_batch(basis, np.zeros((1, 784)))
        assert np.max(np.abs(x)) == 0.0
