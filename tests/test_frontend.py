import numpy as np
import pytest

from sparsefront import frontend as F
from sparsefront import transform as T
from sparsefront.frontend import FrontEndConfig
from sparsefront.transform import Basis

from conftest import traced_peak_mib

HAAR_28 = Basis("haar_orthonormal", 28, 28, 2)
CDF_28 = Basis("cdf97_biorthogonal", 28, 28, 2)


def top_k_row(values, k):
    return F.top_k_batch(np.asarray(values, dtype=float)[None, :], k)[0]


class TestTopK:
    def test_basic_top2(self):
        kept = top_k_row([3, -1, 0.5, 2], 2)
        assert list(np.flatnonzero(kept)) == [0, 3]
        assert np.array_equal(kept, [3, 0, 0, 2])
        assert np.abs(kept[kept != 0]).min() == 2.0

    def test_k_equals_n_keeps_nonzeros(self):
        kept = top_k_row([1.0, 0.0, -2.0, 0.5], 4)
        assert list(np.flatnonzero(kept)) == [0, 2, 3]
        assert np.array_equal(kept, [1.0, 0.0, -2.0, 0.5])

    def test_tie_breaks_to_lowest_index(self):
        assert list(np.flatnonzero(top_k_row([1.0, -1.0], 1))) == [0]
        kept = top_k_row([-2.0, 5.0, 2.0, 2.0], 2)
        assert list(np.flatnonzero(kept)) == [0, 1]  # |c0| ties |c2|, |c3|; index 0 wins

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            F.top_k_batch([[1, 2]], 0)
        with pytest.raises(ValueError):
            F.top_k_batch([[1, 2]], 3)

    def test_retained_dominate_discarded(self, rng):
        values = rng.standard_normal((5, 100))
        for row, kept in zip(values, F.top_k_batch(values, 10)):
            support = np.flatnonzero(kept)
            dropped = np.delete(np.abs(row), support)
            assert np.abs(row[support]).min() >= dropped.max() - 1e-15

    def test_zero_vector(self):
        assert not np.any(top_k_row(np.zeros(8), 3))

    @pytest.mark.parametrize("k", [1, 16, 784])
    def test_against_sort_oracle(self, k, rng):
        random_rows = rng.standard_normal((20, 784))
        rounded = np.round(random_rows, 1)  # many ties at the K-th magnitude
        blocky = np.kron(rng.integers(0, 3, (10, 7, 7)), np.ones((4, 4))).reshape(10, 784)
        sparse = T.forward_batch(HAAR_28, blocky)  # exact zeros, repeated magnitudes
        batch = np.concatenate([random_rows, rounded, sparse, np.zeros((1, 784))])
        oracle = np.zeros_like(batch)
        for s, row in enumerate(batch):
            keep = sorted(range(784), key=lambda j: (-abs(row[j]), j))[:k]
            oracle[s, keep] = row[keep]
        assert np.array_equal(F.top_k_batch(batch, k), oracle)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        values = np.ones((2, 8))
        values[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            F.top_k_batch(values, 3)


class TestApply:
    def test_k_equals_n_is_identity(self, rng):
        config = FrontEndConfig(HAAR_28, rho=1.0)
        x = rng.random((3, 784))
        assert np.max(np.abs(F.apply_batch(config, x) - x)) < 1e-9

    def test_fixes_k_sparse_points(self, rng):
        config = FrontEndConfig(HAAR_28, rho=0.02)
        k = config.k
        code = np.zeros(784)
        idx = rng.choice(784, size=k, replace=False)
        code[idx] = rng.standard_normal(k) + np.sign(rng.standard_normal(k)) * 1.0
        x = T.inverse_batch(HAAR_28, code[None, :])
        assert np.max(np.abs(F.apply_batch(config, x) - x)) < 1e-9

    def test_output_is_k_sparse(self, rng):
        for basis in (HAAR_28, CDF_28):
            config = FrontEndConfig(basis, rho=0.05)
            x = rng.random((4, 784))
            coeffs = T.forward_batch(basis, F.apply_batch(config, x))
            assert np.all(np.sum(np.abs(coeffs) > 1e-12, axis=1) <= config.k)

    def test_haar_projection_nonexpansive(self, rng):
        config = FrontEndConfig(HAAR_28, rho=0.03)
        x = rng.random((4, 784))
        out = F.apply_batch(config, x)
        assert np.all(np.linalg.norm(out, axis=1) <= np.linalg.norm(x, axis=1) + 1e-9)

    def test_against_sort_oracle_on_digit(self, digits_test):
        config = FrontEndConfig(HAAR_28, rho=0.02)
        x = digits_test.images[17:18]
        coeffs = T.forward_batch(HAAR_28, x)[0]
        # independent oracle: full value sort, zero everything below the
        # K-th magnitude, synthesize
        order = sorted(range(784), key=lambda j: (-abs(coeffs[j]), j))
        keep = set(order[: config.k])
        masked = np.array([coeffs[j] if j in keep else 0.0 for j in range(784)])
        oracle = T.inverse_batch(HAAR_28, masked[None, :])
        assert np.max(np.abs(F.apply_batch(config, x) - oracle)) < 1e-9

    def test_deterministic(self, rng):
        config = FrontEndConfig(CDF_28, rho=0.02)
        x = rng.random((1, 784))
        (x_hat, kept), (again, kept_again) = F.support_batch(config, x), F.support_batch(config, x)
        assert x_hat.tobytes() == again.tobytes()
        assert np.array_equal(kept, kept_again)

    @pytest.mark.parametrize("basis", [HAAR_28, CDF_28], ids=["haar", "cdf97"])
    def test_chunks_match_pieces(self, basis, rng):
        # support_batch is apply_batch's pass, with the mask of the nonzero
        # retained coefficients alongside
        config = FrontEndConfig(basis, rho=0.02)
        x = rng.random((2 * F._CHUNK + 3, 784))
        x[F._CHUNK + 1] = 0.0
        pieces = [F.apply_batch(config, x[s : s + 64]) for s in range(0, len(x), 64)]
        x_hat = F.apply_batch(config, x)
        assert x_hat.tobytes() == np.concatenate(pieces).tobytes()
        one_pass, kept = F.support_batch(config, x)
        assert one_pass.tobytes() == x_hat.tobytes()
        assert kept.dtype == bool
        assert np.array_equal(kept, F.top_k_batch(T.forward_batch(basis, x), config.k) != 0)
        assert not kept[F._CHUNK + 1].any()  # the all-zero row keeps nothing

    def test_defend_peak(self, rng):
        config = FrontEndConfig(CDF_28, rho=0.02)
        x = rng.random((2000, 784))
        # the 12 MiB output plus chunk scratch; 4096-row chunks and a clipped
        # copy of the output peaked at 83.7 MiB
        assert traced_peak_mib(lambda: F.defend(config, x, clip=True)) <= 30


class TestSupport:
    def test_contains_scaled_basis_vector(self):
        config = FrontEndConfig(HAAR_28, rho=0.02)
        x = 10.0 * T.synthesis_matrix(HAAR_28)[:, 5]
        assert F.support_batch(config, x[None, :])[1][0, 5]

    def test_scale_invariant(self, rng):
        config = FrontEndConfig(CDF_28, rho=0.02)
        x = rng.random(784)
        _, kept = F.support_batch(config, np.stack([x, 7.3 * x, -2.0 * x]))
        assert (kept == kept[0]).all()

    def test_digit_against_sort_oracle(self, digits_test):
        config = FrontEndConfig(HAAR_28, rho=0.02)
        x = digits_test.images[3:4]
        coeffs = T.forward_batch(HAAR_28, x)[0]
        order = sorted(range(784), key=lambda j: (-abs(coeffs[j]), j))
        oracle = np.zeros(784, dtype=bool)
        oracle[[j for j in order[: config.k] if coeffs[j] != 0.0]] = True
        assert np.array_equal(F.support_batch(config, x)[1][0], oracle)


def k_sparse_input(basis, support, rng):
    """Image whose analysis coefficients are nonzero exactly on ``support``."""
    code = np.zeros(basis.size)
    code[support] = (1.0 + rng.random(len(support))) * np.where(
        rng.random(len(support)) < 0.5, -1.0, 1.0
    )
    return T.inverse_batch(basis, code[None, :])[0]


class TestFrozenAdjoint:
    @pytest.mark.parametrize("basis", [HAAR_28, CDF_28], ids=["haar", "cdf97"])
    def test_full_support_is_identity(self, basis, rng):
        # F^T G^T = (G F)^T = I for any perfect-reconstruction pair
        config = FrontEndConfig(basis, rho=1.0)
        x = rng.random((2, 784))
        v = rng.standard_normal((2, 784))
        got = F.frozen_adjoint(basis, F.support_batch(config, x)[1], v)
        assert np.max(np.abs(got - v)) < 1e-9

    @pytest.mark.parametrize("basis", [HAAR_28, CDF_28], ids=["haar", "cdf97"])
    def test_idempotent(self, basis, rng):
        # (G_S F_S)^2 = G_S F_S because F_S G_S is the identity on S
        config = FrontEndConfig(basis, rho=0.03)
        x = rng.random((3, 784))
        _, kept = F.support_batch(config, x)
        once = F.frozen_adjoint(basis, kept, rng.standard_normal((3, 784)))
        twice = F.frozen_adjoint(basis, kept, once)
        assert np.max(np.abs(twice - once)) < 1e-9

    def test_haar_against_masked_transform_oracle(self, rng):
        # Haar is orthonormal, so F_S^T G_S^T v = G mask_S(F v)
        config = FrontEndConfig(HAAR_28, rho=20 / 784)
        support = np.sort(rng.choice(784, size=config.k, replace=False))
        x = k_sparse_input(HAAR_28, support, rng)
        _, kept = F.support_batch(config, x[None, :])
        assert np.array_equal(np.flatnonzero(kept[0]), support)
        v = rng.standard_normal(784)
        mask = np.zeros(784)
        mask[support] = T.forward_batch(HAAR_28, v[None, :])[0, support]
        oracle = T.inverse_batch(HAAR_28, mask[None, :])[0]
        got = F.frozen_adjoint(HAAR_28, kept, v[None, :])[0]
        assert np.max(np.abs(got - oracle)) < 1e-9

    @pytest.mark.parametrize("basis", [Basis("cdf97_biorthogonal", 8, 8, 1),
                                       Basis("haar_orthonormal", 4, 4, 1)]
                             + [Basis(kind, h, w, levels)
                                for kind in ("haar_orthonormal", "cdf97_biorthogonal")
                                for h, w, levels in [(28, 28, 1), (28, 28, 2), (28, 28, 3),
                                                     (13, 19, 2), (7, 9, 2)]], ids=str)
    @pytest.mark.parametrize("given", [False, True], ids=["top_k", "given"])
    def test_against_dense_frozen_map(self, basis, given, rng):
        # the frozen front end as a dense matrix, one unit image at a time:
        # column j is G mask_S(F e_j); the adjoint applies its transpose
        n = basis.size
        drawn = [rng.choice(n, size=3, replace=False) for _ in range(3)]
        if given:
            # exactly K unsorted indices per row, scattered into the mask the
            # way the attenuation lab scatters its draws
            kept = np.zeros((3, n), dtype=bool)
            for row, support in enumerate(drawn):
                kept[row, support] = True
        else:
            config = FrontEndConfig(basis, rho=3 / n)
            # the all-zero image keeps no coefficient, a support shorter than K
            x = np.stack([k_sparse_input(basis, s, rng) for s in drawn[:2]] + [np.zeros(n)])
            _, kept = F.support_batch(config, x)
            drawn = drawn[:2]
        v = rng.standard_normal((3, 4, n))
        got = F.frozen_adjoint(basis, kept, v)
        flat = F.frozen_adjoint(basis, kept, v[:, 0])
        assert got.shape == v.shape and flat.shape == v[:, 0].shape
        if not given:
            assert not got[2].any() and not flat[2].any()
        coeffs = T.forward_batch(basis, np.eye(n))
        for row, support in enumerate(drawn):
            masked = np.zeros_like(coeffs)
            masked[:, support] = coeffs[:, support]
            frozen = T.inverse_batch(basis, masked).T  # (N, N): x -> G_S F_S x
            assert np.max(np.abs(got[row] - v[row] @ frozen)) < 1e-12
            assert np.max(np.abs(flat[row] - v[row, 0] @ frozen)) < 1e-12


class TestConfig:
    def test_k_from_rho(self):
        assert FrontEndConfig(HAAR_28, rho=0.02).k == 16
        assert FrontEndConfig(HAAR_28, rho=0.03).k == 24
        assert FrontEndConfig(HAAR_28, rho=1e-9).k == 1  # clamped to >= 1

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            FrontEndConfig(HAAR_28, rho=0.0)
        with pytest.raises(ValueError):
            FrontEndConfig(HAAR_28, rho=1.5)


def radius_of(config, x):
    """certified_radius_batch for one flat image."""
    return F.certified_radius_batch(config, np.asarray(x, dtype=float)[None, :])[0]


def certified(config, x, epsilon):
    """The certificate's verdict: radius > epsilon, and epsilon = 0 always."""
    return epsilon == 0.0 or radius_of(config, x) > epsilon


class TestHighSnrCertificate:
    def test_formula_direct(self, rng):
        # construct a K-sparse x with a known lambda, then check the
        # inequality against an independently computed lambda and M
        for basis in (HAAR_28, CDF_28):
            config = FrontEndConfig(basis, rho=0.02)
            k = config.k
            code = np.zeros(784)
            idx = rng.choice(784, size=k, replace=False)
            code[idx] = 2.0 + rng.random(k)
            x = T.inverse_batch(basis, code[None, :])[0]
            # M is the largest l1 norm over rows of the analysis operator
            f = T.forward_batch(basis, np.eye(784)).T
            m = max(np.abs(f[j]).sum() for j in range(784))
            radius = radius_of(config, x)
            lam = np.min(np.abs(code[idx]))
            assert radius == pytest.approx(lam / (2 * m), rel=1e-9)
            assert certified(config, x, 0.12) == (lam / 0.12 > 2 * m)

    def test_rows_are_independent(self, rng):
        config = FrontEndConfig(CDF_28, rho=0.02)
        x = rng.random((5, 784))
        radii = F.certified_radius_batch(config, x)
        assert radii.shape == (5,)
        assert np.array_equal(radii, [radius_of(config, row) for row in x])

    def test_near_tie_not_certified(self):
        # not K-sparse: the (K+1)-th coefficient nearly ties the K-th, so a
        # unit sign perturbation swaps them although lambda/eps = 100 > 2M = 8
        config = FrontEndConfig(HAAR_28, rho=3 / 784)
        code = np.zeros(784)
        code[[10, 20, 30, 40]] = [100.0, 100.0, 100.0, 99.9]
        x = T.inverse_batch(HAAR_28, code[None, :])[0]
        m = T.max_l1_norm(HAAR_28)
        assert radius_of(config, x) == pytest.approx(0.1 / (2 * m), abs=1e-9)
        assert not certified(config, x, 1.0)
        f = T.analysis_matrix(HAAR_28)
        e = np.sign(f[40] - f[30])
        _, kept = F.support_batch(config, np.stack([x, x + e]))
        assert list(np.flatnonzero(kept[0])) == [10, 20, 30]
        assert list(np.flatnonzero(kept[1])) == [10, 20, 40]

    def test_boundary_is_strict(self):
        config = FrontEndConfig(HAAR_28, rho=1 / 784)  # K = 1
        x = 2.0 * T.synthesis_matrix(HAAR_28)[:, 40]
        eps_exact = radius_of(config, x)  # gap/eps == 2M exactly
        assert not certified(config, x, eps_exact)
        assert certified(config, x, eps_exact * 0.999)

    def test_epsilon_zero_always_certified(self, rng):
        config = FrontEndConfig(CDF_28, rho=0.02)
        assert radius_of(config, rng.random(784)) > 0.0
        assert certified(config, np.zeros(784), 0.0)

    def test_zero_input_uncertified(self):
        config = FrontEndConfig(HAAR_28, rho=0.02)
        assert radius_of(config, np.zeros(784)) == 0.0
        assert not certified(config, np.zeros(784), 0.1)

    def test_non_finite_input_rejected(self):
        config = FrontEndConfig(HAAR_28, rho=0.02)
        x = np.zeros((1, 784))
        x[0, 5] = np.nan
        with pytest.raises(ValueError):
            F.certified_radius_batch(config, x)

    def test_certified_support_never_changes(self, rng):
        # exactly-K-sparse inputs in the orthonormal basis, random and
        # sign-adversarial perturbations at a certified epsilon
        basis = HAAR_28
        config = FrontEndConfig(basis, rho=0.02)
        k = config.k
        g = T.synthesis_matrix(basis)
        checked = 0
        for _ in range(100):
            code = np.zeros(784)
            idx = rng.choice(784, size=k, replace=False)
            code[idx] = (1.0 + rng.random(k)) * np.where(rng.random(k) < 0.5, -1.0, 1.0)
            x = T.inverse_batch(basis, code[None, :])[0]
            eps = 0.9 * radius_of(config, x)
            assert certified(config, x, eps)
            _, kept = F.support_batch(config, x[None, :])
            support = np.flatnonzero(kept[0])
            weakest = support[np.argmin(np.abs(code[support]))]
            adversarial = [
                eps * np.sign(rng.standard_normal(784)),
                # aligned to shrink the weakest retained coefficient
                -eps * np.sign(code[weakest]) * np.sign(g[:, weakest]),
                # aligned to inflate a discarded coefficient
                eps * np.sign(g[:, int(rng.integers(784))]),
            ]
            random_es = [eps * (2 * rng.random(784) - 1) for _ in range(7)]
            es = np.stack(adversarial + random_es)
            assert np.max(np.abs(es)) <= eps + 1e-12
            _, moved = F.support_batch(config, x + es)
            assert (moved == kept).all()
            checked += len(moved)
        assert checked == 1000
