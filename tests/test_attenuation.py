import numpy as np
import pytest

from sparsefront import transform as T
from sparsefront.attenuation import EnsembleConfig, run_ensemble
from sparsefront.transform import Basis


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n=16, k=0, trials=10)
        with pytest.raises(ValueError):
            EnsembleConfig(n=16, k=17, trials=10)
        with pytest.raises(ValueError):
            EnsembleConfig(n=16, k=4, trials=0)
        with pytest.raises(ValueError):
            EnsembleConfig(n=15, k=4, trials=10, basis_kind="haar")  # not square

    def test_unknown_modes(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n=16, k=4, trials=10, basis_kind="dct")
        with pytest.raises(ValueError):
            EnsembleConfig(n=16, k=4, trials=10, mode="black")


class TestRunEnsemble:
    def test_full_support_ratio_is_one(self):
        for mode in ("semiwhite", "white"):
            report = run_ensemble(EnsembleConfig(n=64, k=64, trials=50, mode=mode, seed=3))
            assert report.mean_ratio == pytest.approx(1.0, abs=1e-9)

    def test_identity_semiwhite_matches_k_over_n(self):
        config = EnsembleConfig(n=1024, k=32, trials=2000, basis_kind="identity",
                                mode="semiwhite", seed=0)
        report = run_ensemble(config)
        expected = 32 / 1024
        assert abs(report.mean_ratio - expected) / expected < 0.10
        assert report.stderr < 0.01 * report.mean_ratio  # concentration

    def test_identity_small_case_brute_force(self):
        # N small enough to verify one trial against direct arithmetic
        config = EnsembleConfig(n=8, k=3, trials=200, basis_kind="identity",
                                mode="semiwhite", seed=7)
        report = run_ensemble(config)
        rng = np.random.default_rng(np.random.SeedSequence([7, 0]))
        w = rng.standard_normal(8)
        s = rng.choice(8, size=3, replace=False)
        expected0 = np.abs(w[s]).sum() / np.abs(w).sum()
        assert report.samples[0] == pytest.approx(expected0, rel=1e-12)

    def test_white_at_least_semiwhite_paired(self):
        base = dict(n=256, k=16, trials=500, basis_kind="haar", levels=2, seed=11)
        semi = run_ensemble(EnsembleConfig(mode="semiwhite", **base))
        white = run_ensemble(EnsembleConfig(mode="white", **base))
        # identical seeds draw identical (w, S): paired comparison is valid
        assert (white.samples >= semi.samples - 1e-12).all()

    def test_doubling_n_decreases_semiwhite_ratio(self):
        ratios = []
        for n in (256, 1024, 4096):
            report = run_ensemble(EnsembleConfig(n=n, k=16, trials=400,
                                                 basis_kind="identity",
                                                 mode="semiwhite", seed=5))
            ratios.append(report.mean_ratio)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_deterministic_given_seed(self):
        config = EnsembleConfig(n=128, k=8, trials=100, mode="white", seed=9)
        a = run_ensemble(config)
        b = run_ensemble(config)
        assert a.mean_ratio == b.mean_ratio
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("mode", ["semiwhite", "white"])
    def test_haar_against_dense_frozen_map(self, levels, mode):
        config = EnsembleConfig(n=64, k=6, trials=20, basis_kind="haar", levels=levels,
                                mode=mode, seed=4)
        report = run_ensemble(config)
        basis = Basis("haar_orthonormal", 8, 8, levels)
        g, f = T.synthesis_matrix(basis), T.analysis_matrix(basis)
        for t in range(config.trials):
            # the lab's own draw for trial t
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, t]))
            w = rng.standard_normal(config.n)
            s = rng.choice(config.n, size=config.k, replace=False)
            frozen = g[:, s] @ f[s, :]  # G_S F_S
            if mode == "semiwhite":
                defended = abs(w @ frozen @ np.sign(w))
            else:
                defended = np.abs(frozen.T @ w).sum()
            assert abs(report.samples[t] - defended / np.abs(w).sum()) < 1e-12

    def test_haar_ratio_in_unit_interval(self):
        report = run_ensemble(EnsembleConfig(n=1024, k=32, trials=200,
                                             basis_kind="haar", levels=2,
                                             mode="white", seed=2))
        assert 0.0 <= report.mean_ratio <= 1.0 + 1e-9
