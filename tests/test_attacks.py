import numpy as np
import pytest

from sparsefront import attacks as A
from sparsefront import frontend as F
from sparsefront import models as M
from sparsefront import transform as T
from sparsefront.attacks import AttackSpec, Perturbation
from sparsefront.data import Dataset
from sparsefront.frontend import FrontEndConfig
from sparsefront.models import LinearModel
from sparsefront.transform import Basis

from conftest import needs_mnist

HAAR_28 = Basis("haar_orthonormal", 28, 28, 2)
HAAR_2x4 = Basis("haar_orthonormal", 2, 4, 1)
CDF_2x4 = Basis("cdf97_biorthogonal", 2, 4, 1)
CDF_28 = Basis("cdf97_biorthogonal", 28, 28, 2)

TINY_CNN = {
    "input_shape": (1, 8, 8),
    "layers": [
        ("conv", 3, 3, 3), ("relu",), ("maxpool",), ("flatten",),
        ("dense", 16), ("relu",), ("dense", 4),
    ],
}


def synth_sparse_input(basis, k, rng, low=1.0, high=2.0):
    code = np.zeros(basis.size)
    idx = rng.choice(basis.size, size=k, replace=False)
    signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
    code[idx] = signs * (low + (high - low) * rng.random(k))
    return T.inverse_batch(basis, code[None, :])[0]


def haar_projection(w, support, basis):
    """G_S G_S^T w: the orthogonal projection onto the retained Haar atoms."""
    g_s = T.synthesis_matrix(basis)[:, support]
    return g_s @ (g_s.T @ w)


class TestLinearAttacks:
    def test_semi_white_definition(self):
        model = LinearModel(np.array([2.0, -3.0, 0.0]), 0.0)
        pert = A.semi_white_linear(model, 0.1)
        assert np.array_equal(pert.e, [0.1, -0.1, 0.0])  # sign(0) = 0

    def test_semi_white_distortion_is_l1(self, rng):
        w = rng.standard_normal(30)
        model = LinearModel(w, 0.0)
        pert = A.semi_white_linear(model, 0.25)
        assert abs(w @ pert.e) == pytest.approx(0.25 * np.abs(w).sum(), rel=1e-12)

    def test_white_linear_identity_style(self):
        # support {0,1} in the Haar basis of a 2x4 image built synthetically
        rng = np.random.default_rng(0)
        fe = FrontEndConfig(HAAR_2x4, rho=0.25)  # K = 2
        x = synth_sparse_input(HAAR_2x4, 2, rng)
        support = F.support_batch(fe, x[None, :])[0]
        w = rng.standard_normal(8)
        pert = A.white_linear(LinearModel(w, 0.0), x, 0.1, fe)
        expected = 0.1 * np.sign(haar_projection(w, support, HAAR_2x4))
        assert np.array_equal(pert.e, expected)

    def test_white_reduces_to_semi_white_on_full_support(self, rng):
        fe = FrontEndConfig(HAAR_28, rho=1.0)
        w = rng.standard_normal(784)
        x = rng.random(784)
        model = LinearModel(w, 0.0)
        white = A.white_linear(model, x, 0.2, fe)
        semi = A.semi_white_linear(model, 0.2)
        # K = N support contains every nonzero coefficient; proj(w) = w
        assert np.max(np.abs(white.e - semi.e)) < 1e-12

    def test_budget_respected(self, rng):
        fe = FrontEndConfig(CDF_28, rho=0.02)
        model = LinearModel(rng.standard_normal(784), 0.0)
        x = rng.random(784)
        for pert in (A.semi_white_linear(model, 0.07), A.white_linear(model, x, 0.07, fe)):
            assert np.max(np.abs(pert.e)) <= 0.07 + 1e-12

    def test_perturbation_invariant_enforced(self):
        with pytest.raises(ValueError):
            Perturbation(np.array([0.2, 0.0]), 0.1)


class TestDistortionLinear:
    def test_zero_perturbation(self, rng):
        model = LinearModel(rng.standard_normal(784), 0.0)
        x = rng.random(784)
        assert A.distortion_linear(model, x, np.zeros(784)) == 0.0

    def test_undefended_semi_white_is_epsilon_l1(self, rng):
        model = LinearModel(rng.standard_normal(784), 0.0)
        x = rng.random(784)
        pert = A.semi_white_linear(model, 0.12)
        assert A.distortion_linear(model, x, pert) == pytest.approx(
            0.12 * np.abs(model.w).sum(), rel=1e-12
        )

    def test_high_snr_distortion_equals_projected_inner_product(self, rng):
        # certified K-sparse instances: measured distortion through the front
        # end equals |e . proj(w, x)|
        fe = FrontEndConfig(HAAR_28, rho=0.02)
        for _ in range(10):
            x = synth_sparse_input(HAAR_28, fe.k, rng)
            report = F.check_high_snr(fe, x, 1.0)
            eps = 0.5 * report.gap / report.threshold
            w = rng.standard_normal(784)
            model = LinearModel(w, 0.0)
            e = eps * np.sign(rng.standard_normal(784))
            measured = A.distortion_linear(model, x, e, fe)
            proj = haar_projection(w, F.support_batch(fe, x[None, :])[0], HAAR_28)
            assert measured == pytest.approx(abs(e @ proj), abs=1e-9)


class TestWhiteBoxOptimality:
    @pytest.mark.parametrize("basis", [HAAR_2x4, CDF_2x4], ids=["haar", "cdf97"])
    def test_exhaustive_search_never_beats_white_linear(self, basis, rng):
        # N=8 image (2x4), K=3, certificate holding: compare against all
        # 2^8 corner perturbations
        fe = FrontEndConfig(basis, rho=3 / 8)
        assert fe.k == 3
        corners = np.array([[(1 if (m >> j) & 1 else -1) for j in range(8)] for m in range(256)])
        for _ in range(20):
            x = synth_sparse_input(basis, 3, rng)
            report = F.check_high_snr(fe, x, 1.0)
            eps = 0.9 * report.gap / report.threshold
            w = rng.standard_normal(8)
            model = LinearModel(w, 0.0)
            ours = A.distortion_linear(model, x, A.white_linear(model, x, eps, fe), fe)
            defended = F.apply_batch(fe, np.vstack([x, x + eps * corners]))
            best = np.abs(defended[1:] @ w - defended[0] @ w).max()
            assert ours >= best - 1e-9


def linear_3class_net(w_rows, biases):
    """Exact linear 'network': one dense layer, known weights."""
    arch = {"input_shape": (w_rows.shape[1],), "layers": [("dense", w_rows.shape[0])]}
    net = M.build_network(arch, seed=0)
    net.layers[0].w[...] = w_rows.T
    net.layers[0].b[...] = biases
    return net


class TestExtraction:
    def test_single_dense_layer_recovers_weights(self, rng):
        w_rows = rng.standard_normal((3, 10))
        biases = rng.standard_normal(3)
        net = linear_3class_net(w_rows, biases)
        x = rng.standard_normal(10)
        ll = A.extract_locally_linear(net, x)
        assert np.max(np.abs(ll.w_eq - w_rows)) < 1e-10
        assert np.max(np.abs(ll.b_eq - (-biases))) < 1e-10  # y = w.x - b_eq

    def test_all_active_relu_net_is_weight_product(self, rng):
        arch = {"input_shape": (6,), "layers": [("dense", 5), ("relu",), ("dense", 3)]}
        net = M.build_network(arch, seed=2)
        net.layers[0].b[...] = 10.0  # all units active near the anchor
        x = 0.01 * rng.standard_normal(6)
        ll = A.extract_locally_linear(net, x)
        product = (net.layers[0].w @ net.layers[2].w).T
        assert np.max(np.abs(ll.w_eq - product)) < 1e-9

    def test_reconstruction_exact_at_anchor(self, rng):
        net = M.build_network(TINY_CNN, seed=3)
        for _ in range(100):
            x = rng.standard_normal(64)
            ll = A.extract_locally_linear(net, x)
            y = M.logits(net, x)
            rec = ll.w_eq @ x - ll.b_eq
            assert np.max(np.abs(rec - y) / (1.0 + np.abs(y))) < 1e-6

    def test_reconstruction_exact_with_front_end(self, rng):
        basis = Basis("cdf97_biorthogonal", 8, 8, 1)
        fe = FrontEndConfig(basis, rho=0.1)
        net = M.build_network(TINY_CNN, seed=4)
        for _ in range(25):
            x = rng.random(64)
            ll = A.extract_locally_linear(net, x, fe)
            y = M.logits(net, F.apply_batch(fe, x[None, :])[0])
            rec = ll.w_eq @ x - ll.b_eq
            assert np.max(np.abs(rec - y) / (1.0 + np.abs(y))) < 1e-6

    def test_locally_linear_model_logits_helper(self, rng):
        net = M.build_network(TINY_CNN, seed=5)
        x = rng.standard_normal(64)
        ll = A.extract_locally_linear(net, x)
        assert np.max(np.abs(ll.logits(x) - M.logits(net, x))) < 1e-9


class TestPairwiseAttack:
    def test_l2_reduces_to_single_pair(self, rng):
        w_rows = rng.standard_normal((2, 12))
        net = linear_3class_net(w_rows, np.zeros(2))
        x = rng.standard_normal(12)
        res = A.pairwise_attack(net, None, x, t=0, epsilon=0.1, mode="semiwhite")
        assert res.chosen == (1, 0)
        expected = 0.1 * np.sign(w_rows[1] - w_rows[0])
        assert np.array_equal(res.perturbation.e, expected)

    def test_hand_built_3class_closed_form(self):
        w_rows = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, -3.0, 0.0],
        ])
        biases = np.array([0.0, -1.0, 0.5])
        net = linear_3class_net(w_rows, biases)
        x = np.array([0.5, -0.25, 1.0, 2.0])
        t = 0
        eps = 0.1
        y = w_rows @ x + biases
        # predicted attacked gaps, evaluated by hand per pair
        gaps = {}
        for i in (1, 2):
            w_diff = w_rows[i] - w_rows[t]
            gaps[i] = (y[i] - y[t]) + eps * np.abs(w_diff).sum()
        best = max(gaps, key=gaps.get)
        res = A.pairwise_attack(net, None, x, t, eps, mode="semiwhite")
        assert res.chosen == (best, t)
        assert res.pair_gaps[best] == pytest.approx(gaps[best], rel=1e-12)
        assert np.array_equal(res.perturbation.e, eps * np.sign(w_rows[best] - w_rows[t]))

    def test_chosen_pair_maximizes_predicted_gap(self, rng):
        net = M.build_network(TINY_CNN, seed=6)
        for _ in range(20):
            x = rng.standard_normal(64)
            t = int(rng.integers(0, 4))
            res = A.pairwise_attack(net, None, x, t, 0.25, mode="semiwhite")
            gaps = res.pair_gaps
            assert res.chosen[0] == int(np.argmax(gaps))
            assert gaps[res.chosen[0]] >= np.delete(gaps, res.chosen[0]).max() - 1e-12

    def test_budget(self, rng):
        net = M.build_network(TINY_CNN, seed=7)
        basis = Basis("haar_orthonormal", 8, 8, 2)
        fe = FrontEndConfig(basis, rho=0.1)
        x = rng.random(64)
        for mode in ("semiwhite", "white"):
            res = A.pairwise_attack(net, fe, x, 1, 0.3, mode=mode)
            assert np.max(np.abs(res.perturbation.e)) <= 0.3 + 1e-12

    def test_white_equals_semiwhite_without_front_end(self, rng):
        net = M.build_network(TINY_CNN, seed=8)
        x = rng.standard_normal(64)
        a = A.pairwise_attack(net, None, x, 2, 0.2, mode="semiwhite")
        b = A.pairwise_attack(net, None, x, 2, 0.2, mode="white")
        assert np.array_equal(a.perturbation.e, b.perturbation.e)

    def test_white_defended_distortion_dominates_semiwhite(self, rng):
        # linear classifier, certified K-sparse inputs: white-box distortion
        # at least semi-white's (||p||_1 >= |sign(w).p|)
        fe = FrontEndConfig(HAAR_28, rho=0.02)
        for _ in range(15):
            x = synth_sparse_input(HAAR_28, fe.k, rng)
            report = F.check_high_snr(fe, x, 1.0)
            eps = 0.8 * report.gap / report.threshold
            model = LinearModel(rng.standard_normal(784), 0.0)
            d_w = A.distortion_linear(model, x, A.white_linear(model, x, eps, fe), fe)
            d_sw = A.distortion_linear(model, x, A.semi_white_linear(model, eps), fe)
            assert d_w >= d_sw - 1e-9


class TestFgsm:
    def test_epsilon_zero(self, rng):
        net = M.build_network(TINY_CNN, seed=9)
        pert = A.fgsm(net, None, rng.standard_normal(64), 1, 0.0)
        assert np.max(np.abs(pert.e)) == 0.0

    def test_zero_gradient_flagged(self):
        net = M.build_network(TINY_CNN, seed=10)
        for p in net.params():
            p[...] = 0.0
        pert = A.fgsm(net, None, np.zeros(64), 1, 0.1)
        assert pert.zero_gradient
        assert np.array_equal(pert.e, np.zeros(64))

    def test_binary_fgsm_equals_semi_white(self, rng):
        arch = {
            "input_shape": (16,),
            "layers": [("dense", 10), ("relu",), ("dense", 2)],
        }
        net = M.build_network(arch, seed=11)
        for _ in range(50):
            x = rng.standard_normal(16)
            t = int(rng.integers(0, 2))
            fg = A.fgsm(net, None, x, t, 0.2)
            sw = A.pairwise_attack(net, None, x, t, 0.2, mode="semiwhite")
            if not fg.zero_gradient:
                assert np.array_equal(fg.e, sw.perturbation.e)

    def test_budget(self, rng):
        net = M.build_network(TINY_CNN, seed=12)
        pert = A.fgsm(net, None, rng.standard_normal(64), 0, 0.15)
        assert np.max(np.abs(pert.e)) <= 0.15 + 1e-12


class TestEvaluate:
    def make_dataset(self, rng, net, n=40):
        x = rng.random((n, 64))
        labels = M.logits(net, x).argmax(axis=1)
        return Dataset(x, labels.astype(np.int64), "synthetic")

    def test_zero_epsilon_attack_is_clean(self, rng):
        net = M.build_network(TINY_CNN, seed=13)
        ds = self.make_dataset(rng, net)
        for kind in ("none", "fgsm", "semiwhite", "white"):
            report = A.evaluate(net, ds, AttackSpec(kind, 0.0))
            assert report.attacked_accuracy == report.clean_accuracy == 1.0

    def test_monotone_in_epsilon(self, rng):
        net = M.build_network(TINY_CNN, seed=14)
        ds = self.make_dataset(rng, net, n=60)
        accs = [
            A.evaluate(net, ds, AttackSpec("semiwhite", eps)).attacked_accuracy
            for eps in (0.0, 0.05, 0.12, 0.25)
        ]
        for lo, hi in zip(accs[1:], accs[:-1]):
            assert lo <= hi + 1e-9

    def test_records_structure(self, rng):
        net = M.build_network(TINY_CNN, seed=15)
        ds = self.make_dataset(rng, net, n=10)
        report = A.evaluate(net, ds, AttackSpec("semiwhite", 0.1))
        assert len(report.records) == 10
        rec = report.records[0]
        assert set(rec) == {
            "sample", "label", "clean_prediction", "attacked_prediction",
            "chosen_pair", "predicted_gap", "achieved_gap",
        }

    def test_empty_dataset_rejected(self, rng):
        net = M.build_network(TINY_CNN, seed=16)
        empty = Dataset(np.empty((0, 64)), np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            A.evaluate(net, empty, AttackSpec("none", 0.0))

    def test_svm_fgsm_rejected(self, rng):
        model = LinearModel(rng.standard_normal(4), 0.0)
        ds = Dataset(rng.random((6, 4)), np.array([1, -1, 1, -1, 1, -1]))
        with pytest.raises(ValueError):
            A.evaluate(model, ds, AttackSpec("fgsm", 0.1))

    def test_svm_semi_white_flips_weak_margins(self, rng):
        w = rng.standard_normal(20)
        x = rng.random((50, 20))
        model = LinearModel(w, -float(np.median(x @ w)))
        labels = np.where(model.score(x) >= 0, 1, -1)
        ds = Dataset(x, labels)
        big = A.evaluate(model, ds, AttackSpec("semiwhite", 10.0))
        assert big.attacked_accuracy == 0.0  # overwhelming budget flips all

    def test_clip_keeps_pixels_in_range(self, rng):
        # indirect check: with clip on, no perturbed score can exceed the
        # score of the all-ones image
        net = M.build_network(TINY_CNN, seed=17)
        ds = self.make_dataset(rng, net, n=8)
        report = A.evaluate(net, ds, AttackSpec("semiwhite", 5.0, clip=True))
        assert report.n == 8  # smoke: huge epsilon stays finite under clip


class TestEvaluateDefended:
    @needs_mnist
    def test_defended_svm_uses_model_front_end(self, pair_train, pair_test):
        fe = FrontEndConfig(Basis("cdf97_biorthogonal", 28, 28, 1), rho=0.02)
        cfg = M.TrainConfig(seed=0, epochs=30, batch_size=64, learning_rate=0.3,
                            weight_decay=1e-4, dropout_rate=0.0, front_end=fe,
                            clip_recon=True)
        svm = M.train_linear_svm(pair_train.images[:2000], pair_train.labels[:2000], cfg)
        small = Dataset(pair_test.images[:300], pair_test.labels[:300])
        defended = A.evaluate(svm, small, AttackSpec("semiwhite", 0.12, clip=True))
        ablated = A.evaluate(
            svm, small, AttackSpec("semiwhite", 0.12, clip=True),
            front_end=FrontEndConfig(fe.basis, rho=1.0),
        )
        # rho=1 front end is the identity transform: strictly weaker defense
        assert defended.attacked_accuracy >= ablated.attacked_accuracy
