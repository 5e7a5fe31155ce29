import numpy as np
import pytest

from sparsefront import attacks as A
from sparsefront import frontend as F
from sparsefront import models as M
from sparsefront import transform as T
from sparsefront.attacks import AttackSpec
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


def linear_attack(model, x, epsilon, mode, fe=None):
    """One-row linear_batch: (e, predicted) for a single flat input."""
    e, predicted = A.linear_batch(model, fe, np.asarray(x)[None, :], epsilon, mode)
    return e[0], predicted[0]


def defended_distortion(model, x, e, fe):
    """|w . x_hat(x+e) - w . x_hat(x)|, or |w . e| without a front end."""
    if fe is None:
        return abs(model.w @ e)
    defended, clean = F.apply_batch(fe, np.stack([x + e, x]))
    return abs(model.w @ defended - model.w @ clean)


class TestLinearAttacks:
    def test_semi_white_definition(self):
        model = LinearModel(np.array([2.0, -3.0, 0.0]), 0.0)
        e, predicted = A.linear_batch(model, None, np.zeros((2, 3)), 0.1, "semiwhite")
        assert np.array_equal(e, [[0.1, -0.1, 0.0]] * 2)  # sign(0) = 0
        assert np.array_equal(predicted, [0.5, 0.5])

    def test_semi_white_distortion_is_l1(self, rng):
        w = rng.standard_normal(30)
        model = LinearModel(w, 0.0)
        e, predicted = linear_attack(model, rng.random(30), 0.25, "semiwhite")
        assert abs(w @ e) == pytest.approx(0.25 * np.abs(w).sum(), rel=1e-12)
        assert predicted == pytest.approx(abs(w @ e), rel=1e-12)

    def test_white_linear_identity_style(self):
        # support {0,1} in the Haar basis of a 2x4 image built synthetically
        rng = np.random.default_rng(0)
        fe = FrontEndConfig(HAAR_2x4, rho=0.25)  # K = 2
        x = synth_sparse_input(HAAR_2x4, 2, rng)
        support = F.support_batch(fe, x[None, :])[0]
        w = rng.standard_normal(8)
        e, predicted = linear_attack(LinearModel(w, 0.0), x, 0.1, "white", fe)
        proj = haar_projection(w, support, HAAR_2x4)
        assert np.array_equal(e, 0.1 * np.sign(proj))
        assert predicted == pytest.approx(0.1 * np.abs(proj).sum(), rel=1e-12)

    def test_white_reduces_to_semi_white_on_full_support(self, rng):
        fe = FrontEndConfig(HAAR_28, rho=1.0)
        model = LinearModel(rng.standard_normal(784), 0.0)
        x = rng.random((3, 784))
        white, _ = A.linear_batch(model, fe, x, 0.2, "white")
        semi, _ = A.linear_batch(model, fe, x, 0.2, "semiwhite")
        # K = N support contains every nonzero coefficient; proj(w) = w
        assert np.max(np.abs(white - semi)) < 1e-12

    def test_white_without_front_end_is_semi_white(self, rng):
        model = LinearModel(rng.standard_normal(20), 0.0)
        x = rng.random((4, 20))
        white = A.linear_batch(model, None, x, 0.3, "white")
        semi = A.linear_batch(model, None, x, 0.3, "semiwhite")
        assert all(np.array_equal(a, b) for a, b in zip(white, semi))

    def test_budget_respected(self, rng):
        fe = FrontEndConfig(CDF_28, rho=0.02)
        model = LinearModel(rng.standard_normal(784), 0.0)
        x = rng.random((4, 784))
        for mode in ("semiwhite", "white"):
            e, _ = A.linear_batch(model, fe, x, 0.07, mode)
            assert np.max(np.abs(e)) <= 0.07 + 1e-12


class TestDistortionLinear:
    def test_zero_epsilon(self, rng):
        fe = FrontEndConfig(CDF_28, rho=0.02)
        model = LinearModel(rng.standard_normal(784), 0.0)
        x = rng.random(784)
        for mode in ("semiwhite", "white"):
            e, predicted = linear_attack(model, x, 0.0, mode, fe)
            assert predicted == 0.0
            assert defended_distortion(model, x, e, fe) == 0.0

    def test_undefended_semi_white_is_epsilon_l1(self, rng):
        model = LinearModel(rng.standard_normal(784), 0.0)
        x = rng.random(784)
        e, _ = linear_attack(model, x, 0.12, "semiwhite")
        assert defended_distortion(model, x, e, None) == pytest.approx(
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
            measured = defended_distortion(model, x, e, fe)
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
            e, predicted = linear_attack(model, x, eps, "white", fe)
            ours = defended_distortion(model, x, e, fe)
            assert ours == pytest.approx(predicted, rel=1e-9)  # support stays frozen
            defended = F.apply_batch(fe, np.vstack([x, x + eps * corners]))
            best = np.abs(defended[1:] @ w - defended[0] @ w).max()
            assert ours >= best - 1e-9


class TestInputChecks:
    @pytest.mark.parametrize("epsilon", [-0.1, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, epsilon, rng):
        model = LinearModel(rng.standard_normal(64), 0.0)
        net = M.build_network(TINY_CNN, seed=18)
        x = rng.random((2, 64))
        t = np.array([0, 1])
        with pytest.raises(ValueError):
            AttackSpec("semiwhite", epsilon)
        with pytest.raises(ValueError):
            A.linear_batch(model, None, x, epsilon, "semiwhite")
        with pytest.raises(ValueError):
            A.pairwise_batch(net, None, x, t, epsilon, "semiwhite")
        with pytest.raises(ValueError):
            A.fgsm_batch(net, x, t, epsilon)

    def test_unknown_mode_rejected_before_jacobian(self, rng):
        net = M.build_network(TINY_CNN, seed=19)
        net.linearize = None  # calling it would raise TypeError
        with pytest.raises(ValueError):
            A.pairwise_batch(net, None, rng.random((1, 64)), np.array([0]), 0.1, "fgsm")
        with pytest.raises(ValueError):
            A.linear_batch(LinearModel(np.ones(64), 0.0), None, rng.random((1, 64)), 0.1, "fgsm")

    def test_single_class_network_rejected(self, rng):
        arch = {"input_shape": (6,), "layers": [("dense", 1)]}
        net = M.build_network(arch, seed=0)
        with pytest.raises(ValueError):
            A.pairwise_batch(net, None, rng.random((1, 6)), np.array([0]), 0.1, "semiwhite")


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
        ll = A.extract_locally_linear(net, rng.standard_normal((4, 10)))
        assert ll.w_eq.shape == (4, 3, 10) and ll.b_eq.shape == (4, 3)
        assert np.max(np.abs(ll.w_eq - w_rows)) < 1e-10
        assert np.max(np.abs(ll.b_eq - (-biases))) < 1e-10  # y = w.x - b_eq

    def test_all_active_relu_net_is_weight_product(self, rng):
        arch = {"input_shape": (6,), "layers": [("dense", 5), ("relu",), ("dense", 3)]}
        net = M.build_network(arch, seed=2)
        net.layers[0].b[...] = 10.0  # all units active near the anchor
        ll = A.extract_locally_linear(net, 0.01 * rng.standard_normal((3, 6)))
        product = (net.layers[0].w @ net.layers[2].w).T
        assert np.max(np.abs(ll.w_eq - product)) < 1e-9

    def test_reconstruction_exact_at_anchor(self, rng):
        net = M.build_network(TINY_CNN, seed=3)
        x = rng.standard_normal((100, 64))
        ll = A.extract_locally_linear(net, x)
        y = M.logits(net, x)
        rec = np.einsum("bln,bn->bl", ll.w_eq, x) - ll.b_eq
        assert np.max(np.abs(rec - y) / (1.0 + np.abs(y))) < 1e-6

    def test_reconstruction_exact_with_front_end(self, rng):
        basis = Basis("cdf97_biorthogonal", 8, 8, 1)
        fe = FrontEndConfig(basis, rho=0.1)
        net = M.build_network(TINY_CNN, seed=4)
        x = rng.random((25, 64))
        ll = A.extract_locally_linear(net, x, fe)
        y = M.logits(net, F.apply_batch(fe, x))
        rec = np.einsum("bln,bn->bl", ll.w_eq, x) - ll.b_eq
        assert np.max(np.abs(rec - y) / (1.0 + np.abs(y))) < 1e-6

    def test_locally_linear_model_logits_helper(self, rng):
        net = M.build_network(TINY_CNN, seed=5)
        x = rng.standard_normal((3, 64))
        ll = A.extract_locally_linear(net, x)
        assert np.max(np.abs(ll.logits(x) - M.logits(net, x))) < 1e-9


class TestPairwiseAttack:
    def test_l2_reduces_to_single_pair(self, rng):
        w_rows = rng.standard_normal((2, 12))
        net = linear_3class_net(w_rows, np.zeros(2))
        x = rng.standard_normal((1, 12))
        e, i_star, _, _ = A.pairwise_batch(net, None, x, np.array([0]), 0.1, "semiwhite")
        assert i_star[0] == 1
        assert np.array_equal(e[0], 0.1 * np.sign(w_rows[1] - w_rows[0]))

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
        e, i_star, pair_gaps, _ = A.pairwise_batch(net, None, x[None, :], np.array([t]), eps,
                                                   "semiwhite")
        assert i_star[0] == best
        assert pair_gaps[0, best] == pytest.approx(gaps[best], rel=1e-12)
        assert pair_gaps[0, t] == -np.inf
        assert np.array_equal(e[0], eps * np.sign(w_rows[best] - w_rows[t]))

    def test_chosen_pair_maximizes_predicted_gap(self, rng):
        net = M.build_network(TINY_CNN, seed=6)
        x = rng.standard_normal((20, 64))
        t = rng.integers(0, 4, 20)
        _, i_star, gaps, _ = A.pairwise_batch(net, None, x, t, 0.25, "semiwhite")
        assert np.array_equal(i_star, gaps.argmax(axis=1))
        assert (i_star != t).all()

    def test_budget(self, rng):
        net = M.build_network(TINY_CNN, seed=7)
        basis = Basis("haar_orthonormal", 8, 8, 2)
        fe = FrontEndConfig(basis, rho=0.1)
        x = rng.random((3, 64))
        for mode in ("semiwhite", "white"):
            e, _, _, _ = A.pairwise_batch(net, fe, x, np.array([1, 0, 3]), 0.3, mode)
            assert np.max(np.abs(e)) <= 0.3 + 1e-12

    def test_white_equals_semiwhite_without_front_end(self, rng):
        net = M.build_network(TINY_CNN, seed=8)
        x = rng.standard_normal((2, 64))
        t = np.array([2, 0])
        a, _, _, _ = A.pairwise_batch(net, None, x, t, 0.2, "semiwhite")
        b, _, _, _ = A.pairwise_batch(net, None, x, t, 0.2, "white")
        assert np.array_equal(a, b)

    def test_white_defended_distortion_dominates_semiwhite(self, rng):
        # linear classifier, certified K-sparse inputs: white-box distortion
        # at least semi-white's (||p||_1 >= |sign(w).p|)
        fe = FrontEndConfig(HAAR_28, rho=0.02)
        for _ in range(15):
            x = synth_sparse_input(HAAR_28, fe.k, rng)
            report = F.check_high_snr(fe, x, 1.0)
            eps = 0.8 * report.gap / report.threshold
            model = LinearModel(rng.standard_normal(784), 0.0)
            e_w, _ = linear_attack(model, x, eps, "white", fe)
            e_sw, _ = linear_attack(model, x, eps, "semiwhite", fe)
            d_w = defended_distortion(model, x, e_w, fe)
            d_sw = defended_distortion(model, x, e_sw, fe)
            assert d_w >= d_sw - 1e-9


class TestFgsm:
    def test_epsilon_zero(self, rng):
        net = M.build_network(TINY_CNN, seed=9)
        e, _, _ = A.fgsm_batch(net, rng.standard_normal((2, 64)), np.array([1, 2]), 0.0)
        assert np.max(np.abs(e)) == 0.0

    def test_zero_gradient_flagged(self):
        net = M.build_network(TINY_CNN, seed=10)
        for p in net.params():
            p[...] = 0.0
        e, zero, _ = A.fgsm_batch(net, np.zeros((1, 64)), np.array([1]), 0.1)
        assert zero[0]
        assert np.array_equal(e[0], np.zeros(64))

    def test_binary_fgsm_equals_semi_white(self, rng):
        arch = {
            "input_shape": (16,),
            "layers": [("dense", 10), ("relu",), ("dense", 2)],
        }
        net = M.build_network(arch, seed=11)
        x = rng.standard_normal((50, 16))
        t = rng.integers(0, 2, 50)
        fg, zero, _ = A.fgsm_batch(net, x, t, 0.2)
        sw, _, _, _ = A.pairwise_batch(net, None, x, t, 0.2, "semiwhite")
        assert np.array_equal(fg[~zero], sw[~zero])

    def test_budget(self, rng):
        net = M.build_network(TINY_CNN, seed=12)
        e, _, _ = A.fgsm_batch(net, rng.standard_normal((2, 64)), np.array([0, 3]), 0.15)
        assert np.max(np.abs(e)) <= 0.15 + 1e-12


def doubled(attack):
    """The same attack with every perturbation doubled: twice its budget."""
    def overspent(*args):
        e, *rest = attack(*args)
        return (2 * e, *rest)
    return overspent


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

    @pytest.mark.parametrize("kind", ["fgsm", "semiwhite", "white"])
    def test_budget_overrun_rejected(self, kind, rng, monkeypatch):
        net = M.build_network(TINY_CNN, seed=20)
        ds = self.make_dataset(rng, net, n=4)
        monkeypatch.setattr(A, "fgsm_batch", doubled(A.fgsm_batch))
        monkeypatch.setattr(A, "pairwise_batch", doubled(A.pairwise_batch))
        with pytest.raises(ValueError, match="budget"):
            A.evaluate(net, ds, AttackSpec(kind, 0.1))

    @pytest.mark.parametrize("kind", ["fgsm", "semiwhite", "white"])
    def test_undefended_network_forwards_each_input_once(self, kind, rng, monkeypatch):
        # the attack's own forward pass supplies the clean logits, so the
        # network sees the clean rows once and the attacked rows once
        net = M.build_network(M.REDUCED_DENSE, seed=21)
        ds = Dataset(rng.random((300, 784)), rng.integers(0, 10, 300), "synthetic")
        clean = M.logits(net, ds.images).argmax(axis=1)
        rows = []
        forward = M.FeedforwardNetwork.forward

        def counted(self, x, *args, **kwargs):
            rows.append(len(x))
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(M.FeedforwardNetwork, "forward", counted)
        report = A.evaluate(net, ds, AttackSpec(kind, 0.1))
        assert sum(rows) == 600
        assert [r["clean_prediction"] for r in report.records] == clean.tolist()

    def test_svm_budget_overrun_rejected(self, rng, monkeypatch):
        model = LinearModel(rng.standard_normal(4), 0.0)
        ds = Dataset(rng.random((6, 4)), np.array([1, -1, 1, -1, 1, -1]))
        monkeypatch.setattr(A, "linear_batch", doubled(A.linear_batch))
        for kind in ("semiwhite", "white"):
            with pytest.raises(ValueError, match="budget"):
                A.evaluate(model, ds, AttackSpec(kind, 0.1))

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
        # rho=1 front end is the identity transform: strictly weaker defense
        ablated_model = LinearModel(svm.w, svm.b, FrontEndConfig(fe.basis, rho=1.0))
        ablated = A.evaluate(ablated_model, small, AttackSpec("semiwhite", 0.12, clip=True))
        assert defended.attacked_accuracy >= ablated.attacked_accuracy
