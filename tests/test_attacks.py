import numpy as np
import pytest

from sparsefront import attacks as A
from sparsefront import frontend as F
from sparsefront import models as M
from sparsefront import transform as T
from sparsefront.attacks import AttackSpec
from sparsefront.data import Dataset, filter_pair, load_mnist
from sparsefront.frontend import FrontEndConfig
from sparsefront.models import LinearModel
from sparsefront.transform import Basis

from switch_replay import same_switches

HAAR_28 = Basis("haar_orthonormal", 28, 28, 2)
HAAR_2x4 = Basis("haar_orthonormal", 2, 4, 1)
CDF_2x4 = Basis("cdf97_biorthogonal", 2, 4, 1)
CDF_28 = Basis("cdf97_biorthogonal", 28, 28, 2)
HAAR_8 = Basis("haar_orthonormal", 8, 8, 2)
CDF_8 = Basis("cdf97_biorthogonal", 8, 8, 1)

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


def haar_projection(w, kept, basis):
    """G_S G_S^T w: the orthogonal projection onto the Haar atoms of the kept mask's row."""
    g_s = T.synthesis_matrix(basis)[:, kept]
    return g_s @ (g_s.T @ w)


def raise_score(model, fe, x, epsilon, mode):
    """Closed-form attacks that raise a linear model's score: (e (B, N), predicted gain (B,)).

    Class 1 (label -1) is the true class, so every pair steers toward class
    0; the predicted gain is the predicted gap less the clean gap.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y, jac = A.frozen_linearize(model, fe if mode == "white" else None, x, clip=False)
    e, i_star, gaps = A.pairwise_batch(y, jac, np.ones(len(x), dtype=int), epsilon)
    assert (i_star == 0).all()
    return e, gaps[:, 0] - (y[:, 0] - y[:, 1])


def linear_attack(model, x, epsilon, mode, fe=None):
    """One-row raise_score: (e, predicted gain) for a single flat input."""
    e, predicted = raise_score(model, fe, x, epsilon, mode)
    return e[0], predicted[0]


def defended_distortion(model, x, e, fe):
    """|w . x_hat(x+e) - w . x_hat(x)|, or |w . e| without a front end."""
    if fe is None:
        return abs(model.w @ e)
    defended, clean = F.apply_batch(fe, np.stack([x + e, x]))
    return abs(model.w @ defended - model.w @ clean)


class TestLinearAttacks:
    def test_semi_white_definition(self):
        # e = -label * epsilon * sign(w): class 0 is label +1, class 1 label -1
        model = LinearModel(np.array([2.0, -3.0, 0.0]), 0.0)
        y, jac = model.linearize(np.zeros((2, 3)))
        e, i_star, gaps = A.pairwise_batch(y, jac, np.array([1, 0]), 0.1)
        assert np.array_equal(e, [[0.1, -0.1, 0.0], [-0.1, 0.1, 0.0]])  # sign(0) = 0
        assert np.array_equal(i_star, [0, 1])
        assert np.array_equal(gaps[[0, 1], i_star], [0.5, 0.5])

    def test_two_logit_view(self):
        # logits (score, 0) and Jacobian rows (w, 0); argmax gives +1 at score 0
        w = np.array([1.0, -2.0, 0.5])
        model = LinearModel(w, 0.0)
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.25, 0.0], [0.0, 0.0, 1.0]])
        y, jac = model.linearize(x)
        assert np.array_equal(y, [[1.0, 0.0], [-2.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
        assert np.array_equal(jac, np.broadcast_to([w, np.zeros(3)], (4, 2, 3)))
        assert np.array_equal(np.array([1, -1])[y.argmax(axis=1)], [1, -1, 1, 1])
        assert np.array_equal(model.logits(x), y)

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
        _, kept = F.support_batch(fe, x[None, :])
        w = rng.standard_normal(8)
        e, predicted = linear_attack(LinearModel(w, 0.0), x, 0.1, "white", fe)
        proj = haar_projection(w, kept[0], HAAR_2x4)
        assert np.array_equal(e, 0.1 * np.sign(proj))
        assert predicted == pytest.approx(0.1 * np.abs(proj).sum(), rel=1e-12)

    def test_white_reduces_to_semi_white_on_full_support(self, rng):
        fe = FrontEndConfig(HAAR_28, rho=1.0)
        model = LinearModel(rng.standard_normal(784), 0.0)
        x = rng.random((3, 784))
        white, _ = raise_score(model, fe, x, 0.2, "white")
        semi, _ = raise_score(model, fe, x, 0.2, "semiwhite")
        # K = N support contains every nonzero coefficient; proj(w) = w
        assert np.max(np.abs(white - semi)) < 1e-12

    def test_white_without_front_end_is_semi_white(self, rng):
        model = LinearModel(rng.standard_normal(20), 0.0)
        x = rng.random((4, 20))
        white = raise_score(model, None, x, 0.3, "white")
        semi = raise_score(model, None, x, 0.3, "semiwhite")
        assert all(np.array_equal(a, b) for a, b in zip(white, semi))

    def test_budget_respected(self, rng):
        fe = FrontEndConfig(CDF_28, rho=0.02)
        model = LinearModel(rng.standard_normal(784), 0.0)
        x = rng.random((4, 784))
        for mode in ("semiwhite", "white"):
            e, _ = raise_score(model, fe, x, 0.07, mode)
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
            eps = 0.5 * F.certified_radius_batch(fe, x[None, :])[0]
            w = rng.standard_normal(784)
            model = LinearModel(w, 0.0)
            e = eps * np.sign(rng.standard_normal(784))
            measured = defended_distortion(model, x, e, fe)
            proj = haar_projection(w, F.support_batch(fe, x[None, :])[1][0], HAAR_28)
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
            eps = 0.9 * F.certified_radius_batch(fe, x[None, :])[0]
            w = rng.standard_normal(8)
            model = LinearModel(w, 0.0)
            e, predicted = linear_attack(model, x, eps, "white", fe)
            ours = defended_distortion(model, x, e, fe)
            assert ours == pytest.approx(predicted, rel=1e-9)  # support stays frozen
            defended = F.apply_batch(fe, np.vstack([x, x + eps * corners]))
            best = np.abs(defended[1:] @ w - defended[0] @ w).max()
            assert ours >= best - 1e-9


class TestInputChecks:
    @pytest.mark.parametrize("epsilon", [-0.1, np.nan, np.inf, True])
    def test_bad_epsilon_rejected(self, epsilon, rng):
        model = LinearModel(rng.standard_normal(64), 0.0)
        net = M.build_network(TINY_CNN, seed=18)
        x = rng.random((2, 64))
        t = np.array([0, 1])
        with pytest.raises(ValueError):
            AttackSpec("semiwhite", epsilon)
        for m in (model, net):
            y, jac = m.linearize(x)
            with pytest.raises(ValueError):
                A.pairwise_batch(y, jac, t % 2, epsilon)
        with pytest.raises(ValueError):
            A.fgsm_batch(net, x, t, epsilon)

    def test_unknown_mode_rejected_before_jacobian(self):
        # the kind is checked where the spec is made, before any attack runs
        with pytest.raises(ValueError, match="unknown attack kind"):
            AttackSpec("bogus", 0.1)

    def test_none_with_epsilon_rejected(self):
        # no attack runs, so a budget would be recorded and never read
        with pytest.raises(ValueError, match="attack none reads no epsilon"):
            AttackSpec("none", 0.5)
        assert AttackSpec("none", 0.0).epsilon == 0.0

    def test_single_class_network_rejected(self, rng):
        arch = {"input_shape": (6,), "layers": [("dense", 1)]}
        net = M.build_network(arch, seed=0)
        y, jac = net.linearize(rng.random((1, 6)))
        with pytest.raises(ValueError):
            A.pairwise_batch(y, jac, np.array([0]), 0.1)


def linear_3class_net(w_rows, biases):
    """Exact linear 'network': one dense layer, known weights."""
    arch = {"input_shape": (w_rows.shape[1],), "layers": [("dense", w_rows.shape[0])]}
    net = M.build_network(arch, seed=0)
    net.layers[0].w[...] = w_rows.T
    net.layers[0].b[...] = biases
    return net


def bare_pairwise(net, x, t, epsilon):
    """Semi-white pairwise attack: the closed form on the bare network's linearization."""
    y, jac = net.linearize(x)
    return A.pairwise_batch(y, jac, t, epsilon)


def offsets(y, jac, x):
    """b_eq of the affine model y = jac . x - b_eq at each anchor x."""
    return np.einsum("bln,bn->bl", jac, x) - y


class TestFrozenLinearize:
    def test_single_dense_layer_recovers_weights(self, rng):
        w_rows = rng.standard_normal((3, 10))
        biases = rng.standard_normal(3)
        net = linear_3class_net(w_rows, biases)
        x = rng.standard_normal((4, 10))
        y, jac = A.frozen_linearize(net, None, x, clip=False)
        assert jac.shape == (4, 3, 10) and y.shape == (4, 3)
        assert np.max(np.abs(jac - w_rows)) < 1e-10
        assert np.max(np.abs(offsets(y, jac, x) - (-biases))) < 1e-10  # y = w.x - b_eq

    def test_all_active_relu_net_is_weight_product(self, rng):
        arch = {"input_shape": (6,), "layers": [("dense", 5), ("relu",), ("dense", 3)]}
        net = M.build_network(arch, seed=2)
        net.layers[0].b[...] = 10.0  # all units active near the anchor
        _, jac = A.frozen_linearize(net, None, 0.01 * rng.standard_normal((3, 6)), clip=False)
        product = (net.layers[0].w @ net.layers[2].w).T
        assert np.max(np.abs(jac - product)) < 1e-9

    def test_logits_are_the_clean_logits(self, rng):
        net = M.build_network(TINY_CNN, seed=3)
        x = rng.standard_normal((100, 64))
        y, _ = A.frozen_linearize(net, None, x, clip=False)
        assert np.array_equal(y, net.logits(x))

    @pytest.mark.parametrize("clip", [False, True])
    def test_logits_are_the_defended_clean_logits(self, clip, rng):
        fe = FrontEndConfig(Basis("cdf97_biorthogonal", 8, 8, 1), rho=0.1)
        net = M.build_network(TINY_CNN, seed=4)
        x = rng.random((25, 64))
        y, _ = A.frozen_linearize(net, fe, x, clip)
        assert np.array_equal(y, net.logits(F.defend(fe, x, clip)))

    @pytest.mark.parametrize("basis", [Basis("haar_orthonormal", 8, 8, 2),
                                       Basis("cdf97_biorthogonal", 8, 8, 1)],
                             ids=["haar", "cdf97"])
    @pytest.mark.parametrize("clip", [False, True])
    def test_jacobian_is_the_dense_chain(self, basis, clip, rng):
        # J_net(x_hat) D G_S F_S with the dense operators as the oracle
        fe = FrontEndConfig(basis, rho=0.25)
        net = M.build_network(TINY_CNN, seed=5)
        x = rng.random((6, 64))
        _, jac = A.frozen_linearize(net, fe, x, clip)
        x_hat = F.apply_batch(fe, x)
        _, j_net = net.linearize(np.clip(x_hat, 0.0, 1.0) if clip else x_hat)
        inside = (x_hat >= 0.0) & (x_hat <= 1.0) if clip else np.ones(x.shape, dtype=bool)
        if clip:
            assert not inside.all()  # the clamp binds somewhere, so D is tested
        f, g = T.analysis_matrix(basis), T.synthesis_matrix(basis)
        for s, kept in enumerate(F.support_batch(fe, x)[1]):
            chain = (j_net[s] * inside[s]) @ g[:, kept] @ f[kept]
            assert np.max(np.abs(jac[s] - chain)) < 1e-10


class TestPairwiseAttack:
    def test_l2_reduces_to_single_pair(self, rng):
        w_rows = rng.standard_normal((2, 12))
        net = linear_3class_net(w_rows, np.zeros(2))
        x = rng.standard_normal((1, 12))
        e, i_star, _ = bare_pairwise(net, x, np.array([0]), 0.1)
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
        e, i_star, pair_gaps = bare_pairwise(net, x[None, :], np.array([t]), eps)
        assert i_star[0] == best
        assert pair_gaps[0, best] == pytest.approx(gaps[best], rel=1e-12)
        assert pair_gaps[0, t] == -np.inf
        assert np.array_equal(e[0], eps * np.sign(w_rows[best] - w_rows[t]))

    def test_chosen_pair_maximizes_predicted_gap(self, rng):
        net = M.build_network(TINY_CNN, seed=6)
        x = rng.standard_normal((20, 64))
        t = rng.integers(0, 4, 20)
        _, i_star, gaps = bare_pairwise(net, x, t, 0.25)
        assert np.array_equal(i_star, gaps.argmax(axis=1))
        assert (i_star != t).all()

    def test_budget(self, rng):
        net = M.build_network(TINY_CNN, seed=7)
        basis = Basis("haar_orthonormal", 8, 8, 2)
        fe = FrontEndConfig(basis, rho=0.1)
        x = rng.random((3, 64))
        for defense in (None, fe):
            y, jac = A.frozen_linearize(net, defense, x, clip=False)
            e, _, _ = A.pairwise_batch(y, jac, np.array([1, 0, 3]), 0.3)
            assert np.max(np.abs(e)) <= 0.3 + 1e-12

    def test_frozen_linearize_without_front_end_is_bare(self, rng):
        net = M.build_network(TINY_CNN, seed=8)
        x = rng.standard_normal((2, 64))
        frozen = A.frozen_linearize(net, None, x, clip=True)
        assert all(np.array_equal(a, b) for a, b in zip(frozen, net.linearize(x)))

    def test_white_defended_distortion_dominates_semiwhite(self, rng):
        # linear classifier, certified K-sparse inputs: white-box distortion
        # at least semi-white's (||p||_1 >= |sign(w).p|)
        fe = FrontEndConfig(HAAR_28, rho=0.02)
        for _ in range(15):
            x = synth_sparse_input(HAAR_28, fe.k, rng)
            eps = 0.8 * F.certified_radius_batch(fe, x[None, :])[0]
            model = LinearModel(rng.standard_normal(784), 0.0)
            e_w, _ = linear_attack(model, x, eps, "white", fe)
            e_sw, _ = linear_attack(model, x, eps, "semiwhite", fe)
            d_w = defended_distortion(model, x, e_w, fe)
            d_sw = defended_distortion(model, x, e_sw, fe)
            assert d_w >= d_sw - 1e-9


def inside_unit(images):
    return (images >= 0.0) & (images <= 1.0)


class TestWhiteExactness:
    """The white attack linearizes the exact map the defended model computes.

    On the rows whose retained support, reconstruction clamp mask and relu /
    pool switches are all unchanged at x + e, the reported achieved gain
    must equal the predicted gain epsilon * ||jac_i - jac_t||_1.
    """

    @pytest.mark.parametrize("basis", [HAAR_8, CDF_8], ids=["haar", "cdf97"])
    @pytest.mark.parametrize("clip", [False, True], ids=["unclipped", "clipped"])
    @pytest.mark.parametrize("kind", ["network", "svm"])
    def test_achieved_gain_equals_predicted(self, kind, basis, clip, rng):
        eps = 1e-3
        n = 200
        fe = FrontEndConfig(basis, rho=0.25)
        # inside [eps, 1 - eps], so the input clip never binds
        x = eps + (1.0 - 2.0 * eps) * rng.random((n, 64))
        if kind == "network":
            model = M.build_network(TINY_CNN, seed=24, front_end=fe)
            labels = rng.integers(0, 4, n)
            classes = labels
        else:
            model = LinearModel(rng.standard_normal(64), 0.0, fe)
            labels = np.where(rng.random(n) < 0.5, 1, -1)
            classes = (labels == -1).astype(int)
        report = A.evaluate(model, Dataset(x, labels), AttackSpec("white", eps, clip))
        predicted = report.columns["predicted_gap"]
        achieved = report.columns["achieved_gap"]

        # the same attack again, for its perturbation and clean gaps
        y, jac = A.frozen_linearize(model, fe, x, clip)
        e, i_star, gaps = A.pairwise_batch(y, jac, classes, eps)
        rows = np.arange(n)
        assert np.array_equal(predicted, gaps[rows, i_star])
        gain = predicted - (y[rows, i_star] - y[rows, classes])

        adv = x + e
        (x_hat, kept_x), (adv_hat, kept_adv) = F.support_batch(fe, x), F.support_batch(fe, adv)
        frozen = (kept_x == kept_adv).all(axis=1)
        if clip:
            frozen &= (inside_unit(x_hat) == inside_unit(adv_hat)).all(axis=1)
            assert not inside_unit(x_hat[frozen]).all()  # the clamp binds on frozen rows
        if kind == "network":
            frozen &= [same_switches(model, a, b) for a, b in
                       zip(F.defend(fe, x, clip), F.defend(fe, adv, clip))]
        assert frozen.mean() > 0.5
        assert (gain[frozen] > 0).all()
        assert np.max(np.abs(achieved[frozen] - gain[frozen]) / gain[frozen]) <= 1e-9


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
        sw, _, _ = bare_pairwise(net, x, t, 0.2)
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
        labels = net.logits(x).argmax(axis=1)
        return Dataset(x, labels.astype(np.int64))

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
        # report order, which report.json records and report.csv columns follow
        assert list(report.columns) == [
            "sample", "label", "clean_prediction", "attacked_prediction",
            "chosen_pair", "predicted_gap", "achieved_gap",
        ]
        assert all(len(col) == 10 for col in report.columns.values())
        assert report.columns["chosen_pair"].shape == (10, 2)

    def test_empty_dataset_rejected(self, rng):
        net = M.build_network(TINY_CNN, seed=16)
        empty = Dataset(np.empty((0, 64)), np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            A.evaluate(net, empty, AttackSpec("none", 0.0))

    def test_unknown_model_kind_rejected(self, rng):
        ds = Dataset(rng.random((4, 64)), np.array([0, 1, 0, 1]))
        with pytest.raises(TypeError, match="cannot evaluate object"):
            A.evaluate(object(), ds, AttackSpec("none", 0.0))

    def test_svm_fgsm_rejected(self, rng):
        model = LinearModel(rng.standard_normal(4), 0.0)
        ds = Dataset(rng.random((6, 4)), np.array([1, -1, 1, -1, 1, -1]))
        with pytest.raises(ValueError, match="fgsm attack needs a network"):
            A.evaluate(model, ds, AttackSpec("fgsm", 0.1))

    @pytest.mark.parametrize("kind", ["none", "semiwhite", "white"])
    def test_network_label_out_of_range_rejected(self, kind, rng):
        net = M.build_network(TINY_CNN, seed=23)
        # IDX labels are uint8, so a corrupt file can hold any label up to 255
        ds = Dataset(rng.random((5, 64)), np.array([0, 3, 12, 1, 2], dtype=np.uint8))
        with pytest.raises(ValueError, match="label 12 "):
            A.evaluate(net, ds, AttackSpec(kind, 0.0 if kind == "none" else 0.1))

    @pytest.mark.parametrize("kind", ["none", "semiwhite", "white"])
    def test_svm_label_not_plus_minus_one_rejected(self, kind, rng):
        model = LinearModel(rng.standard_normal(4), 0.0)
        ds = Dataset(rng.random((4, 4)), np.array([1, 0, 1, 0]))
        with pytest.raises(ValueError, match="label 0 "):
            A.evaluate(model, ds, AttackSpec(kind, 0.0 if kind == "none" else 0.1))

    @pytest.mark.parametrize("kind", ["semiwhite", "white"])
    def test_svm_gap_columns(self, kind, rng):
        # predicted_gap = clean gap + epsilon * ||p||_1 of the pair toward the
        # other label; achieved_gap is the signed change of that gap, which
        # the unclipped, undefended linear model meets exactly
        w = rng.standard_normal(20)
        x = rng.random((30, 20))
        model = LinearModel(w, -float(np.median(x @ w)))
        labels = np.where(rng.random(30) < 0.5, 1, -1)
        report = A.evaluate(model, Dataset(x, labels), AttackSpec(kind, 0.05))
        score = model.score(x)
        clean_gap = -labels * score  # score of the other label's logit over the true one's
        gain = 0.05 * np.abs(w).sum()
        columns = report.columns
        assert columns["chosen_pair"].tolist() == np.stack([-labels, labels], axis=1).tolist()
        for predicted, achieved, gap in zip(columns["predicted_gap"], columns["achieved_gap"],
                                            clean_gap):
            assert predicted == pytest.approx(gap + gain, rel=1e-12, abs=1e-12)
            assert achieved == pytest.approx(gain, rel=1e-12)
        assert report.mean_distortion == pytest.approx(gain, rel=1e-12)

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

    @staticmethod
    def forwarded_rows(net, ds, attack, monkeypatch):
        """(rows the network forwards during evaluate, the report)."""
        rows = []
        forward = M.FeedforwardNetwork.forward

        def counted(self, x, *args, **kwargs):
            rows.append(len(x))
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(M.FeedforwardNetwork, "forward", counted)
        report = A.evaluate(net, ds, attack)
        monkeypatch.undo()
        return sum(rows), report

    @pytest.mark.parametrize("kind,expected", [
        ("none", 300), ("fgsm", 600), ("semiwhite", 600), ("white", 600)])
    def test_undefended_network_forwards_each_input_once(self, kind, expected, rng, monkeypatch):
        # the attack's own forward pass supplies the clean logits, so the
        # network sees the clean rows once and the attacked rows once; none
        # attacks nothing, so its clean pass is the only one
        net = M.build_network(M.REDUCED_DENSE, seed=21)
        ds = Dataset(rng.random((300, 784)), rng.integers(0, 10, 300))
        clean = net.logits(ds.images).argmax(axis=1)
        epsilon = 0.0 if kind == "none" else 0.1
        rows, report = self.forwarded_rows(net, ds, AttackSpec(kind, epsilon), monkeypatch)
        assert rows == expected
        assert report.columns["clean_prediction"].tolist() == clean.tolist()

    @pytest.mark.parametrize("kind,expected", [
        ("none", 300), ("fgsm", 900), ("semiwhite", 900), ("white", 600)])
    @pytest.mark.parametrize("clip", [False, True])
    def test_defended_network_forward_rows(self, kind, expected, clip, rng, monkeypatch):
        # white linearizes the defended model, so its forward pass gives the
        # clean logits; fgsm and semiwhite see the bare network and need a
        # separate defended clean pass, which is none's only pass
        fe = FrontEndConfig(CDF_28, rho=0.03)
        net = M.build_network(M.REDUCED_DENSE, seed=22, front_end=fe)
        ds = Dataset(rng.random((300, 784)), rng.integers(0, 10, 300))
        clean = net.logits(F.defend(fe, ds.images, clip)).argmax(axis=1)
        epsilon = 0.0 if kind == "none" else 0.1
        rows, report = self.forwarded_rows(net, ds, AttackSpec(kind, epsilon, clip), monkeypatch)
        assert rows == expected
        assert report.columns["clean_prediction"].tolist() == clean.tolist()

    @pytest.mark.parametrize("kind", ["network", "svm"])
    @pytest.mark.parametrize("clip", [False, True])
    def test_white_analyzes_each_row_twice(self, kind, clip, rng, monkeypatch):
        # one analysis of each clean row gives both the defended input and
        # its kept mask; defending the perturbed row is the other
        fe = FrontEndConfig(CDF_8, rho=0.25)
        n = A.EVAL_BATCH + 44
        if kind == "network":
            model = M.build_network(TINY_CNN, seed=25, front_end=fe)
            labels = rng.integers(0, 4, n)
        else:
            model = LinearModel(rng.standard_normal(64), 0.0, fe)
            labels = np.where(rng.random(n) < 0.5, 1, -1)
        rows = []
        forward = T.forward_batch

        def counted(basis, x):
            rows.append(len(x))
            return forward(basis, x)

        monkeypatch.setattr(T, "forward_batch", counted)
        A.evaluate(model, Dataset(rng.random((n, 64)), labels), AttackSpec("white", 0.1, clip))
        assert sum(rows) == 2 * n

    def test_svm_budget_overrun_rejected(self, rng, monkeypatch):
        model = LinearModel(rng.standard_normal(4), 0.0)
        ds = Dataset(rng.random((6, 4)), np.array([1, -1, 1, -1, 1, -1]))
        monkeypatch.setattr(A, "pairwise_batch", doubled(A.pairwise_batch))
        for kind in ("semiwhite", "white"):
            with pytest.raises(ValueError, match="budget"):
                A.evaluate(model, ds, AttackSpec(kind, 0.1))

    def test_clip_keeps_pixels_in_range(self, rng):
        # indirect check: with clip on, no perturbed score can exceed the
        # score of the all-ones image
        net = M.build_network(TINY_CNN, seed=17)
        ds = self.make_dataset(rng, net, n=8)
        report = A.evaluate(net, ds, AttackSpec("semiwhite", 5.0, clip=True))
        assert len(report.columns["sample"]) == 8  # smoke: huge epsilon stays finite under clip


class TestEvaluateDefended:
    def test_defended_svm_uses_model_front_end(self, digits, digits_test):
        pair_train = filter_pair(load_mnist(digits, "train"), 3, 7)
        pair_test = filter_pair(digits_test, 3, 7)
        fe = FrontEndConfig(Basis("cdf97_biorthogonal", 28, 28, 1), rho=0.02)
        cfg = M.TrainConfig(seed=0, epochs=30, batch_size=64, learning_rate=0.3,
                            weight_decay=1e-4, front_end=fe,
                            clip_recon=True)
        svm = M.train_linear_svm(pair_train.images[:2000], pair_train.labels[:2000], cfg)
        small = Dataset(pair_test.images[:300], pair_test.labels[:300])
        defended = A.evaluate(svm, small, AttackSpec("semiwhite", 0.12, clip=True))
        # rho=1 front end is the identity transform: strictly weaker defense
        ablated_model = LinearModel(svm.w, svm.b, FrontEndConfig(fe.basis, rho=1.0))
        ablated = A.evaluate(ablated_model, small, AttackSpec("semiwhite", 0.12, clip=True))
        assert defended.attacked_accuracy >= ablated.attacked_accuracy
