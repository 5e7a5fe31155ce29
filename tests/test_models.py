import numpy as np
import pytest

from sparsefront import models as M
from sparsefront.frontend import FrontEndConfig
from sparsefront.transform import Basis

from conftest import needs_mnist

TINY_CNN = {
    "input_shape": (1, 8, 8),
    "layers": [
        ("conv", 3, 3, 3),
        ("relu",),
        ("maxpool",),
        ("flatten",),
        ("dense", 12),
        ("relu",),
        ("dropout", 0.5),
        ("dense", 4),
    ],
}

# Two convs with several channels into each and non-square kernels, so a
# channel or kernel-axis mix-up in the conv backward shows.
TWO_CONV = {
    "input_shape": (2, 9, 9),
    "layers": [
        ("conv", 3, 2, 3),
        ("relu",),
        ("conv", 4, 3, 2),
        ("relu",),
        ("maxpool",),
        ("flatten",),
        ("dense", 5),
    ],
}

TINY_DENSE = {
    "input_shape": (16,),
    "layers": [("dense", 8), ("relu",), ("dense", 3)],
}


def mean_ce(net, x, t):
    y, _ = net.forward(x)
    p = M.softmax(y)
    return -np.log(p[np.arange(x.shape[0]), t]).mean()


class TestSoftmax:
    def test_symmetric(self):
        assert np.allclose(M.softmax([0.0, 0.0]), [0.5, 0.5])

    def test_large_logits_stable(self):
        p = M.softmax([1000.0, 0.0])
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one(self, rng):
        y = rng.standard_normal((40, 10)) * 50
        p = M.softmax(y)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
        assert (p > 0).all()

    def test_argmax_preserved(self, rng):
        y = rng.standard_normal((40, 10))
        assert np.array_equal(M.softmax(y).argmax(axis=1), y.argmax(axis=1))

    def test_shift_invariance(self, rng):
        y = rng.standard_normal(6)
        assert np.allclose(M.softmax(y), M.softmax(y + 13.7), atol=1e-12)


class TestBackpropOracle:
    """Analytic gradients vs central finite differences, per layer type."""

    def check_network(self, arch, rng, rel_tol=1e-4, h=1e-5):
        net = M.build_network(arch, seed=3)
        n_in = int(np.prod(arch["input_shape"]))
        x = rng.standard_normal((3, n_in))
        t = rng.integers(0, net.n_classes, 3)

        y, caches = net.forward(x)
        p = M.softmax(y)
        g = p.copy()
        g[np.arange(3), t] -= 1.0
        g /= 3
        gx, grads = net.backward(g, caches)

        for prm, grd in zip(net.params(), grads):
            flat = prm.reshape(-1)
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for j in idx:
                old = flat[j]
                flat[j] = old + h
                lp = mean_ce(net, x, t)
                flat[j] = old - h
                lm = mean_ce(net, x, t)
                flat[j] = old
                num = (lp - lm) / (2 * h)
                ana = grd.reshape(-1)[j]
                assert abs(num - ana) <= rel_tol * max(1.0, abs(num)), (num, ana)

        for j in rng.choice(n_in, size=10, replace=False):
            old = x[1, j]
            x[1, j] = old + h
            lp = mean_ce(net, x, t)
            x[1, j] = old - h
            lm = mean_ce(net, x, t)
            x[1, j] = old
            num = (lp - lm) / (2 * h)
            assert abs(num - gx[1, j]) <= rel_tol * max(1.0, abs(num))

    def test_conv_relu_pool_dense(self, rng):
        self.check_network(TINY_CNN, rng)

    def test_two_conv(self, rng):
        self.check_network(TWO_CONV, rng)

    def test_dense_only(self, rng):
        self.check_network(TINY_DENSE, rng)

    def test_dropout_train_gradient(self, rng):
        # with a frozen mask, dropout is linear scaling; check via replayed rng
        net = M.build_network(
            {"input_shape": (10,), "layers": [("dense", 6), ("dropout", 0.5), ("dense", 3)]},
            seed=0,
        )
        x = rng.standard_normal((4, 10))
        t = rng.integers(0, 3, 4)
        y, caches = net.forward(x, train=True, rng=np.random.default_rng(99))
        mask = caches[1]
        p = M.softmax(y)
        g = p.copy()
        g[np.arange(4), t] -= 1.0
        g /= 4
        gx, grads = net.backward(g, caches)
        h = 1e-6

        def loss_with_mask():
            h1, _ = net.layers[0].forward(x)
            h2 = h1 * mask
            y2, _ = net.layers[2].forward(h2)
            pp = M.softmax(y2)
            return -np.log(pp[np.arange(4), t]).mean()

        w = net.layers[0].w
        old = w[2, 3]
        w[2, 3] = old + h
        lp = loss_with_mask()
        w[2, 3] = old - h
        lm = loss_with_mask()
        w[2, 3] = old
        assert abs((lp - lm) / (2 * h) - grads[0][2, 3]) < 1e-4


class TestPiecewiseLinearity:
    def test_second_differences_vanish_between_switches(self, rng):
        net = M.build_network(TINY_CNN, seed=5)
        x = rng.standard_normal(64)
        d = rng.standard_normal(64)
        d /= np.linalg.norm(d)
        # tiny interval around x: with probability ~1 no switch flips inside
        ts = np.linspace(-1e-4, 1e-4, 9)
        ys = np.array([M.logits(net, x + t * d) for t in ts])
        second = ys[:-2] - 2 * ys[1:-1] + ys[2:]
        assert np.max(np.abs(second)) < 1e-8

    def test_switch_replay_exact(self, rng):
        net = M.build_network(TINY_CNN, seed=6)
        x = rng.standard_normal(64)
        state = net.switch_state(x)
        assert np.array_equal(net.forward_frozen(x[None, :], state)[0], state.logits)

    def test_frozen_map_is_affine(self, rng):
        net = M.build_network(TINY_CNN, seed=7)
        x = rng.standard_normal(64)
        state = net.switch_state(x)
        u, v = rng.standard_normal((2, 64))
        f = lambda z: net.forward_frozen(z[None, :], state)[0]
        lhs = f(0.3 * u + 0.7 * v)
        rhs = 0.3 * f(u) + 0.7 * f(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("arch", [TINY_CNN, TWO_CONV, TINY_DENSE],
                             ids=["tiny_cnn", "two_conv", "tiny_dense"])
    def test_input_jacobian_matches_frozen_map(self, arch, rng):
        net = M.build_network(arch, seed=8)
        n = net.n_inputs
        x = rng.standard_normal((4, n))
        jac = net.input_jacobian(x)
        assert jac.shape == (4, net.n_classes, n)
        for row, xi in zip(jac, x):
            state = net.switch_state(xi)
            # column k of the frozen affine map is f(e_k) - f(0)
            y = net.forward_frozen(np.vstack([np.zeros(n), np.eye(n)]), state)
            assert np.max(np.abs(row - (y[1:] - y[0]).T)) < 1e-9


class TestTrainingDeterminism:
    def test_identical_seeds_identical_weights(self, rng):
        x = rng.random((200, 16))
        t = rng.integers(0, 3, 200)
        cfg = M.TrainConfig(seed=11, epochs=3, batch_size=32, learning_rate=0.05,
                            dropout_rate=0.0, weight_decay=1e-4)
        a = M.train_network(x, t, cfg, TINY_DENSE)
        b = M.train_network(x, t, cfg, TINY_DENSE)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_different_seed_differs(self, rng):
        x = rng.random((200, 16))
        t = rng.integers(0, 3, 200)
        cfg1 = M.TrainConfig(seed=11, epochs=1, batch_size=32, learning_rate=0.05,
                             dropout_rate=0.0)
        cfg2 = M.TrainConfig(seed=12, epochs=1, batch_size=32, learning_rate=0.05,
                             dropout_rate=0.0)
        a = M.train_network(x, t, cfg1, TINY_DENSE)
        b = M.train_network(x, t, cfg2, TINY_DENSE)
        assert any(not np.array_equal(pa, pb) for pa, pb in zip(a.params(), b.params()))

    def test_dropout_off_at_inference(self, rng):
        net = M.build_network(TINY_CNN, seed=1, dropout_rate=0.9)
        x = rng.standard_normal((5, 64))
        assert np.array_equal(M.logits(net, x), M.logits(net, x))
        high = M.build_network(TINY_CNN, seed=1, dropout_rate=0.1)
        assert np.array_equal(M.logits(net, x), M.logits(high, x))


class TestTrainingBehavior:
    def test_loss_decreases_first_epoch(self, rng):
        x = rng.random((500, 16))
        w_true = rng.standard_normal((16, 3))
        t = (x @ w_true).argmax(axis=1)
        cfg = M.TrainConfig(seed=0, epochs=1, batch_size=32, learning_rate=0.1,
                            dropout_rate=0.0, weight_decay=0.0)
        init = M.build_network(TINY_DENSE, seed=0)
        loss0 = mean_ce(init, x, t)
        net = M.train_network(x, t, cfg, TINY_DENSE)
        assert mean_ce(net, x, t) < loss0

    def test_divergence_reported_with_epoch(self, rng):
        x = rng.random((100, 16))
        x[3, 5] = np.nan  # poisoned batch makes the loss non-finite at once
        t = rng.integers(0, 3, 100)
        cfg = M.TrainConfig(seed=0, epochs=3, batch_size=100, learning_rate=0.1,
                            dropout_rate=0.0)
        with pytest.raises(M.TrainingDivergence) as err:
            M.train_network(x, t, cfg, TINY_DENSE)
        assert err.value.epoch == 0

    @needs_mnist
    def test_smoke_tiny_net_on_mnist(self, mnist_train):
        arch = {"input_shape": (784,), "layers": [("dense", 32), ("relu",), ("dense", 10)]}
        x = mnist_train.images[:1000]
        t = mnist_train.labels[:1000]
        cfg = M.TrainConfig(seed=0, epochs=5, batch_size=32, learning_rate=0.1,
                            dropout_rate=0.0, weight_decay=0.0)
        net = M.train_network(x, t, cfg, arch)
        acc = (M.logits(net, x).argmax(axis=1) == t).mean()
        assert acc > 0.90


class TestLinearSvm:
    def test_separable_toy(self, rng):
        base = np.array([[1.0, 1.0], [-1.0, -1.0]])
        x = np.vstack([base[0] + 0.1 * rng.standard_normal((100, 2)),
                       base[1] + 0.1 * rng.standard_normal((100, 2))])
        t = np.array([1] * 100 + [-1] * 100)
        cfg = M.TrainConfig(seed=0, epochs=50, batch_size=16, learning_rate=0.1,
                            weight_decay=1e-4, dropout_rate=0.0)
        svm = M.train_linear_svm(x, t, cfg)
        assert (svm.predict(x) == t).all()

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError):
            M.train_linear_svm(rng.random((10, 4)), np.ones(10), M.TrainConfig(dropout_rate=0.0))

    def test_deterministic(self, rng):
        x = rng.random((60, 8))
        t = np.where(x[:, 0] > 0.5, 1, -1)
        cfg = M.TrainConfig(seed=4, epochs=10, batch_size=8, learning_rate=0.1,
                            dropout_rate=0.0)
        a = M.train_linear_svm(x, t, cfg)
        b = M.train_linear_svm(x, t, cfg)
        assert np.array_equal(a.w, b.w) and a.b == b.b

    @needs_mnist
    def test_front_end_training_keeps_accuracy(self, pair_train, pair_test):
        fe = FrontEndConfig(Basis("cdf97_biorthogonal", 28, 28, 1), rho=0.02)
        cfg = M.TrainConfig(seed=0, epochs=50, batch_size=64, learning_rate=0.3,
                            weight_decay=1e-4, dropout_rate=0.0)
        plain = M.train_linear_svm(pair_train.images, pair_train.labels, cfg)
        cfg_fe = M.TrainConfig(seed=0, epochs=50, batch_size=64, learning_rate=0.3,
                               weight_decay=1e-4, dropout_rate=0.0, front_end=fe,
                               clip_recon=True)
        defended = M.train_linear_svm(pair_train.images, pair_train.labels, cfg_fe)
        from sparsefront import frontend as fmod
        test_sp = np.clip(fmod.apply_batch(fe, pair_test.images), 0, 1)
        acc_plain = (plain.predict(pair_test.images) == pair_test.labels).mean()
        acc_def = (defended.predict(test_sp) == pair_test.labels).mean()
        assert acc_def > acc_plain - 0.02


class TestLogitsOp:
    def test_zero_weights_zero_logits(self):
        net = M.build_network(TINY_DENSE, seed=0)
        for p in net.params():
            p[...] = 0.0
        assert np.array_equal(M.logits(net, np.ones(16)), np.zeros(3))

    def test_bias_shift_moves_logits_not_softmax(self, rng):
        net = M.build_network(TINY_DENSE, seed=2)
        x = rng.standard_normal(16)
        y0 = M.logits(net, x)
        net.layers[-1].b += 3.25
        y1 = M.logits(net, x)
        assert np.allclose(y1 - y0, 3.25, atol=1e-12)
        assert np.allclose(M.softmax(y0), M.softmax(y1), atol=1e-12)

    def test_shape_mismatch(self):
        net = M.build_network(TINY_DENSE, seed=0)
        with pytest.raises(ValueError):
            M.logits(net, np.zeros(17))


class TestSerialization:
    def test_network_roundtrip_exact(self, tmp_path, rng):
        fe = FrontEndConfig(Basis("cdf97_biorthogonal", 28, 28, 2), rho=0.03)
        net = M.build_network(TINY_CNN, seed=9, front_end=fe)
        path = tmp_path / "net.model"
        M.save_model(net, path)
        back = M.load_model(path)
        assert back.input_shape == net.input_shape
        assert back.front_end == fe
        for a, b in zip(net.params(), back.params()):
            assert np.array_equal(a, b)
        x = rng.standard_normal((2, 64))
        assert np.array_equal(M.logits(net, x), M.logits(back, x))

    def test_svm_roundtrip_exact(self, tmp_path, rng):
        svm = M.LinearModel(rng.standard_normal(784), -0.125)
        path = tmp_path / "svm.model"
        M.save_model(svm, path)
        back = M.load_model(path)
        assert np.array_equal(back.w, svm.w)
        assert back.b == svm.b
        assert back.front_end is None

    def test_identical_models_identical_bytes(self, tmp_path):
        a = M.build_network(TINY_DENSE, seed=42)
        b = M.build_network(TINY_DENSE, seed=42)
        pa, pb = tmp_path / "a.model", tmp_path / "b.model"
        M.save_model(a, pa)
        M.save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("edit", [lambda b: b[:-8], lambda b: b + bytes(8)],
                             ids=["truncated", "trailing"])
    def test_payload_length_mismatch_rejected(self, tmp_path, edit):
        path = tmp_path / "net.model"
        M.save_model(M.build_network(TINY_CNN, seed=9), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="net.model"):
            M.load_model(path)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"not a model")
        with pytest.raises(ValueError):
            M.load_model(path)
