import json

import numpy as np
import pytest

from sparsefront import models as M
from sparsefront.frontend import FrontEndConfig
from sparsefront.transform import Basis

from conftest import needs_mnist, traced_peak_mib
from param_grads import param_grads
from run_compare import R
from switch_replay import forward_frozen, pool_windows, switch_state

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


def feedforward_file(layers, input_shape=(4,), front_end=None):
    """Model file bytes: a feedforward header over input_shape, and no payload."""
    header = json.dumps({"model": "feedforward", "input_shape": list(input_shape),
                         "layers": layers, "front_end": front_end}).encode()
    return M.MODEL_MAGIC + len(header).to_bytes(4, "big") + header


def model_header(path):
    """The JSON header bytes of a model file."""
    raw = path.read_bytes()
    start = len(M.MODEL_MAGIC) + 4
    return raw[start : start + int.from_bytes(raw[start - 4 : start], "big")]


def front_end_json(**fields):
    """A model file's front-end record, with `fields` replacing its values."""
    return {"kind": "cdf97_biorthogonal", "height": 28, "width": 28, "levels": 1, "rho": 0.02,
            **fields}


ABSENT = object()  # a linear_file field left out of the header


def linear_file(dim, payload=b"", **fields):
    """Model file bytes: a linear_svm header of dimension dim, digit pair [3, 7] and `fields`
    (a field set to ABSENT is left out), then payload."""
    header = {"model": "linear_svm", "dim": dim, "b": 0.0, "digits": [3, 7], "front_end": None,
              **fields}
    header = json.dumps({key: value for key, value in header.items() if value is not ABSENT})
    return M.MODEL_MAGIC + len(header).to_bytes(4, "big") + header.encode() + payload


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
        # dropout off, so the training forward computes the same loss as mean_ce
        layers = [("dropout", 0.0) if e[0] == "dropout" else e for e in arch["layers"]]
        net = M.build_network({**arch, "layers": layers}, seed=3)
        n_in = int(np.prod(arch["input_shape"]))
        x = rng.standard_normal((3, n_in))
        t = rng.integers(0, net.n_classes, 3)

        y, caches = net.forward(x, train=True)
        p = M.softmax(y)
        g = p.copy()
        g[np.arange(3), t] -= 1.0
        g /= 3
        gx = net.backward(g, caches)
        grads = param_grads(net, g, caches)

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
        grads = param_grads(net, g, caches)
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


def tied_pool_input(kind, shape, rng):
    if kind == "rounded":
        return np.round(rng.standard_normal(shape), 1)
    b, c, h, w = shape
    if kind == "equal_windows":
        return np.repeat(np.repeat(rng.standard_normal((b, c, h // 2, w // 2)), 2, 2), 2, 3)
    # relu outputs hold both signed zeros, and argmax keeps whichever comes first
    x = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    x[rng.random(shape) < 0.2] = 1.0
    return x


class TestMaxPoolForward:
    @pytest.mark.parametrize("kind", ["rounded", "equal_windows", "signed_zeros"])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 6), (64, 20, 24, 24), (1, 1, 2, 2)])
    def test_matches_window_argmax(self, shape, kind, rng):
        x = tied_pool_input(kind, shape, rng)
        win = pool_windows(x)
        ref_idx = win.argmax(axis=-1)
        ref = np.take_along_axis(win, ref_idx[..., None], axis=-1)[..., 0]
        y, idx = M.MaxPool2().forward(x)
        assert y.tobytes() == ref.tobytes()
        assert idx.dtype == ref_idx.dtype and idx.tobytes() == ref_idx.tobytes()


class TestMaxPoolBackward:
    @pytest.mark.parametrize("shape", [(2, 3, 4, 6), (64, 20, 24, 24), (1, 1, 2, 2)])
    def test_matches_window_scatter(self, shape, rng):
        # reference: route each window's gradient to its argmax slot in a
        # (..., 4) window buffer, then undo the window layout
        pool = M.MaxPool2()
        x = np.round(rng.standard_normal(shape), 1)  # ties inside windows
        y, idx = pool.forward(x)
        g = rng.standard_normal(y.shape)
        g.flat[::5] = -0.0
        b, c, h, w = shape
        dwin = np.zeros((b, c, h // 2, w // 2, 4))
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        ref = dwin.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(shape)
        gx = pool.backward(g, idx)
        assert gx.shape == shape
        assert gx.tobytes() == ref.tobytes()


class TestPiecewiseLinearity:
    def test_second_differences_vanish_between_switches(self, rng):
        net = M.build_network(TINY_CNN, seed=5)
        x = rng.standard_normal(64)
        d = rng.standard_normal(64)
        d /= np.linalg.norm(d)
        # tiny interval around x: with probability ~1 no switch flips inside
        ts = np.linspace(-1e-4, 1e-4, 9)
        ys = net.logits(x + ts[:, None] * d)
        second = ys[:-2] - 2 * ys[1:-1] + ys[2:]
        assert np.max(np.abs(second)) < 1e-8

    def test_switch_replay_exact(self, rng):
        net = M.build_network(TINY_CNN, seed=6)
        x = rng.standard_normal(64)
        state = switch_state(net, x)
        assert np.array_equal(forward_frozen(net, x[None, :], state)[0], state.logits)

    def test_frozen_map_is_affine(self, rng):
        net = M.build_network(TINY_CNN, seed=7)
        x = rng.standard_normal(64)
        state = switch_state(net, x)
        u, v = rng.standard_normal((2, 64))
        f = lambda z: forward_frozen(net, z[None, :], state)[0]
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
            state = switch_state(net, xi)
            # column k of the frozen affine map is f(e_k) - f(0)
            y = forward_frozen(net, np.vstack([np.zeros(n), np.eye(n)]), state)
            assert np.max(np.abs(row - (y[1:] - y[0]).T)) < 1e-9


class TestTrainingDeterminism:
    def test_identical_seeds_identical_weights(self, rng):
        x = rng.random((200, 16))
        t = rng.integers(0, 3, 200)
        cfg = M.TrainConfig(seed=11, epochs=3, batch_size=32, learning_rate=0.05,
                            weight_decay=1e-4)
        a = M.train_network(x, t, cfg, TINY_DENSE)
        b = M.train_network(x, t, cfg, TINY_DENSE)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_different_seed_differs(self, rng):
        x = rng.random((200, 16))
        t = rng.integers(0, 3, 200)
        cfg1 = M.TrainConfig(seed=11, epochs=1, batch_size=32, learning_rate=0.05)
        cfg2 = M.TrainConfig(seed=12, epochs=1, batch_size=32, learning_rate=0.05)
        a = M.train_network(x, t, cfg1, TINY_DENSE)
        b = M.train_network(x, t, cfg2, TINY_DENSE)
        assert any(not np.array_equal(pa, pb) for pa, pb in zip(a.params(), b.params()))

    def test_dropout_off_at_inference(self, rng):
        def at_rate(rate):
            layers = [("dropout", rate) if e[0] == "dropout" else e for e in TINY_CNN["layers"]]
            return M.build_network({**TINY_CNN, "layers": layers}, seed=1)

        net, low = at_rate(0.9), at_rate(0.1)
        assert [e for e in net.arch["layers"] if e[0] == "dropout"] == [["dropout", 0.9]]
        assert [e for e in low.arch["layers"] if e[0] == "dropout"] == [["dropout", 0.1]]
        x = rng.standard_normal((5, 64))
        assert np.array_equal(net.logits(x), net.logits(x))
        assert np.array_equal(net.logits(x), low.logits(x))


class TestClassLabels:
    def test_each_kind_declares_its_labels(self):
        assert M.LinearModel.class_labels == (1, -1)
        assert M.build_network(TINY_DENSE, seed=0).class_labels == range(3)

    def test_labels_map_to_their_classes(self):
        labels = np.array([1, -1, -1, 1], dtype=np.int8)
        assert M.class_indices((1, -1), labels).tolist() == [0, 1, 1, 0]
        assert M.class_indices(range(3), np.array([2, 0, 1, 2])).tolist() == [2, 0, 1, 2]

    # IDX labels are bytes, so 12 can reach a trainer; -1 and 3.5 are no class either
    @pytest.mark.parametrize("labels,message", [
        ([0, 1, 12, 2], "label 12 is not one of the model's labels"),
        ([0, -1, 1, 2], "label -1 is not one of the model's labels"),
        ([0, 3.5, 1, 2], "label 3.5 is not one of the model's labels"),
        ([], "empty dataset"),
    ])
    def test_train_network_refuses_before_the_front_end(self, labels, message, monkeypatch):
        def refuse(*args):
            raise AssertionError("the front end ran")

        monkeypatch.setattr(M.frontend_mod, "defend", refuse)
        labels = np.array(labels)
        with pytest.raises(ValueError, match=message):
            M.train_network(np.zeros((labels.size, 16)), labels, M.TrainConfig(epochs=1),
                            TINY_DENSE)


class TestTrainingBehavior:
    def test_loss_decreases_first_epoch(self, rng):
        x = rng.random((500, 16))
        w_true = rng.standard_normal((16, 3))
        t = (x @ w_true).argmax(axis=1)
        cfg = M.TrainConfig(seed=0, epochs=1, batch_size=32, learning_rate=0.1, weight_decay=0.0)
        init = M.build_network(TINY_DENSE, seed=0)
        loss0 = mean_ce(init, x, t)
        net = M.train_network(x, t, cfg, TINY_DENSE)
        assert mean_ce(net, x, t) < loss0

    def test_divergence_reported_with_epoch(self, rng):
        x = rng.random((100, 16))
        x[3, 5] = np.nan  # poisoned batch makes the loss non-finite at once
        t = rng.integers(0, 3, 100)
        cfg = M.TrainConfig(seed=0, epochs=3, batch_size=100, learning_rate=0.1)
        with pytest.raises(M.TrainingDivergence) as err:
            M.train_network(x, t, cfg, TINY_DENSE)
        assert err.value.epoch == 0

    @needs_mnist
    def test_smoke_tiny_net_on_mnist(self, mnist_train):
        arch = {"input_shape": (784,), "layers": [("dense", 32), ("relu",), ("dense", 10)]}
        x = mnist_train.images[:1000]
        t = mnist_train.labels[:1000]
        cfg = M.TrainConfig(seed=0, epochs=5, batch_size=32, learning_rate=0.1, weight_decay=0.0)
        net = M.train_network(x, t, cfg, arch)
        acc = (net.logits(x).argmax(axis=1) == t).mean()
        assert acc > 0.90


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", 0.0), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("learning_rate", -float("inf")),
        ("weight_decay", -1.0), ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ("epochs", 0), ("epochs", 1.5), ("batch_size", 0), ("batch_size", 64.0),
        ("lr_decay_every", -3), ("lr_decay_every", 1.5), ("seed", -1), ("seed", 1.5),
        # a bool is an int to Python
        ("seed", True), ("epochs", True), ("batch_size", True), ("lr_decay_every", True),
        ("learning_rate", True), ("weight_decay", True), ("weight_decay", False),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            M.TrainConfig(**{field: value})

    def test_dropout_layer_rejects_rate_one(self):
        # a rate of 1 drops every unit and scales the survivors by 1/0
        with pytest.raises(ValueError, match="dropout rate"):
            M.Dropout(1.0)

    def test_zero_weight_decay_accepted(self):
        assert M.TrainConfig(weight_decay=0.0).weight_decay == 0.0

    def test_zero_lr_decay_every_is_constant(self):
        assert M.TrainConfig(lr_decay_every=0).lr_at(7) == M.TrainConfig().learning_rate


class TestLinearSvm:
    def test_separable_toy(self, rng):
        base = np.array([[1.0, 1.0], [-1.0, -1.0]])
        x = np.vstack([base[0] + 0.1 * rng.standard_normal((100, 2)),
                       base[1] + 0.1 * rng.standard_normal((100, 2))])
        t = np.array([1] * 100 + [-1] * 100)
        cfg = M.TrainConfig(seed=0, epochs=50, batch_size=16, learning_rate=0.1,
                            weight_decay=1e-4)
        svm = M.train_linear_svm(x, t, cfg)
        assert ((svm.score(x) >= 0) == (t == 1)).all()

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError, match=r"need both labels \+1 and -1"):
            M.train_linear_svm(rng.random((10, 4)), np.ones(10), M.TrainConfig())

    def test_label_without_a_class_rejected(self, rng):
        with pytest.raises(ValueError,
                           match=r"^label 0 is not one of the model's labels \[1, -1\]$"):
            M.train_linear_svm(rng.random((10, 4)), np.array([1, 0] * 5), M.TrainConfig())

    def test_all_zero_weights_rejected(self):
        # blank inputs give the hinge subgradient nothing to move w with
        t = np.array([1, -1] * 10)
        with pytest.raises(ValueError, match="all-zero weight vector"):
            M.train_linear_svm(np.zeros((20, 16)), t, M.TrainConfig(epochs=2, batch_size=8))

    def test_divergence_reported_with_epoch(self, rng):
        x = rng.random((40, 16))
        x[3, 5] = np.nan  # the epoch loss over all inputs is non-finite
        t = np.where(x[:, 0] > 0.5, 1, -1)
        with pytest.raises(M.TrainingDivergence,
                           match="non-finite training loss nan at epoch 0") as err:
            M.train_linear_svm(x, t, M.TrainConfig(epochs=3, batch_size=8))
        assert err.value.epoch == 0

    def test_deterministic(self, rng):
        x = rng.random((60, 8))
        t = np.where(x[:, 0] > 0.5, 1, -1)
        cfg = M.TrainConfig(seed=4, epochs=10, batch_size=8, learning_rate=0.1)
        a = M.train_linear_svm(x, t, cfg)
        b = M.train_linear_svm(x, t, cfg)
        assert np.array_equal(a.w, b.w) and a.b == b.b

    @needs_mnist
    def test_front_end_training_keeps_accuracy(self, pair_train, pair_test):
        fe = FrontEndConfig(Basis("cdf97_biorthogonal", 28, 28, 1), rho=0.02)
        cfg = M.TrainConfig(seed=0, epochs=50, batch_size=64, learning_rate=0.3,
                            weight_decay=1e-4)
        plain = M.train_linear_svm(pair_train.images, pair_train.labels, cfg)
        cfg_fe = M.TrainConfig(seed=0, epochs=50, batch_size=64, learning_rate=0.3,
                               weight_decay=1e-4, front_end=fe,
                               clip_recon=True)
        defended = M.train_linear_svm(pair_train.images, pair_train.labels, cfg_fe)
        from sparsefront import frontend as fmod
        test_sp = np.clip(fmod.apply_batch(fe, pair_test.images), 0, 1)
        positive = pair_test.labels == 1
        acc_plain = ((plain.score(pair_test.images) >= 0) == positive).mean()
        acc_def = ((defended.score(test_sp) >= 0) == positive).mean()
        assert acc_def > acc_plain - 0.02


class TestCacheContract:
    """An inference forward caches each layer's switch; a training forward adds only
    what the parameter gradients and dropout read."""

    @staticmethod
    def walk(net, x, train, rng):
        """Each layer's (input, output), from one layer-by-layer forward."""
        h = x.reshape((x.shape[0],) + net.input_shape)
        steps = []
        for layer in net.layers:
            out = layer.forward(h, train=train, rng=rng)[0]
            steps.append((h, out))
            h = out
        return steps

    @pytest.mark.parametrize("train", [False, True], ids=["inference", "train"])
    @pytest.mark.parametrize("arch", [M.PAPER_CNN, M.REDUCED_DENSE, TWO_CONV],
                             ids=["paper_cnn", "reduced_dense", "two_conv"])
    def test_caches_are_switches_plus_gradient_inputs(self, arch, train, rng):
        net = M.build_network(arch, seed=0)
        x = rng.random((2, net.n_inputs))
        g = rng.standard_normal((2, net.n_classes))
        _, caches = net.forward(x, train=train, rng=np.random.default_rng(1))
        steps = self.walk(net, x, train, np.random.default_rng(1))  # the same dropout masks
        for layer, cache, (h, out) in zip(net.layers, caches, steps):
            if isinstance(layer, M.Relu):
                assert cache.dtype == bool and cache.shape == out.shape
            elif isinstance(layer, M.MaxPool2):
                assert cache.dtype.kind == "i" and cache.shape == out.shape
            elif train and isinstance(layer, M.Dense):
                assert np.array_equal(cache, h)
            elif train and isinstance(layer, M.Conv2d):
                assert np.array_equal(cache, layer._cols(h))
            elif train and isinstance(layer, M.Dropout):
                assert cache.shape == out.shape and np.array_equal(h * cache, out)
            else:
                assert cache is None, type(layer).__name__
        if train:
            grads = param_grads(net, g, caches)
            assert [gp.shape for gp in grads] == [p.shape for p in net.params()]
            assert all(np.isfinite(gp).all() for gp in grads)
        else:
            assert net.backward(g, caches).shape == x.shape


# a relu straight on the input, which it would overwrite if forward did not copy
RELU_FIRST = {"input_shape": (6,), "layers": [("relu",), ("dense", 3)]}


class TestCallerArrays:
    """Relu works in place, yet a network never writes the x or g its caller hands it."""

    CALLS = {
        "inference": lambda net, x, g: net.forward(x),
        "train": lambda net, x, g: net.forward(x, train=True, rng=np.random.default_rng(1)),
        "logits": lambda net, x, g: net.logits(x),
        "linearize": lambda net, x, g: net.linearize(x),
        "input_grad": lambda net, x, g: net.backward(g, net.forward(x)[1]),
        "training_step": lambda net, x, g: net.backward(
            g, net.forward(x, train=True, rng=np.random.default_rng(1))[1],
            M.sgd_update(0.01, 1e-4)),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("arch", [M.PAPER_CNN, M.REDUCED_DENSE, RELU_FIRST],
                             ids=["paper_cnn", "reduced_dense", "relu_first"])
    def test_leaves_caller_arrays(self, arch, call, rng):
        net = M.build_network(arch, seed=0)
        x = rng.standard_normal((3, net.n_inputs))
        g = rng.standard_normal((3, net.n_classes))
        x_bytes, g_bytes = x.tobytes(), g.tobytes()
        self.CALLS[call](net, x, g)
        assert x.tobytes() == x_bytes
        assert g.tobytes() == g_bytes


def whole_batch_conv(layer, x):
    """The convolution forward as one im2col over the whole batch: (output, cols)."""
    b, _, h, w = x.shape
    oc = layer.w.shape[0]
    cols = layer._cols(x)
    out = cols @ layer.w.reshape(oc, -1).T
    out += layer.b
    out = np.ascontiguousarray(out.transpose(0, 2, 1))
    return out.reshape(b, oc, h - layer.kh + 1, w - layer.kw + 1), cols


def gemm_scatter_conv_grad(layer, g, x):
    """The convolution input gradient at input x as one im2col-shaped gemm and a
    channel-last scatter.

    dcols = gmat @ wmat is laid out (B, OH, OW, kh, kw, C), and each kernel
    offset's slice is added, in (i, j) order, into a (B, H, W, C) gradient.
    """
    b, c, h, w = x.shape
    oh, ow = g.shape[2:]
    gmat = layer._gmat(g)
    wmat = layer.w.transpose(0, 2, 3, 1).reshape(gmat.shape[1], -1)
    dcols = (gmat @ wmat).reshape(b, oh, ow, layer.kh, layer.kw, c)
    gx = np.zeros((b, h, w, c))
    for i in range(layer.kh):
        for j in range(layer.kw):
            gx[:, i : i + oh, j : j + ow] += dcols[:, :, :, i, j]
    return gx.transpose(0, 3, 1, 2)


def batch_last_conv_grad(layer, g):
    """The convolution input gradient as one batch-last gemm over the whole batch.

    g laid out (OC, OH, OW, B) times the weights, rows in (kh, kw, C) order,
    gives d laid out (kh, kw, C, OH, OW, B); each kernel offset's slice is
    added, in (i, j) order, into a (C, H, W, B) gradient.
    """
    b, oc, oh, ow = g.shape
    c = layer.w.shape[1]
    wmat_t = layer.w.transpose(2, 3, 1, 0).reshape(-1, oc)
    d = wmat_t @ g.transpose(1, 2, 3, 0).reshape(oc, oh * ow * b)
    d = d.reshape(layer.kh, layer.kw, c, oh, ow, b)
    gx = np.zeros((c, oh + layer.kh - 1, ow + layer.kw - 1, b))
    for i in range(layer.kh):
        for j in range(layer.kw):
            gx[:, i : i + oh, j : j + ow] += d[i, j]
    return gx.transpose(3, 0, 1, 2)


# paper_cnn's conv-1 (one input channel) and conv-2 (20), with the shape each reads
PAPER_CONVS = {"conv1": (0, (1, 28, 28)), "conv2": (3, (20, 12, 12))}


class TestBlockedConv:
    """Conv2d.forward builds its im2col M.CONV_ROWS images at a time, bit for bit."""

    @pytest.mark.parametrize("train", [False, True], ids=["inference", "train"])
    @pytest.mark.parametrize("batch", [0, 1, 15, 16, 17, 40, 256])
    @pytest.mark.parametrize("conv", list(PAPER_CONVS))
    def test_matches_whole_batch(self, conv, batch, train, rng):
        index, shape = PAPER_CONVS[conv]
        layer = M.build_network(M.PAPER_CNN, seed=5).layers[index]
        layer.b[:] = rng.standard_normal(layer.b.shape)
        x = rng.standard_normal((batch, *shape))
        want, want_cols = whole_batch_conv(layer, x)
        out, cols = layer.forward(x, train=train)
        assert out.shape == want.shape
        assert out.flags.c_contiguous
        assert np.array_equal(out, want)
        if train:
            assert np.array_equal(cols, want_cols)
        else:
            assert cols is None

    def test_inference_conv_peak(self, rng):
        layer = M.build_network(M.PAPER_CNN, seed=0).layers[3]
        x = rng.random((256, 20, 12, 12))
        # the whole-batch im2col alone is 62.5 MiB
        assert traced_peak_mib(lambda: layer.forward(x)) < 20

    def test_logits_peak(self, rng):
        net = M.build_network(M.PAPER_CNN, seed=0)
        x = rng.random((256, net.n_inputs))
        assert traced_peak_mib(lambda: net.logits(x)) < 60

    def test_training_forward_peak(self, rng):
        net = M.build_network(M.PAPER_CNN, seed=0)
        x = rng.random((64, net.n_inputs))
        peak = traced_peak_mib(lambda: net.forward(x, train=True, rng=np.random.default_rng(1)))
        # 28.7 MiB with the whole-batch forward; blocks must not add to it
        assert peak <= 29.7


# (architecture, layer index, input shape) of paper_cnn's convs and TWO_CONV's
CONV_CASES = {
    **{f"paper_{name}": (M.PAPER_CNN, *case) for name, case in PAPER_CONVS.items()},
    "two_conv1": (TWO_CONV, 0, (2, 9, 9)),
    "two_conv2": (TWO_CONV, 2, (3, 8, 7)),
}


def conv_case(name, batch, rng):
    """A conv layer, a random input batch, and a random output grad."""
    arch, index, shape = CONV_CASES[name]
    layer = M.build_network(arch, seed=5).layers[index]
    x = rng.standard_normal((batch, *shape))
    return layer, x, rng.standard_normal(layer.forward(x)[0].shape)


class TestConvBackward:
    """Conv2d.backward's batch-last kernel, run M.CONV_ROWS images at a time, against
    the whole-batch kernel and the gemm-and-scatter oracle."""

    @pytest.mark.parametrize("batch", [0, 1, 15, 16, 17, 64, 256])
    @pytest.mark.parametrize("conv", list(CONV_CASES))
    def test_blocks_match_whole_batch(self, conv, batch, rng):
        layer, _, g = conv_case(conv, batch, rng)
        gx = layer.backward(g, None)
        want = batch_last_conv_grad(layer, g)
        assert gx.shape == want.shape
        assert gx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [0, 1, 15, 16, 17, 64, 256])
    def test_paper_conv1_bit_identical(self, batch, rng):
        layer, x, g = conv_case("paper_conv1", batch, rng)
        gx = layer.backward(g, None)
        assert gx.shape == (batch, 1, 28, 28)
        assert gx.tobytes() == gemm_scatter_conv_grad(layer, g, x).tobytes()

    @pytest.mark.parametrize("batch", [1, 16, 17, 64])
    @pytest.mark.parametrize("conv", ["paper_conv2", "two_conv1", "two_conv2"])
    def test_within_tolerance(self, conv, batch, rng):
        layer, x, g = conv_case(conv, batch, rng)
        gx = layer.backward(g, None)
        want = gemm_scatter_conv_grad(layer, g, x)
        assert gx.shape == want.shape == x.shape
        assert np.abs(gx - want).max() <= R * np.abs(want).max()

    # over 256 images the whole-batch kernel peaked at 50.6 MiB (conv-1) and
    # 68.4 MiB (conv-2), most of it the 62.5 MiB of conv-2's offset columns
    @pytest.mark.parametrize("conv,bound", [("paper_conv1", 10), ("paper_conv2", 20)])
    def test_peak(self, conv, bound, rng):
        layer, _, g = conv_case(conv, 256, rng)
        assert traced_peak_mib(lambda: layer.backward(g, None)) <= bound


def single_dense(n_in, n_out):
    return M.build_network({"input_shape": (n_in,), "layers": [("dense", n_out)]}, seed=0)


class TestFusedUpdate:
    """backward(g, caches, update) applies SGD inside the backward, bit for bit."""

    @pytest.mark.parametrize("weight_decay", [1e-4, 0.0])
    @pytest.mark.parametrize("batch", [1, 16, 40, 64])
    @pytest.mark.parametrize("arch", [M.PAPER_CNN, M.REDUCED_DENSE],
                             ids=["paper_cnn", "reduced_dense"])
    def test_step_matches_reference(self, arch, batch, weight_decay, rng):
        lr = 0.01
        fused, ref = M.build_network(arch, seed=2), M.build_network(arch, seed=2)
        x = rng.random((batch, fused.n_inputs))
        t = rng.integers(0, fused.n_classes, batch)
        y, caches = ref.forward(x, train=True, rng=np.random.default_rng(5))
        _, g = M._xent_and_grad(y, t)
        grads = param_grads(ref, g, caches)
        for p, gp in zip(ref.params(), grads):
            if p.ndim > 1 and weight_decay:
                gp = gp + weight_decay * p
            p -= lr * gp
        y, caches = fused.forward(x, train=True, rng=np.random.default_rng(5))
        _, g = M._xent_and_grad(y, t)
        assert fused.backward(g, caches, M.sgd_update(lr, weight_decay)) is None
        for a, b in zip(fused.params(), ref.params()):
            assert a.tobytes() == b.tobytes()

    # paper_cnn's and reduced_dense's row-blocked weights, and the 1000x10
    # output layer at a batch where 64-row blocks of it change bits
    @pytest.mark.parametrize("n_in,n_out,batch", [
        *[(n_in, n_out, batch)
          for n_in, n_out in [(640, 1000), (1000, 1000), (784, 256), (256, 256)]
          for batch in (1, 16, 40, 64)],
        (1000, 10, 600),
    ])
    def test_blocks_match_whole_product(self, n_in, n_out, batch, rng):
        net = single_dense(n_in, n_out)
        x = rng.standard_normal((batch, n_in))
        g = rng.standard_normal((batch, n_out))
        _, caches = net.forward(x, train=True)
        grad_w, grad_b = param_grads(net, g, caches)
        assert grad_w.tobytes() == (x.T @ g).tobytes()
        assert grad_b.tobytes() == g.sum(axis=0).tobytes()

    @pytest.mark.parametrize("n_in,n_out,rows", [
        (1000, 10, [1000]),  # at most UPDATE_BLOCK elements: one block
        (640, 1000, [65] * 9 + [55]),
        (3, 70000, [1, 1, 1]),  # a row wider than UPDATE_BLOCK is its own block
    ])
    def test_block_rows(self, n_in, n_out, rows):
        net = single_dense(n_in, n_out)
        _, caches = net.forward(np.ones((2, n_in)), train=True)
        seen = []
        net.backward(np.ones((2, n_out)), caches,
                     lambda p, r, gp: seen.append((p.ndim, len(range(*r.indices(len(p)))))))
        assert seen == [(2, n) for n in rows] + [(1, n_out)]

    def test_training_step_peak(self, rng):
        net = M.build_network(M.PAPER_CNN, seed=0)
        x = rng.random((64, net.n_inputs))
        t = rng.integers(0, net.n_classes, 64)

        def step():
            y, caches = net.forward(x, train=True, rng=np.random.default_rng(1))
            _, g = M._xent_and_grad(y, t)
            net.backward(g, caches, M.sgd_update(0.01, 1e-4))

        # 60.3 MiB with the gradient list and the update's temporaries
        assert traced_peak_mib(step) <= 50


class TestLogitsOp:
    def test_zero_weights_zero_logits(self):
        net = M.build_network(TINY_DENSE, seed=0)
        for p in net.params():
            p[...] = 0.0
        assert np.array_equal(net.logits(np.ones((2, 16))), np.zeros((2, 3)))

    def test_bias_shift_moves_logits_not_softmax(self, rng):
        net = M.build_network(TINY_DENSE, seed=2)
        x = rng.standard_normal((2, 16))
        y0 = net.logits(x)
        net.layers[-1].b += 3.25
        y1 = net.logits(x)
        assert np.allclose(y1 - y0, 3.25, atol=1e-12)
        assert np.allclose(M.softmax(y0), M.softmax(y1), atol=1e-12)

    @pytest.mark.parametrize("arch", [TINY_CNN, M.PAPER_CNN], ids=["tiny_cnn", "paper_cnn"])
    def test_linearize_logits_are_the_forward_logits(self, arch, rng):
        net = M.build_network(arch, seed=4)
        x = rng.random((3, net.n_inputs))
        y, jac = net.linearize(x)
        assert y.tobytes() == net.logits(x).tobytes()
        assert jac.tobytes() == net.input_jacobian(x).tobytes()

    def test_shape_mismatch(self):
        net = M.build_network(TINY_DENSE, seed=0)
        with pytest.raises(ValueError):
            net.logits(np.zeros((1, 17)))

    def test_dense_on_unflattened_input_rejected(self):
        arch = {"input_shape": (1, 8, 8), "layers": [("conv", 3, 3, 3), ("dense", 4)]}
        with pytest.raises(ValueError, match="flatten"):
            M.build_network(arch, seed=0)


class TestSerialization:
    def test_network_roundtrip_exact(self, tmp_path, rng):
        fe = FrontEndConfig(Basis("cdf97_biorthogonal", 8, 8, 2), rho=0.03)
        net = M.build_network(TINY_CNN, seed=9, front_end=fe)
        path = tmp_path / "net.model"
        M.save_model(net, path)
        back = M.load_model(path)
        assert back.input_shape == net.input_shape
        assert back.front_end == fe
        for a, b in zip(net.params(), back.params()):
            assert np.array_equal(a, b)
        x = rng.standard_normal((2, 64))
        assert np.array_equal(net.logits(x), back.logits(x))

    def test_svm_roundtrip_exact(self, tmp_path, rng):
        svm = M.LinearModel(rng.standard_normal(784), -0.125, digits=(4, 9))
        path = tmp_path / "svm.model"
        M.save_model(svm, path)
        back = M.load_model(path)
        assert np.array_equal(back.w, svm.w)
        assert back.b == svm.b
        assert back.front_end is None
        assert back.digits == (4, 9)

    def test_failed_save_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "net.model"
        M.save_model(M.build_network(TINY_CNN, seed=9), path)
        before = path.read_bytes()
        other = M.build_network(TINY_CNN, seed=10)
        real, calls = M.np.ascontiguousarray, []

        def fail_on_second_array(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(M.np, "ascontiguousarray", fail_on_second_array)
        with pytest.raises(OSError, match="disk full"):
            M.save_model(other, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.model"]  # no net.model.tmp

    def test_svm_without_pair_not_saved(self, tmp_path):
        # an in-memory SVM needs no pair, but its model file records one
        with pytest.raises(ValueError, match="digit pair"):
            M.save_model(M.LinearModel(np.ones(4), 0.0), tmp_path / "svm.model")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_model_kind_not_saved(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize object"):
            M.save_model(object(), tmp_path / "x.model")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("arch,front_end", [
        (M.PAPER_CNN, None),
        (M.REDUCED_DENSE, None),
        (TINY_CNN, FrontEndConfig(Basis("haar_orthonormal", 8, 8, 2), rho=0.25)),
    ], ids=["paper_cnn", "reduced_dense", "tiny_cnn_front_end"])
    def test_save_load_save_same_bytes(self, tmp_path, arch, front_end):
        first, second = tmp_path / "first.model", tmp_path / "second.model"
        M.save_model(M.build_network(arch, seed=1, front_end=front_end), first)
        M.save_model(M.load_model(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_paper_cnn_header(self, tmp_path):
        path = tmp_path / "net.model"
        M.save_model(M.build_network(M.PAPER_CNN, seed=0), path)
        assert model_header(path) == (
            b'{"front_end": null, "input_shape": [1, 28, 28], "layers": [["conv", 20, 5, 5], '
            b'["relu"], ["maxpool"], ["conv", 40, 5, 5], ["relu"], ["maxpool"], ["flatten"], '
            b'["dense", 1000], ["relu"], ["dropout", 0.5], ["dense", 1000], ["relu"], '
            b'["dropout", 0.5], ["dense", 10]], "model": "feedforward"}'
        )

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

    @pytest.mark.parametrize("blob", [
        b"not a model",
        M.MODEL_MAGIC + b"\x00\x00",
        M.MODEL_MAGIC + (2).to_bytes(4, "big") + b"{}",
        feedforward_file([["dense"]]),
        feedforward_file([[]]),
        feedforward_file([["dropout", "x"]]),
        feedforward_file([["dropout"]]),
        feedforward_file([["relu", 7]]),
        # shapes far beyond the payload, rejected before any allocation
        linear_file(2**50, payload=bytes(16)),
        feedforward_file([["dense", 2**45]]),
        feedforward_file([["dense", "7"]]),
        linear_file(2, payload=bytes(16), digits=[3]),
        linear_file(2, payload=bytes(16), digits=["3", "7"]),
        linear_file(2, payload=bytes(16), digits=[3, 7, 9]),
        linear_file(2, payload=bytes(16), digits=37),
        linear_file(2, payload=bytes(16), digits=[True, False]),
        linear_file(2, payload=bytes(16), digits=ABSENT),
        linear_file(2, payload=bytes(16), digits=None),
        linear_file(2, payload=bytes(16), front_end=front_end_json(levels=1.5)),
        linear_file(2, payload=bytes(16), front_end=front_end_json(height=28.0)),
        linear_file(2, payload=bytes(16), front_end=front_end_json(levels=True)),
        linear_file(2, payload=bytes(16), front_end=front_end_json(rho=True)),
        linear_file(2, payload=bytes(16), front_end=front_end_json(rho="0.02")),
        feedforward_file([["flatten"]], input_shape=[1, 28.0, 28]),
        feedforward_file([["dense", 2]], input_shape=[True]),
        feedforward_file([["dense", 2]], input_shape=[0]),
        linear_file(2, payload=bytes(16), b="1"),
        linear_file(2, payload=bytes(16), b=None),
        linear_file(2, payload=bytes(16), b=[1]),
        linear_file(2, payload=bytes(16), b=True),
        linear_file(2, payload=bytes(16), b=float("nan")),
        linear_file(2, payload=bytes(16), b=float("-inf")),
        linear_file(2, payload=bytes(16), b=10**400),
        linear_file(2, payload=np.array([0.0, np.nan], "<f8").tobytes()),
        feedforward_file([["dense", 1]], input_shape=[1])
        + np.array([np.inf, 0.0], "<f8").tobytes(),
        linear_file(2, payload=bytes(16), model="bogus"),
        # payloads of the size the layers imply, so only the missing final dense fails
        feedforward_file([["dense", 10], ["relu"]]) + bytes(8 * (4 * 10 + 10)),
        feedforward_file([["flatten"]]),
        feedforward_file([]),
        # a 25x25 max-pool input; the payload is the size the layers imply
        feedforward_file([["conv", 2, 4, 4], ["relu"], ["maxpool"], ["flatten"], ["dense", 10]],
                         input_shape=[1, 28, 28]) + bytes(8 * (2 * 4 * 4 + 2 + 288 * 10 + 10)),
        # files no command could run; each payload is the size the layers imply
        feedforward_file([["dense", 0]]),
        feedforward_file([["conv", 2, 0, 0], ["flatten"], ["dense", 10]],
                         input_shape=[1, 28, 28]) + bytes(8 * (2 + 2 * 29 * 29 * 10 + 10)),
        feedforward_file([["conv", 2, 30, 30], ["flatten"], ["dense", 10]],
                         input_shape=[1, 28, 28]) + bytes(8 * (2 * 30 * 30 + 2 + 2 * 10 + 10)),
        linear_file(2, payload=bytes(16), digits=[3, 3]),
        linear_file(2, payload=bytes(16), digits=[3, 12]),
        # a front end whose size is not the model's input width
        linear_file(784, payload=bytes(8 * 784), front_end=front_end_json(height=32, width=32)),
        feedforward_file([["dense", 10]], input_shape=[784],
                         front_end=front_end_json(height=32, width=32))
        + bytes(8 * (784 * 10 + 10)),
        linear_file(784, payload=bytes(8 * 784), front_end=front_end_json(extra=1)),
        linear_file(784, payload=bytes(8 * 784),
                    front_end={k: v for k, v in front_end_json().items() if k != "levels"}),
        feedforward_file([["dropout", False], ["dense", 1]], input_shape=[1]) + bytes(16),
    ], ids=["no_magic", "short_header_length", "header_without_fields",
            "layer_without_size", "empty_layer", "non_numeric_dropout_rate",
            "dropout_without_rate", "relu_with_value", "huge_svm_dim", "huge_dense_layer",
            "non_integer_dense_size", "one_digit", "string_digits", "three_digits",
            "number_digits", "bool_digits", "absent_digits", "null_digits", "fractional_levels",
            "float_height", "bool_levels", "bool_rho", "string_rho", "float_input_shape",
            "bool_input_shape", "zero_input_shape", "string_bias", "null_bias", "list_bias",
            "bool_bias", "nan_bias", "infinite_bias", "overflowing_bias", "nan_svm_weight",
            "infinite_dense_weight", "unknown_model_type", "ends_in_relu", "ends_in_flatten", "no_layers",
            "odd_maxpool_input", "empty_dense_layer", "empty_conv_kernel", "kernel_over_input",
            "repeated_digit", "digit_out_of_range", "svm_front_end_too_wide",
            "network_front_end_too_wide", "extra_front_end_field", "missing_front_end_field",
            "bool_dropout_rate"])
    def test_bad_file_rejected(self, tmp_path, blob):
        path = tmp_path / "junk.model"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="junk.model"):
            M.load_model(path)

    def test_linear_file_defaults_load(self, tmp_path):
        # so each linear_file case above is refused for its own field
        path = tmp_path / "svm.model"
        path.write_bytes(linear_file(2, payload=bytes(16)))
        model = M.load_model(path)
        assert (model.n_inputs, model.b, model.digits, model.front_end) == (2, 0.0, (3, 7), None)

    # a real-valued field that is not a number is refused by name, not by a comparison
    @pytest.mark.parametrize("blob,message", [
        (linear_file(2, payload=bytes(16), front_end=front_end_json(rho="0.02")),
         "rho must be a number in (0, 1], got '0.02'"),
        (feedforward_file([["dropout", "x"]]), "dropout rate must be a number in [0, 1), got 'x'"),
    ], ids=["string_rho", "non_numeric_dropout_rate"])
    def test_bad_real_names_the_field(self, tmp_path, blob, message):
        path = tmp_path / "junk.model"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as err:
            M.load_model(path)
        assert str(err.value).startswith(f"{path}: malformed model header")
        assert str(err.value).endswith(f"(ValueError: {message})")
