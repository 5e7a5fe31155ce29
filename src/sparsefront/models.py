"""Classifiers under attack: a linear SVM and a small piecewise-linear network.

Everything is plain numpy. The network is built from convolution, dense,
relu, 2x2 max-pool, dropout and flatten layers; every nonlinearity is
piecewise linear, so fixing the relu activity bits and pool argmax choices
("switches") at an input makes the logit map exactly affine there. Softmax is
applied only outside the logit map.

Training is deterministic: identical config and seed reproduce identical
weights bit for bit (seeded init, seeded shuffling, seeded dropout, fixed
iteration order).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import frontend as frontend_mod
from .frontend import FrontEndConfig
from .transform import Basis

__all__ = [
    "LinearModel",
    "FeedforwardNetwork",
    "TrainConfig",
    "TrainingDivergence",
    "PAPER_CNN",
    "REDUCED_DENSE",
    "build_network",
    "train_linear_svm",
    "train_network",
    "logits",
    "softmax",
    "save_model",
    "load_model",
]

MODEL_MAGIC = b"SPFRONT1\n"


class TrainingDivergence(RuntimeError):
    def __init__(self, epoch, loss):
        super().__init__(f"non-finite training loss {loss} at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    seed: int = 0
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 0.01
    lr_decay_every: int = 0  # 0 = constant schedule
    lr_decay_factor: float = 0.5
    weight_decay: float = 1e-4
    dropout_rate: float = 0.5
    front_end: FrontEndConfig | None = None
    clip_recon: bool = False  # clamp sparsified training inputs to [0, 1]

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    def lr_at(self, epoch):
        if self.lr_decay_every <= 0:
            return self.learning_rate
        return self.learning_rate * self.lr_decay_factor ** (epoch // self.lr_decay_every)


def softmax(y):
    """Stable softmax along the last axis."""
    y = np.asarray(y, dtype=np.float64)
    shifted = y - np.max(y, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _sparsify_for_training(images, config):
    if config.front_end is None:
        return images
    out = frontend_mod.apply_batch(config.front_end, images)
    return np.clip(out, 0.0, 1.0) if config.clip_recon else out


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------


@dataclass
class LinearModel:
    """Binary linear classifier sign(w.x + b) over labels {+1, -1}."""

    w: np.ndarray
    b: float
    front_end: FrontEndConfig | None = None

    def score(self, images):
        return np.asarray(images) @ self.w + self.b

    def predict(self, images):
        # sign(0) counts as +1 so predictions are total
        return np.where(self.score(images) >= 0.0, 1, -1)


def train_linear_svm(images, labels, config: TrainConfig) -> LinearModel:
    """L2-regularized hinge loss via epoch-ordered subgradient descent.

    Labels must be +1/-1 with both classes present. When config.front_end is
    set, every training input is sparsified first and the returned model
    carries the front-end config.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if not np.array_equal(classes, [-1, 1]):
        raise ValueError(f"need both labels +1 and -1, got classes {classes}")
    images = _sparsify_for_training(images, config)
    n, dim = images.shape
    w = np.zeros(dim)
    b = 0.0
    mu = config.weight_decay
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = images[idx], labels[idx]
            margin = yb * (xb @ w + b)
            viol = margin < 1.0
            bsz = idx.size
            grad_w = mu * w - (yb[viol, None] * xb[viol]).sum(axis=0) / bsz
            grad_b = -yb[viol].sum() / bsz
            w -= lr * grad_w
            b -= lr * grad_b
        loss = np.maximum(0.0, 1.0 - labels * (images @ w + b)).mean() + 0.5 * mu * (w @ w)
        if not np.isfinite(loss):
            raise TrainingDivergence(epoch, loss)
    if not np.any(w):
        raise RuntimeError("SVM training produced an all-zero weight vector")
    return LinearModel(w, float(b), config.front_end)


# ---------------------------------------------------------------------------
# Network layers. forward returns (output, cache); backward consumes the
# cache and returns (input grad, [param grads]); the list is empty when
# param_grads is False or the layer has no parameters. switch_of extracts the
# piecewise-linear switch payload from a cache; forward_frozen replays the
# layer with that payload fixed.
# ---------------------------------------------------------------------------


class Dense:
    def __init__(self, n_in, n_out, rng):
        self.w = rng.standard_normal((n_in, n_out)) * np.sqrt(2.0 / n_in)
        self.b = np.zeros(n_out)

    def spec(self):
        return ("dense", self.w.shape[1])

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=False, rng=None):
        return x @ self.w + self.b, x

    def backward(self, g, cache, param_grads):
        x = cache
        return g @ self.w.T, ([x.T @ g, g.sum(axis=0)] if param_grads else [])

    def switch_of(self, cache):
        return None

    def forward_frozen(self, x, switch):
        return x @ self.w + self.b


class Relu:
    def spec(self):
        return ("relu",)

    def params(self):
        return []

    def forward(self, x, train=False, rng=None):
        mask = x > 0
        return x * mask, mask

    def backward(self, g, cache, param_grads):
        return g * cache, []

    def switch_of(self, cache):
        return cache

    def forward_frozen(self, x, switch):
        return x * switch


class Conv2d:
    """Valid-padding stride-1 convolution over (B, C, H, W) activations."""

    def __init__(self, in_ch, out_ch, kh, kw, rng):
        fan_in = in_ch * kh * kw
        self.w = rng.standard_normal((out_ch, in_ch, kh, kw)) * np.sqrt(2.0 / fan_in)
        self.b = np.zeros(out_ch)
        self.kh, self.kw = kh, kw

    def spec(self):
        return ("conv", self.w.shape[0], self.kh, self.kw)

    def params(self):
        return [self.w, self.b]

    def _cols(self, x):
        # (B, C, H, W) -> (B, OH*OW, C*kh*kw)
        windows = np.lib.stride_tricks.sliding_window_view(x, (self.kh, self.kw), axis=(2, 3))
        b, c, oh, ow = windows.shape[:4]
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, c * self.kh * self.kw)
        return cols, oh, ow

    def forward(self, x, train=False, rng=None):
        cols, oh, ow = self._cols(x)
        wmat = self.w.reshape(self.w.shape[0], -1)
        out = cols @ wmat.T + self.b
        out = out.transpose(0, 2, 1).reshape(x.shape[0], self.w.shape[0], oh, ow)
        return out, (cols, x.shape, oh, ow)

    def backward(self, g, cache, param_grads):
        cols, x_shape, oh, ow = cache
        b, c, h, w_ = x_shape
        oc = self.w.shape[0]
        gmat = g.reshape(b, oc, oh * ow).transpose(0, 2, 1).reshape(b * oh * ow, oc)  # (B*P, OC)
        grads = []
        if param_grads:
            grad_w = gmat.T @ cols.reshape(b * oh * ow, -1)
            grads = [grad_w.reshape(self.w.shape), gmat.sum(axis=0)]
        # Weight columns in (kh, kw, C) order make each kernel offset's slice
        # of dcols a run of contiguous channels, added into a channel-last gx.
        wmat = self.w.transpose(0, 2, 3, 1).reshape(oc, -1)
        dcols = (gmat @ wmat).reshape(b, oh, ow, self.kh, self.kw, c)
        gx = np.zeros((b, h, w_, c))
        for i in range(self.kh):
            for j in range(self.kw):
                gx[:, i : i + oh, j : j + ow] += dcols[:, :, :, i, j]
        return gx.transpose(0, 3, 1, 2), grads

    def switch_of(self, cache):
        return None

    def forward_frozen(self, x, switch):
        return self.forward(x)[0]


class MaxPool2:
    """2x2 max pooling, stride 2; the argmax within each window is the switch."""

    def spec(self):
        return ("maxpool",)

    def params(self):
        return []

    @staticmethod
    def _windows(x):
        b, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"max pool needs even spatial dims, got {h}x{w}")
        return x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
            b, c, h // 2, w // 2, 4
        )

    def forward(self, x, train=False, rng=None):
        win = self._windows(x)
        idx = win.argmax(axis=-1)
        out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        return out, (idx, x.shape)

    def backward(self, g, cache, param_grads):
        idx, x_shape = cache
        b, c, h, w = x_shape
        dwin = np.zeros((b, c, h // 2, w // 2, 4))
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        gx = dwin.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(x_shape)
        return gx, []

    def switch_of(self, cache):
        return cache[0]

    def forward_frozen(self, x, switch):
        win = self._windows(x)
        return np.take_along_axis(win, switch[..., None], axis=-1)[..., 0]


class Dropout:
    """Inverted dropout; active only when train=True. No switch: inference is identity."""

    def __init__(self, rate):
        self.rate = rate

    def spec(self):
        return ("dropout", self.rate)

    def params(self):
        return []

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            return x, None
        keep = 1.0 - self.rate
        mask = (rng.random(x.shape) < keep) / keep
        return x * mask, mask

    def backward(self, g, cache, param_grads):
        return (g if cache is None else g * cache), []

    def switch_of(self, cache):
        return None

    def forward_frozen(self, x, switch):
        return x


class Flatten:
    def spec(self):
        return ("flatten",)

    def params(self):
        return []

    def forward(self, x, train=False, rng=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, g, cache, param_grads):
        return g.reshape(cache), []

    def switch_of(self, cache):
        return None

    def forward_frozen(self, x, switch):
        return x.reshape(x.shape[0], -1)


# Architecture presets. PAPER_CNN is the full-scale topology; REDUCED_DENSE
# is the fast preset for CI-scale runs.
PAPER_CNN = {
    "input_shape": (1, 28, 28),
    "layers": [
        ("conv", 20, 5, 5),
        ("relu",),
        ("maxpool",),
        ("conv", 40, 5, 5),
        ("relu",),
        ("maxpool",),
        ("flatten",),
        ("dense", 1000),
        ("relu",),
        ("dropout",),
        ("dense", 1000),
        ("relu",),
        ("dropout",),
        ("dense", 10),
    ],
}

REDUCED_DENSE = {
    "input_shape": (784,),
    "layers": [
        ("dense", 256),
        ("relu",),
        ("dense", 256),
        ("relu",),
        ("dense", 10),
    ],
}

ARCH_PRESETS = {"paper_cnn": PAPER_CNN, "reduced_dense": REDUCED_DENSE}


@dataclass
class SwitchState:
    """Per-layer switch payloads recorded at one input, plus the anchor logits."""

    entries: list
    logits: np.ndarray


class FeedforwardNetwork:
    """Piecewise-linear logit map: an ordered stack of layers over flat inputs."""

    def __init__(self, layers, input_shape, front_end=None):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.front_end = front_end

    @property
    def n_inputs(self):
        return int(np.prod(self.input_shape))

    @property
    def n_classes(self):
        return self.layers[-1].b.shape[0]

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def _shape_in(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n_inputs:
            raise ValueError(f"expected inputs of length {self.n_inputs}, got {x.shape}")
        return x.reshape((x.shape[0],) + self.input_shape)

    def forward(self, x, train=False, rng=None):
        """(B, N) flat inputs -> ((B, L) logits, caches)."""
        h = self._shape_in(x)
        caches = []
        for layer in self.layers:
            h, cache = layer.forward(h, train=train, rng=rng)
            caches.append(cache)
        return h, caches

    def backward(self, g, caches, param_grads=True):
        """Output grad (B, L) -> (input grad (B, N), param grads list).

        With param_grads=False the layers skip their parameter gradients and
        the list comes back empty; the input grad is the same.
        """
        grads = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            g, pg = layer.backward(g, cache, param_grads)
            grads[:0] = pg
        return g.reshape(g.shape[0], -1), grads

    def input_jacobian(self, x):
        """(B, N) inputs -> (B, L, N) Jacobian of the logits at each input."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        b = x.shape[0]
        _, caches = self.forward(x)
        jac = np.empty((b, self.n_classes, x.shape[1]))
        for i in range(self.n_classes):
            g = np.zeros((b, self.n_classes))
            g[:, i] = 1.0
            jac[:, i, :], _ = self.backward(g, caches, param_grads=False)
        return jac

    def switch_state(self, x):
        """Record relu masks and pool argmax choices at a single flat input."""
        y, caches = self.forward(np.atleast_2d(x))
        entries = [layer.switch_of(cache) for layer, cache in zip(self.layers, caches)]
        return SwitchState(entries, y[0])

    def forward_frozen(self, x, state: SwitchState):
        """Replay the forward pass with all switches fixed; affine in x."""
        h = self._shape_in(np.atleast_2d(x))
        for layer, switch in zip(self.layers, state.entries):
            h = layer.forward_frozen(h, switch)
        return h


def build_network(arch, seed, dropout_rate=0.5, front_end=None) -> FeedforwardNetwork:
    """Instantiate an architecture spec with seeded He initialization."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A7]))
    input_shape = tuple(arch["input_shape"])
    layers = []
    shape = input_shape
    for entry in arch["layers"]:
        kind = entry[0]
        if kind == "conv":
            _, out_ch, kh, kw = entry
            c, h, w = shape
            layers.append(Conv2d(c, out_ch, kh, kw, rng))
            shape = (out_ch, h - kh + 1, w - kw + 1)
        elif kind == "relu":
            layers.append(Relu())
        elif kind == "maxpool":
            c, h, w = shape
            layers.append(MaxPool2())
            shape = (c, h // 2, w // 2)
        elif kind == "dropout":
            rate = entry[1] if len(entry) > 1 else dropout_rate
            layers.append(Dropout(rate))
        elif kind == "flatten":
            layers.append(Flatten())
            shape = (int(np.prod(shape)),)
        elif kind == "dense":
            if len(shape) > 1:
                layers.append(Flatten())
                shape = (int(np.prod(shape)),)
            layers.append(Dense(shape[0], entry[1], rng))
            shape = (entry[1],)
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return FeedforwardNetwork(layers, input_shape, front_end)


def logits(net: FeedforwardNetwork, x) -> np.ndarray:
    """Deterministic forward pass with dropout disabled; accepts (N,) or (B, N)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    y, _ = net.forward(np.atleast_2d(x))
    return y[0] if single else y


def _xent_and_grad(y, labels):
    p = softmax(y)
    n = y.shape[0]
    eps = 1e-300  # guards log(0); softmax keeps entries strictly positive anyway
    loss = -np.log(p[np.arange(n), labels] + eps).mean()
    g = p
    g[np.arange(n), labels] -= 1.0
    return loss, g / n


def train_network(images, labels, config: TrainConfig, arch=REDUCED_DENSE,
                  log=None) -> FeedforwardNetwork:
    """SGD on softmax cross-entropy. Deterministic given config.seed.

    When config.front_end is set, all training inputs are sparsified first
    and the returned network carries the front-end config.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    images = _sparsify_for_training(images, config)
    net = build_network(arch, config.seed, config.dropout_rate, config.front_end)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5F]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD0]))
    n = images.shape[0]
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            y, caches = net.forward(images[idx], train=True, rng=dropout_rng)
            loss, g = _xent_and_grad(y, labels[idx])
            epoch_loss += loss * idx.size
            if not np.isfinite(loss):
                raise TrainingDivergence(epoch, loss)
            _, grads = net.backward(g, caches)
            params = net.params()
            for p, gp in zip(params, grads):
                if p.ndim > 1 and config.weight_decay:
                    gp = gp + config.weight_decay * p
                p -= lr * gp
        if log is not None:
            log(epoch, epoch_loss / n)
    return net


# ---------------------------------------------------------------------------
# Serialization: versioned header + raw little-endian float64 buffers. The
# byte stream is a pure function of the model, so identical models produce
# identical files.
# ---------------------------------------------------------------------------


def _front_end_to_json(fe):
    if fe is None:
        return None
    return {
        "kind": fe.basis.kind,
        "height": fe.basis.height,
        "width": fe.basis.width,
        "levels": fe.basis.levels,
        "rho": fe.rho,
    }


def _front_end_from_json(obj):
    if obj is None:
        return None
    basis = Basis(obj["kind"], obj["height"], obj["width"], obj["levels"])
    return FrontEndConfig(basis, obj["rho"])


def save_model(model, path):
    """Write a LinearModel or FeedforwardNetwork to a versioned binary file."""
    if isinstance(model, LinearModel):
        header = {
            "model": "linear_svm",
            "dim": int(model.w.shape[0]),
            "b": model.b,
            "front_end": _front_end_to_json(model.front_end),
        }
        arrays = [model.w]
    elif isinstance(model, FeedforwardNetwork):
        header = {
            "model": "feedforward",
            "input_shape": list(model.input_shape),
            "layers": [list(layer.spec()) for layer in model.layers],
            "front_end": _front_end_to_json(model.front_end),
        }
        arrays = model.params()
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack(">I", len(blob)))
        f.write(blob)
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_model(path):
    """Inverse of save_model; round-trip is exact.

    Raises ValueError when the file is not a model file, or when its payload
    is shorter or longer than the header's parameter shapes imply.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(MODEL_MAGIC):
        raise ValueError(f"{path}: not a sparsefront model file")
    off = len(MODEL_MAGIC)
    (hlen,) = struct.unpack(">I", raw[off : off + 4])
    off += 4
    header = json.loads(raw[off : off + hlen])
    off += hlen

    fe = _front_end_from_json(header["front_end"])
    if header["model"] == "linear_svm":
        model = LinearModel(np.empty(header["dim"]), header["b"], fe)
        arrays = [model.w]
    elif header["model"] == "feedforward":
        model = build_network(
            {"input_shape": header["input_shape"], "layers": header["layers"]},
            seed=0,
            front_end=fe,
        )
        arrays = model.params()
    else:
        raise ValueError(f"{path}: unknown model type {header['model']!r}")
    expected = 8 * sum(a.size for a in arrays)
    if len(raw) - off != expected:
        raise ValueError(f"{path}: payload is {len(raw) - off} bytes, header implies {expected}")
    for a in arrays:
        a[...] = np.frombuffer(raw, "<f8", count=a.size, offset=off).reshape(a.shape)
        off += 8 * a.size
    return model
