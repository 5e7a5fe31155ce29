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

import dataclasses
import itertools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import frontend as frontend_mod
from .data import check_int, check_pair, check_real, write_atomically
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
    "class_indices",
    "train_linear_svm",
    "train_network",
    "softmax",
    "save_model",
    "load_model",
]

MODEL_MAGIC = b"SPFRONT1\n"
LR_DECAY_FACTOR = 0.5  # learning-rate multiplier every lr_decay_every epochs
CONV_ROWS = 16  # images per block in Conv2d.forward (im2col) and Conv2d.backward
UPDATE_BLOCK = 65536  # weight-gradient elements per block handed to update (512 KiB)


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
    weight_decay: float = 1e-4
    front_end: FrontEndConfig | None = None
    clip_recon: bool = False  # clamp sparsified training inputs to [0, 1]

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0), ("lr_decay_every", 0)):
            check_int(name, getattr(self, name), low)
        check_real("learning_rate", self.learning_rate, "(0, inf)")
        check_real("weight_decay", self.weight_decay, "[0, inf)")

    def lr_at(self, epoch):
        if self.lr_decay_every == 0:
            return self.learning_rate
        return self.learning_rate * LR_DECAY_FACTOR ** (epoch // self.lr_decay_every)


def softmax(y):
    """Stable softmax along the last axis."""
    y = np.asarray(y, dtype=np.float64)
    shifted = y - np.max(y, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def class_indices(class_labels, labels):
    """Each label's index in class_labels; ValueError on no labels or a label with no class."""
    label_of = np.asarray(class_labels)
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty dataset")
    hit = labels[:, None] == label_of
    unknown = ~hit.any(axis=1)
    if unknown.any():
        raise ValueError(f"label {labels[unknown][0]} is not one of the model's labels "
                         f"{label_of.tolist()}")
    return hit.argmax(axis=1)


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------


@dataclass
class LinearModel:
    """Binary linear classifier sign(w.x + b) over labels {+1, -1}.

    As a two-logit model its logits are (score, 0): class 0 is label +1 and
    class 1 is label -1, and argmax's first-max rule gives +1 at score 0.
    `digits` is the MNIST digit pair (label +1, label -1) it was trained on.
    A model without a pair serves library and test use, but `save_model`
    writes only a model with one.
    """

    w: np.ndarray
    b: float
    front_end: FrontEndConfig | None = None
    digits: tuple | None = None
    class_labels = (1, -1)  # the label of each logit; not a field

    @property
    def n_inputs(self):
        return self.w.shape[0]

    def score(self, images):
        return np.asarray(images) @ self.w + self.b

    def logits(self, images):
        """(B, N) inputs -> (B, 2) logits (score, 0)."""
        s = self.score(images)
        return np.stack([s, np.zeros_like(s)], axis=1)

    def linearize(self, x):
        """(B, N) inputs -> ((B, 2) logits, (B, 2, N) Jacobian with rows (w, 0))."""
        x = np.asarray(x, dtype=np.float64)
        jac = np.zeros((x.shape[0], 2, x.shape[1]))
        jac[:, 0] = self.w
        return self.logits(x), jac


def train_linear_svm(images, labels, config: TrainConfig) -> LinearModel:
    """L2-regularized hinge loss via epoch-ordered subgradient descent.

    Raises ValueError, before any training, on an empty split, on a label
    that is not one of LinearModel.class_labels, and on a split without both
    labels. When config.front_end is set, every training input is sparsified
    first and the returned model carries the front-end config.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    if np.unique(class_indices(LinearModel.class_labels, labels)).size < 2:
        raise ValueError(f"need both labels +1 and -1, got classes {np.unique(labels)}")
    images = frontend_mod.defend(config.front_end, images, config.clip_recon)
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
        raise ValueError("SVM training produced an all-zero weight vector")
    return LinearModel(w, float(b), config.front_end)


# ---------------------------------------------------------------------------
# Network layers. forward returns (output, cache) and backward(g, cache) the
# input grad. An inference forward's cache is the layer's switch (Relu's
# mask, MaxPool2's argmax slots) or None; a train=True forward adds Dropout's
# mask and what param_grads(g, cache, update) reads, Dense's input and
# Conv2d's whole-batch im2col cols. No cache holds a shape. update(p, rows,
# gp) gets the gradient gp of p[rows], a weight in blocks of rows.
# Relu overwrites its input in forward and its g in backward. That is safe
# because no layer caches its own output, FeedforwardNetwork.forward copies
# its input once, and a network ends in a dense layer, so the g a relu gets
# was made fresh by a layer above it.
# ---------------------------------------------------------------------------


def _weight_grad(a, g, w, update):
    """Hand update the weight gradient a.T @ g of w in blocks of whole rows.

    A block holds at most UPDATE_BLOCK elements (or one row), so update finds
    it in cache. Each row of the product is its own sum over the batch, and
    row blocks of paper_cnn's and reduced_dense's wide weights match the whole
    product bit for bit. A weight of at most UPDATE_BLOCK elements is one
    block: 64-row blocks of a 1000x10 weight changed bits at batch 400.
    """
    n_rows = w.shape[0]
    step = max(1, UPDATE_BLOCK // max(1, math.prod(w.shape[1:])))
    buf = np.empty((min(step, n_rows), g.shape[1]))
    for start in range(0, n_rows, step):
        rows = slice(start, min(start + step, n_rows))
        block = np.matmul(a[:, rows].T, g, out=buf[: rows.stop - start])
        update(w, rows, block.reshape((-1,) + w.shape[1:]))


class Dense:
    def __init__(self, w, b):
        self.w, self.b = w, b  # (n_in, n_out), (n_out,)

    def params(self):
        return [self.w, self.b]

    def forward(self, x, train=False, rng=None):
        return x @ self.w + self.b, (x if train else None)

    def backward(self, g, cache):
        return g @ self.w.T

    def param_grads(self, g, cache, update):
        _weight_grad(cache, g, self.w, update)
        update(self.b, slice(None), g.sum(axis=0))


class _NoParams:
    """Base of the layers without parameters: Relu, MaxPool2, Dropout and Flatten."""

    def params(self):
        return []


class Relu(_NoParams):
    def forward(self, x, train=False, rng=None):
        mask = x > 0
        x *= mask
        return x, mask

    def backward(self, g, cache):
        g *= cache
        return g


class Conv2d:
    """Valid-padding stride-1 convolution over (B, C, H, W) activations."""

    def __init__(self, w, b):
        self.w, self.b = w, b  # (out_ch, in_ch, kh, kw), (out_ch,)
        self.kh, self.kw = w.shape[2:]

    def params(self):
        return [self.w, self.b]

    def _cols(self, x):
        # (B, C, H, W) -> (B, OH*OW, C*kh*kw)
        windows = np.lib.stride_tricks.sliding_window_view(x, (self.kh, self.kw), axis=(2, 3))
        b, c, oh, ow = windows.shape[:4]
        return windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, oh * ow, c * self.kh * self.kw)

    def forward(self, x, train=False, rng=None):
        b, _, h, w_ = x.shape
        oc = self.w.shape[0]
        oh, ow = h - self.kh + 1, w_ - self.kw + 1
        wmat_t = self.w.reshape(oc, -1).T
        # A training forward keeps one whole-batch cols for backward's single
        # grad_w gemm; an inference forward builds cols one block at a time.
        cols = self._cols(x) if train else None
        # channel-first memory, so the relu and pool that follow run unstrided
        out = np.empty((b, oc, oh * ow))
        for start in range(0, b, CONV_ROWS):
            rows = slice(start, start + CONV_ROWS)
            block = cols[rows] if train else self._cols(x[rows])
            # a stacked matmul runs one gemm per image, so no row's bits
            # depend on the block size
            y = block @ wmat_t
            y += self.b
            out[rows] = y.transpose(0, 2, 1)
        return out.reshape(b, oc, oh, ow), cols

    def _gmat(self, g):
        b, oc, oh, ow = g.shape
        return g.reshape(b, oc, oh * ow).transpose(0, 2, 1).reshape(b * oh * ow, oc)  # (B*P, OC)

    def param_grads(self, g, cache, update):
        gmat = self._gmat(g)
        _weight_grad(gmat, cache.reshape(gmat.shape[0], -1), self.w, update)
        update(self.b, slice(None), gmat.sum(axis=0))

    def backward(self, g, cache):
        b, oc, oh, ow = g.shape
        c = self.w.shape[1]
        h, w_ = oh + self.kh - 1, ow + self.kw - 1
        # Batch last, CONV_ROWS images at a time: a block of g laid out
        # (OC, OH, OW, n), and one gemm with weight rows in (kh, kw, C) order
        # gives d laid out (kh, kw, C, OH, OW, n). Each kernel offset's slice of
        # d is added, in (i, j) order, into a block gradient laid out
        # (C, H, W, n), so every add runs over OW*n contiguous values. The
        # gemm's row count is kh*kw*C at every block size, so no value
        # depends on the block.
        wmat_t = self.w.transpose(2, 3, 1, 0).reshape(-1, oc)
        gx = np.empty((b, c, h, w_))
        for start in range(0, b, CONV_ROWS):
            block = g[start : start + CONV_ROWS]
            n = block.shape[0]
            d = wmat_t @ block.transpose(1, 2, 3, 0).reshape(oc, oh * ow * n)
            d = d.reshape(self.kh, self.kw, c, oh, ow, n)
            acc = np.zeros((c, h, w_, n))
            for i in range(self.kh):
                for j in range(self.kw):
                    acc[:, i : i + oh, j : j + ow] += d[i, j]
            gx[start : start + n] = acc.transpose(3, 0, 1, 2)
        return gx


class MaxPool2(_NoParams):
    """2x2 max pooling, stride 2, over even spatial dims (_assemble checks them);
    the argmax within each window is the switch."""

    def forward(self, x, train=False, rng=None):
        # Slot 2*dy + dx of each window is the strided view x[:, :, dy::2, dx::2].
        # A later slot wins only when strictly greater, the first-max rule of
        # argmax; np.maximum would not do, since it turns max(-0.0, +0.0) into +0.0.
        views = [x[:, :, dy::2, dx::2] for dy in (0, 1) for dx in (0, 1)]
        out = views[0]
        idx = np.zeros(out.shape, dtype=np.intp)
        for slot in (1, 2, 3):
            greater = views[slot] > out
            out = np.where(greater, views[slot], out)
            idx = np.where(greater, slot, idx)
        return out, idx

    def backward(self, g, idx):
        b, c, oh, ow = idx.shape
        h, w = 2 * oh, 2 * ow  # the input's spatial dims
        # Flat position in x of each window's argmax. Slot 2*dy + dx of the
        # window at `corner` is x's entry corner + w*dy + dx, which is
        # corner + (w - 2)*dy + slot.
        corner = (
            (h * w) * np.arange(b * c).reshape(b, c, 1, 1)
            + (2 * w) * np.arange(oh)[:, None]
            + 2 * np.arange(ow)
        )
        pos = corner + (w - 2) * (idx // 2) + idx
        gx = np.zeros(b * c * h * w)
        gx[pos.ravel()] = g.ravel()
        return gx.reshape(b, c, h, w)


class Dropout(_NoParams):
    """Inverted dropout; active only when train=True. No switch: inference is identity."""

    def __init__(self, rate):
        check_real("dropout rate", rate, "[0, 1)")
        self.rate = rate

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            return x, None
        keep = 1.0 - self.rate
        mask = (rng.random(x.shape) < keep) / keep
        return x * mask, mask

    def backward(self, g, cache):
        return g if cache is None else g * cache


class Flatten(_NoParams):
    def __init__(self, shape):
        self.shape = shape  # the per-sample shape it flattens

    def forward(self, x, train=False, rng=None):
        return x.reshape(x.shape[0], -1), None

    def backward(self, g, cache):
        return g.reshape((g.shape[0],) + self.shape)


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
        ("dropout", 0.5),
        ("dense", 1000),
        ("relu",),
        ("dropout", 0.5),
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

# layer kind -> the number of values that follow it in a layer entry
LAYER_VALUES = {"conv": 3, "relu": 0, "maxpool": 0, "dropout": 1, "flatten": 0, "dense": 1}


class FeedforwardNetwork:
    """Piecewise-linear logit map: an ordered stack of layers over flat inputs."""

    def __init__(self, layers, arch, front_end=None):
        self.layers = layers
        self.arch = arch  # the validated architecture the layers were built from
        self.input_shape = tuple(arch["input_shape"])
        self.front_end = front_end

    @property
    def n_inputs(self):
        return int(np.prod(self.input_shape))

    @property
    def n_classes(self):
        return self.layers[-1].b.shape[0]

    @property
    def class_labels(self):  # class i is label i
        return range(self.n_classes)

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def _shape_in(self, x):
        # a copy: relu layers overwrite their input, and x may be the caller's
        x = np.array(x, dtype=np.float64)
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

    def backward(self, g, caches, update=None):
        """Output grad (B, L) -> input grad (B, N); with update, one training step.

        Without update no parameter gradient is made. With update the caches
        must come from a train=True forward: each layer's parameter gradients
        go to update(p, rows, gp) as they are made, after the layer's input
        grad has read its weights, so update may change p[rows] in place; no
        input grad is made for the first parametric layer or below it, and
        None is returned.
        """
        if update is None:
            for layer, cache in zip(reversed(self.layers), reversed(caches)):
                g = layer.backward(g, cache)
            return g.reshape(g.shape[0], -1)
        first = next(i for i, layer in enumerate(self.layers) if layer.params())
        for i in range(len(self.layers) - 1, first - 1, -1):
            layer, cache = self.layers[i], caches[i]
            gx = layer.backward(g, cache) if i > first else None
            if layer.params():
                layer.param_grads(g, cache, update)
            g = gx

    def logits(self, x):
        """(B, N) inputs -> (B, L) logits, dropout disabled."""
        return self.forward(x)[0]

    def linearize(self, x):
        """(B, N) inputs -> ((B, L) logits, (B, L, N) Jacobian) from one forward pass."""
        x = np.asarray(x, dtype=np.float64)
        b = x.shape[0]
        y, caches = self.forward(x)
        jac = np.empty((b, self.n_classes, x.shape[1]))
        for i in range(self.n_classes):
            g = np.zeros((b, self.n_classes))
            g[:, i] = 1.0
            jac[:, i, :] = self.backward(g, caches)
        return y, jac

    def input_jacobian(self, x):
        """(B, N) inputs -> (B, L, N) Jacobian; kept while the tracer wraps it (ROADMAP item 13)."""
        return self.linearize(x)[1]


def _assemble(arch, front_end, weight, bias=np.zeros):
    """Network of an architecture spec whose entries carry all their values.

    weight(shape, fan_in) supplies each weight array and bias(size) each bias,
    in layer order; biases start at zero by default. The network records the
    spec as input_shape plus [kind, *values] entries, which save_model writes.
    """
    input_shape = tuple(arch["input_shape"])
    for d in input_shape:
        check_int("an input_shape value", d, 1)
    entries = [list(entry) for entry in arch["layers"]]
    layers = []
    shape = input_shape
    for entry in entries:
        kind = entry[0]
        if LAYER_VALUES.get(kind) != len(entry) - 1:
            raise ValueError(f"malformed layer entry {entry!r}; "
                             f"values per kind: {LAYER_VALUES}")
        if kind in ("conv", "dense"):
            for value in entry[1:]:
                check_int(f"each value of {entry!r}", value, 1)
        if kind == "conv":
            _, out_ch, kh, kw = entry
            c, h, w = shape
            check_int(f"the output side of {entry!r} on {h}x{w}", min(h - kh, w - kw) + 1, 1)
            layers.append(Conv2d(weight((out_ch, c, kh, kw), c * kh * kw), bias(out_ch)))
            shape = (out_ch, h - kh + 1, w - kw + 1)
        elif kind == "relu":
            layers.append(Relu())
        elif kind == "maxpool":
            c, h, w = shape
            if h % 2 or w % 2:
                raise ValueError(f"max pool needs even spatial dims, got {h}x{w}")
            layers.append(MaxPool2())
            shape = (c, h // 2, w // 2)
        elif kind == "dropout":
            layers.append(Dropout(entry[1]))
        elif kind == "flatten":
            layers.append(Flatten(shape))
            shape = (int(np.prod(shape)),)
        elif kind == "dense":
            if len(shape) > 1:
                raise ValueError(f"dense layer on a {shape} input needs a ('flatten',) before it")
            layers.append(Dense(weight((shape[0], entry[1]), shape[0]), bias(entry[1])))
            shape = (entry[1],)
    if not layers or not isinstance(layers[-1], Dense):
        raise ValueError(f"a network must end in a dense layer, got {entries[-1:]!r}")
    return FeedforwardNetwork(layers, {"input_shape": list(input_shape), "layers": entries},
                              front_end)


def build_network(arch, seed, front_end=None) -> FeedforwardNetwork:
    """Instantiate an architecture spec with seeded He initialization."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A7]))
    return _assemble(arch, front_end,
                     lambda shape, fan_in: rng.standard_normal(shape) * np.sqrt(2.0 / fan_in))


def _xent_and_grad(y, labels):
    p = softmax(y)
    n = y.shape[0]
    eps = 1e-300  # guards log(0); softmax keeps entries strictly positive anyway
    loss = -np.log(p[np.arange(n), labels] + eps).mean()
    g = p
    g[np.arange(n), labels] -= 1.0
    return loss, g / n


def sgd_update(lr, weight_decay):
    """backward's update callback for one SGD step: p -= lr * (gp + weight_decay * p).

    Weight decay applies to weights (ndim > 1), not biases. The step works
    in place on the block gp and rounds exactly as that expression does.
    """
    def update(p, rows, gp):
        if p.ndim > 1 and weight_decay:
            gp += weight_decay * p[rows]
        gp *= lr
        p[rows] -= gp
    return update


def train_network(images, labels, config: TrainConfig, arch=REDUCED_DENSE,
                  log=None) -> FeedforwardNetwork:
    """SGD on softmax cross-entropy. Deterministic given config.seed.

    Raises ValueError, before the front end runs, on an empty split and on a
    label that is not one of the network's class_labels. When
    config.front_end is set, all training inputs are sparsified first and the
    returned network carries the front-end config.
    """
    images = np.asarray(images, dtype=np.float64)
    net = build_network(arch, config.seed, config.front_end)
    classes = class_indices(net.class_labels, labels)
    images = frontend_mod.defend(config.front_end, images, config.clip_recon)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5F]))
    dropout_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD0]))
    n = images.shape[0]
    for epoch in range(config.epochs):
        step = sgd_update(config.lr_at(epoch), config.weight_decay)
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            y, caches = net.forward(images[idx], train=True, rng=dropout_rng)
            loss, g = _xent_and_grad(y, classes[idx])
            epoch_loss += loss * idx.size
            if not np.isfinite(loss):
                raise TrainingDivergence(epoch, loss)
            net.backward(g, caches, step)
        if log is not None:
            log(epoch, epoch_loss / n)
    return net


# ---------------------------------------------------------------------------
# Serialization: versioned header + raw little-endian float64 buffers. The
# byte stream is a pure function of the model, so identical models produce
# identical files.
# ---------------------------------------------------------------------------


def save_model(model, path):
    """Write a LinearModel or FeedforwardNetwork to a versioned binary file, atomically.

    The front end is recorded as the fields of its Basis plus rho, and an SVM's
    digit pair, which `attack` filters the test split by, as `digits`. Raises
    ValueError, writing nothing, for an SVM without a pair.
    """
    if isinstance(model, LinearModel):
        if model.digits is None:
            raise ValueError("an SVM model file records its digit pair, and this model has none")
        header = {"model": "linear_svm", "dim": model.n_inputs, "b": model.b,
                  "digits": model.digits}
        arrays = [model.w]
    elif isinstance(model, FeedforwardNetwork):
        header = {"model": "feedforward", **model.arch}
        arrays = model.params()
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    fe = model.front_end
    header["front_end"] = None if fe is None else {**dataclasses.asdict(fe.basis), "rho": fe.rho}
    blob = json.dumps(header, sort_keys=True).encode()
    # one array at a time, and a contiguous <f8 array is written with no copy
    arrays = (np.ascontiguousarray(a, dtype="<f8") for a in arrays)
    write_atomically(path, itertools.chain([MODEL_MAGIC, struct.pack(">I", len(blob)), blob],
                                           arrays))


def load_model(path):
    """Inverse of save_model; round-trip is exact.

    Raises ValueError when the file is not a model file, when its header is
    truncated, lacks a field (an SVM's digit pair among them) or holds a
    malformed layer entry or front-end record, a conv kernel larger than its
    input, a bad or null digit pair, a bad bias, or a front end whose size is
    not the model's input width, or when its payload is not the size the
    header implies or holds a non-finite value.
    No array is allocated before the payload is known to hold it.
    """
    raw = Path(path).read_bytes()
    off = len(MODEL_MAGIC)
    if not raw.startswith(MODEL_MAGIC) or len(raw) < off + 4:
        raise ValueError(f"{path}: not a sparsefront model file")
    (hlen,) = struct.unpack_from(">I", raw, off)
    off += 4
    payload = len(raw) - off - hlen
    unclaimed = payload  # bytes no array has claimed yet

    def claim(shape, fan_in=None):
        nonlocal unclaimed
        dims = shape if isinstance(shape, tuple) else (shape,)
        for d in dims:
            check_int("an array dimension", d, 0)
        unclaimed -= 8 * math.prod(dims)
        if unclaimed < 0:
            raise ValueError(f"payload is {payload} bytes, too short for a {dims} array")
        return np.empty(dims)

    try:
        header = json.loads(raw[off : off + hlen])
        fe = header["front_end"]
        if fe is not None:
            fields = {**fe}  # the Basis fields and rho
            rho = fields.pop("rho")
            fe = FrontEndConfig(Basis(**fields), rho)
        kind = header["model"]
        if kind == "linear_svm":
            check_pair(*header["digits"])
            check_real("b", header["b"], "(-inf, inf)")
            model = LinearModel(claim(header["dim"]), header["b"], fe, tuple(header["digits"]))
            arrays = [model.w]
        elif kind == "feedforward":
            model = _assemble(header, fe, claim, claim)
            arrays = model.params()
        else:
            raise ValueError(f"unknown model type {kind!r}")
    except (ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed model header ({type(exc).__name__}: {exc})") from None
    if fe is not None and fe.basis.size != model.n_inputs:
        raise ValueError(f"{path}: a {fe.basis.height}x{fe.basis.width} front end does not fit "
                         f"a model of {model.n_inputs} inputs")
    off += hlen
    if unclaimed:  # every array fits, so only trailing bytes are left
        raise ValueError(f"{path}: payload is {payload} bytes, header implies {payload - unclaimed}")
    for a in arrays:
        a[...] = np.frombuffer(raw, "<f8", count=a.size, offset=off).reshape(a.shape)
        off += 8 * a.size
        if not np.isfinite(a).all():
            raise ValueError(f"{path}: a parameter array holds a non-finite value")
    return model
