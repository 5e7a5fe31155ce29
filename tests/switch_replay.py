"""Switch-replay oracle for the piecewise-linear network.

Records the relu masks and max-pool argmax choices ("switches") at one input
and replays the forward pass with them fixed. The replayed map is affine in
its input, so tests compare the network's Jacobian and its piecewise
linearity against it.
"""

from dataclasses import dataclass

import numpy as np

from sparsefront import models as M


@dataclass
class SwitchState:
    """An inference forward's caches at one input (each layer's switch or None),
    plus the anchor logits."""

    entries: list
    logits: np.ndarray


def pool_windows(x):
    """(B, C, H, W) -> (B, C, H/2, W/2, 4): each 2x2 window, slot 2*dy + dx."""
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        b, c, h // 2, w // 2, 4
    )


def _forward_frozen(layer, x, switch):
    if isinstance(layer, M.Relu):
        return x * switch
    if isinstance(layer, M.MaxPool2):
        win = pool_windows(x)
        return np.take_along_axis(win, switch[..., None], axis=-1)[..., 0]
    # dense, conv, flatten and inference-mode dropout carry no switch
    return layer.forward(x)[0]


def switch_state(net, x):
    """Record relu masks and pool argmax choices at a single flat input."""
    y, caches = net.forward(np.atleast_2d(x))
    return SwitchState(caches, y[0])


def same_switches(net, a, b):
    """Whether net's relu and pool switches agree at the single flat inputs a and b."""
    at_a, at_b = switch_state(net, a).entries, switch_state(net, b).entries
    return all(p is None or np.array_equal(p, q) for p, q in zip(at_a, at_b))


def forward_frozen(net, x, state: SwitchState):
    """Replay the forward pass with all switches fixed; affine in x."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64)).reshape((-1,) + net.input_shape)
    for layer, switch in zip(net.layers, state.entries):
        h = _forward_frozen(layer, h, switch)
    return h
