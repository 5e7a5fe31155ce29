"""Parameter gradients of a network, collected through backward's update seam."""

import numpy as np


def param_grads(net, g, caches):
    """The gradient of each of net.params(), in order, for the output grad g.

    The caches must come from a train=True forward. The collecting update
    copies each block it is handed and leaves the parameters unchanged; a row
    no block covers stays NaN.
    """
    grads = {}

    def collect(p, rows, gp):
        if id(p) not in grads:
            grads[id(p)] = np.full_like(p, np.nan)
        grads[id(p)][rows] = gp

    net.backward(g, caches, collect)
    return [grads[id(p)] for p in net.params()]
