"""Deterministic synthetic digits written as MNIST-format IDX files.

Each class is a template of straight strokes (seven-segment-like, plus a few
diagonals). Templates overlap heavily: 3 and 7 share their top and right
strokes, 8 contains every segment. Each sample then gets a random affine
warp, endpoint jitter, stroke width and ink level, per-stroke dropout, a
stray stroke borrowed from the segment set, and pixel noise. The dropout and
stray strokes make some samples genuinely ambiguous, so clean accuracy stays
below 100% and attacks flip a visible share of predictions.

The data exists to time the program. It never stands in for a number from
the paper.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

SIDE = 28

# Segment endpoints (x0, y0, x1, y1) in pixel coordinates of a 28x28 canvas.
_SEG = {
    "a": (9, 5, 19, 5),
    "b": (19, 5, 19, 14),
    "c": (19, 14, 19, 23),
    "d": (9, 23, 19, 23),
    "e": (9, 14, 9, 23),
    "f": (9, 5, 9, 14),
    "g": (9, 14, 19, 14),
}
_EXTRA = {
    "one": (14, 5, 14, 23),
    "flag": (11, 8, 14, 5),
    "two_diag": (19, 14, 9, 23),
    "seven_diag": (19, 5, 12, 23),
}
TEMPLATES = [
    ["a", "b", "c", "d", "e", "f"],
    ["one", "flag"],
    ["a", "b", "two_diag", "d"],
    ["a", "b", "g", "c", "d"],
    ["f", "g", "b", "c"],
    ["a", "f", "g", "c", "d"],
    ["a", "f", "e", "d", "c", "g"],
    ["a", "seven_diag"],
    ["a", "b", "c", "d", "e", "f", "g"],
    ["a", "b", "f", "g", "c", "d"],
]
_STRAYS = np.array(list(_SEG.values()), dtype=np.float64)
_MAX_STROKES = max(len(t) for t in TEMPLATES) + 1

DROP_P = 0.04  # chance that a template stroke is missing
STRAY_P = 0.12  # chance of one extra stroke from the segment set
NOISE_SD = 0.12

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def _template_array(label):
    segs = [(_SEG | _EXTRA)[name] for name in TEMPLATES[label]]
    return np.array(segs, dtype=np.float64)


def _render(segments, present, width, ink):
    """(n, S, 4) segments -> (n, 784) images in [0, 1]; max over strokes.

    Ink falls off linearly over one pixel outside the stroke's half-width,
    so the brightest stroke at a pixel is the nearest one.
    """
    ys, xs = np.mgrid[0:SIDE, 0:SIDE].astype(np.float32)
    px = xs.reshape(1, 1, -1)
    py = ys.reshape(1, 1, -1)
    x0, y0, x1, y1 = (segments[..., i : i + 1].astype(np.float32) for i in range(4))
    dx, dy = x1 - x0, y1 - y0
    length2 = np.maximum(dx * dx + dy * dy, np.float32(1e-9))
    t = np.clip(((px - x0) * dx + (py - y0) * dy) / length2, 0.0, 1.0)
    d2 = np.square(px - (x0 + t * dx)) + np.square(py - (y0 + t * dy))
    d2[present == 0] = np.inf
    dist = np.sqrt(d2.min(axis=1))
    return np.clip(1.0 + width[:, None] / 2.0 - dist, 0.0, 1.0) * ink[:, None]


def generate(seed, count, stream):
    """``count`` class-balanced samples: (uint8 (count, 784), uint8 labels).

    The same (seed, count, stream) always gives the same bytes; train and
    test use different streams of one seed.
    """
    if count % 10:
        raise ValueError("count must be a multiple of 10 (class-balanced)")
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    labels = rng.permutation(np.repeat(np.arange(10), count // 10)).astype(np.uint8)

    segments = np.zeros((count, _MAX_STROKES, 4))
    present = np.zeros((count, _MAX_STROKES))
    for digit in range(10):
        rows = np.flatnonzero(labels == digit)
        tmpl = _template_array(digit)
        segments[rows, : len(tmpl)] = tmpl
        present[rows, : len(tmpl)] = rng.random((rows.size, len(tmpl))) >= DROP_P
    stray = rng.random(count) < STRAY_P
    segments[:, -1] = _STRAYS[rng.integers(0, len(_STRAYS), count)]
    present[:, -1] = stray

    # per-endpoint jitter, then a per-sample affine warp about the centre
    segments += rng.normal(0.0, 1.0, segments.shape)
    angle = rng.uniform(-0.2, 0.2, count)
    shear = rng.uniform(-0.25, 0.25, count)
    scale = rng.uniform(0.85, 1.1, count)
    shift = rng.uniform(-2.5, 2.5, (count, 2))
    cos, sin = np.cos(angle) * scale, np.sin(angle) * scale
    centre = (SIDE - 1) / 2.0
    for p in (0, 2):
        x = segments[..., p] - centre
        y = segments[..., p + 1] - centre
        x = x + shear[:, None] * y
        segments[..., p] = cos[:, None] * x - sin[:, None] * y + centre + shift[:, None, 0]
        segments[..., p + 1] = sin[:, None] * x + cos[:, None] * y + centre + shift[:, None, 1]

    width = rng.uniform(1.2, 2.6, count)
    ink = rng.uniform(0.6, 1.0, count)
    images = np.empty((count, SIDE * SIDE))
    for start in range(0, count, 64):
        sl = slice(start, start + 64)
        images[sl] = _render(segments[sl], present[sl], width[sl], ink[sl])
    images += rng.normal(0.0, NOISE_SD, images.shape)
    pixels = np.rint(np.clip(images, 0.0, 1.0) * 255.0).astype(np.uint8)
    return pixels, labels


def write_idx(images_path, labels_path, pixels, labels):
    """Write one IDX image/label file pair (uncompressed, big-endian header)."""
    n = pixels.shape[0]
    Path(images_path).write_bytes(
        struct.pack(">IIII", IMAGE_MAGIC, n, SIDE, SIDE) + pixels.tobytes()
    )
    Path(labels_path).write_bytes(struct.pack(">II", LABEL_MAGIC, n) + labels.tobytes())


def write_split(directory, seed, n_train, n_test):
    """Write the four MNIST-named IDX files for one seed into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for prefix, count, stream in (("train", n_train, 0), ("t10k", n_test, 1)):
        pixels, labels = generate(seed, count, stream)
        write_idx(directory / f"{prefix}-images-idx3-ubyte",
                  directory / f"{prefix}-labels-idx1-ubyte", pixels, labels)
    return directory
