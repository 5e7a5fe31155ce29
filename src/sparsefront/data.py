"""MNIST ingestion: IDX parsing, [0,1] normalization, digit-pair filtering.

Files may be the raw IDX binaries or their canonical .gz archives; both are
parsed transparently. A fetch helper downloads and checksums the four
canonical archives for offline-reproducible setups; pointing the loader at an
existing directory (flag or SPARSEFRONT_DATA_DIR) skips any network use.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "load_idx",
    "load_mnist",
    "filter_pair",
    "fetch_mnist",
    "data_dir",
    "IdxFormatError",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

DATA_DIR_ENV = "SPARSEFRONT_DATA_DIR"
DEFAULT_BASE_URL = "https://ossci-datasets.s3.amazonaws.com/mnist"

# filename -> (gzip size in bytes, md5 of the gzip archive)
MNIST_ARCHIVES = {
    "train-images-idx3-ubyte.gz": (9912422, "f68b3c2dcbeaaa9fbdd348bbdeb94873"),
    "train-labels-idx1-ubyte.gz": (28881, "d53e105ee54ea40749a09fcbcd1e9432"),
    "t10k-images-idx3-ubyte.gz": (1648877, "9fb629c4189551a2d022fa330f9573f3"),
    "t10k-labels-idx1-ubyte.gz": (4542, "ec29112dd5afa0611ce80d1b7f02629c"),
}


class IdxFormatError(ValueError):
    """Raised when an IDX file is malformed (bad magic, truncation, mismatch)."""


@dataclass
class Dataset:
    """Flattened images in [0,1] plus integer labels; refuses a pixel outside [0, 1], NaN too."""

    images: np.ndarray  # (n, 784) float64 in [0, 1]
    labels: np.ndarray  # (n,) int64

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("images and labels disagree on sample count")
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise ValueError("pixel values must lie in [0, 1]")

    def __len__(self):
        return self.images.shape[0]


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    # unbuffered, so reading to the end copies no payload out of a buffer
    return open(path, "rb", buffering=0)


def _read_be32(f, path, what):
    raw = f.read(4)
    if len(raw) != 4:
        raise IdxFormatError(f"{path}: truncated while reading {what}")
    return struct.unpack(">I", raw)[0]


def _read_idx(path, magic, dims, payload):
    """One IDX file's header counts and flat uint8 payload.

    ``dims`` names the big-endian counts that follow the magic number;
    ``payload`` names the data in the error messages. A damaged gzip archive
    and bytes after the payload are errors too.
    """
    try:
        with _open_maybe_gzip(path) as f:
            found = _read_be32(f, path, "magic number")
            if found != magic:
                raise IdxFormatError(
                    f"{path}: bad magic 0x{found:08x} at offset 0, expected 0x{magic:08x}"
                )
            shape = tuple(_read_be32(f, path, f"{dim} count") for dim in dims)
            # what the file holds, never the size its header claims; reading to
            # the end also makes gzip check the archive's CRC and length
            raw = f.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: damaged gzip archive ({exc})") from None
    size = math.prod(shape)
    if len(raw) < size:
        raise IdxFormatError(f"{path}: truncated {payload} data ({len(raw)} of {size} bytes)")
    if len(raw) > size:
        raise IdxFormatError(f"{path}: trailing bytes after the {size} bytes of {payload} data")
    return shape, np.frombuffer(raw, dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair; pixels are scaled by 1/255."""
    (count, rows, cols), pixels = _read_idx(images_path, IMAGE_MAGIC,
                                            ("image", "row", "column"), "pixel")
    (n_labels,), labels = _read_idx(labels_path, LABEL_MAGIC, ("label",), "label")
    if count != n_labels:
        raise IdxFormatError(
            f"image count {count} != label count {n_labels} "
            f"for {images_path} / {labels_path}"
        )
    images = pixels.reshape(count, rows * cols).astype(np.float64)
    images /= 255.0
    return Dataset(images, labels.astype(np.int64))


def data_dir(override=None) -> Path:
    """Resolve the dataset directory: explicit argument, env var, or ~/.sparsefront."""
    if override:
        return Path(override)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".sparsefront" / "mnist"


def _find_idx(directory, stem):
    for name in (stem, stem + ".gz"):
        path = Path(directory) / name
        if path.exists():
            return path
    raise FileNotFoundError(
        f"{stem}[.gz] not found in {directory}; run `sparsefront fetch-data` "
        f"or point --data / {DATA_DIR_ENV} at an existing MNIST directory"
    )


def load_mnist(directory=None, split="train") -> Dataset:
    """Load one MNIST split ('train' or 'test') from a directory of IDX files.

    Raises IdxFormatError, naming the label file, when the split has no
    samples or a label that is not a digit 0..9.
    """
    directory = data_dir(directory)
    prefix = {"train": "train", "test": "t10k"}[split]
    images_path = _find_idx(directory, f"{prefix}-images-idx3-ubyte")
    labels_path = _find_idx(directory, f"{prefix}-labels-idx1-ubyte")
    dataset = load_idx(images_path, labels_path)
    if len(dataset) == 0:
        raise IdxFormatError(f"{labels_path}: the split has no samples")
    bad = dataset.labels[dataset.labels > 9]
    if bad.size:
        raise IdxFormatError(f"{labels_path}: label {bad[0]} is not a digit 0..9")
    return dataset


def check_int(name, value, low):
    """Raise ValueError unless `value` is an integer, not a bool, of at least `low` (0 or 1)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        kind = "positive" if low == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def check_real(name, value, interval):
    """Raise ValueError unless `value` is a finite number, not a bool, in `interval` ("[0, 1)")."""
    low, high = map(float, interval[1:-1].split(","))
    try:
        finite = not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer too large for a float
        finite = False
    if not (finite and (low < value if interval[0] == "(" else low <= value)
            and (value < high if interval[-1] == ")" else value <= high)):
        raise ValueError(f"{name} must be a number in {interval}, got {value!r}")


def check_pair(a: int, b: int):
    """Raise ValueError unless a and b are two distinct digits, each an integer in 0..9."""
    if a not in range(10) or b not in range(10):  # `in` compares any type without raising
        raise ValueError("digits must be in 0..9")
    for digit in (a, b):
        check_int("a digit", digit, 0)
    if a == b:
        raise ValueError("digit pair must be distinct")


def filter_pair(dataset: Dataset, a: int, b: int) -> Dataset:
    """Binary subset: digit a -> label +1, digit b -> label -1, original order kept."""
    check_pair(a, b)
    mask = (dataset.labels == a) | (dataset.labels == b)
    if not mask.any():
        raise ValueError(f"no samples labeled {a} or {b}")
    labels = np.where(dataset.labels[mask] == a, 1, -1).astype(np.int64)
    return Dataset(dataset.images[mask], labels)


def fetch_mnist(directory=None, base_url=DEFAULT_BASE_URL) -> Path:
    """Download the four canonical archives and move each into ``directory`` once verified.

    Files already present with a matching checksum are kept as-is.
    """
    # imported here so that no other command loads the http/ssl stack
    import urllib.request

    directory = data_dir(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, (size, md5) in MNIST_ARCHIVES.items():
        dest = directory / name
        if dest.exists() and _checksum_ok(dest.read_bytes(), size, md5):
            print(f"{name}: already present, checksum OK")
            continue
        url = f"{base_url.rstrip('/')}/{name}"
        print(f"fetching {url}")
        with urllib.request.urlopen(url) as response:
            blob = response.read()
        if not _checksum_ok(blob, size, md5):
            raise IOError(f"{url}: downloaded file fails size/md5 verification")
        write_atomically(dest, [blob])
        print(f"{name}: {size} bytes, md5 OK")
    return directory


def write_atomically(path, chunks):
    """Write the byte chunks to ``<name>.tmp`` and rename it to ``path``; the package's one writer.

    A failure removes the temporary file and keeps any earlier file at ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _checksum_ok(blob, size, md5):
    import hashlib

    return len(blob) == size and hashlib.md5(blob).hexdigest() == md5
