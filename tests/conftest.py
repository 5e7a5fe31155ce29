import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sparsefront import cli
from sparsefront import data as data_mod


def _mnist_available():
    try:
        data_mod.load_mnist(split="test")
        return True
    except FileNotFoundError:
        return False


MNIST_AVAILABLE = _mnist_available()

needs_mnist = pytest.mark.skipif(
    not MNIST_AVAILABLE,
    reason="MNIST not found; run `sparsefront fetch-data` or set SPARSEFRONT_DATA_DIR",
)


def traced_peak_mib(fn):
    """Peak bytes traced while fn runs, in MiB; unlike RSS it ignores the heap's state."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def load_synth():
    """The synthetic-digit IDX writer, perfbench/synth.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("perfbench_synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_corrupt_split(directory, prefix, label=None):
    """A 20-sample synthetic train and test split in `directory`, whose `prefix` part ("train"
    or "t10k") has its label 7 set to `label`, or no samples when `label` is None."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    synth = load_synth()
    for part, stream in (("train", 0), ("t10k", 1)):
        pixels, labels = synth.generate(3, 20, stream)
        if part == prefix:
            if label is None:
                pixels, labels = pixels[:0], labels[:0]
            else:
                labels[7] = label  # IDX labels are bytes, so a corrupt file can hold 12
        synth.write_idx(directory / f"{part}-images-idx3-ubyte",
                        directory / f"{part}-labels-idx1-ubyte", pixels, labels)
    return directory


@pytest.fixture(scope="session")
def synth_data(tmp_path_factory):
    """A small synthetic-digit IDX split (coverage only, never a paper number)."""
    return load_synth().write_split(tmp_path_factory.mktemp("synth"), 3, 1000, 300)


@pytest.fixture(scope="session")
def digits(request):
    """The MNIST directory when present, else the synthetic split.

    For checks that need digits but no number calibrated on MNIST.
    """
    if MNIST_AVAILABLE:
        return data_mod.data_dir()
    return request.getfixturevalue("synth_data")


@pytest.fixture(scope="session")
def digits_test(digits):
    """The test split of `digits`."""
    return data_mod.load_mnist(digits, "test")


@pytest.fixture(scope="session")
def mnist_train():
    return data_mod.load_mnist(split="train")


@pytest.fixture(scope="session")
def mnist_test():
    return data_mod.load_mnist(split="test")


@pytest.fixture(scope="session")
def pair_train(mnist_train):
    return data_mod.filter_pair(mnist_train, *cli.PAPER_DIGITS)


@pytest.fixture(scope="session")
def pair_test(mnist_test):
    return data_mod.filter_pair(mnist_test, *cli.PAPER_DIGITS)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
