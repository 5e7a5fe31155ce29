import gzip
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsefront import data as D

from conftest import needs_mnist, write_corrupt_split


def write_idx_pair(tmp_path, images, labels, image_magic=D.IMAGE_MAGIC,
                   label_magic=D.LABEL_MAGIC, truncate_images=0, truncate_labels=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images-idx3-ubyte"
    blob = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        blob = blob[:-truncate_images]
    img_path.write_bytes(blob)
    lbl_path = tmp_path / "labels-idx1-ubyte"
    blob = struct.pack(">II", label_magic, labels.size) + labels.tobytes()
    if truncate_labels:
        blob = blob[:-truncate_labels]
    lbl_path.write_bytes(blob)
    return img_path, lbl_path


class TestLoadIdx:
    def test_parse_and_normalize(self, tmp_path):
        images = np.zeros((3, 4, 4), dtype=np.uint8)
        images[0, 0, 0] = 255
        images[1, 2, 3] = 128
        img, lbl = write_idx_pair(tmp_path, images, [7, 1, 0])
        ds = D.load_idx(img, lbl)
        assert ds.images.shape == (3, 16)
        assert ds.images[0, 0] == 1.0
        assert ds.images[1, 2 * 4 + 3] == pytest.approx(128 / 255)
        assert ds.images.min() == 0.0
        assert list(ds.labels) == [7, 1, 0]

    def test_pixels_scaled_exactly(self, tmp_path):
        pixels = (np.arange(4 * 16 * 16) % 256).astype(np.uint8).reshape(4, 16, 16)
        img, lbl = write_idx_pair(tmp_path, pixels, [0, 1, 2, 3])
        want = pixels.reshape(4, 256) / 255.0
        assert D.load_idx(img, lbl).images.tobytes() == want.tobytes()

    def test_gzip_transparent(self, tmp_path):
        images = np.arange(32, dtype=np.uint8).reshape(2, 4, 4)
        img, lbl = write_idx_pair(tmp_path, images, [1, 2])
        for p in (img, lbl):
            with open(p, "rb") as f_in, gzip.open(str(p) + ".gz", "wb") as f_out:
                f_out.write(f_in.read())
        ds = D.load_idx(str(img) + ".gz", str(lbl) + ".gz")
        assert ds.images.shape == (2, 16)

    @pytest.mark.parametrize("damaged,flag", [("images", "image_magic"),
                                              ("labels", "label_magic")])
    def test_bad_magic_names_offset(self, tmp_path, damaged, flag):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0],
                                  **{flag: 0xDEADBEEF})
        with pytest.raises(D.IdxFormatError, match=f"{damaged}-idx.*offset 0"):
            D.load_idx(img, lbl)

    @pytest.mark.parametrize("damaged", ["images", "labels"])
    def test_truncated_file(self, tmp_path, damaged):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1],
                                  **{f"truncate_{damaged}": 1})
        with pytest.raises(D.IdxFormatError, match=f"{damaged}-idx.*truncated"):
            D.load_idx(img, lbl)

    @pytest.mark.parametrize("edit,message", [
        (lambda gz: gz[: len(gz) // 2], "damaged gzip"),
        (lambda gz: gz[:-8] + bytes([gz[-8] ^ 0xFF]) + gz[-7:], "damaged gzip"),
        (lambda gz: gzip.compress(gzip.decompress(gz) + b"\x00"), "trailing bytes"),
    ], ids=["truncated", "crc_flipped", "trailing"])
    def test_damaged_gzip_rejected(self, tmp_path, edit, message):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        gz = Path(str(img) + ".gz")
        gz.write_bytes(edit(gzip.compress(img.read_bytes())))
        with pytest.raises(D.IdxFormatError, match=f"images-idx.*{message}"):
            D.load_idx(gz, lbl)

    def test_trailing_bytes_rejected(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        lbl.write_bytes(lbl.read_bytes() + b"\x00")
        with pytest.raises(D.IdxFormatError, match="labels-idx.*trailing bytes"):
            D.load_idx(img, lbl)

    @pytest.mark.parametrize("compress", [False, True], ids=["raw", "gzip"])
    def test_huge_claimed_payload_rejected(self, tmp_path, compress):
        # 2**20 images of 4096 x 4096 claimed over a 100-byte payload: the
        # claimed size must never be allocated
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        blob = struct.pack(">IIII", D.IMAGE_MAGIC, 2**20, 4096, 4096) + bytes(100)
        if compress:
            img = Path(str(img) + ".gz")
            blob = gzip.compress(blob)
        img.write_bytes(blob)
        with pytest.raises(D.IdxFormatError, match="images-idx.*truncated"):
            D.load_idx(img, lbl)

    @pytest.mark.parametrize("keep", [2, 6])
    def test_cut_inside_header(self, tmp_path, keep):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        img.write_bytes(img.read_bytes()[:keep])
        with pytest.raises(D.IdxFormatError, match="images-idx.*truncated while reading"):
            D.load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        _, lbl = write_idx_pair(other, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 2])
        with pytest.raises(D.IdxFormatError, match="count"):
            D.load_idx(img, lbl)

    @needs_mnist
    def test_full_mnist_shapes(self, mnist_train, mnist_test):
        assert mnist_train.images.shape == (60000, 784)
        assert mnist_test.images.shape == (10000, 784)
        assert mnist_train.images.min() >= 0.0 and mnist_train.images.max() <= 1.0
        assert set(np.unique(mnist_test.labels)) == set(range(10))

    def test_repeated_loads_identical(self, digits):
        a = D.load_mnist(digits, "test")
        b = D.load_mnist(digits, "test")
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    # a label byte above 9 or an empty split is refused, naming the label file
    @pytest.mark.parametrize("label,message", [
        (12, "label 12 is not a digit 0..9"), (255, "label 255 is not a digit 0..9"),
        (None, "the split has no samples"),
    ])
    @pytest.mark.parametrize("split,prefix", [("train", "train"), ("test", "t10k")])
    def test_unusable_split_rejected(self, tmp_path, split, prefix, label, message):
        write_corrupt_split(tmp_path, prefix, label)
        with pytest.raises(D.IdxFormatError) as err:
            D.load_mnist(tmp_path, split)
        assert str(err.value) == f"{tmp_path / f'{prefix}-labels-idx1-ubyte'}: {message}"
        other = "test" if split == "train" else "train"
        assert len(D.load_mnist(tmp_path, other)) == 20


class TestFilterPair:
    def test_relabel_and_order(self, tmp_path):
        images = np.arange(5 * 4, dtype=np.uint8).reshape(5, 2, 2)
        img, lbl = write_idx_pair(tmp_path, images, [3, 7, 1, 7, 3])
        ds = D.load_idx(img, lbl)
        pair = D.filter_pair(ds, 3, 7)
        assert list(pair.labels) == [1, -1, -1, 1]
        # order preserved: first retained sample is the original first "3"
        assert np.array_equal(pair.images[0], ds.images[0])
        assert np.array_equal(pair.images[1], ds.images[1])

    def test_same_digit_rejected(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [3])
        ds = D.load_idx(img, lbl)
        with pytest.raises(ValueError):
            D.filter_pair(ds, 3, 3)

    def test_empty_result_rejected(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [1, 2])
        ds = D.load_idx(img, lbl)
        with pytest.raises(ValueError):
            D.filter_pair(ds, 3, 7)

    @pytest.mark.parametrize("a,b", [(3, 10), (-1, 7)])
    def test_digit_outside_0_to_9_rejected(self, a, b):
        ds = D.Dataset(np.zeros((2, 4)), np.array([3, 7]))
        with pytest.raises(ValueError, match="0..9"):
            D.filter_pair(ds, a, b)

    # the range test compares any type without raising, and each digit's type is
    # checked before the pair's distinctness (True == 1)
    @pytest.mark.parametrize("a,b,message", [
        (1, True, "a digit must be a nonnegative integer, got True"),
        (3, "7", "digits must be in 0..9"),
    ], ids=["bool", "str"])
    def test_digit_type_checked_before_comparing(self, a, b, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            D.check_pair(a, b)


# the intervals of the real-valued settings: learning_rate, weight_decay and epsilon,
# the dropout rate, rho and the SVM bias
TINY = 5e-324  # the smallest positive float
BIG = sys.float_info.max


def _power_id(value):
    """A long integer's test id, as a power of ten; pytest's own id for anything else."""
    if type(value) is int and abs(value) > 10**20:
        return f"{'-' if value < 0 else ''}10**{len(str(abs(value))) - 1}"
    return None


class TestCheckReal:
    # each end of each interval, open and closed, and a value just inside it
    @pytest.mark.parametrize("interval,value", [
        ("(0, inf)", TINY), ("(0, inf)", BIG),
        ("[0, inf)", 0), ("[0, inf)", -0.0), ("[0, inf)", BIG),
        ("[0, 1)", 0.0), ("[0, 1)", math.nextafter(1.0, 0.0)),
        ("(0, 1]", TINY), ("(0, 1]", 1),
        ("(-inf, inf)", -BIG), ("(-inf, inf)", BIG), ("(-inf, inf)", -10**300),
        ("[0, 1)", np.float32(0.5)), ("(0, 1]", np.float64(0.02)), ("[0, inf)", np.int64(3)),
        ("[0, 1)", np.uint8(0)), ("(-inf, inf)", np.float16(-2.5)),
    ], ids=_power_id)
    def test_accepted(self, interval, value):
        D.check_real("x", value, interval)

    @pytest.mark.parametrize("interval,value", [
        ("(0, inf)", 0.0), ("(0, inf)", -TINY), ("(0, inf)", math.inf),
        ("[0, inf)", -TINY), ("[0, inf)", math.inf),
        ("[0, 1)", -TINY), ("[0, 1)", 1), ("[0, 1)", 1.0),
        ("(0, 1]", 0), ("(0, 1]", math.nextafter(1.0, 2.0)),
        ("(-inf, inf)", -math.inf), ("(-inf, inf)", math.inf),
        # nan and an integer too large for a float, in any interval
        ("(-inf, inf)", math.nan), ("[0, 1)", math.nan), ("(-inf, inf)", np.float32("nan")),
        ("(-inf, inf)", 10**400), ("(-inf, inf)", -10**400),
        # a bool is not a number, nor is anything JSON may hold in a number's place
        ("(0, 1]", True), ("[0, 1)", False), ("[0, 1)", np.False_), ("(0, 1]", "0.02"),
        ("(-inf, inf)", None), ("(-inf, inf)", [1.0]), ("(-inf, inf)", {}),
        ("(0, 1]", np.float64(1.5)), ("[0, inf)", np.int64(-1)),
    ], ids=_power_id)
    def test_refused(self, interval, value):
        with pytest.raises(ValueError, match=f"^x must be a number in {re.escape(interval)}, got "):
            D.check_real("x", value, interval)

    def test_message_names_the_field_and_the_value(self):
        with pytest.raises(ValueError) as err:
            D.check_real("rho", "0.02", "(0, 1]")
        assert str(err.value) == "rho must be a number in (0, 1], got '0.02'"


class TestDataset:
    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sample count"):
            D.Dataset(np.zeros((3, 4)), np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize("pixel", [-0.01, 1.01, np.nan])
    def test_pixel_outside_unit_interval_rejected(self, pixel):
        images = np.zeros((2, 4))
        images[1, 2] = pixel
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            D.Dataset(images, np.zeros(2, dtype=np.int64))

    def test_mnist_pair_counts(self, digits_test):
        pair_test = D.filter_pair(digits_test, 3, 7)
        threes = int((digits_test.labels == 3).sum())
        sevens = int((digits_test.labels == 7).sum())
        assert len(pair_test) == threes + sevens
        assert int((pair_test.labels == 1).sum()) == threes

    def test_no_label_leakage(self, digits_test):
        # every retained (image, label) pair appears unchanged in the source
        pair_test = D.filter_pair(digits_test, 3, 7)
        src = {hash(img.tobytes()): lab
               for img, lab in zip(digits_test.images, digits_test.labels)}
        for img, lab in zip(pair_test.images[:200], pair_test.labels[:200]):
            digit = src[hash(img.tobytes())]
            assert lab == (1 if digit == 3 else -1)


class TestChecksums:
    def test_archive_table(self):
        assert set(D.MNIST_ARCHIVES) == {
            "train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz",
            "t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz",
        }
        sizes = [size for size, _ in D.MNIST_ARCHIVES.values()]
        assert sizes == [9912422, 28881, 1648877, 4542]

    @needs_mnist
    def test_fetch_skips_verified_archives(self, capsys):
        # populated data dir with matching checksums: fetch is a no-op and
        # never touches the network
        directory = D.data_dir()
        if not all((directory / name).exists() for name in D.MNIST_ARCHIVES):
            pytest.skip("data dir holds unpacked files only")
        out = D.fetch_mnist(directory, base_url="http://unreachable.invalid")
        assert out == directory
        assert capsys.readouterr().out.count("checksum OK") == 4


class TestNetworkStack:
    def test_cli_import_leaves_network_stack_unloaded(self):
        # only fetch-data needs urllib.request and the http/ssl modules behind it
        code = ("import sys, sparsefront.cli; "
                "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(D.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_fetch_from_empty_file_url_raises_oserror(self, tmp_path):
        source = tmp_path / "empty"
        source.mkdir()
        with pytest.raises(OSError):
            D.fetch_mnist(tmp_path / "dest", base_url=source.as_uri())

    def test_fetch_leaves_no_unverified_archive(self, tmp_path):
        # a wrong first archive fails its size/md5 check; the loader must not find it
        source = tmp_path / "source"
        source.mkdir()
        (source / "train-images-idx3-ubyte.gz").write_bytes(b"not the archive")
        dest = tmp_path / "dest"
        with pytest.raises(OSError, match="md5"):
            D.fetch_mnist(dest, base_url=source.as_uri())
        assert list(dest.iterdir()) == []
