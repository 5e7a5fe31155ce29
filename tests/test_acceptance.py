"""Acceptance gate: every criterion checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. C1-C6, C12 and C14 need the MNIST IDX files (see `sparsefront
fetch-data`) and skip without them; C7-C11 and C13 need no data.

Modes, selected by SPARSEFRONT_ACCEPTANCE:
  full (default)  - paper-scale CNN; trains two conv networks on the full
                    training split (tens of minutes on CPU).
  reduced         - the fast dense preset with the substitute clean-accuracy
                    bound; the attack-ordering checks run unchanged.

Defended classification follows the physical image pipeline (inputs and
reconstructions clamped to [0, 1]), matching the published table protocol;
the undefended-overwhelm check uses the unconstrained perturbation model.

Trained models are cached under SPARSEFRONT_CACHE_DIR when set (developer
convenience; unset for a certification run).
"""

import hashlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sparsefront import attacks as A
from sparsefront import attenuation as AT
from sparsefront import frontend as F
from sparsefront import models as M
from sparsefront import transform as T
from sparsefront.attacks import AttackSpec
from sparsefront.frontend import FrontEndConfig
from sparsefront.transform import Basis

from conftest import needs_mnist

MODE = os.environ.get("SPARSEFRONT_ACCEPTANCE", "full")
FULL = MODE != "reduced"

SVM_EPS = 0.12
SVM_RHO = 0.02
CNN_EPS = 0.25
CNN_RHO = 0.03
LEVELS = 1  # front-end decomposition depth used by the published pipeline

CNN_ARCH = M.PAPER_CNN if FULL else M.REDUCED_DENSE
CNN_ARCH_NAME = "paper_cnn" if FULL else "reduced_dense"
CNN_CLEAN_FLOOR = 98.8 if FULL else 97.5


def check(cid, ok, detail):
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def basis():
    return Basis("cdf97_biorthogonal", 28, 28, LEVELS)


def _cache_dir():
    path = os.environ.get("SPARSEFRONT_CACHE_DIR")
    return Path(path) if path else None


def _cached_train(key, train_fn):
    cache = _cache_dir()
    if cache is None:
        t0 = time.perf_counter()
        return train_fn(), time.perf_counter() - t0
    cache.mkdir(parents=True, exist_ok=True)
    path = cache / (hashlib.sha256(key.encode()).hexdigest()[:24] + ".model")
    if path.exists():
        return M.load_model(path), 0.0
    t0 = time.perf_counter()
    model = train_fn()
    seconds = time.perf_counter() - t0
    M.save_model(model, path)
    return model, seconds


def svm_config(front_end):
    return M.TrainConfig(
        seed=0, epochs=200, batch_size=64, learning_rate=0.1,
        weight_decay=1e-4, dropout_rate=0.0, front_end=front_end,
        clip_recon=front_end is not None,
    )


def cnn_config(front_end):
    if FULL:
        return M.TrainConfig(
            seed=0, epochs=8, batch_size=64, learning_rate=0.05,
            lr_decay_every=3, lr_decay_factor=0.5, weight_decay=1e-4,
            dropout_rate=0.5, front_end=front_end,
            clip_recon=front_end is not None,
        )
    return M.TrainConfig(
        seed=0, epochs=10, batch_size=64, learning_rate=0.1,
        lr_decay_every=4, lr_decay_factor=0.5, weight_decay=1e-4,
        dropout_rate=0.0, front_end=front_end,
        clip_recon=front_end is not None,
    )


@pytest.fixture(scope="session")
def svm_plain(pair_train):
    return _cached_train(
        "svm-plain-v1",
        lambda: M.train_linear_svm(pair_train.images, pair_train.labels, svm_config(None)),
    )


@pytest.fixture(scope="session")
def svm_defended(pair_train):
    fe = FrontEndConfig(basis(), SVM_RHO)
    return _cached_train(
        "svm-defended-v1",
        lambda: M.train_linear_svm(pair_train.images, pair_train.labels, svm_config(fe)),
    )


@pytest.fixture(scope="session")
def cnn_plain(mnist_train):
    return _cached_train(
        f"cnn-plain-{CNN_ARCH_NAME}-v1",
        lambda: M.train_network(mnist_train.images, mnist_train.labels,
                                cnn_config(None), CNN_ARCH),
    )


@pytest.fixture(scope="session")
def cnn_defended(mnist_train):
    fe = FrontEndConfig(basis(), CNN_RHO)
    return _cached_train(
        f"cnn-defended-{CNN_ARCH_NAME}-v1",
        lambda: M.train_network(mnist_train.images, mnist_train.labels,
                                cnn_config(fe), CNN_ARCH),
    )


def pct(x):
    return 100.0 * x


@needs_mnist
class TestCriterion1:
    def test_svm_clean_accuracy_and_runtime(self, svm_plain, pair_test):
        model, seconds = svm_plain
        report = A.evaluate(model, pair_test, AttackSpec("none", 0.0))
        acc = pct(report.clean_accuracy)
        check(
            "C1",
            abs(acc - 98.2) <= 1.0 and seconds < 120,
            f"SVM 3v7 clean accuracy {acc:.2f}% (target 98.2 +/- 1.0), "
            f"training {seconds:.1f}s (< 120s)",
        )


@needs_mnist
class TestCriterion2:
    def test_undefended_svm_is_overwhelmed(self, svm_plain, pair_test):
        model, _ = svm_plain
        accs = {}
        for kind in ("semiwhite", "white"):
            report = A.evaluate(model, pair_test, AttackSpec(kind, SVM_EPS))
            accs[kind] = pct(report.attacked_accuracy)
        check(
            "C2",
            accs["semiwhite"] <= 2.0 and accs["white"] <= 2.0,
            f"undefended SVM at eps={SVM_EPS}: semi-white {accs['semiwhite']:.2f}%, "
            f"white {accs['white']:.2f}% (both <= 2%)",
        )


@needs_mnist
class TestCriterion3:
    def test_defended_svm_table_row(self, svm_defended, pair_test):
        model, train_seconds = svm_defended
        t0 = time.perf_counter()
        sw = pct(A.evaluate(model, pair_test, AttackSpec("semiwhite", SVM_EPS, clip=True)).attacked_accuracy)
        w = pct(A.evaluate(model, pair_test, AttackSpec("white", SVM_EPS, clip=True)).attacked_accuracy)
        seconds = train_seconds + (time.perf_counter() - t0)
        check(
            "C3",
            abs(sw - 97.31) <= 3.0 and abs(w - 94.62) <= 3.0 and seconds < 600,
            f"defended SVM (rho={SVM_RHO}): semi-white {sw:.2f}% (97.31 +/- 3), "
            f"white {w:.2f}% (94.62 +/- 3), runtime {seconds:.0f}s (< 600s)",
        )


@needs_mnist
class TestCriterion4:
    def test_cnn_clean_accuracy(self, cnn_plain, mnist_test):
        net, seconds = cnn_plain
        report = A.evaluate(net, mnist_test, AttackSpec("none", 0.0, clip=True))
        acc = pct(report.clean_accuracy)
        check(
            "C4",
            acc >= CNN_CLEAN_FLOOR and seconds < 7200,
            f"{CNN_ARCH_NAME} clean accuracy {acc:.2f}% (>= {CNN_CLEAN_FLOOR}), "
            f"training {seconds:.0f}s (< 7200s)",
        )


@pytest.fixture(scope="session")
def undefended_cnn_attacks(cnn_plain, mnist_test):
    net, _ = cnn_plain
    return {
        kind: pct(A.evaluate(net, mnist_test, AttackSpec(kind, CNN_EPS, clip=True)).attacked_accuracy)
        for kind in ("fgsm", "semiwhite", "white")
    }


@pytest.fixture(scope="session")
def defended_cnn_attacks(cnn_defended, mnist_test):
    net, _ = cnn_defended
    return {
        kind: pct(A.evaluate(net, mnist_test, AttackSpec(kind, CNN_EPS, clip=True)).attacked_accuracy)
        for kind in ("fgsm", "semiwhite", "white")
    }


@needs_mnist
class TestCriterion5:
    def test_undefended_cnn_attacks(self, undefended_cnn_attacks):
        a = undefended_cnn_attacks
        equal = abs(a["semiwhite"] - a["white"]) < 1e-9
        if FULL:
            ok = (abs(a["fgsm"] - 19.45) <= 5.0 and abs(a["semiwhite"] - 8.87) <= 4.0
                  and abs(a["white"] - 8.87) <= 4.0 and equal)
            detail = (
                f"undefended CNN at eps={CNN_EPS}: fgsm {a['fgsm']:.2f}% (19.45 +/- 5), "
                f"semi-white {a['semiwhite']:.2f}% / white {a['white']:.2f}% (8.87 +/- 4, equal)"
            )
        else:
            ok = equal and a["semiwhite"] <= 40.0
            detail = (
                f"undefended reduced net: semi-white {a['semiwhite']:.2f}% == "
                f"white {a['white']:.2f}%, attacks effective (<= 40%)"
            )
        check("C5", ok, detail)


@needs_mnist
class TestCriterion6:
    def test_defended_cnn_attacks_and_orderings(
        self, undefended_cnn_attacks, defended_cnn_attacks
    ):
        u, d = undefended_cnn_attacks, defended_cnn_attacks
        orderings = (
            d["white"] <= d["semiwhite"] <= d["fgsm"]
            and all(d[k] > u[k] for k in ("fgsm", "semiwhite", "white"))
        )
        if FULL:
            windows = (abs(d["fgsm"] - 89.75) <= 5.0
                       and abs(d["semiwhite"] - 88.76) <= 5.0
                       and abs(d["white"] - 84.04) <= 5.0)
        else:
            windows = True
        check(
            "C6",
            orderings and windows,
            f"defended CNN (rho={CNN_RHO}): fgsm {d['fgsm']:.2f}% "
            f"semi-white {d['semiwhite']:.2f}% white {d['white']:.2f}% "
            f"(undefended {u['fgsm']:.2f}/{u['semiwhite']:.2f}/{u['white']:.2f}); "
            f"orderings white<=sw<=fgsm and defended>undefended",
        )


class TestCriterion7:
    def test_attenuation_lab(self):
        t0 = time.perf_counter()
        base = dict(n=1024, k=32, trials=2000, basis_kind="identity", seed=0)
        semi = AT.run_ensemble(AT.EnsembleConfig(mode="semiwhite", **base))
        white = AT.run_ensemble(AT.EnsembleConfig(mode="white", **base))
        seconds = time.perf_counter() - t0
        target = 32 / 1024
        rel_err = abs(semi.mean_ratio - target) / target
        paired = bool((white.samples >= semi.samples - 1e-12).all())
        check(
            "C7",
            rel_err < 0.10 and paired and seconds < 60,
            f"semi-white mean ratio {semi.mean_ratio:.5f} vs K/N {target:.5f} "
            f"({100 * rel_err:.1f}% off, < 10%), white >= semi-white on all "
            f"{base['trials']} paired trials: {paired}, runtime {seconds:.1f}s",
        )


class TestCriterion8:
    def test_transform_foundations(self, rng):
        haar = Basis("haar_orthonormal", 28, 28, 2)
        cdf = Basis("cdf97_biorthogonal", 28, 28, 2)
        x = rng.standard_normal((200, 784))
        pr = max(
            float(np.max(np.abs(T.inverse_batch(b, T.forward_batch(b, x)) - x)))
            for b in (haar, cdf)
        )
        g = T.synthesis_matrix(haar)
        ortho = float(np.max(np.abs(g.T @ g - np.eye(784))))
        from test_transform import fir_analyze_2d, pyramid_of
        img = rng.standard_normal((28, 28))
        basis3 = Basis("cdf97_biorthogonal", 28, 28, 3)
        lifting = pyramid_of(basis3, T.forward_batch(basis3, img.reshape(1, -1))[0])
        oracle = fir_analyze_2d(img, 3)
        fir_err = float(np.max(np.abs(lifting - oracle)))
        check(
            "C8",
            pr < 1e-9 and ortho < 1e-9 and fir_err < 1e-8,
            f"perfect reconstruction {pr:.2e} (< 1e-9), Haar orthonormality "
            f"{ortho:.2e} (< 1e-9), lifting vs FIR oracle {fir_err:.2e} (< 1e-8)",
        )


class TestCriterion9:
    def test_certificate_soundness(self, rng):
        haar = Basis("haar_orthonormal", 28, 28, 2)
        config = FrontEndConfig(haar, SVM_RHO)
        k = config.k
        g = T.synthesis_matrix(haar)
        violations = 0
        checked = 0
        for _ in range(100):
            code = np.zeros(784)
            idx = rng.choice(784, size=k, replace=False)
            code[idx] = (1.0 + rng.random(k)) * np.where(rng.random(k) < 0.5, -1, 1)
            x = T.inverse_batch(haar, code[None, :])[0]
            report = F.check_high_snr(config, x, 1.0)
            eps = 0.9 * report.gap / report.threshold
            assert F.check_high_snr(config, x, eps).certified
            support = F.support_batch(config, x[None, :])[0]
            weakest = support[np.argmin(np.abs(code[support]))]
            candidates = [
                -eps * np.sign(code[weakest]) * np.sign(g[:, weakest]),
                eps * np.sign(g[:, int(rng.integers(784))]),
                eps * np.sign(rng.standard_normal(784)),
            ] + [eps * (2 * rng.random(784) - 1) for _ in range(7)]
            for e in candidates:
                checked += 1
                if not np.array_equal(F.support_batch(config, (x + e)[None, :])[0], support):
                    violations += 1
        check(
            "C9",
            checked >= 1000 and violations == 0,
            f"{checked} certified perturbations (random + sign-adversarial), "
            f"{violations} support changes (must be 0)",
        )


class TestCriterion10:
    def test_locally_linear_exactness(self, rng):
        presets = {"paper_cnn": M.PAPER_CNN, "reduced_dense": M.REDUCED_DENSE}
        fe = FrontEndConfig(basis(), CNN_RHO)
        worst = 0.0
        for name, arch in presets.items():
            net = M.build_network(arch, seed=13)
            for defended in (False, True):
                x = rng.random((100, 784))
                ll = A.extract_locally_linear(net, x, fe if defended else None)
                y = M.logits(net, F.apply_batch(fe, x) if defended else x)
                rec = np.einsum("bln,bn->bl", ll.w_eq, x) - ll.b_eq
                rel = np.max(np.abs(rec - y) / (1.0 + np.abs(y)))
                worst = max(worst, float(rel))
        check(
            "C10",
            worst <= 1e-6,
            f"locally-linear reconstruction worst relative error {worst:.2e} "
            f"(<= 1e-6; both presets, defended and undefended, 100 inputs each)",
        )


class TestCriterion11:
    def test_backprop_against_finite_differences(self, rng):
        arch = {
            "input_shape": (1, 8, 8),
            "layers": [
                ("conv", 3, 3, 3), ("relu",), ("maxpool",), ("flatten",),
                ("dense", 12), ("relu",), ("dropout", 0.0), ("dense", 4),
            ],
        }
        net = M.build_network(arch, seed=21)
        x = rng.standard_normal((2, 64))
        t = rng.integers(0, 4, 2)

        def loss():
            y, _ = net.forward(x)
            p = M.softmax(y)
            return -np.log(p[np.arange(2), t]).mean()

        y, caches = net.forward(x)
        p = M.softmax(y)
        gout = p.copy()
        gout[np.arange(2), t] -= 1
        gout /= 2
        gx, grads = net.backward(gout, caches)
        h = 1e-5
        worst = 0.0
        for prm, grd in zip(net.params(), grads):
            flat, gflat = prm.reshape(-1), grd.reshape(-1)
            for j in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                old = flat[j]
                flat[j] = old + h
                lp = loss()
                flat[j] = old - h
                lm = loss()
                flat[j] = old
                num = (lp - lm) / (2 * h)
                worst = max(worst, abs(num - gflat[j]) / max(1.0, abs(num)))
        for j in rng.choice(64, size=8, replace=False):
            old = x[0, j]
            x[0, j] = old + h
            lp = loss()
            x[0, j] = old - h
            lm = loss()
            x[0, j] = old
            num = (lp - lm) / (2 * h)
            worst = max(worst, abs(num - gx[0, j]) / max(1.0, abs(num)))
        check(
            "C11",
            worst <= 1e-4,
            f"backprop vs central differences worst relative error {worst:.2e} "
            f"(<= 1e-4; conv, relu, maxpool, dense, dropout, flatten)",
        )


@needs_mnist
class TestCriterion12:
    def test_binary_fgsm_equals_semi_white(self, pair_train, pair_test):
        arch = {"input_shape": (784,), "layers": [("dense", 32), ("relu",), ("dense", 2)]}
        labels01 = (pair_train.labels == 1).astype(np.int64)
        cfg = M.TrainConfig(seed=0, epochs=2, batch_size=64, learning_rate=0.1,
                            dropout_rate=0.0)
        net = M.train_network(pair_train.images, labels01, cfg, arch)
        test01 = (pair_test.labels == 1).astype(np.int64)
        x = pair_test.images
        e_fgsm, zero, _ = A.fgsm_batch(net, x, test01, CNN_EPS)
        e_sw, _, _, _ = A.pairwise_batch(net, None, x, test01, CNN_EPS, "semiwhite")
        live = ~zero
        identical = bool(np.array_equal(e_fgsm[live], e_sw[live]))
        check(
            "C12",
            identical and int(live.sum()) > 0,
            f"binary FGSM == semi-white perturbation vectors on "
            f"{int(live.sum())}/{x.shape[0]} test inputs with nonzero gradient",
        )


class TestCriterion13:
    def test_white_linear_never_beaten_by_exhaustive_search(self, rng):
        corners = np.array(
            [[(1 if (m >> j) & 1 else -1) for j in range(8)] for m in range(256)],
            dtype=float,
        )
        beaten = {}
        for kind in ("haar_orthonormal", "cdf97_biorthogonal"):
            b = Basis(kind, 2, 4, 1)
            fe = FrontEndConfig(b, 3 / 8)
            beaten[kind] = 0
            for _ in range(20):
                code = np.zeros(8)
                idx = rng.choice(8, size=3, replace=False)
                code[idx] = (1.0 + rng.random(3)) * np.where(rng.random(3) < 0.5, -1, 1)
                x = T.inverse_batch(b, code[None, :])[0]
                report = F.check_high_snr(fe, x, 1.0)
                eps = 0.9 * report.gap / report.threshold
                model = M.LinearModel(rng.standard_normal(8), 0.0)
                e, _ = A.linear_batch(model, fe, x[None, :], eps, "white")
                defended = F.apply_batch(fe, np.vstack([x, x + e, x + eps * corners]))
                ours = abs(defended[1] @ model.w - defended[0] @ model.w)
                best = np.abs(defended[2:] @ model.w - defended[0] @ model.w).max()
                if best > ours + 1e-9:
                    beaten[kind] += 1
        check(
            "C13",
            not any(beaten.values()),
            f"white-box linear attack vs exhaustive {{+/-eps}}^8 search: beaten on "
            f"{beaten['haar_orthonormal']}/20 Haar and {beaten['cdf97_biorthogonal']}/20 "
            f"CDF 9/7 certified instances (must be 0)",
        )


@needs_mnist
class TestCriterion14:
    def test_reports_reproduce_byte_for_byte(self, tmp_path):
        from sparsefront import cli

        def run_and_replay(argv, name):
            """Run argv into `<name>1`, then replay its manifest into `<name>2`."""
            first, second = tmp_path / f"{name}1", tmp_path / f"{name}2"
            assert cli.main([*argv, "--out", str(first)]) == 0
            assert cli.main([argv[0], "--config", str(first / "manifest.json"),
                             "--out", str(second)]) == 0
            return first, second

        runs = run_and_replay(["attenuation", "--n", "256", "--k", "8", "--trials", "300",
                               "--mode", "both", "--seed", "17"], "run")
        trains = run_and_replay(["train-svm", "--digits", "3,7", "--epochs", "3", "--lr", "0.3",
                                 "--no-defense", "--seed", "5"], "t")
        model_file = trains[0] / "svm_3v7_plain.model"
        attacks = run_and_replay(["attack", "--model", str(model_file), "--attack", "semiwhite",
                                  "--epsilon", "0.12", "--digits", "3,7", "--limit", "150"], "a")
        outputs = [(out / "report.csv").read_bytes() for out in runs]
        models = [(out / "svm_3v7_plain.model").read_bytes() for out in trains]
        atk = [(out / "report.csv").read_bytes() + (out / "report.json").read_bytes()
               for out in attacks]
        check(
            "C14",
            outputs[0] == outputs[1] and models[0] == models[1] and atk[0] == atk[1],
            "attenuation reports, model files and attack reports reproduce "
            "byte-for-byte when replayed from their manifests",
        )
