"""Every function defined in `src/sparsefront` is reached by running the commands.

The test runs each subcommand on the small synthetic split, plus a usage
error, a diverging training run and a manifest replay, under
``sys.setprofile``, and collects the code objects called. A function that no
command reaches is kept alive only by tests or the benchmark's tracer.
ALLOWED names each such function with the ROADMAP item that gives it a
caller or removes it from `src/`.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

import sparsefront

from test_cli import run_cli

SRC = Path(sparsefront.__file__).resolve().parent

ALLOWED = {
    # only the certificate calls these; item 2 gives it a caller
    "frontend.certified_radius_batch": "ROADMAP item 2",
    "transform.max_l1_norm": "ROADMAP item 2",
    # perfbench/spans.py names these; item 13 moves them to a test oracle or deletes them
    "models.FeedforwardNetwork.input_jacobian": "ROADMAP item 13",
    "transform.analysis_matrix": "ROADMAP item 13",
    "transform.synthesis_matrix": "ROADMAP item 13",
}


def _defined():
    """(file, first line, name) -> `module.qualname` of each def and lambda in `src/`.

    The qualified name is built from the enclosing code objects, as Python 3.11's
    `co_qualname` is: a class body adds `Class.`, a function `function.<locals>.`.
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        stack = [(c, "") for c in module.co_consts if isinstance(c, type(module))]
        while stack:
            code, prefix = stack.pop()
            qualname = prefix + code.co_name
            function = code.co_flags & inspect.CO_OPTIMIZED  # not a class body
            inner = qualname + (".<locals>." if function else ".")
            stack += [(c, inner) for c in code.co_consts if isinstance(c, type(code))]
            # comprehensions are not functions
            if function and (not code.co_name.startswith("<") or code.co_name == "<lambda>"):
                found[str(path), code.co_firstlineno, code.co_name] = f"{path.stem}.{qualname}"
    return found


def _reached(runs):
    """The (file, first line, name) of each code object that `runs` calls."""
    # a cached function runs its body only on a miss, so every cache starts empty
    for path in SRC.glob("*.py"):
        for value in vars(importlib.import_module(f"sparsefront.{path.stem}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        runs()
    finally:
        sys.setprofile(previous)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes}


def test_every_function_is_reached(synth_data, tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    (source / "train-images-idx3-ubyte.gz").write_bytes(b"not the archive")
    data = ["--data", synth_data]
    net = tmp_path / "net" / "net_paper_cnn_sparse_rho0.03.model"

    def runs():
        # no archive passes its checksum, so the fetch exits 2 after the first download
        assert run_cli("fetch-data", "--data", tmp_path / "mnist",
                       "--base-url", source.as_uri()) == 2
        assert run_cli("train-svm", *data, "--digits", "4,9", "--epochs", 2, "--no-defense",
                       "--out", tmp_path / "svm") == 0
        assert run_cli("train-svm", *data, "--digits", "3,3", "--out", tmp_path / "x") == 2
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_cli("train-svm", *data, "--lr", 1e300, "--epochs", 2,
                           "--out", tmp_path / "x") == 2
        assert run_cli("train-net", *data, "--arch", "paper_cnn", "--epochs", 1,
                       "--batch-size", 100, "--dropout", 0.3, "--clip",
                       "--out", net.parent) == 0
        assert run_cli("attack", *data, "--model", net, "--attack", "white", "--epsilon", 0.1,
                       "--clip", "--limit", 20, "--out", tmp_path / "attack") == 0
        assert run_cli("attack", "--config", tmp_path / "attack" / "manifest.json",
                       "--out", tmp_path / "replay") == 0
        assert run_cli("sweep", *data, "--rhos", "0.02", "--epsilons", "0.1",
                       "--out", tmp_path / "sweep") == 0
        assert run_cli("attenuation", "--n", 64, "--k", 4, "--trials", 10,
                       "--basis-kind", "haar", "--out", tmp_path / "attenuation") == 0
        assert run_cli("table1", *data, "--arch", "reduced_dense",
                       "--out", tmp_path / "table1") == 0

    reached = _reached(runs)
    unreached = {name for key, name in _defined().items() if key not in reached}
    assert unreached == set(ALLOWED), (
        f"unreached and not allowed: {sorted(unreached - set(ALLOWED))}; "
        f"allowed but reached: {sorted(set(ALLOWED) - unreached)}")
