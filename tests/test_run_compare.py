"""tests/run_compare.py: runs at two BLAS thread counts agree, and it catches what moved."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run_compare
from conftest import load_synth
from run_compare import G, R, compare_runs
from sparsefront import models as M

SRC = Path(__file__).resolve().parents[1] / "src"
MODEL = "net_paper_cnn_sparse_rho0.03.model"


def cli(threads, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))
    env.pop("SPARSEFRONT_DATA_DIR", None)
    subprocess.run([sys.executable, "-m", "sparsefront.cli", *map(str, argv)], env=env,
                   check=True, capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """threads -> (train-net run, white attack run) of a small defended paper_cnn."""
    root = tmp_path_factory.mktemp("threads")
    data = load_synth().write_split(root / "data", 3, 200, 30)
    result = {}
    for threads in (1, 2):
        train, attack = root / f"t{threads}" / "train", root / f"t{threads}" / "attack"
        cli(threads, "train-net", "--arch", "paper_cnn", "--data", data, "--epochs", 1,
            "--batch-size", 16, "--rho", 0.03, "--clip", "--seed", 1, "--out", train)
        cli(threads, "attack", "--data", data, "--model", train / MODEL, "--attack", "white",
            "--epsilon", 0.25, "--clip", "--limit", 30, "--out", attack)
        result[threads] = train, attack
    return result


@pytest.fixture
def copy(runs, tmp_path):
    """A copy of the one-thread run `kind` (0 = train-net, 1 = attack) to edit."""
    def make(kind):
        return Path(shutil.copytree(runs[1][kind], tmp_path / str(kind)))
    return make


class TestThreadCounts:
    @pytest.mark.parametrize("kind", [0, 1], ids=["train-net", "attack"])
    def test_agree(self, runs, kind):
        result = compare_runs(runs[1][kind], runs[2][kind])
        assert result.agree, result.differences
        assert result.near_ties == []
        assert all(worst <= R for worst in result.moved.values())

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: BLAS runs one thread")
    def test_model_bits_move(self, runs):
        # the tolerance is exercised: two BLAS threads change the weights' last bits
        assert compare_runs(runs[1][0], runs[2][0]).moved[MODEL] > 0


def edit_records(run, row, column, change):
    path = run / "report.json"
    report = json.loads(path.read_text())
    report["records"][row][column] = change(report["records"][row][column],
                                            [r[column] for r in report["records"]])
    path.write_text(json.dumps(report))


class TestReported:
    @pytest.mark.parametrize("factor,agree", [(0.1, True), (10, False)])
    def test_record_float(self, runs, copy, factor, agree):
        run = copy(1)
        edit_records(run, 3, "achieved_gap",
                     lambda v, col: v + factor * R * max(abs(c) for c in col))
        result = compare_runs(runs[1][1], run)
        assert result.agree is agree
        assert agree or "achieved_gap" in result.differences[0]

    @pytest.mark.parametrize("factor,agree", [(0.1, True), (10, False)])
    def test_csv_float(self, runs, copy, factor, agree):
        run = copy(1)
        lines = (run / "report.csv").read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("predicted_gap")
        scale = max(abs(float(line.split(",")[col])) for line in lines[1:])
        cells = lines[4].split(",")
        cells[col] = repr(float(cells[col]) + factor * R * scale)
        lines[4] = ",".join(cells)
        (run / "report.csv").write_text("\n".join(lines) + "\n")
        result = compare_runs(runs[1][1], run)
        assert result.agree is agree
        assert agree or "row 4 predicted_gap" in result.differences[0]

    @pytest.mark.parametrize("factor,agree", [(0.1, True), (10, False)])
    def test_model_float(self, runs, copy, factor, agree):
        run = copy(0)
        net = M.load_model(run / MODEL)
        w = net.params()[4]  # the first dense layer's weight
        w[7, 11] += factor * R * np.abs(w).max()
        M.save_model(net, run / MODEL)
        result = compare_runs(runs[1][0], run)
        assert result.agree is agree
        assert agree or "params[4]" in result.differences[0]

    def test_flip_above_gap(self, runs, copy):
        run = copy(1)
        gaps = run_compare.clean_gaps(runs[1][1])
        row = int(np.argmax(gaps))
        assert gaps[row] > G
        edit_records(run, row, "clean_prediction", lambda v, col: (v + 1) % 10)
        result = compare_runs(runs[1][1], run)
        assert not result.agree
        assert f"records[{row}]" in result.differences[0]
        assert result.near_ties == []

    def test_flip_below_gap_is_listed(self, runs, copy, monkeypatch):
        run = copy(1)
        gaps = run_compare.clean_gaps(runs[1][1])
        gaps[5] = G / 2
        monkeypatch.setattr(run_compare, "clean_gaps", lambda run: gaps)
        edit_records(run, 5, "attacked_prediction", lambda v, col: (v + 1) % 10)
        edit_records(run, 5, "achieved_gap", lambda v, col: v + 1.0)
        result = compare_runs(runs[1][1], run)
        assert result.agree, result.differences
        assert result.near_ties == [("report.json", 5, G / 2)]

    @pytest.mark.parametrize("key,value,agree", [
        ("out", "/elsewhere", True), ("data", "/elsewhere", True), ("epsilon", 0.5, False),
    ])
    def test_manifest(self, runs, copy, key, value, agree):
        run = copy(1)
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["config"][key] = value
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert compare_runs(runs[1][1], run).agree is agree

    def test_missing_file(self, runs, copy):
        run = copy(1)
        (run / "report.csv").unlink()
        assert not compare_runs(runs[1][1], run).agree
