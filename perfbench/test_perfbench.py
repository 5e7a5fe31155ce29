"""Tests of the benchmark's own machinery: generator, span arithmetic, checks.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json

import numpy as np
import pytest

import run
import spans
import synth
from sparsefront import data as data_mod


class TestGenerator:
    def test_same_seed_same_bytes(self):
        a = synth.generate(7, 100, 0)
        b = synth.generate(7, 100, 0)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_seed_and_stream_change_the_data(self):
        base = synth.generate(7, 100, 0)[0]
        assert not np.array_equal(base, synth.generate(8, 100, 0)[0])
        assert not np.array_equal(base, synth.generate(7, 100, 1)[0])

    def test_round_trips_through_load_idx(self, tmp_path):
        synth.write_split(tmp_path, 3, 60, 20)
        pixels, labels = synth.generate(3, 60, 0)
        train = data_mod.load_mnist(tmp_path, "train")
        assert np.array_equal(train.images, pixels.astype(np.float64) / 255.0)
        assert np.array_equal(train.labels, labels)
        assert np.array_equal(np.bincount(train.labels), np.full(10, 6))
        assert len(data_mod.load_mnist(tmp_path, "test")) == 20

    def test_count_must_balance_classes(self):
        with pytest.raises(ValueError):
            synth.generate(0, 15, 0)


def _span(name, start, end, parent, count=None):
    return [name, start, end, parent, count]


class TestSelfTime:
    def test_hand_built_tree(self):
        tree = [
            _span("cli.main", 0, 100, -1),
            _span("attacks.evaluate", 10, 40, 0, 5),
            _span("models.forward", 15, 25, 1, 8),
            _span("models.forward", 50, 70, 0, 4),
        ]
        assert spans.self_times(tree) == [100 - 30 - 20, 30 - 10, 10, 20]

    def test_overlapping_children_count_once(self):
        tree = [_span("a", 0, 10, -1), _span("b", 2, 6, 0), _span("c", 4, 8, 0)]
        assert spans.self_times(tree)[0] == 10 - 6

    def test_layer_metrics_sum_over_processes(self):
        ms = 1_000_000
        one = {"spans": [
            _span("cli.main", 0, 100 * ms, -1),
            _span("transform.max_l1_norm", 10 * ms, 30 * ms, 0),
            _span("transform.synthesis_matrix", 12 * ms, 28 * ms, 1),
            _span("models.backward", 40 * ms, 60 * ms, 0, 64),
        ], "report_bytes": 10}
        two = {"spans": [
            _span("cli.main", 0, 50 * ms, -1),
            _span("transform.analysis_matrix", 5 * ms, 10 * ms, 0),
            _span("models.backward", 20 * ms, 30 * ms, 0, 32),
        ], "report_bytes": 5}
        m = spans.layer_metrics([one, two])
        assert m["cli.main.self_s"] == pytest.approx((60 + 35) / 1000)
        assert m["transform.operator_build.s"] == pytest.approx(25 / 1000)
        assert m["models.backward.s"] == pytest.approx(30 / 1000)
        assert m["models.backward.calls"] == 2
        assert m["models.backward.rows"] == 96
        assert m["cli.report_bytes"] == 15

    def test_tracer_records_parent_and_count(self):
        clock = iter(range(100)).__next__
        tracer = spans.Tracer(clock=clock)
        inner = tracer.wrap("frontend.apply_batch", lambda config, images: images)
        outer = tracer.wrap("cli.main", lambda: inner(None, [1, 2, 3]))
        outer()
        assert tracer.spans == [["cli.main", 0, 3, -1, None],
                                ["frontend.apply_batch", 1, 2, 0, 3]]


def _attack_outcome(tmp_path, name, clean, attacked):
    out = tmp_path / name
    out.mkdir()
    (out / "manifest.json").write_text("{}")
    summary = {"clean_accuracy": clean, "attacked_accuracy": attacked, "samples": 4}
    (out / "report.json").write_text(json.dumps({"summary": summary, "records": []}))
    cmd = run.Command(name, ["attack", "--out", str(out)], out)
    outcome = run.Outcome(cmd, wall_s=1.0, peak_rss_mb=1.0)
    run.check_outputs(outcome)
    return outcome


class TestOutputChecks:
    def test_failing_check_raises_failed_frac(self, tmp_path):
        good = _attack_outcome(tmp_path, "good", clean=0.9, attacked=0.5)
        assert run.tally([good]) == (1, 0)
        bad = _attack_outcome(tmp_path, "bad", clean=0.5, attacked=0.9)
        assert bad.problems
        assert run.tally([good, bad]) == (2, 1)

    def test_missing_manifest_fails(self, tmp_path):
        outcome = _attack_outcome(tmp_path, "x", clean=0.9, attacked=0.5)
        (outcome.command.out / "manifest.json").unlink()
        outcome.problems.clear()
        run.check_outputs(outcome)
        assert outcome.problems

    def test_repeats_must_be_byte_identical(self, tmp_path):
        first = _attack_outcome(tmp_path, "a", clean=0.9, attacked=0.5)
        again = _attack_outcome(tmp_path, "b", clean=0.9, attacked=0.4)
        again.command = first.command
        run.check_repeats([first, again])
        assert not first.problems and again.problems
