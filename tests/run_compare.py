"""Whether two run directories agree up to their last bits.

    python tests/run_compare.py RUN_A RUN_B

Two runs of one command agree when:

- they hold the same files, and their manifests match apart from paths
  (PATH_KEYS);
- every integer, string and switch in their reports and model headers is
  equal, apart from the rows of an attack report whose clean logit gap is
  below G: those may differ in their labels and predictions, and are listed;
- every float in report.json, report.csv and the model files lies within R
  relative. A float is measured against the largest magnitude of its
  column (report records, CSV columns) or array (model parameters), and a
  lone float against itself. A CSV cell printed to 10 significant digits
  may differ by one more unit in its last digit.

R and G are stated once, here. R is about 40 times the spread that the BLAS
thread count alone puts into one paper_cnn epoch (2.6e-11 relative). Files
whose bytes are equal need no parsing; for every other file the comparison
records its largest relative difference. Exit status 0 means agreement.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsefront import cli
from sparsefront import frontend as frontend_mod
from sparsefront import models as models_mod
from sparsefront.attacks import AttackSpec

R = 1e-9  # relative tolerance of every float
G = 1e-6  # clean logit gap below which a row's labels and predictions may differ
PATH_KEYS = ("out", "data", "model")  # manifest and report keys that hold paths
CSV_DIGITS = 10  # significant digits of a report.csv float (cli._fmt)
# an attack report's integer columns; report.csv splits chosen_pair into pair_i, pair_t
INT_COLUMNS = ("sample", "label", "clean_prediction", "attacked_prediction", "chosen_pair",
               "pair_i", "pair_t")


@dataclass
class Comparison:
    differences: list = field(default_factory=list)  # what disagrees, one line each
    near_ties: list = field(default_factory=list)  # (file, sample, clean gap) rows excused
    moved: dict = field(default_factory=dict)  # file whose bytes differ -> largest rel. diff

    @property
    def agree(self):
        return not self.differences


def _rel(diff, scale):
    if diff == 0:
        return 0.0
    return diff / scale if scale > 0 else math.inf


class _File:
    """The comparison of one file: its differences and its largest relative difference."""

    def __init__(self, result, name):
        self.result, self.name, self.worst = result, name, 0.0

    def differ(self, where, a, b):
        self.result.differences.append(f"{self.name}: {where}: {a!r} != {b!r}")

    def floats(self, where, a, b, scale, slack=0.0):
        rel = _rel(abs(a - b), scale)
        self.worst = max(self.worst, rel)
        if abs(a - b) > R * scale + slack:
            self.differ(f"{where} (relative difference {rel:.3g})", a, b)

    def values(self, where, a, b, skip=()):
        """Nested JSON values; a float is measured against itself."""
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.differ(f"{where} keys", sorted(a), sorted(b))
                return
            for key in a:
                if key not in skip:
                    self.values(f"{where}.{key}", a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for k, (x, y) in enumerate(zip(a, b)):
                self.values(f"{where}[{k}]", x, y)
        elif type(a) is float and type(b) is float:
            self.floats(where, a, b, max(abs(a), abs(b)))
        elif a != b or type(a) is not type(b):
            self.differ(where, a, b)


def clean_gaps(run):
    """Top-1 minus top-2 clean logit of each sample an attack run reported.

    The model, data, limit and attack are the ones the run's manifest records.
    """
    config = json.loads((run / "manifest.json").read_text())["config"]
    attack = AttackSpec(config["attack"], config["epsilon"], clip=config["clip"])
    model, test = cli.attack_samples(config["model"], config["data"], config["limit"], attack)
    y = np.sort(model.logits(frontend_mod.defend(model.front_end, test.images, attack.clip)),
                axis=1)
    return y[:, -1] - y[:, -2]


def _records(f, a, b, run_a):
    """An attack report's records, column by column; returns the excused samples."""
    if len(a) != len(b) or (a and a[0].keys() != b[0].keys()):
        f.differ("records", f"{len(a)} rows", f"{len(b)} rows")
        return set()
    keys = list(a[0]) if a else []
    moved = [k for k, (x, y) in enumerate(zip(a, b))
             if any(x[key] != y[key] for key in keys if key in INT_COLUMNS)]
    excused = set()
    if moved:
        gaps = clean_gaps(run_a)
        for k in moved:
            sample = a[k]["sample"]
            if gaps[sample] < G:
                excused.add(sample)
                f.result.near_ties.append((f.name, sample, float(gaps[sample])))
            else:
                f.differ(f"records[{k}] (clean gap {gaps[sample]:.3g})",
                         {key: a[k][key] for key in INT_COLUMNS if key in a[k]},
                         {key: b[k][key] for key in INT_COLUMNS if key in b[k]})
    for key in keys:
        if key in INT_COLUMNS:
            continue
        col_a = [row[key] for row in a]
        scale = max((abs(v) for v in col_a if isinstance(v, float)), default=0.0)
        for k, (x, y) in enumerate(zip(col_a, (row[key] for row in b))):
            if a[k]["sample"] in excused:
                continue
            if type(x) is float and type(y) is float:
                f.floats(f"records[{k}].{key}", x, y, scale)
            elif x != y:
                f.differ(f"records[{k}].{key}", x, y)
    return excused


def _report_json(f, path_a, path_b):
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    excused = set()
    if "records" in a and "records" in b:
        excused = _records(f, a["records"], b["records"], path_a.parent)
    # a summary's accuracies and mean distortion average over the records
    skip = PATH_KEYS + (("clean_accuracy", "attacked_accuracy", "mean_distortion")
                        if excused else ())
    f.values("summary", a.get("summary"), b.get("summary"), skip)
    if a.keys() != b.keys():
        f.differ("keys", sorted(a), sorted(b))
    return excused


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _csv(f, path_a, path_b, excused):
    a, b = (list(csv.reader(p.read_text().splitlines())) for p in (path_a, path_b))
    if len(a) != len(b) or not a or a[0] != b[0]:
        f.differ("rows or header", f"{len(a)} rows", f"{len(b)} rows")
        return
    header, rows_a, rows_b = a[0], a[1:], b[1:]
    sample = header.index("sample") if "sample" in header else None
    for c, name in enumerate(header):
        numbers = [_as_float(row[c]) for row in rows_a]
        scale = max((abs(v) for v in numbers if v is not None), default=0.0)
        for k, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            if sample is not None and int(row_a[sample]) in excused:
                continue
            x, y = row_a[c], row_b[c]
            fx, fy = _as_float(x), _as_float(y)
            if x == y:
                continue
            if fx is None or fy is None or name in INT_COLUMNS:
                f.differ(f"row {k + 1} {name}", x, y)
                continue
            top = max(abs(fx), abs(fy))
            unit = 10.0 ** (math.floor(math.log10(top)) - (CSV_DIGITS - 1)) if top else 0.0
            f.floats(f"row {k + 1} {name}", fx, fy, scale, slack=unit)


def _model(f, path_a, path_b):
    a, b = (models_mod.load_model(p) for p in (path_a, path_b))
    if type(a) is not type(b):
        f.differ("model kind", type(a).__name__, type(b).__name__)
        return
    if isinstance(a, models_mod.LinearModel):
        f.values("header", [a.digits, a.front_end], [b.digits, b.front_end])
        f.floats("b", a.b, b.b, max(abs(a.b), abs(b.b)))
        arrays = [("w", a.w, b.w)]
    else:
        f.values("header", [a.arch, a.front_end], [b.arch, b.front_end])
        arrays = [(f"params[{k}]", x, y) for k, (x, y) in enumerate(zip(a.params(), b.params()))]
    for where, x, y in arrays:
        if x.shape != y.shape:
            f.differ(f"{where} shape", x.shape, y.shape)
            continue
        diff = np.abs(x - y).max(initial=0.0)
        scale = np.abs(x).max(initial=0.0)
        rel = _rel(diff, scale)
        f.worst = max(f.worst, rel)
        if diff > R * scale:
            f.differ(f"{where} (relative difference {rel:.3g})", "...", "...")


def compare_runs(run_a, run_b) -> Comparison:
    """Compare two run directories of one command; see the module docstring."""
    run_a, run_b = Path(run_a), Path(run_b)
    result = Comparison()
    names = [sorted(p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file())
             for run in (run_a, run_b)]
    if names[0] != names[1]:
        result.differences.append(f"files: {names[0]} != {names[1]}")
        return result
    excused = {}
    # report.json before report.csv, so the CSV skips the rows the records excused
    for name in sorted(names[0], key=lambda n: (not n.endswith(".json"), n)):
        path_a, path_b = run_a / name, run_b / name
        if path_a.read_bytes() == path_b.read_bytes():
            continue
        f = _File(result, name)
        if Path(name).name == "manifest.json":
            a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
            f.values("manifest", {**a, "config": None}, {**b, "config": None})
            f.values("config", a.get("config"), b.get("config"), PATH_KEYS)
        elif name.endswith(".json"):
            excused[str(Path(name).parent)] = _report_json(f, path_a, path_b)
        elif name.endswith(".csv"):
            _csv(f, path_a, path_b, excused.get(str(Path(name).parent), set()))
        elif name.endswith(".model"):
            _model(f, path_a, path_b)
        else:
            f.differ("bytes", "...", "...")
        result.moved[name] = f.worst
    return result


def main(argv=None):
    run_a, run_b = argv if argv is not None else sys.argv[1:]
    result = compare_runs(run_a, run_b)
    for name, worst in result.moved.items():
        print(f"moved {name}: largest relative difference {worst:.3g}")
    for name, sample, gap in result.near_ties:
        print(f"near tie {name}: sample {sample}, clean gap {gap:.3g}")
    for line in result.differences:
        print(f"differs {line}")
    print("agree" if result.agree else "disagree")
    return 0 if result.agree else 1


if __name__ == "__main__":
    sys.exit(main())
