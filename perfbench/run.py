"""Offline end-to-end benchmark for the sparsefront CLI.

    python3 perfbench/run.py --workload linear --seed 1 --seconds 15 --trace 0

Set-up writes a deterministic synthetic-digit IDX split for the seed (and,
for cnn_attack, trains the model under attack). The run then repeats the
workload's command sequence until ``--seconds`` have passed: one client,
closed loop, each command a fresh ``python -m sparsefront.cli`` process with
the BLAS thread count pinned. Every command's outputs are checked. The last
line of stdout is one JSON object: end-to-end metrics with ``--trace 0``;
with ``--trace 1``, untraced and traced sequences alternate and the metrics
are the per-layer ones from ``spans.py``.

The synthetic data is for timing only; it never stands in for a paper number.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import synth

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())

MIN_REPEATS = 2  # sequences per run, so the byte-identity check always runs
# One BLAS thread (at most nproc): on a small shared host the spare core
# absorbs background load instead of stalling a two-thread BLAS call.
BLAS_THREADS = 1
DEADLINE_S = 170.0  # every command is killed past this point of the run


@dataclass
class Command:
    """One CLI invocation; ``sample_epochs`` is set for train-* commands."""

    name: str
    argv: list
    out: Path
    sample_epochs: int = 0
    reference: str = ""  # key into reference.json for a trained model

    @property
    def kind(self):
        return self.argv[0]


@dataclass
class Outcome:
    command: Command
    wall_s: float
    peak_rss_mb: float
    problems: list = field(default_factory=list)
    samples: int = 0  # attacked samples, read from the report
    digest: str = ""
    trace: dict | None = None

    @property
    def sample_epochs(self):
        return self.command.sample_epochs


def _no_setup(data, seed):
    return []


@dataclass
class Workload:
    split: tuple  # synthetic (train, test) sample counts
    sequence: callable  # (data dir, seed) -> [Command], repeated while measuring
    setup: callable = _no_setup  # (data dir, seed) -> [Command], run once per set-up
    # set-up runs per benchmark run; setup_s is their median. Fewer where
    # set-up trains a network, to keep a run within its time budget.
    setup_repeats: int = 5


LINEAR_SPLIT = (6000, 2000)  # the 3-vs-7 pair keeps a fifth: 1200 train, 400 test
CNN_SPLIT = (2000, 1000)
SVM_EPOCHS = 50
CNN_MODEL = WORK / "runs" / "train-net-cnn" / "net_paper_cnn_sparse_rho0.03.model"


def _cli(name, *argv, **kw):
    out = WORK / "runs" / name
    return Command(name, [str(a) for a in argv] + ["--out", str(out)], out, **kw)


def _svm_train(data, seed, tag):
    flags = ["--clip", "--rho", 0.02] if tag == "defended" else ["--no-defense"]
    pair_train = LINEAR_SPLIT[0] // 5
    return _cli(f"train-svm-{tag}", "train-svm", "--data", data, "--seed", seed,
                "--epochs", SVM_EPOCHS, *flags,
                sample_epochs=pair_train * SVM_EPOCHS, reference=f"svm_{tag}")


def _linear(data, seed):
    cmds = [_svm_train(data, seed, "plain"), _svm_train(data, seed, "defended")]
    models = {"plain": cmds[0].out / "svm_3v7_plain.model",
              "defended": cmds[1].out / "svm_3v7_sparse_rho0.02.model"}
    for tag, model in models.items():
        for attack in ("semiwhite", "white"):
            cmds.append(_cli(f"attack-svm-{tag}-{attack}", "attack", "--data", data,
                             "--model", model, "--attack", attack, "--epsilon", 0.12, "--clip"))
    cmds.append(_cli("attenuation-haar", "attenuation", "--basis-kind", "haar",
                     "--mode", "both", "--seed", seed))
    cmds.append(_cli("attenuation-identity", "attenuation", "--basis-kind", "identity",
                     "--mode", "semiwhite", "--seed", seed))
    return cmds


def _cnn_train_command(data, seed):
    return _cli("train-net-cnn", "train-net", "--arch", "paper_cnn", "--data", data,
                "--seed", seed, "--epochs", 1, "--batch-size", 16, "--rho", 0.03, "--clip",
                sample_epochs=CNN_SPLIT[0], reference="cnn_defended")


def _cnn_attacks(data, attacks, limit):
    return [_cli(f"attack-cnn-{a}", "attack", "--data", data, "--model", CNN_MODEL,
                 "--attack", a, "--epsilon", 0.25, "--clip", "--limit", limit)
            for a in attacks]


WORKLOADS = {
    "linear": Workload(LINEAR_SPLIT, _linear),
    "cnn_attack": Workload(
        CNN_SPLIT,
        lambda data, seed: _cnn_attacks(data, ("fgsm", "semiwhite", "white"), 64),
        setup=lambda data, seed: [_cnn_train_command(data, seed)],
        setup_repeats=3,
    ),
    # ends with an attack so that attack_samples_per_s exists here too
    "cnn_train": Workload(
        CNN_SPLIT,
        lambda data, seed: [_cnn_train_command(data, seed)] + _cnn_attacks(data, ("fgsm",), 256),
    ),
}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SPARSEFRONT_DATA_DIR", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_process(argv, log_path, deadline):
    """Run argv to completion; returns (returncode, wall seconds, peak RSS MiB).

    The process is killed once ``deadline`` (a perf_counter time) passes.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - start), proc.kill)
        killer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            if status is None:
                proc.kill()
                proc.wait()
    # os.wait4 reaped the child, so Popen never learns its status
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_command(cmd, deadline, traced=False):
    if cmd.out.exists():
        shutil.rmtree(cmd.out)
    logs = WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    if traced:
        trace_path = logs / f"{cmd.name}.spans.json"
        argv = [sys.executable, str(BENCH_DIR / "spans.py"), str(trace_path), "--", *cmd.argv]
    else:
        argv = [sys.executable, "-m", "sparsefront.cli", *cmd.argv]
    code, wall, rss = run_process(argv, logs / f"{cmd.name}.log", deadline)
    outcome = Outcome(cmd, wall, rss)
    if code != 0:
        outcome.problems.append(f"exit code {code}")
    else:
        check_outputs(outcome)
    if traced and code == 0:
        outcome.trace = json.loads(trace_path.read_text())
    return outcome


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _parse_reports(out):
    """Parse manifest.json and every report.*; returns (report.json or None, csv rows)."""
    json.loads((out / "manifest.json").read_text())
    reports = sorted(out.glob("report.*"))
    if not reports:
        raise ValueError("no report.* written")
    report, rows = None, []
    for path in reports:
        if path.suffix == ".json":
            report = json.loads(path.read_text())
        elif path.suffix == ".csv":
            rows = list(csv.DictReader(io.StringIO(path.read_text())))
        else:
            raise ValueError(f"unexpected report file {path.name}")
    return report, rows


def _digest(out):
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_outputs(outcome):
    """Append to ``outcome.problems`` every output check the command fails."""
    cmd, problems = outcome.command, outcome.problems
    try:
        report, rows = _parse_reports(cmd.out)
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable outputs: {exc}")
        return
    outcome.digest = _digest(cmd.out)
    try:
        _check_values(outcome, report, rows)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")


def _check_values(outcome, report, rows):
    cmd, problems = outcome.command, outcome.problems
    summary = (report or {}).get("summary", {})
    if cmd.kind == "attack":
        outcome.samples = int(summary["samples"])
        if summary["attacked_accuracy"] > summary["clean_accuracy"]:
            problems.append("attacked accuracy exceeds clean accuracy")
    if cmd.reference:
        ref = REFERENCE["clean_accuracy"][cmd.reference]
        if abs(summary["clean_accuracy"] - ref["value"]) > ref["tolerance"]:
            problems.append(f"clean accuracy {summary['clean_accuracy']:.4f} is not within "
                            f"{ref['tolerance']} of {ref['value']}")
    if cmd.kind == "attenuation":
        limit = REFERENCE["attenuation_stderrs"]
        for row in rows:
            if row["basis"] != "identity" or row["mode"] != "semiwhite":
                continue
            expected = int(row["k"]) / int(row["n"])
            if abs(float(row["mean_ratio"]) - expected) > limit * float(row["stderr"]):
                problems.append(f"identity semiwhite ratio {row['mean_ratio']} is not within "
                                f"{limit} standard errors of K/N={expected:g}")


def check_repeats(outcomes):
    """Repeats of one command must write byte-identical outputs."""
    first = {}
    for o in outcomes:
        if o.problems:
            continue
        seen = first.setdefault(o.command.name, o)
        if o.digest != seen.digest:
            o.problems.append("outputs differ from an earlier repeat")


def tally(outcomes):
    """(attempted, failed): a command fails if it exits nonzero or fails a check."""
    return len(outcomes), sum(1 for o in outcomes if o.problems)


def check_trace_counts(seq_metrics, outcomes):
    """Per-layer counts of every traced sequence must equal the first one's."""
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in seq_metrics]
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            outcomes[i][0].problems.append("per-layer counts differ between repeats")


# ---------------------------------------------------------------------------
# Benchmark run
# ---------------------------------------------------------------------------


def host_metadata(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def run_setup(workload, seed, repeats, deadline):
    """Returns (set-up seconds per repeat, set-up command outcomes, data dir)."""
    data = WORK / "data"
    times, outcomes = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        synth.write_split(data, seed, *workload.split)
        done = [run_command(c, deadline) for c in workload.setup(data, seed)]
        times.append(time.perf_counter() - start)
        outcomes += done
    return times, outcomes, data


def run_sequence(commands, deadline, traced=False):
    start = time.perf_counter()
    outcomes = [run_command(c, deadline, traced) for c in commands]
    return time.perf_counter() - start, outcomes


def _rate(outcomes, what):
    """Samples per second over the commands that have samples of ``what``."""
    picked = [o for o in outcomes if not o.problems and getattr(o, what)]
    if not picked:
        return None
    return sum(getattr(o, what) for o in picked) / sum(o.wall_s for o in picked)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(setup_times, setup_outcomes, sequences):
    # cnn_attack trains only in set-up; each set-up repeat is one sample
    train_groups = [[o] for o in setup_outcomes] + [seq for _, seq in sequences]
    return {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (_median(w for w, _ in sequences), "s"),
        "train_samples_per_s": (_median(_rate(g, "sample_epochs") for g in train_groups),
                                "samples/s"),
        "attack_samples_per_s": (_median(_rate(seq, "samples") for _, seq in sequences),
                                 "samples/s"),
        "peak_rss_mb": (_median(max(o.peak_rss_mb for o in seq) for _, seq in sequences),
                        "MiB"),
    }


def per_layer(plain, traced):
    seq_metrics = [spans.layer_metrics([o.trace for o in seq if o.trace]) for _, seq in traced]
    check_trace_counts(seq_metrics, [seq for _, seq in traced])
    metrics = {}
    for name in seq_metrics[0]:
        unit = spans.unit_of(name)
        if unit == "s":
            metrics[name] = (_median(m[name] for m in seq_metrics), unit)
        else:
            metrics[name] = (seq_metrics[0][name], unit)
    overhead = _median(w for w, _ in traced) - _median(w for w, _ in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sparsefront" / "cli.py").is_file():
        sys.exit(f"error: sparsefront sources not found under {SRC}")

    began = time.perf_counter()
    deadline = began + DEADLINE_S
    workload = WORKLOADS[args.workload]
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()

    repeats = 1 if args.trace else workload.setup_repeats
    setup_times, setup_outcomes, data = run_setup(workload, args.seed, repeats, deadline)
    commands = workload.sequence(data, args.seed)
    plain, traced = [], []
    measure_start = time.perf_counter()
    while (time.perf_counter() - measure_start < args.seconds
           or len(plain) < MIN_REPEATS or (args.trace and len(traced) < MIN_REPEATS)):
        if args.trace:
            # alternate which goes first, so drift does not bias trace.overhead_s
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
        else:
            order = (False,)
        for is_traced in order:
            result = run_sequence(commands, deadline, traced=is_traced)
            (traced if is_traced else plain).append(result)

    everything = setup_outcomes + [o for _, seq in plain + traced for o in seq]
    # tracing must not change a single output byte either
    check_repeats(everything)
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(setup_times, setup_outcomes, plain)

    attempted, failed = tally(everything)
    host = host_metadata(args)
    for o in everything:
        if o.problems:
            print(f"FAILED {o.command.name}: {'; '.join(o.problems)}")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} commands)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("host " + json.dumps(host, sort_keys=True))
    record = {
        "host": host,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "commands": [{"name": o.command.name, "wall_s": o.wall_s,
                      "peak_rss_mb": o.peak_rss_mb, "problems": o.problems}
                     for o in everything],
        "elapsed_s": time.perf_counter() - began,
    }
    (WORK / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
