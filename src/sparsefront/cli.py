"""Experiment orchestration: train models, run attacks, sweeps, and reports.

Every command but fetch-data records its run: `main` makes `--out` and, once
the command succeeds, writes there a manifest.json of the command, each
setting it reads and the package version. `--config manifest.json` replays
a run: the manifest's settings are passed as flags ahead of the typed ones,
which win. Its `out` is never inherited, so a replay writes to `--out` (or
the default output directory) and reproduces the run's model and report
files byte for byte, given the same numpy, the same BLAS and the same BLAS
thread count: at another thread count a network's model file and an attack's
report.json can differ in their last digits. The manifest is the only config
format. Every usage error, typed or replayed, is one `error:` line. Reports
are CSV for tables and JSON for per-sample records. Files are written
atomically so a crashed run never leaves a partial file where a complete one
stood.

Subcommands: fetch-data, train-svm, train-net, attack, sweep, attenuation,
table1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import __version__
from . import attacks as attacks_mod
from . import attenuation as attenuation_mod
from . import data as data_mod
from . import models as models_mod
from .attacks import AttackSpec
from .frontend import FrontEndConfig
from .models import TrainConfig
from .transform import WAVELETS, Basis

ATTENUATION_MODES = {"semiwhite": ["semiwhite"], "white": ["white"],
                     "both": ["semiwhite", "white"]}
SWEEP_ATTACKS = ("semiwhite", "white")
# report.csv headers of the 2-D attack report columns; any other column is its own header
CSV_HEADERS = {"chosen_pair": ["pair_i", "pair_t"]}

# The headline SVM's digit pair: the --digits default and the pair table1 runs.
PAPER_DIGITS = [3, 7]

# The headline table's budget and sparsity per task, the only ones table1 runs.
PAPER_SETTINGS = {"svm": dict(epsilon=0.12, rho=0.02), "cnn": dict(epsilon=0.25, rho=0.03)}

# Published reference accuracies (percent) at PAPER_SETTINGS.
PAPER_TABLE = {
    ("svm", "semiwhite", "none"): 0.0,
    ("svm", "white", "none"): 0.0,
    ("svm", "semiwhite", "sparse"): 97.31,
    ("svm", "white", "sparse"): 94.62,
    ("cnn", "fgsm", "none"): 19.45,
    ("cnn", "semiwhite", "none"): 8.87,
    ("cnn", "white", "none"): 8.87,
    ("cnn", "fgsm", "sparse"): 89.75,
    ("cnn", "semiwhite", "sparse"): 88.76,
    ("cnn", "white", "sparse"): 84.04,
}

SVM_DEFAULTS = dict(epochs=200, learning_rate=0.1, batch_size=64, weight_decay=1e-4)
NET_DEFAULTS = {
    "reduced_dense": dict(epochs=10, learning_rate=0.1, batch_size=64,
                          lr_decay_every=4, weight_decay=1e-4),
    "paper_cnn": dict(epochs=8, learning_rate=0.05, batch_size=64,
                      lr_decay_every=3, weight_decay=1e-4),
}
# recipe setting -> the flag that overrides it, in the commands that have one
RECIPE_FLAGS = dict(epochs="epochs", learning_rate="lr", batch_size="batch_size",
                    weight_decay="weight_decay")


def write_json(path, obj):
    data_mod.write_atomically(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()])


def write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    data_mod.write_atomically(path, [buf.getvalue().encode()])


def _args_config(args):
    """The settings a manifest records for `args`, and all that a replay may set."""
    return {key: value for key, value in vars(args).items() if key not in ("func", "config")}


def write_manifest(args):
    write_json(Path(args.out) / "manifest.json", {
        "command": args.command,
        "config": _args_config(args),
        "package": "sparsefront",
        "version": __version__,
    })


def _fmt(x):
    return format(float(x), ".10g")


def _basis(args):
    return Basis(WAVELETS[args.basis].kind, 28, 28, args.levels)


def _changed(args, keys):
    """The flags among `keys` whose values differ from the command's defaults."""
    plain = build_parser().parse_args([args.command])
    return [f"--{key}" for key in keys if getattr(args, key) != getattr(plain, key)]


def _front_end(args):
    if not args.no_defense:
        return FrontEndConfig(_basis(args), args.rho)
    ignored = _changed(args, ("rho", "basis", "levels", "clip"))
    if ignored:
        raise ValueError(f"{', '.join(ignored)}: --no-defense trains without the front end")
    return None


def _train_config(args, task, fe):
    """The `TrainConfig` of a model of `task` ("svm" or "cnn") trained behind `fe`.

    The task's recipe (a network's by `args.arch`), overridden by each recipe
    flag the command has and was given a value for, plus the seed and the clip.
    """
    recipe = dict(SVM_DEFAULTS if task == "svm" else NET_DEFAULTS[args.arch])
    recipe.update((key, getattr(args, flag)) for key, flag in RECIPE_FLAGS.items()
                  if getattr(args, flag, None) is not None)
    return TrainConfig(seed=args.seed, front_end=fe, clip_recon=args.clip, **recipe)


def _print_epoch(epoch, loss):
    """Print a network's epoch line, `train_network`'s log in every command, and return it."""
    line = f"epoch {epoch}: mean loss {loss:.6f}"
    print(line)
    return line


def paper_model(args, task, defense, train):
    """The model `table1` trains for (task, defense) on the split `train`: an SVM on
    PAPER_DIGITS, which it records as `train-svm` does, or a network that prints its epochs."""
    fe = FrontEndConfig(_basis(args), PAPER_SETTINGS[task]["rho"]) if defense == "sparse" else None
    config = _train_config(args, task, fe)
    if task == "svm":
        model = models_mod.train_linear_svm(train.images, train.labels, config)
        model.digits = tuple(PAPER_DIGITS)
        return model
    return models_mod.train_network(train.images, train.labels, config,
                                    models_mod.ARCH_PRESETS[args.arch], log=_print_epoch)


def paper_rows(args, task, defense, model, test):
    """The `EvalReport` of each PAPER_TABLE row of (task, defense) for `model` on `test`,
    keyed by attack in the table's order."""
    rows = {}
    for t, attack, d in PAPER_TABLE:
        if (t, d) != (task, defense):
            continue
        if attack == "white" and model.front_end is None:
            # without a front end attacks.evaluate linearizes the same bare model
            # for white as for semiwhite, which the table lists first
            rows[attack] = rows["semiwhite"]
        else:
            spec = AttackSpec(attack, PAPER_SETTINGS[task]["epsilon"], clip=args.clip)
            rows[attack] = attacks_mod.evaluate(model, test, spec)
    return rows


def _finish_training(args, model, prefix, test, summary):
    """Save a trained model, evaluate it clean on `test` and write its report."""
    name = prefix + ("plain" if model.front_end is None else f"sparse_rho{args.rho:g}")
    models_mod.save_model(model, Path(args.out) / f"{name}.model")
    clean = attacks_mod.evaluate(model, test, AttackSpec("none", 0.0, clip=args.clip))
    summary.update(model_file=f"{name}.model", clean_accuracy=clean.clean_accuracy)
    write_json(Path(args.out) / "report.json", {"summary": summary})
    print(f"{name}: clean test accuracy {100 * clean.clean_accuracy:.2f}%")


def _report_attack(out_dir, report, extra):
    values = {name: col.tolist() for name, col in report.columns.items()}
    records = [dict(zip(values, row)) for row in zip(*values.values())]
    summary = dict(extra, clean_accuracy=report.clean_accuracy,
                   attacked_accuracy=report.attacked_accuracy,
                   mean_distortion=report.mean_distortion, samples=len(records))
    write_json(Path(out_dir) / "report.json", {"summary": summary, "records": records})
    header, csv_columns = [], []
    for name, col in report.columns.items():
        header += CSV_HEADERS.get(name, [name])
        for cells in col.reshape(len(col), -1).T.tolist():
            csv_columns.append(map(_fmt, cells) if col.dtype.kind == "f" else cells)
    write_csv(Path(out_dir) / "report.csv", header, zip(*csv_columns))
    return summary


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_fetch_data(args):
    data_mod.fetch_mnist(args.data, args.base_url)


def cmd_train_svm(args):
    config = _train_config(args, "svm", _front_end(args))
    a, b = args.digits
    train = data_mod.filter_pair(data_mod.load_mnist(args.data, "train"), a, b)
    test = data_mod.filter_pair(data_mod.load_mnist(args.data, "test"), a, b)
    model = models_mod.train_linear_svm(train.images, train.labels, config)
    model.digits = (a, b)
    _finish_training(args, model, f"svm_{a}v{b}_", test, {
        "digits": [a, b],
        "train_samples": len(train),
        "test_samples": len(test),
    })


def cmd_train_net(args):
    arch = models_mod.ARCH_PRESETS[args.arch]
    if args.dropout is not None:
        if not any(entry[0] == "dropout" for entry in arch["layers"]):
            raise ValueError(f"--dropout: {args.arch} has no dropout layer")
        models_mod.Dropout(args.dropout)  # checks the rate before any data is read
        arch = dict(arch, layers=[("dropout", args.dropout) if entry[0] == "dropout" else entry
                                  for entry in arch["layers"]])
    config = _train_config(args, "cnn", _front_end(args))
    train = data_mod.load_mnist(args.data, "train")
    test = data_mod.load_mnist(args.data, "test")
    log_lines = []
    net = models_mod.train_network(
        train.images, train.labels, config, arch,
        log=lambda epoch, loss: log_lines.append(_print_epoch(epoch, loss)))
    _finish_training(args, net, f"net_{args.arch}_", test,
                     {"arch": args.arch, "training_log": log_lines})


def attack_samples(model_file, data, limit, attack):
    """The model in `model_file` and the samples `attack` reports: the test split in `data`, an
    SVM's digit pair only (every SVM model file records one), then the first `limit` (0: all).
    Every refusal but the model's input width, which must be the images', comes before any data
    is read: `load_model`'s of a malformed file and `check_attack`'s among them."""
    data_mod.check_int("--limit", limit, 0)
    model = models_mod.load_model(model_file)
    attacks_mod.check_attack(model, attack)
    if attack.kind == "none" and attack.clip and model.front_end is None:
        raise ValueError("--clip: attack none on a model without a front end clamps nothing")
    test = data_mod.load_mnist(data, "test")
    if model.n_inputs != test.images.shape[1]:
        raise ValueError(f"{model_file}: the model takes {model.n_inputs} inputs, "
                         f"the test images have {test.images.shape[1]}")
    if isinstance(model, models_mod.LinearModel):
        test = data_mod.filter_pair(test, *model.digits)
    if limit:
        test = data_mod.Dataset(test.images[:limit], test.labels[:limit])
    return model, test


def cmd_attack(args):
    missing = [f"--{key}" for key in ("model", "attack", "epsilon") if getattr(args, key) is None]
    if missing:
        raise ValueError(f"attack needs {', '.join(missing)} (or --config with an attack manifest)")
    spec = AttackSpec(args.attack, args.epsilon, clip=args.clip)
    model, test = attack_samples(args.model, args.data, args.limit, spec)
    report = attacks_mod.evaluate(model, test, spec)
    summary = _report_attack(args.out, report, {
        "model": str(args.model),
        "attack": args.attack,
        "epsilon": args.epsilon,
        "clip": args.clip,
    })
    print(
        f"{args.attack} eps={args.epsilon:g}: clean {100 * summary['clean_accuracy']:.2f}% "
        f"-> attacked {100 * summary['attacked_accuracy']:.2f}%"
    )


def cmd_sweep(args):
    a, b = args.digits
    basis = _basis(args)
    # the whole grid is checked before any data is read
    configs = [_train_config(args, "svm", FrontEndConfig(basis, rho)) for rho in args.rhos]
    specs = [AttackSpec(args.attack, eps, clip=args.clip) for eps in args.epsilons]
    train = data_mod.filter_pair(data_mod.load_mnist(args.data, "train"), a, b)
    test = data_mod.filter_pair(data_mod.load_mnist(args.data, "test"), a, b)
    rows = []
    acc = {}
    for rho, config in zip(args.rhos, configs):
        model = models_mod.train_linear_svm(train.images, train.labels, config)
        for eps, spec in zip(args.epsilons, specs):
            acc[(rho, eps)] = attacks_mod.evaluate(model, test, spec).attacked_accuracy
    for eps in args.epsilons:
        best_rho = max(args.rhos, key=lambda r: acc[(r, eps)])
        for rho in args.rhos:
            rows.append([_fmt(rho), _fmt(eps), _fmt(acc[(rho, eps)]),
                         "best" if rho == best_rho else ""])
    write_csv(Path(args.out) / "report.csv", ["rho", "epsilon", "attacked_accuracy", "note"], rows)
    for row in rows:
        print(",".join(str(c) for c in row))


def cmd_attenuation(args):
    config = attenuation_mod.EnsembleConfig(n=args.n, k=args.k, trials=args.trials,
                                            basis_kind=args.basis_kind, seed=args.seed,
                                            levels=args.levels)
    reports = attenuation_mod.run_ensemble(config)
    rows = []
    for mode in ATTENUATION_MODES[args.mode]:
        report = reports[mode]
        rows.append([args.n, args.k, args.basis_kind, mode, _fmt(report.mean_ratio),
                     _fmt(report.stderr), args.trials, args.seed])
        print(
            f"N={args.n} K={args.k} {args.basis_kind} {mode}: "
            f"mean ratio {report.mean_ratio:.6f} (stderr {report.stderr:.2g}, K/N={args.k / args.n:.6f})"
        )
    write_csv(Path(args.out) / "report.csv",
              ["n", "k", "basis", "mode", "mean_ratio", "stderr", "trials", "seed"], rows)


def cmd_table1(args):
    """Train the four models, keyed by (task, defense), and run PAPER_TABLE's rows in order.

    Each model is saved as `<task>_<defense>.model` under --out, the file `train-svm` or
    `train-net` writes for it, and each row's per-sample report goes to
    `<task>_<attack>_<defense>/` there, its summary naming the model file.
    """
    out = Path(args.out)
    # argparse checked basis and arch; levels and seed are checked before any data is read
    _basis(args)
    _train_config(args, "cnn", None)
    train = data_mod.load_mnist(args.data, "train")
    test = data_mod.load_mnist(args.data, "test")
    pair_train, pair_test = (data_mod.filter_pair(split, *PAPER_DIGITS) for split in (train, test))
    tasks = {
        "svm": dict(name="SVMs", train=pair_train, test=pair_test),
        "cnn": dict(name="networks", train=train, test=test),
    }

    models = {}
    for task, spec in tasks.items():
        print(f"training {spec['name']} (plain, defended)...")
        for defense in ("none", "sparse"):
            model = models[task, defense] = paper_model(args, task, defense, spec["train"])
            models_mod.save_model(model, out / f"{task}_{defense}.model")

    measured = {}  # attacked accuracy in percent, keyed like PAPER_TABLE
    clean = {}  # clean accuracy in percent, by model name
    for (task, defense), model in models.items():
        epsilon = PAPER_SETTINGS[task]["epsilon"]
        for attack, report in paper_rows(args, task, defense, model, tasks[task]["test"]).items():
            row_dir = out / f"{task}_{attack}_{defense}"
            row_dir.mkdir(exist_ok=True)
            summary = _report_attack(row_dir, report, dict(
                task=task, attack=attack, defense=defense, epsilon=epsilon, clip=args.clip,
                model=f"{task}_{defense}.model"))
            accuracy = measured[task, attack, defense] = 100 * summary["attacked_accuracy"]
            # every report measures clean accuracy on the same split with the same clip
            clean.setdefault(task + ("_defended" if defense == "sparse" else ""),
                             100 * summary["clean_accuracy"])
            paper = PAPER_TABLE[task, attack, defense]
            print(f"{task:>4} {attack:>10} {defense:>7}: measured {accuracy:6.2f}  "
                  f"paper {paper:6.2f}")

    for name, accuracy in clean.items():
        print(f"clean {name}: {accuracy:.2f}")
    write_csv(out / "report.csv", ["task", "attack", "defense", "measured", "paper", "delta"],
              [[*key, _fmt(measured[key]), _fmt(paper), _fmt(measured[key] - paper)]
               for key, paper in PAPER_TABLE.items()])
    write_csv(out / "clean.csv", ["model", "clean_accuracy"],
              [[name, _fmt(accuracy)] for name, accuracy in clean.items()])

    ordered = (measured["cnn", "white", "sparse"] <= measured["cnn", "semiwhite", "sparse"]
               <= measured["cnn", "fgsm", "sparse"])
    print(f"defended CNN ordering white <= semiwhite <= fgsm: {'OK' if ordered else 'VIOLATED'}")


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--data", default=None, help="MNIST directory (default: $SPARSEFRONT_DATA_DIR)")
    p.add_argument("--out", default="runs/out", help="output directory")
    _add_config_flag(p)


def _add_config_flag(p):
    p.add_argument("--config", default=None,
                   help="replay a manifest.json of this command; explicit flags win")


def _add_basis_flags(p):
    p.add_argument("--basis", choices=sorted(WAVELETS), default="cdf97")
    p.add_argument("--levels", type=int, default=1, help="wavelet decomposition levels")


def _add_frontend_flags(p, rho):
    p.add_argument("--rho", type=float, default=rho, help="sparsity fraction K/N")
    _add_basis_flags(p)
    p.add_argument("--no-defense", action="store_true", help="train without the front end")
    p.add_argument("--clip", action="store_true",
                   help="physical pipeline: clamp images and reconstructions to [0,1]")


def _digits(text):
    try:
        a, b = map(int, text.split(","))
    except ValueError:  # argparse shows the message of an ArgumentTypeError only
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated digits, got {text!r}") from None
    try:
        data_mod.check_pair(a, b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return [a, b]


def _float_list(text):
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected distinct values, got {text!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, which `main` prints."""

    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser():
    parser = _Parser(
        prog="sparsefront",
        description="Sparsifying front-end defenses and locally-linear attacks on MNIST",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch-data", help="download and checksum the MNIST archives")
    p.add_argument("--data", default=None)
    p.add_argument("--base-url", default=data_mod.DEFAULT_BASE_URL)
    p.set_defaults(func=cmd_fetch_data)

    p = sub.add_parser("train-svm", help="train the binary linear SVM")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    _add_frontend_flags(p, rho=PAPER_SETTINGS["svm"]["rho"])
    p.add_argument("--digits", type=_digits, default=PAPER_DIGITS)
    p.add_argument("--epochs", type=int, default=SVM_DEFAULTS["epochs"])
    p.add_argument("--lr", type=float, default=SVM_DEFAULTS["learning_rate"])
    p.add_argument("--batch-size", type=int, default=SVM_DEFAULTS["batch_size"])
    p.add_argument("--weight-decay", type=float, default=SVM_DEFAULTS["weight_decay"])
    p.set_defaults(func=cmd_train_svm)

    p = sub.add_parser("train-net", help="train the feedforward network")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    _add_frontend_flags(p, rho=PAPER_SETTINGS["cnn"]["rho"])
    p.add_argument("--arch", choices=sorted(models_mod.ARCH_PRESETS), default="reduced_dense")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.set_defaults(func=cmd_train_net)

    # --model, --attack and --epsilon are required unless --config supplies them
    p = sub.add_parser("attack", help="attack a trained model over the test split")
    _add_common(p)
    p.add_argument("--model", help="model file from train-svm/train-net")
    p.add_argument("--attack", choices=attacks_mod.ATTACK_KINDS)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--clip", action="store_true")
    p.add_argument("--limit", type=int, default=0, help="evaluate only the first N samples")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("sweep", help="grid of rho x epsilon for the SVM task")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--digits", type=_digits, default=PAPER_DIGITS)
    p.add_argument("--rhos", type=_float_list, default=[0.01, 0.02, 0.03, 0.04, 0.05])
    p.add_argument("--epsilons", type=_float_list, default=[PAPER_SETTINGS["svm"]["epsilon"]])
    p.add_argument("--attack", choices=SWEEP_ATTACKS, default="white")
    _add_basis_flags(p)
    p.add_argument("--clip", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("attenuation", help="Monte Carlo attenuation-ratio study")
    p.add_argument("--out", default="runs/attenuation")
    _add_config_flag(p)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--k", type=int, default=32)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--basis-kind", choices=["identity", *WAVELETS], default="identity")
    p.add_argument("--mode", choices=list(ATTENUATION_MODES), default="both")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_attenuation)

    p = sub.add_parser("table1", help="full reproduction of the headline table")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arch", choices=sorted(models_mod.ARCH_PRESETS), default="paper_cnn")
    _add_basis_flags(p)
    p.add_argument("--no-clip", dest="clip", action="store_false",
                   help="drop the physical [0,1] pipeline, which this command runs by default")
    p.set_defaults(func=cmd_table1)
    return parser


def _same_json_type(value, plain):
    """Whether a manifest value has the JSON type of `plain`; an int passes as a float,
    and a number as a string (a path may be one)."""
    if isinstance(plain, float):
        return type(value) in (int, float)
    if isinstance(plain, str):
        return type(value) in (str, int, float)
    if isinstance(plain, list) and plain:
        return isinstance(value, list) and all(_same_json_type(v, plain[0]) for v in value)
    return type(value) is type(plain)


def _replay_flags(parser, args):
    """The manifest at `args.config` as the flags that set each of its settings.

    argparse checks each value as it checks a typed one, but it takes a string
    for a number, so each must also have the JSON type of what its flag gives.
    """
    try:
        manifest = json.loads(Path(args.config).read_text())
        command, settings = manifest["command"], {**manifest["config"]}  # TypeError unless a dict
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{args.config}: not a sparsefront manifest ({exc})") from None
    if command != args.command:
        raise ValueError(f"{args.config}: manifest of {command!r}, not of {args.command!r}")
    # the subcommand is the one given, and the output directory comes from the flags
    settings.pop("command", None)
    settings.pop("out", None)
    own = _args_config(parser.parse_args([command]))
    unknown = sorted(set(settings) - set(own))
    if unknown:
        raise ValueError(f"{args.config}: {command} has no setting {', '.join(unknown)}")
    flags = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool) and isinstance(own[key], bool):  # a switch, on by --<key>
            if value != own[key]:  # or, where on by default, off by --no-<key>
                flags.append(flag if value else f"--no-{flag[2:]}")
        elif value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            flags.append(f"{flag}={text}")  # one token, so a value may start with "-"
    try:
        replayed = _args_config(parser.parse_args([command, *flags]))
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    for key, value in settings.items():
        if not _same_json_type(value, replayed[key]):
            raise ValueError(f"{args.config}: {key} must have the JSON type of "
                             f"{json.dumps(replayed[key])}, got {json.dumps(value)}")
    return flags


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the replayed flags go first, so the typed ones win
            args = parser.parse_args([argv[0], *_replay_flags(parser, args), *argv[1:]])
        if "out" in args:  # every command but fetch-data records its run
            Path(args.out).mkdir(parents=True, exist_ok=True)
        args.func(args)
        if "out" in args:
            write_manifest(args)
    except (ValueError, OSError, models_mod.TrainingDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
