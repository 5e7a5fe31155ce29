"""Span tracing for one sparsefront CLI process, from outside the package.

``Tracer.install`` wraps the public functions of every sparsefront module,
plus the network's forward/backward/input_jacobian methods, so that each
call records a span (name, start, end, parent, count) in memory. Run as a
script, this file traces one CLI command and writes its spans as JSON when
the command ends:

    python3 perfbench/spans.py SPANS.json -- train-svm --data DIR ...

``layer_metrics`` turns the spans of one or more processes into the
benchmark's per-layer metrics. A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

MODULES = ("data", "transform", "frontend", "models", "attacks", "attenuation")
METHODS = ("forward", "backward", "input_jacobian")
OPERATOR_BUILDERS = ("transform.analysis_matrix", "transform.synthesis_matrix",
                     "transform.max_l1_norm")
REPORT_WRITERS = ("write_json", "write_csv")


def _rows(arg_index):
    return lambda args, kwargs, result: int(len(args[arg_index]))


def _sample_epochs(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return int(len(args[0])) * int(config.epochs)


def _dataset_bytes(args, kwargs, result):
    return int(result.images.nbytes + result.labels.nbytes)


# What each traced call counts, by span name; other spans count nothing.
COUNTERS = {
    "data.load_mnist": _dataset_bytes,
    "transform.forward_batch": _rows(1),
    "transform.inverse_batch": _rows(1),
    "frontend.apply_batch": _rows(1),
    "frontend.support_batch": _rows(1),
    "models.train_linear_svm": _sample_epochs,
    "models.train_network": _sample_epochs,
    "models.forward": _rows(1),  # args[0] is the network
    "models.backward": _rows(1),
    "models.input_jacobian": lambda a, k, r: int(r.shape[0]),
    "attacks.evaluate": _rows(1),
    "attenuation.run_ensemble": lambda a, k, r: int(a[0].trials),
}


class Tracer:
    """In-memory span recorder for a single-threaded process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, count]
        self.report_bytes = 0
        self._stack = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), 0, parent, None])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = self.clock()
            if count is not None:
                self.spans[index][4] = count(args, kwargs, result)
            return result

        return traced

    def _count_report(self, fn):
        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.report_bytes += os.path.getsize(path)
            return result

        return counted

    def install(self):
        """Patch sparsefront in place; returns the traced ``cli.main``."""
        import importlib

        import sparsefront.cli as cli

        modules = {m: importlib.import_module(f"sparsefront.{m}") for m in MODULES}
        replaced = {}
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replaced[fn] = self.wrap(f"{short}.{attr}", fn)
        net = modules["models"].FeedforwardNetwork
        for attr in METHODS:
            setattr(net, attr, self.wrap(f"models.{attr}", getattr(net, attr)))
        for attr in REPORT_WRITERS:
            replaced[getattr(cli, attr)] = self._count_report(getattr(cli, attr))
        # rebind every module-level reference, including names that other
        # sparsefront modules imported with ``from x import y``
        for module in list(modules.values()) + [cli]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])
        return self.wrap("cli.main", cli.main)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "report_bytes": self.report_bytes}, f)


def self_times(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _has_ancestor_in(spans, i, names):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


# metric name -> (span name, what to sum): "s" duration, "self_s" self time,
# "n" the span's count, "calls" the number of spans.
LAYER_METRICS = {
    "data.load_mnist.s": ("data.load_mnist", "s"),
    "data.load_mnist.bytes": ("data.load_mnist", "n"),
    "transform.forward_batch.s": ("transform.forward_batch", "s"),
    "transform.forward_batch.rows": ("transform.forward_batch", "n"),
    "transform.inverse_batch.s": ("transform.inverse_batch", "s"),
    "transform.inverse_batch.rows": ("transform.inverse_batch", "n"),
    "frontend.apply_batch.self_s": ("frontend.apply_batch", "self_s"),
    "frontend.apply_batch.rows": ("frontend.apply_batch", "n"),
    "frontend.top_k_batch.s": ("frontend.top_k_batch", "s"),
    "frontend.support_batch.self_s": ("frontend.support_batch", "self_s"),
    "frontend.support_batch.rows": ("frontend.support_batch", "n"),
    "models.train_linear_svm.self_s": ("models.train_linear_svm", "self_s"),
    "models.train_linear_svm.sample_epochs": ("models.train_linear_svm", "n"),
    "models.train_network.self_s": ("models.train_network", "self_s"),
    "models.train_network.sample_epochs": ("models.train_network", "n"),
    "models.forward.s": ("models.forward", "s"),
    "models.forward.rows": ("models.forward", "n"),
    "models.backward.s": ("models.backward", "s"),
    "models.backward.calls": ("models.backward", "calls"),
    "models.backward.rows": ("models.backward", "n"),
    "models.input_jacobian.self_s": ("models.input_jacobian", "self_s"),
    "models.input_jacobian.rows": ("models.input_jacobian", "n"),
    "attacks.evaluate.self_s": ("attacks.evaluate", "self_s"),
    "attacks.evaluate.samples": ("attacks.evaluate", "n"),
    "attenuation.run_ensemble.self_s": ("attenuation.run_ensemble", "self_s"),
    "attenuation.run_ensemble.trials": ("attenuation.run_ensemble", "n"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
DERIVED_METRICS = ("transform.operator_build.s", "models.save_load.s", "cli.report_bytes")
UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "bytes": "bytes", "report_bytes": "bytes",
         "rows": "rows", "calls": "calls", "samples": "samples", "trials": "trials",
         "sample_epochs": "sample-epochs"}


def unit_of(metric):
    """Unit of a per-layer metric, from the last part of its name."""
    return UNITS[metric.rsplit(".", 1)[1]]


def layer_metrics(traces):
    """Sum per-layer metrics over the traces of several processes.

    ``traces`` is a list of dumped tracer payloads. Times come out in
    seconds; counts as integers. ``transform.operator_build.s`` counts only
    outermost operator-builder calls, since ``max_l1_norm`` builds its
    matrix through the other two.
    """
    out = {name: 0 for name in list(LAYER_METRICS) + list(DERIVED_METRICS)}
    for trace in traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        for metric, (span_name, kind) in LAYER_METRICS.items():
            for i, span in enumerate(spans):
                if span[0] != span_name:
                    continue
                out[metric] += {"s": span[2] - span[1], "self_s": selfs[i],
                                "n": span[4] or 0, "calls": 1}[kind]
        for i, span in enumerate(spans):
            if span[0] in OPERATOR_BUILDERS and not _has_ancestor_in(spans, i, OPERATOR_BUILDERS):
                out["transform.operator_build.s"] += span[2] - span[1]
            elif span[0] in ("models.save_model", "models.load_model"):
                out["models.save_load.s"] += span[2] - span[1]
        out["cli.report_bytes"] += trace["report_bytes"]
    for metric in out:
        if unit_of(metric) == "s":
            out[metric] /= 1e9
    return out


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        sys.exit("usage: spans.py SPANS.json -- <sparsefront arguments>")
    tracer = Tracer()
    traced_main = tracer.install()
    try:
        code = traced_main(argv[2:])
    finally:
        tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
