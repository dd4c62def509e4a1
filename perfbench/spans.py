"""In-memory spans around the public functions of mlestep's modules.

``Tracer.install`` replaces each traced function at every module attribute
and module-level dict entry of the ``mlestep`` package that holds it, so a
caller that resolves the name at call time (``mlestep.mc.simulate``,
``FISHER_METHODS["plugin"]``, ``cli._PROCESSES["two-step"]``) records a span.
Spans are named ``<module>.<function>`` and keep their start, end and parent;
counters that need arguments or results are taken at the same boundary.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# (module, function, group). Calls, busy time and counters count only spans
# not nested inside another span of their group: simulate() calls
# simulate_paths() for one chain, and two_step_path() calls
# second_preliminary_path() for one emitted path.
TRACED = (
    ("simulate", "simulate", "simulate"),
    ("simulate", "simulate_paths", "simulate"),
    ("simulate", "write_trajectory_json", "simulate.io"),
    ("simulate", "read_trajectory_json", "simulate.io"),
    ("models", "get_model", None),
    ("mc", "compare_estimators", None),
    ("mc", "run_study", None),
    ("mc", "oracle_information", None),
    ("preliminary", "mle", None),
    ("preliminary", "bayes", None),
    ("preliminary", "emm", None),
    ("likelihood", "grad_terms", None),
    ("likelihood", "hess_terms", None),
    ("fisher", "observed_fisher", None),
    ("fisher", "plugin_fisher", None),
    ("fisher", "factorized_fisher", None),
    ("fisher", "noise_information", None),
    ("fisher", "invert_fisher", None),
    ("process", "one_step_path", "process.path"),
    ("process", "second_preliminary_path", "process.path"),
    ("process", "two_step_path", "process.path"),
    ("process", "recurrent_path", "process.path"),
    ("process", "full_mle_path", "process.path"),
    ("process", "write_path_csv", None),
    ("density", "kde", None),
    ("cli", "main", None),
)

# Per-layer metrics of a traced run, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "simulate.calls": "count/op",
    "simulate.steps": "count/op",
    "simulate.busy_s": "s/op",
    "simulate.unique_ratio": "ratio",
    "simulate.io_busy_s": "s/op",
    "mc.oracle_information.busy_s": "s",
    "mc.run_study.self_s": "s/op",
    "models.get_model.calls": "count/op",
    "preliminary.mle.calls": "count/op",
    "preliminary.mle.busy_s": "s/op",
    "preliminary.bayes.calls": "count/op",
    "preliminary.bayes.busy_s": "s/op",
    "preliminary.emm.calls": "count/op",
    "preliminary.emm.busy_s": "s/op",
    "likelihood.grad_terms.calls": "count/op",
    "likelihood.grad_terms.busy_s": "s/op",
    "likelihood.hess_terms.calls": "count/op",
    "likelihood.hess_terms.busy_s": "s/op",
    "likelihood.transitions": "count/op",
    "fisher.observed_fisher.calls": "count/op",
    "fisher.observed_fisher.busy_s": "s/op",
    "fisher.plugin_fisher.calls": "count/op",
    "fisher.plugin_fisher.busy_s": "s/op",
    "fisher.factorized_fisher.calls": "count/op",
    "fisher.factorized_fisher.busy_s": "s/op",
    "fisher.invert_fisher.calls": "count/op",
    "fisher.invert_fisher.busy_s": "s/op",
    "fisher.noise_information.calls": "count/op",
    "fisher.noise_information.busy_s": "s/op",
    "fisher.noise_information.unique_ratio": "ratio",
    "process.one_step_path.self_s": "s/op",
    "process.second_preliminary_path.self_s": "s/op",
    "process.two_step_path.self_s": "s/op",
    "process.recurrent_path.self_s": "s/op",
    "process.full_mle_path.self_s": "s/op",
    "process.estimates_emitted": "count/op",
    "process.estimates_emitted.factorized": "count/op",
    "process.write_path_csv.busy_s": "s/op",
    "density.kde.busy_s": "s/op",
    "density.kde.kernel_evals": "count/op",
    "cli.main.self_s": "s/op",
    "cli.bytes_written": "B/op",
    "trace.ops": "count",
    "trace.spans": "count/op",
    "trace.work_per_s_untraced": "1/s",
    "trace.work_per_s_traced": "1/s",
    "trace.overhead": "ratio",
}

# Points at which a noise density is evaluated to tell noise laws apart.
_NOISE_PROBE = np.linspace(-3.0, 3.0, 7)


def _argument_reader(fn):
    """Fast positional-or-keyword argument lookup for one function."""
    params = {
        p.name: (i, p.default) for i, p in enumerate(inspect.signature(fn).parameters.values())
    }

    def read(args, kwargs, name):
        if name not in params:
            return None
        index, default = params[name]
        if index < len(args):
            return args[index]
        return kwargs.get(name, default)

    return read


def _count_chains(tracer, read, args, kwargs, result):
    seeds = read(args, kwargs, "seeds")
    if seeds is None:
        seeds = [read(args, kwargs, "seed")]
    model, n = read(args, kwargs, "model"), int(read(args, kwargs, "n"))
    burn_in, x_init = int(read(args, kwargs, "burn_in")), float(read(args, kwargs, "x_init"))
    theta = tuple(np.atleast_1d(np.asarray(read(args, kwargs, "theta"), dtype=float)).tolist())
    tracer.counts["simulate.chains"] += len(seeds)
    tracer.counts["simulate.steps"] += len(seeds) * (burn_in + n + 1)
    for seed in seeds:
        tracer.chains.add((model.name, theta, n, int(seed), burn_in, x_init))


def _count_transitions(tracer, read, args, kwargs, result):
    tracer.counts["likelihood.transitions"] += read(args, kwargs, "window").length


def _count_noise_law(tracer, read, args, kwargs, result):
    noise = read(args, kwargs, "noise")
    density = np.asarray(noise.g(_NOISE_PROBE), dtype=float)
    tracer.noise_laws.add((tuple(noise.support), density.tobytes()))


def _count_estimates(tracer, read, args, kwargs, result):
    tracer.counts["process.estimates_emitted"] += result.ks.size
    if read(args, kwargs, "fisher_method") == "factorized":
        tracer.counts["process.estimates_emitted.factorized"] += result.ks.size


def _count_kernel_evals(tracer, read, args, kwargs, result):
    tracer.counts["density.kde.kernel_evals"] += result.n_used * result.grid.size


HOOKS = {
    "simulate.simulate": _count_chains,
    "simulate.simulate_paths": _count_chains,
    "likelihood.grad_terms": _count_transitions,
    "likelihood.hess_terms": _count_transitions,
    "fisher.noise_information": _count_noise_law,
    "process.one_step_path": _count_estimates,
    "process.second_preliminary_path": _count_estimates,
    "process.two_step_path": _count_estimates,
    "process.recurrent_path": _count_estimates,
    "process.full_mle_path": _count_estimates,
    "density.kde": _count_kernel_evals,
}


class Tracer:
    """Records spans and counters while installed and not suspended."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_id = array("i")
        self._parent = array("i")
        self._nested = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._depth = collections.Counter()
        self.counts = collections.Counter()
        self.chains: set = set()
        self.noise_laws: set = set()
        self.active = True
        self._restore: list = []

    def _wrap(self, name: str, group: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        name_id = self._ids[name]
        hook = HOOKS.get(name)
        read = _argument_reader(fn) if hook is not None else None
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self._start)
            nested = depth[group] > 0
            self._name_id.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._nested.append(nested)
            self._end.append(0.0)
            stack.append(index)
            depth[group] += 1
            self._start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[index] = time.perf_counter()
                stack.pop()
                depth[group] -= 1
            if hook is not None and not nested:
                hook(self, read, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = [
            module for name, module in list(sys.modules.items())
            if name == "mlestep" or name.startswith("mlestep.")
        ]
        for module_name, func_name, group in TRACED:
            module = importlib.import_module(f"mlestep.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                continue
            name = f"{module_name}.{func_name}"
            wrapper = self._wrap(name, group or name, original)
            for holder in package:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(vars(holder), attr, wrapper)
                    elif isinstance(value, dict) and not attr.startswith("__"):
                        for key, item in list(value.items()):
                            if item is original:
                                self._replace(value, key, wrapper)

    def _replace(self, mapping: dict, key, wrapper) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def uninstall(self) -> None:
        while self._restore:
            mapping, key, original = self._restore.pop()
            mapping[key] = original

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def suspended(self):
        """Record nothing inside: for the benchmark's own output checks."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    @property
    def span_count(self) -> int:
        return len(self._start)

    def _arrays(self):
        names = np.asarray(self._name_id, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        nested = np.asarray(self._nested, dtype=bool)
        duration = np.asarray(self._end) - np.asarray(self._start)
        return names, parent, nested, duration

    def totals(self) -> dict:
        """Per span name and per group: calls, busy seconds and self seconds.

        Calls and busy time count spans not nested in their own group; self
        time is a span's duration minus the durations of its child spans.
        """
        names, parent, nested, duration = self._arrays()
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        out: dict = collections.defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for name_id, (name, group) in enumerate(zip(self.names, self.groups)):
            mine = names == name_id
            top = mine & ~nested
            out[name]["calls"] = int(top.sum())
            out[name]["busy_s"] = float(duration[top].sum())
            out[name]["self_s"] = float(own[mine].sum())
            if group != name:
                out[group]["calls"] += int(top.sum())
                out[group]["busy_s"] += float(duration[top].sum())
        return out

    def dump(self, path) -> None:
        """Write every span (name, start, end, parent) to a compressed .npz."""
        names, parent, nested, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=names,
            parent=parent,
            nested=nested,
            start=np.asarray(self._start),
            end=np.asarray(self._end),
        )


def per_layer_metrics(
    tracer: Tracer,
    setup: Tracer,
    ops: int,
    bytes_written: int,
    untraced_rate: float,
    traced_rate: float,
) -> dict:
    """Every metric of PER_LAYER_UNITS from a traced phase of ``ops`` ops and
    its set-up. Values with a unit ending in /op are the phase's totals
    divided by its op count, so they do not grow with a faster program."""
    t = tracer.totals()
    counts = tracer.counts
    chains = counts["simulate.chains"]
    noise_calls = t["fisher.noise_information"]["calls"]
    values = {
        "simulate.calls": t["simulate"]["calls"],
        "simulate.steps": counts["simulate.steps"],
        "simulate.busy_s": t["simulate"]["busy_s"],
        "simulate.unique_ratio": len(tracer.chains) / chains if chains else 0.0,
        "simulate.io_busy_s": t["simulate.io"]["busy_s"],
        # the information oracle runs in set-up; later calls hit its cache
        "mc.oracle_information.busy_s": (
            setup.totals()["mc.oracle_information"]["busy_s"]
            + t["mc.oracle_information"]["busy_s"]
        ),
        "mc.run_study.self_s": t["mc.run_study"]["self_s"],
        "models.get_model.calls": t["models.get_model"]["calls"],
        "likelihood.transitions": counts["likelihood.transitions"],
        "fisher.noise_information.unique_ratio": (
            len(tracer.noise_laws) / noise_calls if noise_calls else 0.0
        ),
        "process.estimates_emitted": counts["process.estimates_emitted"],
        "process.estimates_emitted.factorized": counts["process.estimates_emitted.factorized"],
        "density.kde.kernel_evals": counts["density.kde.kernel_evals"],
        "cli.bytes_written": bytes_written,
        "trace.ops": ops,
        "trace.spans": tracer.span_count,
        "trace.work_per_s_untraced": untraced_rate,
        "trace.work_per_s_traced": traced_rate,
        "trace.overhead": untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
    }
    for name in PER_LAYER_UNITS:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        values[name] = t[span][field]
    return {
        name: {"value": values[name] / ops if unit.endswith("/op") else values[name], "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
    }
