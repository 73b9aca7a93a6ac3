"""Layer tracer: spans and counts around torusobs public functions.

The tracer runs the workload's commands in one process through
`torusobs.cli.main`: once untraced to warm up (imports, first BLAS calls),
once untraced and timed, then once with every traced name rebound to a
wrapper.  A wrapper replaces the name in every torusobs module that holds
it (`from ... import` copies, dispatch dicts such as `cli.COMMANDS`) or,
for a method, on its class.  Names that no longer exist
are skipped and listed in the output.

Span wrappers record (name, start, end, parent, run id); spans stay in
memory and are written when the run ends.  Count wrappers only count calls.
Hooks derive counts from each call's arguments and result.

Run as a script:  tracer.py SPEC.json  (see `main`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# Which end-to-end metric each layer's metrics should move, and on which
# workload; written down before any optimisation is measured against it.
LAYERS = [
    ("config", "config.from_file.self_s", "setup_s", "all"),
    ("geometry", "geometry.fourier_coefficient.calls, geometry.translate.calls",
     "experiment_ref, continuous_ref, verify_ref", "torus_2d"),
    ("spectral", "spectral.gamma_matrix.{calls,self_s,entries,distinct_frac}, "
     "spectral.build_basis.calls", "experiment_ref, continuous_ref, verify_ref; peak_rss_mb",
     "torus_2d (little on desk_1d)"),
    ("design", "design.equispaced_design.self_s, design.design_gammas.{calls,self_s}, "
     "design.solve_design.{self_s,iterations}, "
     "design.caratheodory_reduce.{self_s,atoms_in,atoms_out}, design.verify_design.self_s",
     "design_ref (solver, reduction); experiment_ref (equispaced)",
     "desk_1d and torus_2d design; torus_2d experiment"),
    ("schedule", "schedule.build_switching.{calls,self_s}, "
     "schedule.build_continuous.{calls,self_s}, schedule.macro_count.{max,sum}, "
     "schedule.path_segments.sum", "none expected (us per call); counts give context",
     "all"),
    ("evolve", "evolve.windowed_observation_energy.{calls,self_s}, "
     "evolve.path_observation_energy.{calls,self_s}, evolve.interval_output_energy.self_s, "
     "evolve.kernels, evolve.kernel_entries, evolve.kernel_bytes_computed, "
     "evolve.distinct_kernel_frac", "experiment_ref; continuous_ref",
     "torus_2d (numpy-bound), desk_1d (per-call bound)"),
    ("experiment", "experiment.run_protocol.{calls,self_s}, "
     "experiment.tail_reduction_check.self_s, experiment.continuous_protocol_delta.self_s, "
     "experiment.calibration.self_s",
     "experiment_ref; continuous_ref (the second run_protocol call is the re-run inside continuous)",
     "desk_1d, torus_2d"),
    ("cli", "cli.cmd_<command>.self_s, cli.verify_artifacts.self_s, cli.rows_written, "
     "cli.bytes_written, cli.files_written", "experiment_ref; verify_ref",
     "desk_1d (little on torus_2d)"),
]


def _gamma_matrix(tracer, bound, result):
    basis, shift = bound.arguments["basis"], bound.arguments["shift"]
    tracer.add("spectral.gamma_matrix.entries", basis.dim * basis.dim)
    tracer.distinct("spectral.gamma_matrix", (basis.cutoff, tuple(shift.shift)))


def _caratheodory(tracer, bound, result):
    tracer.add("design.caratheodory_reduce.atoms_in", len(bound.arguments["design"]))
    tracer.add("design.caratheodory_reduce.atoms_out", len(result))


def _solve_design(tracer, bound, result):
    history = bound.arguments.get("history")
    if history:
        tracer.add("design.solve_design.iterations", len(history) - 1)


def _build_switching(tracer, bound, result):
    tracer.add("schedule.macro_count.sum", result.macro_count)
    tracer.maximum("schedule.macro_count.max", result.macro_count)


def _build_continuous(tracer, bound, result):
    _build_switching(tracer, bound, result)
    tracer.add("schedule.path_segments.sum", len(result.template))


def _kernels(tracer, datum, keys):
    branches = 1 if datum.model == "schrodinger" else 2
    entries = (datum.basis.dim * branches) ** 2
    tracer.add("evolve.kernels", len(keys))
    tracer.add("evolve.kernel_entries", entries * len(keys))
    for key in keys:
        tracer.distinct("evolve.kernel", key)


def _windowed(tracer, bound, result):
    args = bound.arguments
    s = args["schedule"]
    head = (s.t_start, s.duration, s.macro_count)
    keys = [
        head + (float(s.cum[j]), float(s.cum[j + 1]), tuple(g.shift.shift))
        for j, g in enumerate(args["gammas"])
    ]
    _kernels(tracer, args["datum"], keys)


def _path(tracer, bound, result):
    args = bound.arguments
    p = args["path"]
    head = (p.t_start, p.duration, p.macro_count)
    keys = [
        head + (seg.offset_start, seg.offset_end, seg.position, seg.velocity)
        for seg in p.template
        if seg.offset_end > seg.offset_start
    ]
    _kernels(tracer, args["datum"], keys)


def _interval_energy(tracer, bound, result):
    args = bound.arguments
    _kernels(tracer, args["datum"], [(args["t_start"], args["duration"])])


# (metric prefix, "module:attribute[.method]", record spans, count hook)
TARGETS = [
    ("config.from_file", "torusobs.config:RunConfig.from_file", True, None),
    ("geometry.fourier_coefficient", "torusobs.geometry:PrototypeSet.fourier_coefficient",
     False, None),
    ("geometry.translate", "torusobs.geometry:PrototypeSet.translate", False, None),
    ("geometry.translate_set", "torusobs.geometry:translate_set", False, None),
    ("geometry.set_measure", "torusobs.geometry:set_measure", False, None),
    ("spectral.build_basis", "torusobs.spectral:build_basis", False, None),
    ("spectral.gamma_matrix", "torusobs.spectral:gamma_matrix", True, _gamma_matrix),
    ("design.equispaced_design", "torusobs.design:equispaced_design", True, None),
    ("design.design_gammas", "torusobs.design:design_gammas", True, None),
    ("design.solve_design", "torusobs.design:solve_design", True, _solve_design),
    ("design.caratheodory_reduce", "torusobs.design:caratheodory_reduce", True,
     _caratheodory),
    ("design.verify_design", "torusobs.design:verify_design", True, None),
    ("schedule.build_switching", "torusobs.schedule:build_switching", True,
     _build_switching),
    ("schedule.build_continuous", "torusobs.schedule:build_continuous", True,
     _build_continuous),
    ("evolve.windowed_observation_energy", "torusobs.evolve:windowed_observation_energy",
     True, _windowed),
    ("evolve.path_observation_energy", "torusobs.evolve:path_observation_energy", True,
     _path),
    ("evolve.interval_output_energy", "torusobs.evolve:interval_output_energy", True,
     _interval_energy),
    ("experiment.calibration", "torusobs.experiment:calibration", True, None),
    ("experiment.run_protocol", "torusobs.experiment:run_protocol", True, None),
    ("experiment.tail_reduction_check", "torusobs.experiment:tail_reduction_check", True,
     None),
    ("experiment.continuous_protocol_delta",
     "torusobs.experiment:continuous_protocol_delta", True, None),
    ("cli.cmd_design", "torusobs.cli:cmd_design", True, None),
    ("cli.cmd_experiment", "torusobs.cli:cmd_experiment", True, None),
    ("cli.cmd_verify", "torusobs.cli:cmd_verify", True, None),
    ("cli.cmd_continuous", "torusobs.cli:cmd_continuous", True, None),
    ("cli.verify_artifacts", "torusobs.cli:verify_artifacts", True, None),
]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the
    intervals its direct children cover, clipped to the span itself.

    spans: sequence of (name, start, end, parent_index, run_id).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


class Tracer:
    """Spans and counters for one traced pass; all state lives here."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = {}
        self.distinct_keys: dict[tuple[str, int], set] = defaultdict(set)
        self.run_id = 0
        self.missing: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # counters used by the hooks
    def add(self, name: str, amount) -> None:
        self.counts[name] += amount

    def maximum(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def distinct(self, name: str, key) -> None:
        self.distinct_keys[(name, self.run_id)].add(key)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, func):
        """Run func() inside a span named `name`; return its result."""
        stack = self._stack()
        index = len(self.spans)
        record = [name, time.perf_counter(), None, stack[-1] if stack else None, self.run_id]
        self.spans.append(record)
        stack.append(index)
        try:
            return func()
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _wrapper(self, name: str, original, traced: bool, hook):
        tracer = self
        signature = inspect.signature(original)
        calls = name + ".calls"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.counts[calls] += 1
            if hook is None:
                if not traced:
                    return original(*args, **kwargs)
                return tracer.span(name, lambda: original(*args, **kwargs))
            bound = signature.bind(*args, **kwargs)
            if "history" in signature.parameters and bound.arguments.get("history") is None:
                # the solver appends one residual per iterate and never reads them
                bound.arguments["history"] = []
            result = (tracer.span(name, lambda: original(*bound.args, **bound.kwargs))
                      if traced else original(*bound.args, **bound.kwargs))
            if hook is not None:
                try:
                    hook(tracer, bound, result)
                except Exception as exc:  # an API change must not stop the run
                    tracer.hook_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target that exists; list the ones that do not."""
        for name, location, traced, hook in TARGETS:
            module_name, _, attribute = location.partition(":")
            owner_name, _, method = attribute.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
            except (ImportError, AttributeError):
                owner = None
            if owner is None or method not in vars(owner):
                self.missing.append(location)
            elif owner_name:
                self._install_method(owner, method, name, traced, hook)
            else:
                self._install_function(vars(owner)[method], name, traced, hook)

    def _install_method(self, cls, method, name, traced, hook):
        raw = vars(cls)[method]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrapper(name, raw.__func__, traced, hook))
        else:
            replacement = self._wrapper(name, raw, traced, hook)
        self._rebind(cls, method, replacement)

    def _install_function(self, original, name, traced, hook):
        replacement = self._wrapper(name, original, traced, hook)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "torusobs"
                                      or module_name.startswith("torusobs.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, key, replacement)
                elif isinstance(value, dict):
                    for dict_key, item in list(value.items()):
                        if item is original:
                            self._rebind(value, dict_key, replacement)

    def _rebind(self, owner, key, replacement):
        if isinstance(owner, dict):
            self._installed.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._installed.append((owner, key, vars(owner)[key]))
            setattr(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers: calls, self_s, and the hook counters."""
        out: dict[str, float] = {}
        for name, _, traced, _ in TARGETS:
            out[name + ".calls"] = 0
            if traced:
                out[name + ".self_s"] = 0.0
        for name, value in self.counts.items():
            out[name] = value
        out.update(self.maxima)
        for (name, start, end, parent, run), own in zip(self.spans, self_times(self.spans)):
            if name + ".self_s" in out:
                out[name + ".self_s"] += own
        out["evolve.kernel_bytes_computed"] = 16 * out.get("evolve.kernel_entries", 0)
        out["spectral.gamma_matrix.distinct_frac"] = self._distinct_frac(
            "spectral.gamma_matrix", out["spectral.gamma_matrix.calls"])
        out["evolve.distinct_kernel_frac"] = self._distinct_frac(
            "evolve.kernel", out.get("evolve.kernels", 0))
        return out

    def _distinct_frac(self, name: str, total) -> float:
        """Distinct keys per command run, summed over runs, per call made."""
        distinct = sum(len(keys) for (key, _), keys in self.distinct_keys.items()
                       if key == name)
        return distinct / total if total else 0.0


def _run_commands(main, commands, tracer=None) -> list[dict]:
    """Run each (command, config, out) through cli.main; time each one."""
    results = []
    for run_id, (command, config, out) in enumerate(commands):
        argv = [command, "--config", config, "--out", out]
        start = time.perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                tracer.run_id = run_id
                code = tracer.span("cli.main", lambda: main(argv))
        except Exception as exc:  # report the failed command, run the rest
            print(f"{command}: {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        results.append({"command": command, "code": code,
                        "seconds": time.perf_counter() - start})
    return results


def main(spec_path: str) -> int:
    """SPEC.json: {"warmup": [[command, config, out], ...], "untraced": [...],
    "traced": [...], "result": path}.  Writes spans and metrics to `result`."""
    spec = json.loads(Path(spec_path).read_text())
    from torusobs import cli

    warmup = _run_commands(cli.main, spec["warmup"])
    untraced = _run_commands(cli.main, spec["untraced"])
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_commands(cli.main, spec["traced"], tracer)
    finally:
        tracer.uninstall()
    Path(spec["result"]).write_text(json.dumps({
        "warmup": warmup,
        "untraced": untraced,
        "traced": traced,
        "metrics": tracer.metrics(),
        "missing": tracer.missing,
        "hook_errors": tracer.hook_errors,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
