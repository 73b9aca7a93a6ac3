"""Structured run configuration: versioned JSON schema, strict key checking.

A config file is a single JSON object.  Unknown keys are rejected at every
nesting level so that typos fail loudly instead of silently running defaults;
all cross-field constraints (window below the simulation cutoff, tolerances
inside (0, measure), model/mass pairing, schedule intervals inside the run)
are validated before any pipeline work starts.

The rules the config shares with the pipeline live here too: the model/mass
rule (`MODELS`, `check_model_mass`) and `NumericError`, the base of the
failures a command exits 3 on.  This module imports only `geometry`, so
loading a config loads no pipeline module.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Any, NamedTuple

from .geometry import PrototypeSet, TorusSpace

SCHEMA_VERSION = 1

MODELS = ("wave", "klein_gordon", "schrodinger")


class ConfigError(Exception):
    """A config file is malformed; the message names the offending field."""


class NumericError(Exception):
    """Base class of the numeric and infeasibility failures a command exits 3
    on: design construction, speed bounds, window cutoffs and basis
    mismatches."""


def check_model_mass(model: str, mass: float) -> None:
    """Raise ValueError unless `model` is known and `mass` suits it: the wave
    and Schrodinger models take mass 0, Klein-Gordon a nonzero mass."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if model == "schrodinger" and mass != 0.0:
        raise ValueError("schrodinger model carries no mass term")
    if model == "wave" and mass != 0.0:
        raise ValueError("wave model has mass 0; use klein_gordon otherwise")
    if model == "klein_gordon" and mass == 0.0:
        raise ValueError("klein_gordon needs a nonzero mass")


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")


def _get(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return mapping[key]


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite")
    return out


def _as_str(value: Any, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: must be one of {list(choices)}")
    return value


class WindowSchedule(NamedTuple):
    """Design cutoff per interval: capped stride growth, or explicit values
    (the last one repeats).  A fixed cutoff is one explicit value."""

    kind: str = "stride"
    stride: int = 5
    cap: int = 7
    values: tuple[int, ...] = ()

    def at(self, index: int) -> int:
        if self.kind == "stride":
            return min(self.cap, math.ceil(index / self.stride))
        return self.values[min(index, len(self.values)) - 1]

    @classmethod
    def parse(cls, data: Any, path: str) -> "WindowSchedule":
        mapping = _require_mapping(data, path)
        kind = _as_str(_get(mapping, "kind", path), f"{path}.kind",
                       ("stride", "fixed", "explicit"))
        if kind == "stride":
            _check_keys(mapping, {"kind", "stride", "cap"}, path)
            stride = _as_int(mapping.get("stride", 5), f"{path}.stride")
            cap = _as_int(mapping.get("cap", 7), f"{path}.cap")
            if stride < 1 or cap < 0:
                raise ConfigError(f"{path}: stride must be >= 1 and cap >= 0")
            return cls(kind=kind, stride=stride, cap=cap)
        if kind == "fixed":
            _check_keys(mapping, {"kind", "value"}, path)
            value = _as_int(_get(mapping, "value", path), f"{path}.value")
            if value < 0:
                raise ConfigError(f"{path}.value: must be >= 0")
            return cls(kind="explicit", values=(value,))
        _check_keys(mapping, {"kind", "values"}, path)
        raw = _get(mapping, "values", path)
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.values: expected a nonempty list")
        values = tuple(_as_int(v, f"{path}.values[{i}]") for i, v in enumerate(raw))
        if any(v < 0 for v in values):
            raise ConfigError(f"{path}.values: entries must be >= 0")
        return cls(kind=kind, values=values)


class ToleranceSchedule(NamedTuple):
    """Switching loss target per interval: harmonic decay, or explicit values
    (the last one repeats).  A fixed target is one explicit value.

    Harmonic decay scales the prototype measure by 1/(index+1), which keeps
    every target strictly inside (0, measure)."""

    kind: str = "harmonic"
    values: tuple[float, ...] = ()

    def at(self, index: int, measure: float) -> float:
        if self.kind == "harmonic":
            return measure / (index + 1)
        return self.values[min(index, len(self.values)) - 1]

    @classmethod
    def parse(cls, data: Any, path: str) -> "ToleranceSchedule":
        mapping = _require_mapping(data, path)
        kind = _as_str(_get(mapping, "kind", path), f"{path}.kind",
                       ("harmonic", "fixed", "explicit"))
        if kind == "harmonic":
            _check_keys(mapping, {"kind"}, path)
            return cls(kind=kind)
        if kind == "fixed":
            _check_keys(mapping, {"kind", "value"}, path)
            value = _as_float(_get(mapping, "value", path), f"{path}.value")
            return cls(kind="explicit", values=(value,))
        _check_keys(mapping, {"kind", "values"}, path)
        raw = _get(mapping, "values", path)
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{path}.values: expected a nonempty list")
        values = tuple(_as_float(v, f"{path}.values[{i}]") for i, v in enumerate(raw))
        return cls(kind=kind, values=values)


class DatumSpec(NamedTuple):
    window: int = 0
    decay: str = "flat"
    decay_power: float = 2.0
    seed: int = 0

    @classmethod
    def parse(cls, data: Any, path: str) -> "DatumSpec":
        mapping = _require_mapping(data, path)
        _check_keys(mapping, {"window", "decay", "decay_power", "seed"}, path)
        window = _as_int(_get(mapping, "window", path), f"{path}.window")
        decay = _as_str(mapping.get("decay", "flat"), f"{path}.decay",
                        ("flat", "power"))
        power = _as_float(mapping.get("decay_power", 2.0), f"{path}.decay_power")
        seed = _as_int(mapping.get("seed", 0), f"{path}.seed")
        if window < 0:
            raise ConfigError(f"{path}.window: must be >= 0")
        if seed < 0:
            raise ConfigError(f"{path}.seed: must be >= 0")
        return cls(window=window, decay=decay, decay_power=power, seed=seed)


class DesignOptions(NamedTuple):
    """Options for standalone design building (the protocol itself always
    uses the exact equal-weight grid).

    The solver draws its candidate shifts either from the regular grid of
    4*cutoff+2 per axis, which always contains an exact design, or from a
    seeded uniform sample of `candidates` shifts.
    """

    method: str = "equispaced"
    cutoff: int = 1
    candidate_kind: str = "grid"
    candidates: int = 64
    candidate_seed: int = 0
    tol: float = 1e-10
    max_iter: int = 20000        # cap on the solver's min-norm-point major cycles

    @classmethod
    def parse(cls, data: Any, path: str) -> "DesignOptions":
        mapping = _require_mapping(data, path)
        _check_keys(
            mapping,
            {
                "method",
                "cutoff",
                "candidate_kind",
                "candidates",
                "candidate_seed",
                "tol",
                "max_iter",
            },
            path,
        )
        method = _as_str(mapping.get("method", "equispaced"), f"{path}.method",
                         ("equispaced", "solver"))
        cutoff = _as_int(mapping.get("cutoff", 1), f"{path}.cutoff")
        kind = _as_str(mapping.get("candidate_kind", "grid"),
                       f"{path}.candidate_kind", ("grid", "random"))
        candidates = _as_int(mapping.get("candidates", 64), f"{path}.candidates")
        seed = _as_int(mapping.get("candidate_seed", 0), f"{path}.candidate_seed")
        tol = _as_float(mapping.get("tol", 1e-10), f"{path}.tol")
        max_iter = _as_int(mapping.get("max_iter", 20000), f"{path}.max_iter")
        if cutoff < 0:
            raise ConfigError(f"{path}.cutoff: must be >= 0")
        if candidates < 1:
            raise ConfigError(f"{path}.candidates: must be >= 1")
        if tol <= 0:
            raise ConfigError(f"{path}.tol: must be > 0")
        if max_iter < 1:
            raise ConfigError(f"{path}.max_iter: must be >= 1")
        return cls(method=method, cutoff=cutoff, candidate_kind=kind,
                   candidates=candidates, candidate_seed=seed, tol=tol,
                   max_iter=max_iter)


class ScheduleOptions(NamedTuple):
    """Realization options: speed ladder for continuous paths, CSV budget."""

    speeds: tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0)
    csv_row_cap: int = 200_000
    emit_intervals: tuple[int, ...] = (1,)
    interval: int = 1

    @classmethod
    def parse(cls, data: Any, path: str) -> "ScheduleOptions":
        mapping = _require_mapping(data, path)
        _check_keys(
            mapping, {"speeds", "csv_row_cap", "emit_intervals", "interval"}, path
        )
        raw_speeds = mapping.get("speeds", [10.0, 100.0, 1000.0, 10000.0])
        if not isinstance(raw_speeds, list) or not raw_speeds:
            raise ConfigError(f"{path}.speeds: expected a nonempty list")
        speeds = tuple(
            _as_float(v, f"{path}.speeds[{i}]") for i, v in enumerate(raw_speeds)
        )
        if any(v <= 0 for v in speeds):
            raise ConfigError(f"{path}.speeds: entries must be > 0")
        for i, v in enumerate(speeds):
            if v in speeds[:i]:
                raise ConfigError(f"{path}.speeds[{i}]: repeats {v!r}")
        cap = _as_int(mapping.get("csv_row_cap", 200_000), f"{path}.csv_row_cap")
        if cap < 1:
            raise ConfigError(f"{path}.csv_row_cap: must be >= 1")
        raw_emit = mapping.get("emit_intervals", [1])
        if not isinstance(raw_emit, list):
            raise ConfigError(f"{path}.emit_intervals: expected a list")
        emit = tuple(
            _as_int(v, f"{path}.emit_intervals[{i}]") for i, v in enumerate(raw_emit)
        )
        interval = _as_int(mapping.get("interval", 1), f"{path}.interval")
        return cls(speeds=speeds, csv_row_cap=cap, emit_intervals=emit,
                   interval=interval)


_TOP_KEYS = {
    "schema",
    "space",
    "prototype",
    "model",
    "mass",
    "duration",
    "sim_window",
    "interval_count",
    "windows",
    "tolerances",
    "datum",
    "design",
    "schedule",
}


class _RunConfig(NamedTuple):
    dim: int
    boxes: tuple
    model: str
    mass: float
    duration: float
    sim_window: int
    interval_count: int
    windows: WindowSchedule
    tolerances: ToleranceSchedule
    datum: DatumSpec
    design: DesignOptions
    schedule: ScheduleOptions
    source: dict = {}  # the parsed JSON object; never mutated


class RunConfig(_RunConfig):
    """Validated protocol configuration."""

    # -- derived accessors ------------------------------------------------

    def space(self) -> TorusSpace:
        return TorusSpace(self.dim)

    def prototype(self) -> PrototypeSet:
        return self._prototype

    @cached_property
    def _prototype(self) -> PrototypeSet:
        # built from the exact boxes once per config, not per call
        return PrototypeSet.from_boxes(self.space(), self.boxes)

    @cached_property
    def measure(self) -> float:
        return self._prototype.measure

    @property
    def seed(self) -> int:
        return self.datum.seed

    @property
    def datum_window(self) -> int:
        return self.datum.window

    @property
    def datum_decay(self) -> str:
        return self.datum.decay

    @property
    def datum_decay_power(self) -> float:
        return self.datum.decay_power

    def window_at(self, index: int) -> int:
        return self.windows.at(index)

    def tolerance_at(self, index: int) -> float:
        return self.tolerances.at(index, self.measure)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Any) -> "RunConfig":
        mapping = _require_mapping(data, "config")
        _check_keys(mapping, _TOP_KEYS, "config")
        schema = _as_int(_get(mapping, "schema", "config"), "config.schema")
        if schema != SCHEMA_VERSION:
            raise ConfigError(
                f"config.schema: version {schema} not supported (expected "
                f"{SCHEMA_VERSION})"
            )
        space_map = _require_mapping(_get(mapping, "space", "config"), "config.space")
        _check_keys(space_map, {"dim"}, "config.space")
        dim = _as_int(_get(space_map, "dim", "config.space"), "config.space.dim")
        if dim not in (1, 2):
            raise ConfigError("config.space.dim: must be 1 or 2")

        proto_map = _require_mapping(
            _get(mapping, "prototype", "config"), "config.prototype"
        )
        _check_keys(proto_map, {"boxes"}, "config.prototype")
        raw_boxes = _get(proto_map, "boxes", "config.prototype")
        if not isinstance(raw_boxes, list) or not raw_boxes:
            raise ConfigError("config.prototype.boxes: expected a nonempty list")
        boxes = _parse_boxes(raw_boxes, dim)

        model = _as_str(_get(mapping, "model", "config"), "config.model", MODELS)
        mass = _as_float(mapping.get("mass", 0.0), "config.mass")
        duration = _as_float(_get(mapping, "duration", "config"), "config.duration")
        sim_window = _as_int(_get(mapping, "sim_window", "config"),
                             "config.sim_window")
        interval_count = _as_int(mapping.get("interval_count", 1),
                                 "config.interval_count")
        windows = (
            WindowSchedule.parse(mapping["windows"], "config.windows")
            if "windows" in mapping
            else WindowSchedule()
        )
        tolerances = (
            ToleranceSchedule.parse(mapping["tolerances"], "config.tolerances")
            if "tolerances" in mapping
            else ToleranceSchedule()
        )
        datum = (
            DatumSpec.parse(mapping["datum"], "config.datum")
            if "datum" in mapping
            else DatumSpec(window=sim_window)
        )
        design = (
            DesignOptions.parse(mapping["design"], "config.design")
            if "design" in mapping
            else DesignOptions()
        )
        schedule = (
            ScheduleOptions.parse(mapping["schedule"], "config.schedule")
            if "schedule" in mapping
            else ScheduleOptions()
        )
        config = cls(
            dim=dim,
            boxes=boxes,
            model=model,
            mass=mass,
            duration=duration,
            sim_window=sim_window,
            interval_count=interval_count,
            windows=windows,
            tolerances=tolerances,
            datum=datum,
            design=design,
            schedule=schedule,
            source=dict(mapping),
        )
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def validate(self) -> None:
        """Cross-field checks; raises ConfigError on the first violation."""
        try:
            prototype = self.prototype()
        except ValueError as exc:
            raise ConfigError(f"config.prototype: {exc}") from exc
        measure = prototype.measure
        if not 0.0 < measure <= 1.0:
            raise ConfigError("config.prototype: measure must lie in (0, 1]")
        if self.duration <= 0:
            raise ConfigError("config.duration: must be > 0")
        if self.sim_window < 0:
            raise ConfigError("config.sim_window: must be >= 0")
        if self.interval_count < 1:
            raise ConfigError("config.interval_count: must be >= 1")
        try:
            check_model_mass(self.model, self.mass)
        except ValueError as exc:
            raise ConfigError(f"config.mass: {exc}") from exc
        for key, indices in (
            ("interval", (self.schedule.interval,)),
            ("emit_intervals", self.schedule.emit_intervals),
        ):
            if any(not 1 <= m <= self.interval_count for m in indices):
                raise ConfigError(
                    f"config.schedule.{key}: intervals must lie in "
                    f"1..interval_count = 1..{self.interval_count}"
                )
        if self.datum.window > self.sim_window:
            raise ConfigError(
                "config.datum.window: must not exceed config.sim_window"
            )
        for m in range(1, self.interval_count + 1):
            window = self.window_at(m)
            if window >= self.sim_window:
                raise ConfigError(
                    f"config.windows: window {window} at interval {m} must stay "
                    f"below sim_window {self.sim_window}"
                )
            tol = self.tolerance_at(m)
            if not 0.0 < tol < measure:
                raise ConfigError(
                    f"config.tolerances: target {tol} at interval {m} must lie "
                    f"in (0, measure)"
                )


def _parse_boxes(raw: list, dim: int) -> tuple:
    """Normalize JSON box syntax to from_boxes input (numbers or fraction
    strings allowed; dim-1 boxes may be bare pairs)."""

    def scalar(v: Any, path: str):
        if isinstance(v, str):
            try:
                return Fraction(v)
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"{path}: bad fraction literal {v!r}") from exc
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path}: expected a number or fraction string")
        return v

    def pair(v: Any, path: str):
        if not isinstance(v, list) or len(v) != 2:
            raise ConfigError(f"{path}: expected an [start, end] pair")
        return (scalar(v[0], f"{path}[0]"), scalar(v[1], f"{path}[1]"))

    out = []
    for i, box in enumerate(raw):
        path = f"config.prototype.boxes[{i}]"
        if not isinstance(box, list):
            raise ConfigError(f"{path}: expected a list")
        if dim == 1:
            if len(box) == 2 and not isinstance(box[0], list):
                out.append(pair(box, path))
            elif len(box) == 1:
                out.append((pair(box[0], f"{path}[0]"),))
            else:
                raise ConfigError(f"{path}: expected [a, b] or [[a, b]]")
        else:
            if len(box) != dim:
                raise ConfigError(f"{path}: expected {dim} per-axis pairs")
            out.append(tuple(pair(b, f"{path}[{j}]") for j, b in enumerate(box)))
    return tuple(out)
