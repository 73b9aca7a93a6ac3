"""`verify`'s checks: one checker per artifact, and what they rebuild.

Each checker reads its artifact and the CSV its energies are stored in,
rebuilds what the config determines (`_Rebuilt`, each part on first use)
and calls the artifact's builder in `artifacts` on it and on the energies.
A CSV must be its writer's text (`_text_problems`), a JSON file its
payload key for key, and a verdict that recomputes false fails, as it does
the command that wrote it.  No checker reads what another left behind.
`cli.verify_artifacts` runs the checkers of `CHECKS` and reports a file
that raises one of `UNREADABLE` as unreadable.  Only `verify` and
`--check` import this module.
"""

from __future__ import annotations

import json
import os
from functools import cached_property
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import (
    CONTINUOUS_HEADER,
    CONTINUOUS_SCHEMA,
    CONTINUOUS_VERSION,
    RUN_SCHEMA,
    SERIES_HEADER,
    SERIES_VERSION,
    _calibration,
    _calibration_payload,
    _continuous_rows,
    _csv,
    _design_payload,
    _fmt,
    _read_csv,
    _read_json,
    _run_meta,
    _schedule_files,
    _schedule_summary,
    _series_rows,
    schedule_header,
)
from .config import NumericError

if TYPE_CHECKING:
    from .config import RunConfig


def _differ(have: dict, want: dict) -> list[str]:
    """The keys of `want`, then those only `have` holds, whose values differ
    as JSON text, so that 1 differs from 1.0 and true from 1.  `have` that
    is not a mapping raises."""
    keys = [*want, *(key for key in have if key not in want)]
    return [
        key for key in keys
        if key not in have or key not in want
        or json.dumps(have[key], sort_keys=True) != json.dumps(want[key], sort_keys=True)
    ]


def _compare(name: str, have: dict, want: dict, default: str, own=None) -> list[str]:
    """Where the JSON artifact `name`'s payload `have` differs from its
    builder's `want` (`_differ`): a key of `own` or `schema` by its own
    message, given `have`, `want` and their differing `keys`, the rest in
    one `default` message."""
    messages = {"schema": "schema {have!r} is not {want}", **(own or {})}
    problems, rest = [], []
    for key in _differ(have, want):
        if key not in messages:
            rest.append(key)
            continue
        stored, fresh = have.get(key), want.get(key)
        keys = ", ".join(_differ(stored, fresh)) if "{keys}" in messages[key] else ""
        problems.append(f"{name}: " + messages[key].format(have=stored, want=fresh, keys=keys))
    if rest:
        problems.append(f"{name}: " + default.format(keys=", ".join(rest)))
    return problems


def _text_problems(path: Path, chunks, header: str, what: str, rows: int, whole=True) -> list:
    """Where the CSV at `path` first departs from its writer's text
    `chunks`, layout lines first, read one chunk at a time: a layout that
    differs, a file that ends before the text's `rows` rows, the first row
    that differs, with the columns that differ (`what` says what the row
    must be, {row} its number), or, if `whole`, a file that runs on."""
    done = -2  # data rows before the chunk; the layout lines are rows -1 and 0
    # the writer's text is ASCII; no newline translation, so line ends count
    with path.open(encoding="ascii", newline="") as fh:
        for chunk in chunks:
            text = fh.read(len(chunk))
            if text != chunk:
                at = len(os.path.commonprefix([text, chunk]))
                row = done + chunk.count("\n", 0, at) + 1
                if row <= 0:
                    return [f"{path.name}: unrecognized layout"]
                if at == len(text):
                    return [f"{path.name}: file ends after {row - 1} of {rows} rows"]
                start = chunk.rfind("\n", 0, at) + 1
                have = (text[start:] + fh.readline()).partition("\n")[0]
                want = chunk[start : chunk.index("\n", at)]
                cells = zip_longest(*(line.split(",", header.count(",")) for line in (have, want)))
                differ = ", ".join(col for col, (a, b) in zip(header.split(","), cells) if a != b)
                return [f"{path.name}: row {row} {what.format(row=row)} ({differ})"]
            done += chunk.count("\n")
        if whole and fh.read(1):
            return [f"{path.name}: file runs on past its {rows} rows"]
    return []


def _negative_energy(name: str, energies) -> list[str]:
    """An energy is a sum of squares: a CSV that stores a negative one is
    refused, whatever the rows around it rebuild to."""
    return [f"{name}: negative interval energy"] if np.any(np.asarray(energies) < 0) else []


class _Rebuilt:
    """What `verify` rebuilds from the config, each part on first use."""

    def __init__(self, config: RunConfig):
        self.config = config

    @cached_property
    def constants(self):
        return _calibration(self.config)

    @cached_property
    def setup(self):
        from .experiment import prepare_protocol

        return prepare_protocol(self.config)

    @cached_property
    def paths(self) -> dict:
        setup, speeds = self.setup, self.config.schedule.speeds
        return {(k, v): setup.path(k, v) for v in speeds for k in setup.designs}


def _check_design(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    """A design's atoms, on the cutoff its name gives and the prototype's
    measure, must give its residual and its matrix residual."""
    from .design import ConvexDesign, design_of
    from .spectral import build_basis

    data = _read_json(path)
    stored = ConvexDesign.from_dict(data)
    if path.stem != f"design_K{stored.cutoff}":
        raise ValueError(f"cutoff {stored.cutoff} is not the one its file name gives")
    prototype = config.prototype()
    basis = build_basis(config.space(), stored.cutoff)
    want = _design_payload(design_of(stored.atoms, basis, prototype), basis, prototype)
    return _compare(path.name, data, want, "differs from the design its atoms rebuild ({keys})")


def _check_calibration(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    return _compare(
        path.name, _read_json(path), _calibration_payload(state.constants),
        "differs from the recomputed calibration ({keys})",
    )


def _series_energies(path: Path) -> tuple:
    """series.csv's energies Q_m and E_leK."""
    rows = _read_csv(path, SERIES_VERSION, SERIES_HEADER)
    return np.array([float(row[3]) for row in rows]), np.array([float(row[5]) for row in rows])


def _check_series(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    """series.csv must be the text of the config's intervals around its own
    energies Q_m and E_leK."""
    observed, windowed = _series_energies(path)
    problems = []
    if len(observed) != config.interval_count:
        problems.append(f"{path.name}: {len(observed)} rows for {config.interval_count} intervals")
    want = _series_rows(config, observed, windowed)
    return problems + _negative_energy(path.name, observed) + _text_problems(
        path, [_csv(SERIES_VERSION, SERIES_HEADER, want)], SERIES_HEADER,
        "is not interval {row} of the config and its energies", len(observed),
    )


RUN_META_MESSAGES = {
    "config": "config is not the loaded config",
    "interval_count": "interval_count {have!r} is not the config's {want}",
    "final_mean": "final_mean is not the last A_N of series.csv",
    "final_quarter_minimum": (
        "final_quarter_minimum is not the least A_N of the last quarter of series.csv"
    ),
    "tail_reduction": "tail_reduction does not recompute from series.csv ({keys})",
}


def _check_run_meta(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    """run_meta.json is rebuilt from the config, the recomputed calibration,
    series.csv's energies and its own energy, reference bound and split
    fields (lower_margin, split_ok, split_bound); a file of another schema
    is reported by its schema alone.  The ratios divide by its stored
    bound, which must itself be the product of its stored measure, lower
    constant and energy.  A verdict of `TAIL_FLAGS` that recomputes false
    is a problem, as it is in `experiment`'s exit code: the certificate
    fails."""
    from .experiment import TAIL_FLAGS, reference_bound, running_means, tail_report

    meta = _read_json(path)
    if meta.get("schema") != RUN_SCHEMA:  # another layout: its fields are not rebuilt
        return _compare(path.name, {"schema": meta.get("schema")}, {"schema": RUN_SCHEMA}, "")
    try:
        observed, windowed = _series_energies(path.with_name("series.csv"))
    except UNREADABLE:
        raise ValueError("no readable series.csv to rebuild it from") from None
    constants = state.constants
    energy, bound, split = meta["energy"], meta["reference_bound"], meta["tail_reduction"]
    tail = tail_report(observed, windowed, constants.upper, energy, bound, split)
    want = _run_meta(config, constants, energy, running_means(observed), bound, tail)
    want["reference_bound"] = reference_bound(meta["measure"], meta["lower_constant"], energy)
    problems = _compare(
        path.name, meta, want, "differs from the config and the recomputed calibration ({keys})",
        own=RUN_META_MESSAGES,
    )
    return problems + [
        f"{path.name}: tail_reduction.{flag} is false" for flag in TAIL_FLAGS if not tail[flag]
    ]


def _schedule(state: _Rebuilt, path: Path, index) -> object:
    """Interval `index`'s rebuilt schedule, for the schedule file `path`,
    which must be named for it."""
    if type(index) is not int or not 1 <= index <= state.config.interval_count:
        raise ValueError(f"interval {index!r} is not in the run")
    if path.stem != f"schedule_m{index}":
        raise ValueError(f"interval {index} is not the one its file name gives")
    return state.setup.schedule(index)


def _check_sidecar(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    sidecar = _read_json(path)
    index = sidecar["interval"]
    want = _schedule_summary(index, _schedule(state, path, index))
    return _compare(path.name, sidecar, want, "summary differs from the rebuilt schedule ({keys})")


def _check_schedule_csv(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    """A schedule CSV, whose sidecar must be beside it, must be the text
    `schedule` writes for the interval its name gives."""
    if not path.with_suffix(".json").exists():
        raise ValueError(f"no sidecar {path.stem}.json")
    index = int(path.stem.removeprefix("schedule_m"))
    schedule = _schedule(state, path, index)
    return _text_problems(
        path, _schedule_files(config, index, schedule)[path.name], schedule_header(config.dim),
        "differs from the rebuilt schedule", min(schedule.micro_count, config.schedule.csv_row_cap),
    )


def _continuous_columns(config: RunConfig, path: Path) -> tuple:
    """continuous.csv's rows and energies, then its energies and certified
    losses per speed of the config's ladder, `interval_count` rows each."""
    rows = _read_csv(path, CONTINUOUS_VERSION, CONTINUOUS_HEADER)
    losses, energies = ([float(row[col]) for row in rows] for col in (4, 5))
    count = config.interval_count
    runs = {v: slice(i * count, (i + 1) * count) for i, v in enumerate(config.schedule.speeds)}
    observed = {v: np.array(energies[run]) for v, run in runs.items()}
    return rows, energies, observed, {v: losses[run] for v, run in runs.items()}


def _check_continuous(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    """continuous.csv must be the text of the config's speed ladder and
    intervals, with the rebuilt paths, around its own energies, none of
    them negative."""
    rows, energies, observed, _ = _continuous_columns(config, path)
    count, speeds = config.interval_count, config.schedule.speeds
    problems = [] if len(rows) == len(speeds) * count else [
        f"{path.name}: {len(rows)} rows for {len(speeds)} speeds of {count} intervals"
    ]
    if not path.with_name("continuous_report.json").exists():
        problems.append(f"{path.name}: no continuous_report.json beside it")
    want = _continuous_rows(config, state.paths, observed)
    return problems + _negative_energy(path.name, energies) + _text_problems(
        path, [_csv(CONTINUOUS_VERSION, CONTINUOUS_HEADER, want)], CONTINUOUS_HEADER,
        "differs from the config's ladder and its rebuilt path", len(rows), whole=False,
    )


CONTINUOUS_MESSAGES = {
    "speeds": "speeds differ from the config's ladder",
    "certified_factors": "certified_factors do not recompute from the rebuilt paths",
    "monotone_ok": "monotone_ok does not recompute from the CSV",
    "realized_ok": "realized_ok does not agree with realized_margin",
    "realized_margin": "realized_margin {have!r} where no rebuilt path certifies a positive "
    "factor, so no interval bounds it",
    "final_means": "final mean at speed {keys} disagrees with the CSV",
}


def _check_continuous_report(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    """continuous_report.json is rebuilt from the rebuilt paths,
    continuous.csv's energies and certified losses, if its speed column is
    the config's ladder, and its own realized margin, which must clear 1.
    Only an interval whose path certifies a positive factor bounds the
    margin, so with no such path it is null."""
    from .experiment import certified_factor, continuous_fields

    report = _read_json(path)
    count, speeds = config.interval_count, config.schedule.speeds
    try:
        rows, _, observed, losses = _continuous_columns(config, path.with_name("continuous.csv"))
    except UNREADABLE:
        return [f"{path.name}: not rebuilt, since no readable continuous.csv"]
    if [row[0] for row in rows] != [_fmt(v) for v in speeds for _ in range(count)]:
        return [
            f"{path.name}: not rebuilt, since continuous.csv does not hold the config's "
            f"{len(speeds)} speeds of {count} intervals"
        ]
    margin = report["realized_margin"]
    if not any(
        certified_factor(config.measure, p.certified_loss) > 0.0 for p in state.paths.values()
    ):
        margin = None
    fields = continuous_fields(config.measure, state.paths, observed, losses, margin)
    want = {"schema": CONTINUOUS_SCHEMA, **fields}
    problems = _compare(
        path.name, report, want, "differs from the rebuilt report ({keys})",
        own=CONTINUOUS_MESSAGES,
    )
    if not want["realized_ok"]:
        problems.append(f"{path.name}: realized margin {margin!r} below 1")
    return problems


#: what `verify_artifacts` checks, in the order it reports: each artifact
#: that matches a pattern, with its checker
CHECKS = (
    ("design_K*.json", _check_design),
    ("calibration.json", _check_calibration),
    ("series.csv", _check_series),
    ("run_meta.json", _check_run_meta),
    ("schedule_m*.json", _check_sidecar),
    ("schedule_m*.csv", _check_schedule_csv),
    ("continuous.csv", _check_continuous),
    ("continuous_report.json", _check_continuous_report),
)

#: what makes an artifact unreadable: a file that cannot be read or parsed,
#: a field of the wrong type or value, or a config it cannot be rebuilt on
UNREADABLE = (
    OSError, ValueError, KeyError, IndexError, TypeError, AttributeError, ArithmeticError,
    NumericError,
)
