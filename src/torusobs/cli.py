"""Batch front-end: config in, deterministic CSV/JSON artifacts out.

Subcommands
-----------
design      build + reduce one convex design, write design_K{K}.json with its
            moment and matrix residuals
calibrate   write calibration.json with the per-frequency Gram table
schedule    write interval m's switching schedule, schedule_m{m}.csv, beside
            its sidecar schedule_m{m}.json
experiment  full protocol + tail checks: series.csv, designs, calibration,
            run_meta.json, schedule sidecars for selected intervals
continuous  speed-ladder rerun with continuous paths: continuous.csv + report
verify      re-read artifacts in --out and revalidate them against the config

All artifacts are bitwise-reproducible from (config, seed): floats are
emitted with round-trip repr formatting, JSON keys are sorted, and no
timestamps or machine identifiers are written.  Exit codes: 0 ok, 2 config
error, 3 numeric/infeasibility failure.

Each artifact has one builder, which its writer and `verify` both call: the
rows or payload of the artifact, from the config, the quantities the config
determines and the energies.  `verify` calls it on what it rebuilds from the
config and on the energies the artifacts store, and requires the file to
equal the result, text for text or key for key.  The stored energies and
the values of the tail report's split fields are what it takes on trust.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# Only the config is imported here: each command imports the modules it
# calls, so a process loads no more of the package than its command runs.
from .config import ConfigError, NumericError, RunConfig

if TYPE_CHECKING:
    from .design import ConvexDesign
    from .geometry import GroupElement

SERIES_HEADER = "m,K_m,eps_m,Q_m,A_N,E_leK"
SERIES_VERSION = "# torusobs series v1"
SCHEDULE_VERSION = "# torusobs schedule v1"


def schedule_header(dim: int) -> str:
    return "t_start,t_end,atom," + ",".join(f"shift_{i}" for i in range(dim))
CONTINUOUS_HEADER = "speed,interval,window,macro_count,certified_loss,observed,running_mean"
CONTINUOUS_VERSION = "# torusobs continuous v1"
DESIGN_SCHEMA = "torusobs-design/2"
CALIBRATION_SCHEMA = "torusobs-calibration/1"
RUN_SCHEMA = "torusobs-run/1"
CONTINUOUS_SCHEMA = "torusobs-continuous/2"


def _fmt(value) -> str:
    """Round-trip text for CSV cells."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_lines(path: Path, version: str, header: str, chunks) -> None:
    """Write the version and header lines, then every chunk of formatted lines."""
    with path.open("w", newline="\n") as fh:
        fh.write(f"{version}\n{header}\n")
        fh.writelines(chunks)


def _write_csv(path: Path, version: str, header: str, rows) -> None:
    _write_lines(
        path, version, header, (",".join(_fmt(v) for v in row) + "\n" for row in rows)
    )


def _read_csv(path: Path, version: str, header: str) -> list[list[str]]:
    """The data rows of a CSV artifact, split into cells, each row of the
    header's width.  Lines must end in a bare newline, as the writer ends
    them, so equal cells mean equal text."""
    with path.open(encoding="ascii", newline="") as fh:
        lines = fh.read().split("\n")
    if len(lines) < 3 or lines[0] != version or lines[1] != header or lines[-1]:
        raise ValueError(f"{path.name}: unrecognized layout")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[2:-1]]
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} cells, not {width}")
    return rows


def _write_json(path: Path, payload: dict) -> None:
    # a non-finite float has no JSON spelling: fail rather than write one
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def _read_json(path: Path) -> dict:
    """Parse a JSON artifact strictly: NaN and Infinity are rejected."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _candidates(config: RunConfig, basis) -> list[GroupElement]:
    from .design import default_candidates
    from .geometry import GroupElement

    opts = config.design
    if opts.candidate_kind == "grid":
        return default_candidates(basis)
    rng = np.random.default_rng(opts.candidate_seed)
    denom = 1 << 20
    return [
        GroupElement(
            tuple(
                Fraction(int(v), denom)
                for v in rng.integers(0, denom, size=config.dim)
            )
        )
        for _ in range(opts.candidates)
    ]


def _build_design(config: RunConfig, basis, prototype) -> ConvexDesign:
    """Design per config options: exact grid, or solver + reduction."""
    from .design import caratheodory_reduce, equispaced_design, solve_design

    if config.design.method == "equispaced":
        design = equispaced_design(basis, prototype)
    else:
        design = solve_design(
            basis,
            prototype,
            _candidates(config, basis),
            tol=config.design.tol,
            max_iter=config.design.max_iter,
        )
    return caratheodory_reduce(design, basis, prototype)


def _design_payload(design, basis, prototype) -> dict:
    """design_K{cutoff}.json: the design with its matrix residual on `basis`,
    from one atom's Gamma at a time (`moment_residual`)."""
    from .design import moment_residual
    from .spectral import gamma_matrix

    gammas = (gamma_matrix(basis, prototype, a.shift) for a in design.atoms)
    return {
        "schema": DESIGN_SCHEMA,
        **design.to_dict(),
        "matrix_residual": moment_residual(design.weights, gammas, design.measure),
    }


def _write_design(out: Path, design, basis, prototype) -> Path:
    path = out / f"design_K{basis.cutoff}.json"
    _write_json(path, _design_payload(design, basis, prototype))
    return path


def _calibration_payload(constants) -> dict:
    return {"schema": CALIBRATION_SCHEMA, **constants.to_dict()}


def _write_calibration(out: Path, constants) -> Path:
    path = out / "calibration.json"
    _write_json(path, _calibration_payload(constants))
    return path


def cmd_design(config: RunConfig, out: Path, args) -> int:
    from .spectral import build_basis

    basis = build_basis(config.space(), config.design.cutoff)
    prototype = config.prototype()
    design = _build_design(config, basis, prototype)
    path = _write_design(out, design, basis, prototype)
    print(
        f"design cutoff={config.design.cutoff} atoms={len(design)} "
        f"residual={design.residual:.3e} -> {path}"
    )
    return 0


def cmd_calibrate(config: RunConfig, out: Path, args) -> int:
    constants = _calibration(config)
    path = _write_calibration(out, constants)
    print(
        f"calibration model={config.model} lower={constants.lower!r} "
        f"upper={constants.upper!r} -> {path}"
    )
    return 0


#: micro slots formatted per block of the schedule CSV writer
SCHEDULE_BLOCK = 2048


def _boundaries(schedule, first: int, count: int) -> np.ndarray:
    """Slot boundaries of a switching schedule's macros first .. first +
    count - 1 as a (count, J + 1) grid: macro r's row is
    (t_start + r tau) + cum_k tau, k = 0..J, with cum the design's
    cumulative weights, and slot (r, j) runs from cell j to cell j + 1; the
    final endpoint belongs to the last slot.  Every slot time of the
    schedule is formed here."""
    tau = schedule.macro_length
    cum = schedule.design.cumulative_weights
    r = np.arange(first, first + count)
    return (schedule.t_start + r * tau)[:, None] + cum[None, :] * tau


def _schedule_lines(schedule, cap: int):
    """CSV text of the first `cap` micro slots, in (macro, atom) order, one
    chunk of at most `SCHEDULE_BLOCK` rows at a time: the text `schedule`
    writes below the layout lines and `verify` compares a schedule CSV with.

    A block is the whole macros that fit in `SCHEDULE_BLOCK` rows, or one
    macro if none fits; its slot times are one `_boundaries` grid, each
    `repr`ed once, since a slot's end is the next slot's start.  The row
    starts are the grid with each macro's last cell deleted, the row ends
    the grid from its second cell with each next macro's first cell
    deleted; start, ",", end and the atom's suffix are
    interleaved by slice assignment into one list of pieces and the block is
    one join.  Only the macros holding the first `cap` slots are formatted;
    a macro of more than `SCHEDULE_BLOCK` atoms is its own block, joined in
    `SCHEDULE_BLOCK`-row pieces.
    """
    atoms = schedule.atom_count
    suffixes = [
        f",{j}," + ",".join(repr(v) for v in s.as_floats().tolist()) + "\n"
        for j, s in enumerate(schedule.design.shifts)
    ]
    rows = min(cap, schedule.micro_count)
    used = -(-rows // atoms)
    per_block = max(1, SCHEDULE_BLOCK // atoms)
    for first in range(0, used, per_block):
        macros = min(per_block, used - first)
        cells = list(map(repr, _boundaries(schedule, first, macros).ravel().tolist()))
        count = min(macros * atoms, rows - first * atoms)
        ends = cells[1:]
        del cells[atoms :: atoms + 1], ends[atoms :: atoms + 1]
        pieces = [","] * (4 * count)
        pieces[0::4] = cells[:count]
        pieces[2::4] = ends[:count]
        pieces[3::4] = (suffixes * macros)[:count]
        for at in range(0, len(pieces), 4 * SCHEDULE_BLOCK):
            yield "".join(pieces[at : at + 4 * SCHEDULE_BLOCK])


def _schedule_summary(index: int, schedule) -> dict:
    """The sidecar schedule_m{index}.json: with R and t_start, the design's
    exact shifts, its weights and tau fix every slot of the interval."""
    return {
        "schema": "torusobs-schedule/2",
        "interval": index,
        "window": schedule.design.cutoff,
        "t_start": schedule.t_start,
        "duration": schedule.duration,
        "macro_count": schedule.macro_count,
        "macro_length": schedule.macro_length,
        "atom_count": schedule.atom_count,
        "atoms": schedule.design.to_dict()["atoms"],
        "certified_loss": schedule.certified_loss,
        "total_rows": schedule.micro_count,
    }


def _write_sidecar(out: Path, index: int, schedule) -> None:
    _write_json(out / f"schedule_m{index}.json", _schedule_summary(index, schedule))


def _write_schedule(config: RunConfig, out: Path, index: int, schedule) -> Path:
    """Write schedule_m{index}.csv (its first `csv_row_cap` rows), then its
    sidecar.  The text goes to a temporary file in `out`, which replaces the
    CSV only after the last row; on any error it is removed, so a CSV and
    sidecar from an earlier run stay as they were."""
    path = out / f"schedule_m{index}.csv"
    temporary = path.with_name(path.name + ".tmp")
    try:
        _write_lines(
            temporary, SCHEDULE_VERSION, schedule_header(config.dim),
            _schedule_lines(schedule, config.schedule.csv_row_cap),
        )
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)
    _write_sidecar(out, index, schedule)
    return path


def cmd_schedule(config: RunConfig, out: Path, args) -> int:
    from .experiment import prepare_protocol

    index = config.schedule.interval
    path = _write_schedule(config, out, index, prepare_protocol(config).schedule(index))
    print(f"schedule interval={index} -> {path}")
    return 0


def _series_rows(config: RunConfig, observed: np.ndarray, windowed: np.ndarray) -> list:
    """series.csv: interval m, its window and tolerance, its energy Q_m, the
    running mean A_N and the windowed energy E_leK, one row per energy."""
    from .experiment import running_means

    return [
        (m, config.window_at(m), config.tolerance_at(m), value, mean, below)
        for m, value, mean, below in zip(
            itertools.count(1), observed.tolist(), running_means(observed).tolist(),
            windowed.tolist(),
        )
    ]


def _run_meta(config: RunConfig, constants, energy, means, bound, tail: dict) -> dict:
    """run_meta.json: the config and its fields, the calibration constants,
    the conserved energy, the reference bound, the final running mean with
    its ratio to the bound, the last quarter's least mean, and the
    tail-reduction report."""
    from .experiment import final_quarter_minimum, final_ratio

    final_mean = float(means[-1])
    return {
        "schema": RUN_SCHEMA,
        "config": config.source,
        "model": config.model,
        "mass": config.mass,
        "measure": config.measure,
        "duration": config.duration,
        "energy": energy,
        "lower_constant": constants.lower,
        "upper_constant": constants.upper,
        "reference_bound": bound,
        "interval_count": config.interval_count,
        "final_mean": final_mean,
        "final_ratio": final_ratio(final_mean, bound),
        "final_quarter_minimum": final_quarter_minimum(means),
        "tail_reduction": tail,
    }


def cmd_experiment(config: RunConfig, out: Path, args) -> int:
    from .experiment import (
        reference_bound,
        run_protocol,
        running_means,
        tail_reduction_check,
    )
    from .spectral import build_basis

    series = run_protocol(config)
    tail = tail_reduction_check(series)

    rows = _series_rows(config, series.observed, series.windowed)
    _write_csv(out / "series.csv", SERIES_VERSION, SERIES_HEADER, rows)
    _write_calibration(out, series.constants)
    setup = series.setup
    for window, design in sorted(setup.designs.items()):
        _write_design(out, design, build_basis(config.space(), window), config.prototype())
    for index in config.schedule.emit_intervals:
        _write_sidecar(out, index, setup.schedule(index))
    bound = reference_bound(config.measure, series.constants.lower, series.energy)
    meta = _run_meta(
        config, series.constants, series.energy, running_means(series.observed), bound, tail
    )
    _write_json(out / "run_meta.json", meta)
    print(f"final running-mean ratio: {meta['final_ratio']!r}")
    if not (tail["upper_ok"] and tail["lower_ok"] and all(tail["split_ok"].values())):
        print("tail-reduction hypotheses FAILED", file=sys.stderr)
        return 3
    return 0


def _continuous_rows(config: RunConfig, paths: dict, observed: dict) -> list[tuple]:
    """continuous.csv: per speed of `observed`, in ladder order, interval
    m, its window, the macro count and certified loss of that window's path
    at the speed, and the interval's energy and running mean."""
    from .experiment import running_means

    rows = []
    for speed, column in observed.items():
        means = running_means(column).tolist()
        for m, value, mean in zip(itertools.count(1), column.tolist(), means):
            window = config.window_at(m)
            path = paths[window, speed]
            rows.append(
                (speed, m, window, path.macro_count, path.certified_loss, value, mean)
            )
    return rows


def cmd_continuous(config: RunConfig, out: Path, args) -> int:
    """Write continuous.csv, then build continuous_report.json as `verify`
    does: from the paths, the energies and the certified losses of the rows."""
    from .experiment import continuous_fields, continuous_protocol_delta

    run = continuous_protocol_delta(config, config.schedule.speeds)
    rows = _continuous_rows(config, run.paths, run.observed)
    _write_csv(out / "continuous.csv", CONTINUOUS_VERSION, CONTINUOUS_HEADER, rows)
    losses = {v: [row[4] for row in rows if row[0] == v] for v in run.observed}
    report = continuous_fields(config.measure, run.paths, run.observed, losses, run.realized_margin)
    _write_json(out / "continuous_report.json", {"schema": CONTINUOUS_SCHEMA, **report})
    print(
        f"continuous speeds={report['speeds']} "
        f"monotone={report['monotone_ok']} realized={report['realized_ok']}"
    )
    if not (report["monotone_ok"] and report["realized_ok"]):
        print("continuous-path certificates FAILED", file=sys.stderr)
        return 3
    return 0


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


def _row_problems(name: str, have: list, want: list, header: str, what: str) -> list[str]:
    """The first row of the CSV `name` whose cells are not the text its
    builder's row `want` is written as, with the columns that differ; `what`
    says what the row must be, with {row} its number."""
    for i, (cells, row) in enumerate(zip(have, want), start=1):
        differ = [
            col for col, cell, value in zip(header.split(","), cells, row) if cell != _fmt(value)
        ]
        if differ:
            return [f"{name}: row {i} {what.format(row=i)} ({', '.join(differ)})"]
    return []


class _Rebuilt:
    """What `verify` rebuilds from the config, each part on first use, and
    the energies its CSV checks read for the JSON reports beside them."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.series = None  # series.csv's (Q_m, E_leK), once read
        self.continuous = None  # continuous.csv's per-speed energies and losses, once read

    @cached_property
    def constants(self):
        return _calibration(self.config)

    @cached_property
    def setup(self):
        from .experiment import prepare_protocol

        return prepare_protocol(self.config)

    @cached_property
    def paths(self) -> dict:
        setup = self.setup
        speeds = self.config.schedule.speeds
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


def _calibration(config: RunConfig):
    from .spectral import build_basis, calibration

    basis = build_basis(config.space(), config.sim_window)
    return calibration(config.model, basis, config.mass, config.duration)


def _check_calibration(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    return _compare(
        path.name, _read_json(path), _calibration_payload(state.constants),
        "differs from the recomputed calibration ({keys})",
    )


def _check_series(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    """series.csv must be the rows of the config's intervals around its own
    energies Q_m and E_leK, which run_meta.json is then rebuilt from."""
    rows = _read_csv(path, SERIES_VERSION, SERIES_HEADER)
    observed = np.array([float(row[3]) for row in rows])
    windowed = np.array([float(row[5]) for row in rows])
    state.series = observed, windowed
    problems = []
    if len(rows) != config.interval_count:
        problems.append(f"{path.name}: {len(rows)} rows for {config.interval_count} intervals")
    if np.any(observed < 0):
        problems.append(f"{path.name}: negative interval energy")
    return problems + _row_problems(
        path.name, rows, _series_rows(config, observed, windowed), SERIES_HEADER,
        "is not interval {row} of the config and its energies",
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
    fields, which must be keyed by the etas `ETAS`.  The ratios divide by its
    stored bound, which must itself be the product of its stored measure,
    lower constant and energy.  A tail-report verdict that recomputes false
    is a problem: the certificate fails."""
    from .experiment import ETAS, reference_bound, running_means, tail_report

    meta = _read_json(path)
    if state.series is None:
        raise ValueError("no readable series.csv to rebuild it from")
    observed, windowed = state.series
    constants = state.constants
    energy, bound = meta["energy"], meta["reference_bound"]
    split = meta["tail_reduction"]
    tail = tail_report(observed, windowed, constants.upper, energy, bound, split)
    want = _run_meta(config, constants, energy, running_means(observed), bound, tail)
    want["reference_bound"] = reference_bound(meta["measure"], meta["lower_constant"], energy)
    problems = _compare(
        path.name, meta, want, "differs from the config and the recomputed calibration ({keys})",
        own=RUN_META_MESSAGES,
    )
    etas = sorted(map(str, ETAS))
    return problems + [
        f"{path.name}: tail_reduction.{field} is not keyed by the etas {list(ETAS)}"
        for field in ("split_ok", "eta_bounds") if sorted(split[field]) != etas
    ] + [
        f"{path.name}: tail_reduction.{flag} is false"
        for flag in ("upper_ok", "lower_ok") if not tail[flag]
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
    `schedule` writes for the interval its name gives, compared one writer
    chunk at a time; the first row that differs is reported, as is a file
    that ends early or runs on past the last row."""
    if not path.with_suffix(".json").exists():
        raise ValueError(f"no sidecar {path.stem}.json")
    schedule = _schedule(state, path, int(path.stem.removeprefix("schedule_m")))
    cap = config.schedule.csv_row_cap
    rows = min(schedule.micro_count, cap)
    layout = f"{SCHEDULE_VERSION}\n{schedule_header(config.dim)}\n"
    done = -2  # data rows before the chunk; the layout lines are rows -1 and 0
    # the writer's text is ASCII; no newline translation, so line ends count
    with path.open(encoding="ascii", newline="") as fh:
        for chunk in itertools.chain([layout], _schedule_lines(schedule, cap)):
            text = fh.read(len(chunk))
            if text != chunk:
                at = len(os.path.commonprefix([text, chunk]))
                row = done + chunk.count("\n", 0, at) + 1
                if row <= 0:
                    return [f"{path.name}: unrecognized layout"]
                if at == len(text):
                    return [f"{path.name}: file ends after {row - 1} of {rows} rows"]
                return [f"{path.name}: row {row} differs from the rebuilt schedule"]
            done += chunk.count("\n")
        if fh.read(1):
            return [f"{path.name}: file runs on past its {rows} rows"]
    return []


def _check_continuous(config: RunConfig, path: Path, state: _Rebuilt) -> list[str]:
    """continuous.csv must be the rows of the config's speed ladder and
    intervals, with the rebuilt paths, around its own energies; the report
    beside it is then rebuilt from them and its certified losses."""
    rows = _read_csv(path, CONTINUOUS_VERSION, CONTINUOUS_HEADER)
    count, speeds = config.interval_count, config.schedule.speeds
    losses = [float(row[4]) for row in rows]
    energies = [float(row[5]) for row in rows]
    runs = [slice(i * count, (i + 1) * count) for i in range(len(speeds))]
    observed = {v: np.array(energies[run]) for v, run in zip(speeds, runs)}
    state.continuous = observed, {v: losses[run] for v, run in zip(speeds, runs)}
    problems = [] if len(rows) == len(speeds) * count else [
        f"{path.name}: {len(rows)} rows for {len(speeds)} speeds of {count} intervals"
    ]
    if not path.with_name("continuous_report.json").exists():
        problems.append(f"{path.name}: no continuous_report.json beside it")
    return problems + _row_problems(
        path.name, rows, _continuous_rows(config, state.paths, observed), CONTINUOUS_HEADER,
        "differs from the config's ladder and its rebuilt path",
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
    continuous.csv's energies and certified losses, and its own realized
    margin, which must clear 1.  Only an interval whose path certifies a
    positive factor bounds the margin, so with no such path it is null."""
    from .experiment import certified_factor, continuous_fields

    report = _read_json(path)
    if state.continuous is None:
        raise ValueError("no readable continuous.csv to rebuild it from")
    margin = report["realized_margin"]
    if not any(
        certified_factor(config.measure, p.certified_loss) > 0.0 for p in state.paths.values()
    ):
        margin = None
    want = {
        "schema": CONTINUOUS_SCHEMA,
        **continuous_fields(config.measure, state.paths, *state.continuous, margin),
    }
    problems = _compare(
        path.name, report, want, "differs from the rebuilt report ({keys})",
        own=CONTINUOUS_MESSAGES,
    )
    if not want["realized_ok"]:
        problems.append(f"{path.name}: realized margin {margin!r} below 1")
    return problems


#: what `verify_artifacts` checks, in order: each artifact that matches a
#: pattern, with its checker; a CSV is checked before the JSON report
#: rebuilt from its energies
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


def _verify_out(config: RunConfig, out: Path) -> int:
    problems = verify_artifacts(config, out)
    for p in problems:
        print(f"verify: {p}", file=sys.stderr)
    print(f"verify: {'ok' if not problems else f'{len(problems)} problem(s)'} in {out}")
    return 0 if not problems else 3


def verify_artifacts(config: RunConfig, out: Path) -> list[str]:
    """Revalidate every recognized artifact in `out` against the config.

    Every artifact must equal its writer's builder applied to what `verify`
    rebuilds from the config (designs' residuals, the calibration,
    schedules, paths) and to the energies the artifacts store: CSV files
    text for text, JSON files key for key.  The stored energies and the
    values of the tail report's split fields are what is taken on trust.
    Each checker of `CHECKS` says what its artifact is rebuilt from.  A file that
    cannot be read, or holds a field of the wrong type, is reported as
    unreadable, under its own name only.  A missing directory, or one
    holding none of these artifacts, is a problem: there is nothing to vouch
    for.
    """
    if not out.is_dir():
        return [f"{out}: no such directory"]
    found = [(path, check) for pattern, check in CHECKS for path in sorted(out.glob(pattern))]
    if not found:
        return [f"{out}: no artifact to verify"]
    state = _Rebuilt(config)
    problems: list[str] = []
    for path, check in found:
        try:
            problems.extend(check(config, path, state))
        except UNREADABLE as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
    return problems


def cmd_verify(config: RunConfig, out: Path, args) -> int:
    return _verify_out(config, out)


COMMANDS = {
    "design": cmd_design,
    "calibrate": cmd_calibrate,
    "schedule": cmd_schedule,
    "experiment": cmd_experiment,
    "continuous": cmd_continuous,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusobs",
        description="moving-observer observability experiments on flat tori",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--check", action="store_true",
                        help="revalidate artifacts after writing them")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.from_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    if args.command != "verify":  # verify reads --out, never makes it
        out.mkdir(parents=True, exist_ok=True)
    try:
        code = COMMANDS[args.command](config, out, args)
    except (NumericError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if code == 0 and args.check and args.command != "verify":
        return _verify_out(config, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
