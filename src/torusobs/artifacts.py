"""The artifact formats: versions, headers and schemas, the CSV and JSON
readers and texts, each artifact's builder, and `publish`, which writes them.

Floats are written as round-trip `repr` text, JSON keys are sorted, and no
timestamps or machine identifiers are written, so every artifact is
bitwise-reproducible from (config, seed).

Each artifact has one builder, which its command and `verify` (`checks`)
both call: the rows or payload of the artifact, from the config, the
quantities the config determines and the energies.  Each writing command
has one `{file name: text}` map of its artifacts, which `publish` writes
whole or not at all.  `verify` calls the builder on what it rebuilds from
the config and on the energies the artifacts store, and requires the file
to equal the result: the writer's text, or its payload key for key.
The stored energies and the values of the tail report's split fields
(`lower_margin`, `split_ok`, `split_bound`) are what it takes on trust.

Every command imports this module, and `cli` never does at module level.
The package modules a builder reads are imported inside it, when it is
called, so a command loads no more of them than its artifacts need.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import random
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import RunConfig
    from .design import ConvexDesign
    from .geometry import GroupElement

SERIES_HEADER = "m,K_m,eps_m,Q_m,A_N,E_leK"
SERIES_VERSION = "# torusobs series v1"
SCHEDULE_VERSION = "# torusobs schedule v1"
CONTINUOUS_HEADER = "speed,interval,window,macro_count,certified_loss,observed,running_mean"
CONTINUOUS_VERSION = "# torusobs continuous v1"
DESIGN_SCHEMA = "torusobs-design/2"
CALIBRATION_SCHEMA = "torusobs-calibration/1"
RUN_SCHEMA = "torusobs-run/2"
CONTINUOUS_SCHEMA = "torusobs-continuous/2"


def schedule_header(dim: int) -> str:
    return "t_start,t_end,atom," + ",".join(f"shift_{i}" for i in range(dim))


def _fmt(value) -> str:
    """Round-trip text for CSV cells."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _csv(version: str, header: str, rows) -> str:
    """A CSV artifact's text: the version and header lines, then one line
    per row."""
    return "".join([f"{version}\n{header}\n", *(",".join(map(_fmt, row)) + "\n" for row in rows)])


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


def _json(payload: dict) -> str:
    # a non-finite float has no JSON spelling: fail rather than write one
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


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
    # random() is k / 2^53, so the product is exact and int() keeps its top
    # 20 bits: a uniform shift on the 2^-20 grid
    rng = random.Random(opts.candidate_seed)
    denom = 1 << 20
    return [
        GroupElement(tuple(Fraction(int(rng.random() * denom), denom) for _ in range(config.dim)))
        for _ in range(opts.candidates)
    ]


def _build_design(config: RunConfig, basis, prototype) -> ConvexDesign:
    """The design of design_K{K}.json per config options: exact grid, or
    solver + reduction."""
    from .design import caratheodory_reduce, equispaced_design, solve_design

    if config.design.method == "equispaced":
        design = equispaced_design(basis, prototype)
    else:
        design = solve_design(
            basis, prototype, _candidates(config, basis),
            tol=config.design.tol, max_iter=config.design.max_iter,
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


def _design_files(design, basis, prototype) -> dict:
    return {f"design_K{basis.cutoff}.json": _json(_design_payload(design, basis, prototype))}


def _calibration(config: RunConfig):
    """The calibration constants of the config's model on its simulation
    basis."""
    from .spectral import build_basis, calibration

    basis = build_basis(config.space(), config.sim_window)
    return calibration(config.model, basis, config.mass, config.duration)


def _calibration_payload(constants) -> dict:
    return {"schema": CALIBRATION_SCHEMA, **constants.to_dict()}


def _calibration_files(constants) -> dict:
    return {"calibration.json": _json(_calibration_payload(constants))}


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


def _sidecar_files(index: int, schedule) -> dict:
    return {f"schedule_m{index}.json": _json(_schedule_summary(index, schedule))}


def _schedule_files(config: RunConfig, index: int, schedule) -> dict:
    """Interval `index`'s schedule CSV, its text streamed in chunks (the
    layout lines, then `_schedule_lines`), and its sidecar."""
    layout = f"{SCHEDULE_VERSION}\n{schedule_header(config.dim)}\n"
    text = itertools.chain([layout], _schedule_lines(schedule, config.schedule.csv_row_cap))
    return {f"schedule_m{index}.csv": text, **_sidecar_files(index, schedule)}


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
    from .experiment import final_quarter_minimum

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
        "final_ratio": final_mean / bound,
        "final_quarter_minimum": final_quarter_minimum(means),
        "tail_reduction": tail,
    }


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


def _experiment_files(config: RunConfig, series, tail: dict) -> tuple[dict, dict]:
    """A protocol run's artifacts: series.csv, calibration.json, one design
    file per window, the sidecars of the intervals `emit_intervals` names,
    and run_meta.json, with run_meta.json's payload."""
    from .experiment import reference_bound, running_means
    from .spectral import build_basis

    setup, constants, prototype = series.setup, series.constants, config.prototype()
    rows = _series_rows(config, series.observed, series.windowed)
    files = {"series.csv": _csv(SERIES_VERSION, SERIES_HEADER, rows)}
    files.update(_calibration_files(constants))
    for window, design in sorted(setup.designs.items()):
        files.update(_design_files(design, build_basis(config.space(), window), prototype))
    for index in config.schedule.emit_intervals:
        files.update(_sidecar_files(index, setup.schedule(index)))
    bound = reference_bound(config.measure, constants.lower, series.energy)
    meta = _run_meta(config, constants, series.energy, running_means(series.observed), bound, tail)
    files["run_meta.json"] = _json(meta)
    return files, meta


def _continuous_files(config: RunConfig, run) -> tuple[dict, dict]:
    """continuous.csv, and continuous_report.json built as `verify` builds
    it: from the paths, the energies and the certified losses of the rows;
    with the report's fields."""
    from .experiment import continuous_fields

    rows = _continuous_rows(config, run.paths, run.observed)
    losses = {v: [row[4] for row in rows if row[0] == v] for v in run.observed}
    report = continuous_fields(config.measure, run.paths, run.observed, losses, run.realized_margin)
    return {
        "continuous.csv": _csv(CONTINUOUS_VERSION, CONTINUOUS_HEADER, rows),
        "continuous_report.json": _json({"schema": CONTINUOUS_SCHEMA, **report}),
    }, report


def publish(out: Path, files: dict) -> list[Path]:
    """Write a command's `{file name: text}` map, each text a string or an
    iterable of chunks, and return the paths.  Each file is staged as
    `<name>.tmp` in `out`, a name held by a directory refused, and only then
    are they moved onto their names, in map order; on any error the staged
    files are removed, so an earlier run's files in `out` stay as they were."""
    staged = []
    try:
        for name, text in files.items():
            if (out / name).is_dir():  # refused before any move, not halfway through them
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
            with (out / f"{name}.tmp").open("w", encoding="ascii", newline="") as fh:
                staged.append(out / f"{name}.tmp")
                fh.writelines([text] if isinstance(text, str) else text)
        for name in files:
            os.replace(out / f"{name}.tmp", out / name)
    finally:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
    return [out / name for name in files]
