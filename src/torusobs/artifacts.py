"""The artifact formats: versions, headers and schemas, the CSV and JSON
readers and writers, and each artifact's builder.

Floats are written as round-trip `repr` text, JSON keys are sorted, and no
timestamps or machine identifiers are written, so every artifact is
bitwise-reproducible from (config, seed).

Each artifact has one builder, which its writer and `verify` (`checks`)
both call: the rows or payload of the artifact, from the config, the
quantities the config determines and the energies.  `verify` calls it on
what it rebuilds from the config and on the energies the artifacts store,
and requires the file to equal the result, text for text or key for key.
The stored energies and the values of the tail report's split fields are
what it takes on trust.

Every command imports this module, and `cli` never does at module level.
The package modules a builder reads are imported inside it, when it is
called, so a command loads no more of them than its artifacts need.
"""

from __future__ import annotations

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
RUN_SCHEMA = "torusobs-run/1"
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
    # random() is k / 2^53, so the product is exact and int() keeps its top
    # 20 bits: a uniform shift on the 2^-20 grid
    rng = random.Random(opts.candidate_seed)
    denom = 1 << 20
    return [
        GroupElement(
            tuple(Fraction(int(rng.random() * denom), denom) for _ in range(config.dim))
        )
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


def _calibration(config: RunConfig):
    """The calibration constants of the config's model on its simulation
    basis."""
    from .spectral import build_basis, calibration

    basis = build_basis(config.space(), config.sim_window)
    return calibration(config.model, basis, config.mass, config.duration)


def _calibration_payload(constants) -> dict:
    return {"schema": CALIBRATION_SCHEMA, **constants.to_dict()}


def _write_calibration(out: Path, constants) -> Path:
    path = out / "calibration.json"
    _write_json(path, _calibration_payload(constants))
    return path


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


def _write_experiment(config: RunConfig, out: Path, series, tail: dict) -> dict:
    """Write a protocol run's artifacts: series.csv, calibration.json, one
    design file per window, the sidecars of the intervals `emit_intervals`
    names, and run_meta.json, whose payload is returned."""
    from .experiment import reference_bound, running_means
    from .spectral import build_basis

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
    return meta


def _write_continuous(config: RunConfig, out: Path, run) -> dict:
    """Write continuous.csv, then build continuous_report.json as `verify`
    does: from the paths, the energies and the certified losses of the
    rows.  Returns the report's fields."""
    from .experiment import continuous_fields

    rows = _continuous_rows(config, run.paths, run.observed)
    _write_csv(out / "continuous.csv", CONTINUOUS_VERSION, CONTINUOUS_HEADER, rows)
    losses = {v: [row[4] for row in rows if row[0] == v] for v in run.observed}
    report = continuous_fields(config.measure, run.paths, run.observed, losses, run.realized_margin)
    _write_json(out / "continuous_report.json", {"schema": CONTINUOUS_SCHEMA, **report})
    return report
