"""Batch front-end: config in, deterministic CSV/JSON artifacts out.

Subcommands
-----------
design      build + reduce + verify one convex design, write design_K{K}.json
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
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction
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
DESIGN_SCHEMA = "torusobs-design/1"
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
    lines = path.read_text().splitlines()
    if len(lines) < 2 or lines[0] != version or lines[1] != header:
        raise ValueError(f"{path.name}: unrecognized layout")
    return [line.split(",") for line in lines[2:] if line]


def _write_json(path: Path, payload: dict) -> None:
    # a non-finite float has no JSON spelling: fail rather than write one
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def _read_json(path: Path) -> dict:
    """Parse a JSON artifact strictly: NaN and Infinity are rejected."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _candidates(config: RunConfig, basis) -> list[GroupElement]:
    from .design import _grid_shifts, default_candidates
    from .geometry import GroupElement

    opts = config.design
    if opts.candidate_kind == "grid":
        if opts.grid_per_axis == 0:
            return default_candidates(basis)
        return _grid_shifts(opts.grid_per_axis, config.dim)
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


def _write_design(out: Path, design, basis, prototype) -> Path:
    """Verify the design on `basis` and write it, with the verification, as
    design_K{cutoff}.json."""
    from .design import verify_design

    verification = verify_design(design, basis, prototype)
    path = out / f"design_K{basis.cutoff}.json"
    _write_json(
        path,
        {
            "schema": DESIGN_SCHEMA,
            **design.to_dict(),
            "verification": verification.to_dict(),
        },
    )
    return path


def _write_calibration(out: Path, constants) -> Path:
    path = out / "calibration.json"
    _write_json(path, {"schema": CALIBRATION_SCHEMA, **constants.to_dict()})
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
    if args.check:
        return _verify_out(config, out)
    return 0


def cmd_calibrate(config: RunConfig, out: Path, args) -> int:
    constants = _calibration(config)
    path = _write_calibration(out, constants)
    print(
        f"calibration model={config.model} lower={constants.lower!r} "
        f"upper={constants.upper!r} -> {path}"
    )
    if args.check:
        return _verify_out(config, out)
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
    if args.check:
        return _verify_out(config, out)
    return 0


def cmd_experiment(config: RunConfig, out: Path, args) -> int:
    from .experiment import run_protocol, tail_reduction_check
    from .spectral import build_basis

    series = run_protocol(config)
    report = tail_reduction_check(series)

    _write_csv(out / "series.csv", SERIES_VERSION, SERIES_HEADER, series.to_rows())
    _write_calibration(out, series.constants)
    setup = series.setup
    for window, design in sorted(setup.designs.items()):
        _write_design(out, design, build_basis(config.space(), window), config.prototype())
    for index in config.schedule.emit_intervals:
        _write_sidecar(out, index, setup.schedule(index))

    final_ratio = series.final_mean / series.reference_bound
    _write_json(
        out / "run_meta.json",
        {
            "schema": RUN_SCHEMA,
            "config": config.source,
            "model": series.model,
            "mass": series.mass,
            "measure": series.measure,
            "duration": series.duration,
            "energy": series.energy,
            "lower_constant": series.constants.lower,
            "upper_constant": series.constants.upper,
            "reference_bound": series.reference_bound,
            "interval_count": len(series.records),
            "final_mean": series.final_mean,
            "final_ratio": final_ratio,
            "final_quarter_minimum": series.final_quarter_minimum,
            "tail_reduction": report.to_dict(),
        },
    )
    print(f"final running-mean ratio: {final_ratio!r}")
    if not (report.upper_ok and report.lower_ok and all(report.split_ok.values())):
        print("tail-reduction hypotheses FAILED", file=sys.stderr)
        return 3
    if args.check:
        return _verify_out(config, out)
    return 0


def cmd_continuous(config: RunConfig, out: Path, args) -> int:
    from .experiment import continuous_protocol_delta

    report = continuous_protocol_delta(config, config.schedule.speeds)
    rows = []
    for speed in report.speeds:
        for rec in report.records[speed]:
            rows.append(
                (
                    speed,
                    rec.index,
                    rec.window,
                    rec.macro_count,
                    rec.certified_loss,
                    rec.observed,
                    rec.running_mean,
                )
            )
    _write_csv(out / "continuous.csv", CONTINUOUS_VERSION, CONTINUOUS_HEADER, rows)
    _write_json(
        out / "continuous_report.json",
        {"schema": CONTINUOUS_SCHEMA, **report.to_dict()},
    )
    print(
        f"continuous speeds={list(report.speeds)} "
        f"monotone={report.monotone_ok} realized={report.realized_ok}"
    )
    if not (report.monotone_ok and report.realized_ok):
        print("continuous-path certificates FAILED", file=sys.stderr)
        return 3
    if args.check:
        return _verify_out(config, out)
    return 0


def _near(stored: float, fresh: float) -> bool:
    """Whether a stored constant is a recomputed one up to rounding."""
    return abs(stored - fresh) <= 1e-12 * max(1.0, abs(fresh))


#: the artifacts `verify_artifacts` checks; any one of them makes a directory
#: worth verifying (continuous_report.json is checked with continuous.csv)
VERIFIED_ARTIFACTS = (
    "design_K*.json",
    "calibration.json",
    "series.csv",
    "run_meta.json",
    "schedule_m*.json",
    "schedule_m*.csv",
    "continuous.csv",
)


def _verify_out(config: RunConfig, out: Path) -> int:
    problems = verify_artifacts(config, out)
    for p in problems:
        print(f"verify: {p}", file=sys.stderr)
    print(f"verify: {'ok' if not problems else f'{len(problems)} problem(s)'} in {out}")
    return 0 if not problems else 3


def verify_artifacts(config: RunConfig, out: Path) -> list[str]:
    """Revalidate every recognized artifact in `out` against the config.

    Checks are recomputations: design residuals and verifications are
    rebuilt one atom at a time, at the cutoff the file name gives
    (`_check_design_file`); calibration.json is recomputed field by field;
    run_meta.json is checked against the config and the calibration
    (`_check_run_meta`); series.csv must list the config's intervals,
    windows and tolerances, its running means re-derived from the stored
    energies, and once both parse, run_meta.json's final mean,
    final-quarter minimum and tail-reduction report must recompute from it
    (`_check_run_meta_series`); each schedule sidecar must equal the
    interval's rebuilt schedule bit for bit, and any CSV beside it the text
    `schedule` writes for it; continuous.csv rows are checked against the
    config and the rebuilt paths (`_check_continuous_rows`), their running
    means re-derived, and continuous_report.json is checked against them
    and the paths.  Every JSON artifact's schema must be its writer's.  The
    stored energies themselves are not recomputed.  JSON artifacts are
    parsed strictly, and one that cannot be parsed, or holds a field of the
    wrong type, is reported as unreadable, under its own name only.  A
    missing directory, or one holding none of these artifacts, is a
    problem: there is nothing to vouch for.
    """
    if not out.is_dir():
        return [f"{out}: no such directory"]
    if not any(next(out.glob(pattern), None) for pattern in VERIFIED_ARTIFACTS):
        return [f"{out}: no artifact to verify"]
    problems: list[str] = []
    constants = None  # the recomputed calibration, built on first use
    setup = None  # the protocol's designs and bounds, built on first use

    for path in sorted(out.glob("design_K*.json")):
        problems.extend(_check_design_file(config, path))

    cal_path = out / "calibration.json"
    if cal_path.exists():
        try:
            data = _read_json(cal_path)
            problems.extend(_schema_problems(cal_path.name, data, CALIBRATION_SCHEMA))
            constants = _calibration(config)
            fresh = constants.to_dict()
            differ = [key for key in ("model", "mass", "duration") if data[key] != fresh[key]]
            differ += [key for key in ("lower", "upper") if not _near(data[key], fresh[key])]
            for i, (row, want) in enumerate(zip(data["mode_table"], fresh["mode_table"])):
                differ += [f"mode_table[{i}].{key}" for key in want if not _near(row[key], want[key])]
            if len(data["mode_table"]) != len(fresh["mode_table"]):
                differ.append("mode_table size")
            if differ:
                problems.append(
                    f"calibration.json: differs from the recomputed calibration "
                    f"({', '.join(differ)})"
                )
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            problems.append(f"calibration.json: unreadable ({exc})")

    meta_path = out / "run_meta.json"
    meta = None  # run_meta.json, once parsed and checked against the config
    if meta_path.exists():
        try:
            if constants is None:
                constants = _calibration(config)
            data = _read_json(meta_path)
            problems.extend(_check_run_meta(config, data, constants))
            meta = data
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            problems.append(f"run_meta.json: unreadable ({exc})")

    series_path = out / "series.csv"
    if series_path.exists():
        try:
            rows = _read_csv(series_path, SERIES_VERSION, SERIES_HEADER)
            count = config.interval_count
            if len(rows) != count:
                problems.append(f"series.csv: {len(rows)} rows for {count} intervals")
            for m, row in zip(range(1, count + 1), rows):
                if row[:3] != [str(m), _fmt(config.window_at(m)), _fmt(config.tolerance_at(m))]:
                    problems.append(f"series.csv: row {m} is not interval {m} of the config")
                    break
            observed = np.array([float(r[3]) for r in rows])
            means = np.array([float(r[4]) for r in rows])
            windowed = np.array([float(r[5]) for r in rows])
            recomputed = np.cumsum(observed) / np.arange(1, len(observed) + 1)
            if np.max(np.abs(recomputed - means)) > 1e-12 * max(1.0, observed.max()):
                problems.append("series.csv: running means do not recompute")
            if np.any(observed < 0):
                problems.append("series.csv: negative interval energy")
            if meta is not None:
                ceiling = meta["upper_constant"] * meta["energy"] * (1.0 + 1e-10)
                if np.any(observed > ceiling):
                    problems.append("series.csv: interval energy above upper bound")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"series.csv: unreadable ({exc})")
        else:
            if meta is not None:
                try:
                    problems.extend(_check_run_meta_series(meta, observed, means, windowed))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    problems.append(f"run_meta.json: unreadable ({exc})")

    for path in sorted(out.glob("schedule_m*.json")):
        try:
            sidecar = _read_json(path)
            index = sidecar["interval"]
            if type(index) is not int or not 1 <= index <= config.interval_count:
                raise ValueError(f"interval {index!r} is not in the run")
            if path.stem != f"schedule_m{index}":
                raise ValueError(f"interval {index} is not the one its file name gives")
            if setup is None:
                from .experiment import prepare_protocol

                setup = prepare_protocol(config)
            schedule = setup.schedule(index)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
            continue
        summary = _schedule_summary(index, schedule)
        differ = [key for key in summary if sidecar.get(key) != summary[key]]
        if differ:
            problems.append(
                f"{path.name}: summary differs from the rebuilt schedule "
                f"({', '.join(differ)})"
            )
        csv = path.with_suffix(".csv")
        if csv.exists():
            problems.extend(_check_schedule_csv(config, csv, schedule))
    for csv in sorted(out.glob("schedule_m*.csv")):
        if not csv.with_suffix(".json").exists():
            problems.append(f"{csv.name}: unreadable (no sidecar {csv.stem}.json)")

    cont_path = out / "continuous.csv"
    if cont_path.exists():
        from .schedule import SpeedTooLow

        try:
            rows = _read_csv(cont_path, CONTINUOUS_VERSION, CONTINUOUS_HEADER)
            width = len(CONTINUOUS_HEADER.split(","))
            for i, row in enumerate(rows, start=1):
                if len(row) != width:
                    raise ValueError(f"row {i} has {len(row)} cells, not {width}")
            if setup is None:
                from .experiment import prepare_protocol

                setup = prepare_protocol(config)
            speeds = config.schedule.speeds
            paths = {(k, v): setup.path(k, v) for v in speeds for k in setup.designs}
            problems.extend(_check_continuous_rows(config, paths, rows))
            # the least factor the paths of each speed certify
            factors = {
                _fmt(v): min(
                    max(config.measure - paths[k, v].certified_loss, 0.0) for k in setup.designs
                )
                for v in speeds
            }
            by_speed: dict[str, list[list[str]]] = {}
            for r in rows:
                by_speed.setdefault(r[0], []).append(r)
            for speed, group in by_speed.items():
                observed = np.array([float(r[5]) for r in group])
                means = np.array([float(r[6]) for r in group])
                recomputed = np.cumsum(observed) / np.arange(1, len(group) + 1)
                if np.max(np.abs(recomputed - means)) > 1e-12 * max(
                    1.0, float(observed.max())
                ):
                    problems.append(
                        f"continuous.csv: running means do not recompute at "
                        f"speed {speed}"
                    )
        except (ValueError, KeyError, SpeedTooLow) as exc:
            problems.append(f"continuous.csv: unreadable ({exc})")
        else:
            try:
                report = _read_json(out / "continuous_report.json")
                problems.extend(_check_continuous_report(report, by_speed, factors))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"continuous_report.json: unreadable ({exc})")

    return problems


def _check_design_file(config: RunConfig, path: Path) -> list[str]:
    """Check a design_K*.json: its schema, its name gives its cutoff, its
    measure is the config prototype's, and its residual, rebuilt one atom's
    Gamma at a time in atom order, is no larger than the stored one.  Its
    `verification` must hold `verify_design`'s 100 trials of seed 0, the
    rebuilt residual exactly as its matrix residual, and a scalar deviation
    no larger than that, which bounds it."""
    from .design import ConvexDesign, moment_residual
    from .spectral import build_basis, gamma_matrix

    prototype = config.prototype()
    try:
        data = _read_json(path)
        problems = _schema_problems(path.name, data, DESIGN_SCHEMA)
        design = ConvexDesign.from_dict(data)
        if path.stem != f"design_K{design.cutoff}":
            raise ValueError(f"cutoff {design.cutoff} is not the one its file name gives")
        basis = build_basis(config.space(), design.cutoff)
        gammas = (gamma_matrix(basis, prototype, a.shift) for a in design.atoms)
        fresh = moment_residual(design.weights, gammas, design.measure)
        verification = data["verification"]
        drawn = {"trials": 100, "seed": 0}
        differ = [key for key, value in drawn.items() if verification[key] != value]
        if verification["matrix_residual"] != fresh:
            differ.append("matrix_residual")
        if not verification["max_scalar_deviation"] <= verification["matrix_residual"]:
            differ.append("max_scalar_deviation")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if abs(design.measure - prototype.measure) > 1e-12:
        problems.append(f"{path.name}: measure differs from config prototype")
    if fresh > design.residual + 1e-9:
        problems.append(
            f"{path.name}: residual recomputes to {fresh:.3e}, stored "
            f"{design.residual:.3e}"
        )
    if differ:
        problems.append(
            f"{path.name}: verification does not recompute ({', '.join(differ)})"
        )
    return problems


def _calibration(config: RunConfig):
    from .spectral import build_basis, calibration

    basis = build_basis(config.space(), config.sim_window)
    return calibration(config.model, basis, config.mass, config.duration)


def _check_run_meta(config: RunConfig, meta: dict, constants) -> list[str]:
    """Check run_meta.json's schema, its config (the loaded config's
    source), interval count, model, mass, measure and duration against the
    config exactly, its lower and upper constants against the recomputed
    calibration `constants`, and its reference bound and final ratio by
    redoing `experiment`'s arithmetic on its own stored energy, constants
    and final mean.  The energy is taken as stored."""
    problems = _schema_problems("run_meta.json", meta, RUN_SCHEMA)
    if meta["config"] != config.source:
        problems.append("run_meta.json: config is not the loaded config")
    if meta["interval_count"] != config.interval_count:
        problems.append(
            f"run_meta.json: interval_count {meta['interval_count']!r} is not "
            f"the config's {config.interval_count}"
        )
    exact = {
        "model": config.model,
        "mass": config.mass,
        "measure": config.measure,
        "duration": config.duration,
    }
    near = {"lower_constant": constants.lower, "upper_constant": constants.upper}
    differ = [key for key, value in exact.items() if meta[key] != value]
    differ += [key for key, value in near.items() if not _near(meta[key], value)]
    if meta["reference_bound"] != meta["measure"] * meta["lower_constant"] * meta["energy"]:
        differ.append("reference_bound")
    if meta["final_ratio"] != meta["final_mean"] / meta["reference_bound"]:
        differ.append("final_ratio")
    if differ:
        problems.append(
            f"run_meta.json: differs from the config and the recomputed calibration "
            f"({', '.join(differ)})"
        )
    return problems


def _check_run_meta_series(
    meta: dict, observed: np.ndarray, means: np.ndarray, windowed: np.ndarray
) -> list[str]:
    """Check run_meta.json against series.csv's energies Q_m, running means
    A_N and windowed energies E_leK: its final mean and final-quarter
    minimum, and every field of its tail-reduction report that these and
    its own energy and constants determine, redone bit for bit as
    `tail_reduction_check` does it.  `best_bound` must be the largest eta
    bound, and each flag must agree with its margin; a false lower_ok is a
    problem, as the certificate fails."""
    problems = []
    if meta["final_mean"] != means[-1]:
        problems.append("run_meta.json: final_mean is not the last A_N of series.csv")
    if meta["final_quarter_minimum"] != means[-max(1, len(means) // 4) :].min():
        problems.append(
            "run_meta.json: final_quarter_minimum is not the least A_N of the "
            "last quarter of series.csv"
        )
    report = meta["tail_reduction"]
    energy = meta["energy"]
    scale = meta["upper_constant"] * energy
    tail_mean = float((energy - windowed).mean())
    fresh = {
        "upper_margin": float(observed.max() / scale),
        "upper_ok": bool(np.all(observed <= scale * (1.0 + 1e-10))),
        "tail_mean": tail_mean,
        "tail_fraction": tail_mean / energy,
        "reference_bound": meta["reference_bound"],
        "best_bound": max(report["eta_bounds"].values()),
    }
    differ = [key for key, value in fresh.items() if report[key] != value]
    margin = report["lower_margin"]
    if report["lower_ok"] != (margin is None or margin >= 1.0 - 1e-10):
        differ.append("lower_ok")
    if differ:
        problems.append(
            f"run_meta.json: tail_reduction does not recompute from series.csv "
            f"({', '.join(differ)})"
        )
    if report["lower_ok"] is not True:
        problems.append("run_meta.json: tail_reduction.lower_ok is false")
    return problems


def _check_continuous_rows(config: RunConfig, paths: dict, rows: list[list[str]]) -> list[str]:
    """Check the first five columns of every continuous.csv row.  Row
    (speed, m), in the order of the config's speed ladder and intervals,
    must read that speed, interval m, the config's window at m, and the
    macro count and certified loss of the rebuilt path `paths[window,
    speed]`, in the text the writer gives them.  Reports a row count other
    than speeds x intervals and the first row that differs, with its
    columns."""
    count = config.interval_count
    speeds = config.schedule.speeds
    problems: list[str] = []
    if len(rows) != len(speeds) * count:
        problems.append(
            f"continuous.csv: {len(rows)} rows for {len(speeds)} speeds of {count} intervals"
        )
    columns = CONTINUOUS_HEADER.split(",")
    expected = ((speed, m) for speed in speeds for m in range(1, count + 1))
    for i, (row, (speed, m)) in enumerate(zip(rows, expected), start=1):
        window = config.window_at(m)
        path = paths[window, speed]
        want = (speed, m, window, path.macro_count, path.certified_loss)
        differ = [name for name, cell, value in zip(columns, row, want) if cell != _fmt(value)]
        if differ:
            problems.append(
                f"continuous.csv: row {i} differs from the config's ladder and its "
                f"rebuilt path ({', '.join(differ)})"
            )
            break
    return problems


def _check_schedule_csv(config: RunConfig, path: Path, schedule) -> list[str]:
    """Check a schedule CSV against the text `schedule` writes for its
    interval's rebuilt schedule, one writer chunk at a time: equal text
    means every cell, the row count and the line ends agree.  Reports the
    first data row that differs, a file that ends early or runs on past
    the last row, or a file that cannot be read."""
    cap = config.schedule.csv_row_cap
    rows = min(schedule.micro_count, cap)
    layout = f"{SCHEDULE_VERSION}\n{schedule_header(config.dim)}\n"
    done = -2  # data rows before the chunk; the layout lines are rows -1 and 0
    try:
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
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    return []


def _check_continuous_report(
    report: dict, by_speed: dict[str, list[list[str]]], factors: dict[str, float]
) -> list[str]:
    """Check continuous_report.json against the continuous.csv rows grouped
    by speed, whose row count `_check_continuous_rows` checks: its schema,
    per speed the final running mean, the monotone flag recomputed from the
    certified losses in sorted-speed order, the certified factors rebuilt
    from the paths (`factors`), and the realized margin's floor, with which
    the realized flag must agree."""
    name = "continuous_report.json"
    problems = _schema_problems(name, report, CONTINUOUS_SCHEMA)
    if {_fmt(float(v)) for v in report["speeds"]} != set(by_speed):
        return [f"{name}: speeds differ from continuous.csv"]
    for speed, group in by_speed.items():
        if report["final_means"][speed] != float(group[-1][6]):
            problems.append(f"{name}: final mean at speed {speed} disagrees with the CSV")
    ladder = sorted(by_speed, key=float)
    losses = {v: [float(r[4]) for r in by_speed[v]] for v in ladder}
    monotone = all(
        hi <= lo * (1.0 + 1e-12)
        for slow, fast in zip(ladder, ladder[1:])
        for lo, hi in zip(losses[slow], losses[fast])
    )
    if report["monotone_ok"] != monotone:
        problems.append(f"{name}: monotone_ok does not recompute from the CSV")
    if report["certified_factors"] != factors:
        problems.append(f"{name}: certified_factors do not recompute from the rebuilt paths")
    margin = report["realized_margin"]
    if margin is not None and margin < 1.0 - 1e-9:
        problems.append(f"{name}: realized margin {margin!r} below 1")
    if report["realized_ok"] != (margin is None or margin >= 1.0 - 1e-9):
        problems.append(f"{name}: realized_ok does not agree with realized_margin")
    return problems


def _schema_problems(name: str, data: dict, schema: str) -> list[str]:
    """A JSON artifact's schema must be the one its writer gives it."""
    if data["schema"] != schema:
        return [f"{name}: schema {data['schema']!r} is not {schema}"]
    return []


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
        return COMMANDS[args.command](config, out, args)
    except (NumericError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
