"""Command-line driver: exit codes, artifact layout, reproducibility,
and verification of tampered outputs."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusobs
from torusobs import cli
from torusobs import (
    ConvexDesign,
    DesignAtom,
    GroupElement,
    PrototypeSet,
    TorusSpace,
    build_basis,
    build_switching,
    equispaced_design,
)
from torusobs.cli import (
    CONTINUOUS_HEADER,
    SCHEDULE_BLOCK,
    SCHEDULE_VERSION,
    SERIES_HEADER,
    _fmt,
    _schedule_lines,
    _write_json,
    main,
    schedule_header,
)
from torusobs.experiment import prepare_protocol
from test_experiment import config_dict, quick_config


def write_config(tmp_path, name="run.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(config_dict(**overrides)))
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], lines[1], [line.split(",") for line in lines[2:]]


def test_design_command_writes_reduced_design(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "design_K1.json").read_text())
    assert len(payload["atoms"]) == 5
    assert payload["residual"] <= 1e-12
    assert payload["verification"]["max_scalar_deviation"] <= 1e-10
    assert "design_K1.json" in capsys.readouterr().out


def test_design_command_full_torus_collapses_to_one_atom(tmp_path):
    config = write_config(tmp_path, prototype={"boxes": [[0, 1]]})
    out = tmp_path / "out"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "design_K1.json").read_text())
    assert len(payload["atoms"]) == 1
    assert payload["atoms"][0]["weight"] == pytest.approx(1.0, abs=1e-12)


def test_design_command_solver_method(tmp_path):
    config = write_config(
        tmp_path, design={"method": "solver", "cutoff": 1, "tol": 1e-10}
    )
    out = tmp_path / "out"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "design_K1.json").read_text())
    assert payload["residual"] <= 1e-9


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["design", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_bad_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config_dict(flavor="spicy")))
    assert main(["design", "--config", str(path)]) == 2
    assert "flavor" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["design", "--config", str(path)]) == 2


def test_infeasible_design_exits_3(tmp_path, capsys):
    config = write_config(
        tmp_path,
        design={
            "method": "solver",
            "cutoff": 1,
            "tol": 1e-20,
            "candidate_kind": "random",
            "candidates": 6,
            "max_iter": 300,
        },
    )
    assert main(["design", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    assert "DesignInfeasible" in capsys.readouterr().err


def test_slow_speeds_exit_3(tmp_path, capsys):
    config = write_config(
        tmp_path,
        model="wave",
        datum={"window": 2, "seed": 2},
        schedule={"speeds": [0.5], "interval": 1},
    )
    rc = main(["continuous", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "SpeedTooLow" in capsys.readouterr().err


def test_experiment_artifacts(tmp_path, capsys):
    config = write_config(tmp_path, schedule={"emit_intervals": [1], "interval": 1})
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "final running-mean ratio:" in stdout

    for name in (
        "series.csv",
        "calibration.json",
        "design_K1.json",
        "design_K2.json",
        "schedule_m1.json",
        "run_meta.json",
    ):
        assert (out / name).exists(), name
    assert not list(out.glob("schedule_m*.csv"))

    version, header, rows = read_csv(out / "series.csv")
    assert version.startswith("# torusobs series v1")
    assert header == SERIES_HEADER
    assert len(rows) == 4
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    # the first running mean is the first observation
    assert rows[0][3] == rows[0][4]

    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["interval_count"] == 4
    assert meta["final_ratio"] > 0

    sidecar = json.loads((out / "schedule_m1.json").read_text())
    assert sidecar["schema"] == "torusobs-schedule/2"
    assert sorted(sidecar) == [
        "atom_count", "atoms", "certified_loss", "duration", "interval",
        "macro_count", "macro_length", "schema", "t_start", "total_rows", "window",
    ]
    design = json.loads((out / f"design_K{sidecar['window']}.json").read_text())
    assert sidecar["atoms"] == design["atoms"]
    assert sidecar["macro_length"] == sidecar["duration"] / sidecar["macro_count"]
    assert sidecar["total_rows"] == sidecar["macro_count"] * sidecar["atom_count"]


def test_schedule_row_cap(tmp_path):
    config = write_config(
        tmp_path,
        schedule={"emit_intervals": [1], "interval": 1, "csv_row_cap": 7},
    )
    out = tmp_path / "out"
    assert main(["schedule", "--config", str(config), "--out", str(out)]) == 0
    sidecar = json.loads((out / "schedule_m1.json").read_text())
    _, _, rows = read_csv(out / "schedule_m1.csv")
    assert len(rows) == min(7, sidecar["total_rows"]) == 7
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0


@pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
def test_schedule_and_experiment_write_the_same_schedule_files(tmp_path, last):
    # design.cutoff 3 matches no interval's window: only `design` reads it
    index = 4 if last else 1
    overrides = {"design": {"cutoff": 3}, "interval_count": 4}
    config = write_config(
        tmp_path, "exp.json", schedule={"emit_intervals": [1, 4]}, **overrides
    )
    single = write_config(
        tmp_path, "one.json", schedule={"interval": index}, **overrides
    )
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "e")]) == 0
    assert main(["schedule", "--config", str(single), "--out", str(tmp_path / "s")]) == 0
    name = f"schedule_m{index}.json"
    assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "e" / name).read_bytes()
    assert (tmp_path / "s" / f"schedule_m{index}.csv").exists()


def test_experiment_process_does_not_import_numpy_ma(tmp_path):
    config = write_config(tmp_path, model="wave", datum={"window": 3, "seed": 2})
    code = (
        "import sys\n"
        "from torusobs.cli import main\n"
        f"assert main(['experiment', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(torusobs.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_schedule_process_builds_neither_datum_nor_kernels(tmp_path):
    # the schedule command reads the designs and their bounds only: no
    # seeded datum (so no numpy.random), no Gamma(0), no difference table
    config = write_config(tmp_path, model="wave", datum={"window": 3, "seed": 2})
    code = (
        "import sys\n"
        "from torusobs import evolve, experiment\n"
        "def refuse(*args):\n"
        "    raise AssertionError('schedule built a kernel input')\n"
        "evolve.DifferenceTable.build = classmethod(refuse)\n"
        "experiment.gamma_matrix = refuse\n"
        "from torusobs.cli import main\n"
        f"assert main(['schedule', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(torusobs.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "out" / "schedule_m1.csv").exists()


@pytest.mark.parametrize("cap", [3, 7, 3 * SCHEDULE_BLOCK + 11, 10**9])
def test_schedule_lines_match_micro_intervals(cap):
    # the block writer must reproduce the slot-by-slot text exactly, also
    # late in time, across block boundaries, at partial macro intervals and
    # inside the first one
    space = TorusSpace(1)
    design = equispaced_design(
        build_basis(space, 1), PrototypeSet.from_boxes(space, [(0, "1/4")])
    )
    schedule = build_switching(design, (199.0, 1.0), 10.0, 10.0 * 1.25 / 5000)
    assert schedule.micro_count > 3 * SCHEDULE_BLOCK + 11
    shifts = [s.as_floats() for s in design.shifts]
    expected = [
        ",".join(_fmt(v) for v in (t0, t1, j, *shifts[j])) + "\n"
        for t0, t1, j in schedule.micro_intervals()[:cap]
    ]
    assert "".join(_schedule_lines(schedule, cap)) == "".join(expected)


def test_boundaries_are_the_slot_times_of_micro_interval():
    # the first and the last macros of interval 200, t from 199 to 200: each
    # grid row is the scalar formula bit for bit, whatever block it sits in,
    # and micro_interval's slots run from cell to cell
    schedule = prepare_protocol(quick_config(interval_count=200)).schedule(200)
    R, J, tau = schedule.macro_count, schedule.atom_count, schedule.macro_length
    for first in (0, R - 3):
        grid = schedule.boundaries(first, 3)
        assert grid.shape == (3, J + 1)
        for r, row in zip(range(first, first + 3), grid.tolist()):
            assert row == [(schedule.t_start + r * tau) + float(c) * tau for c in schedule.cum]
            assert schedule.boundaries(r, 1).tolist() == [row]
            assert [schedule.micro_interval(r, j) for j in range(J)] == [
                (row[j], row[j + 1], j) for j in range(J)
            ]


@pytest.mark.parametrize("block", [3, 5, 12, None], ids=["3", "5", "12", "module-block"])
@pytest.mark.parametrize("cap", [4, 5 * 40 + 2, 10**9])
def test_schedule_chunks_hold_at_most_a_block_of_rows(monkeypatch, block, cap):
    # the writer holds one chunk of text at a time, whatever the block is
    # against the macro's 5 atoms, and the chunks join to the same text
    space = TorusSpace(1)
    design = equispaced_design(
        build_basis(space, 1), PrototypeSet.from_boxes(space, [(0, "1/4")])
    )
    schedule = build_switching(design, (199.0, 1.0), 10.0, 10.0 * 1.25 / 500)
    assert schedule.atom_count == 5 and schedule.micro_count > 5 * 40 + 2
    text = "".join(_schedule_lines(schedule, cap))
    if block is not None:
        monkeypatch.setattr(cli, "SCHEDULE_BLOCK", block)
    limit = cli.SCHEDULE_BLOCK
    chunks = list(_schedule_lines(schedule, cap))
    assert all(0 < chunk.count("\n") <= limit for chunk in chunks)
    assert "".join(chunks) == text
    assert text.count("\n") == min(cap, schedule.micro_count)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.0, 200.0),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
    st.floats(1.0, 1e4),
    st.integers(1, 400),
)
def test_schedule_slot_ends_telescope(t_start, raw_weights, speed, cap):
    # inside a macro interval a slot ends exactly where the next one starts,
    # textually, and the cells at macro boundaries are micro_interval's own;
    # the observer's speed enters as the Lipschitz bound that sets R
    total = sum(raw_weights)
    atoms = tuple(
        DesignAtom(GroupElement.of(Fraction(j, 11)), w / total)
        for j, w in enumerate(raw_weights)
    )
    design = ConvexDesign(atoms=atoms, measure=0.25, cutoff=1, residual=0.0)
    schedule = build_switching(design, (t_start, 1.0), speed, 0.01)
    rows = [line.split(",") for line in "".join(_schedule_lines(schedule, cap)).splitlines()]
    assert len(rows) == min(cap, schedule.micro_count)
    J = schedule.atom_count
    for k, row in enumerate(rows):
        r, j = divmod(k, J)
        assert row[2] == str(j)
        if j + 1 < J and k + 1 < len(rows):
            assert row[1] == rows[k + 1][0]
        if j == 0:
            assert row[0] == _fmt(schedule.micro_interval(r, 0)[0])
        if j == J - 1:
            assert row[1] == _fmt(schedule.micro_interval(r, j)[1])


@pytest.mark.parametrize(
    "interval, cap",
    [(200, 3), (200, SCHEDULE_BLOCK // 2 + 1), (200, 2 * SCHEDULE_BLOCK + 5), (1, 10**9)],
    ids=["first-macro", "one-block", "across-blocks", "above-micro-count"],
)
def test_sidecar_counts_rows_not_chunks(tmp_path, interval, cap):
    config = write_config(
        tmp_path,
        interval_count=200,
        schedule={"interval": interval, "csv_row_cap": cap},
    )
    out = tmp_path / "out"
    assert main(["schedule", "--config", str(config), "--out", str(out)]) == 0
    sidecar = json.loads((out / f"schedule_m{interval}.json").read_text())
    _, _, rows = read_csv(out / f"schedule_m{interval}.csv")
    assert len(rows) == min(cap, sidecar["total_rows"])
    where = {
        3: cap < sidecar["atom_count"],
        SCHEDULE_BLOCK // 2 + 1: sidecar["atom_count"] < cap < SCHEDULE_BLOCK,
        2 * SCHEDULE_BLOCK + 5: SCHEDULE_BLOCK < cap < sidecar["total_rows"],
        10**9: cap > sidecar["total_rows"],
    }
    assert where[cap]


def test_solver_design_file_is_reproducible(tmp_path):
    config = write_config(
        tmp_path,
        design={"method": "solver", "cutoff": 3, "candidate_kind": "random",
                "candidates": 96, "candidate_seed": 4},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["design", "--config", str(config), "--out", str(out)]) == 0
    first = (out1 / "design_K3.json").read_bytes()
    assert first == (out2 / "design_K3.json").read_bytes()
    payload = json.loads(first)
    assert len(payload["atoms"]) <= 4 * 3 + 1
    assert payload["residual"] <= 1e-10


def test_experiment_is_reproducible(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(config), "--out", str(out2)]) == 0
    for name in ("series.csv", "calibration.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_check_flag(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["experiment", "--config", str(config), "--out", str(out), "--check"])
    assert rc == 0


def test_verify_detects_series_tampering(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
    assert "verify: ok" in capsys.readouterr().out

    series = out / "series.csv"
    lines = series.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = repr(float(cells[4]) + 0.5)  # running mean no longer matches
    lines[3] = ",".join(cells)
    series.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "series.csv" in capsys.readouterr().err


def test_verify_detects_design_tampering(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    path = out / "design_K1.json"
    payload = json.loads(path.read_text())
    payload["atoms"][0]["weight"] += 0.05
    payload["atoms"][1]["weight"] -= 0.05
    path.write_text(json.dumps(payload))
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "design_K1.json" in capsys.readouterr().err


def test_verify_checks_the_design_file_name_against_its_cutoff(tmp_path, capsys):
    # a renamed design would otherwise pass: it rebuilds at its own cutoff
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    (out / "design_K2.json").rename(out / "design_K5.json")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "design_K5.json: unreadable (cutoff 2 is not the one its file name gives)" in err


def set_series_cell(row, column, value):
    def edit(out):
        path = out / "series.csv"
        lines = path.read_text().splitlines()
        cells = lines[2 + row].split(",")
        cells[column] = value
        lines[2 + row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    return edit


def drop_last_series_row(out):
    path = out / "series.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def cut_first_series_row(out):
    path = out / "series.csv"
    lines = path.read_text().splitlines()
    lines[2] = "1,1"
    path.write_text("\n".join(lines) + "\n")


META_DIFFERS = "run_meta.json: differs from the config and the recomputed calibration"


def set_meta(key, scale=None, value=None):
    def edit(out):
        path = out / "run_meta.json"
        meta = strict_json(path)
        meta[key] = meta[key] * scale if scale is not None else value
        _write_json(path, meta)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (drop_last_series_row, "series.csv: 3 rows for 4 intervals"),
        (set_series_cell(0, 1, "7"), "series.csv: row 1 is not interval 1 of the config"),
        (set_series_cell(0, 2, "0.001"), "series.csv: row 1 is not interval 1 of the config"),
        (set_series_cell(2, 0, "2"), "series.csv: row 3 is not interval 3 of the config"),
        (cut_first_series_row, "series.csv: unreadable"),
        (set_meta("final_mean", scale=2.0), "run_meta.json: final_mean is not the last A_N"),
        (set_meta("interval_count", value=99), "run_meta.json: interval_count 99 is not the config's 4"),
        (set_meta("final_quarter_minimum", scale=0.5), "run_meta.json: final_quarter_minimum"),
        (set_meta("model", value="wave"), f"{META_DIFFERS} (model)"),
        (set_meta("mass", value=0.5), f"{META_DIFFERS} (mass)"),
        (set_meta("measure", scale=2.0), f"{META_DIFFERS} (measure, reference_bound)"),
        (set_meta("duration", value=2.0), f"{META_DIFFERS} (duration)"),
        (set_meta("lower_constant", scale=1.0 + 1e-9), f"{META_DIFFERS} (lower_constant,"),
        (set_meta("upper_constant", scale=3.0), f"{META_DIFFERS} (upper_constant)"),
        (set_meta("energy", scale=1e6), f"{META_DIFFERS} (reference_bound)"),
        (set_meta("reference_bound", scale=3.0), f"{META_DIFFERS} (reference_bound, final_ratio)"),
        (set_meta("final_ratio", value=0.5), f"{META_DIFFERS} (final_ratio)"),
        (set_meta("reference_bound", value=0.0), "run_meta.json: unreadable"),
    ],
    ids=[
        "last-row-dropped", "K_m", "eps_m", "m", "short-row", "final-mean", "interval-count",
        "final-quarter-minimum", "model", "mass", "measure", "duration", "lower-constant",
        "upper-constant", "energy", "reference-bound", "final-ratio", "zero-reference-bound",
    ],
)
def test_verify_checks_series_and_run_meta_against_the_config(tmp_path, capsys, edit, message):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    edit(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err


def test_continuous_command(tmp_path, capsys):
    config = write_config(
        tmp_path,
        model="wave",
        datum={"window": 2, "seed": 2},
        schedule={"speeds": [200.0, 10000.0], "interval": 1},
    )
    out = tmp_path / "out"
    assert main(["continuous", "--config", str(config), "--out", str(out)]) == 0
    version, header, rows = read_csv(out / "continuous.csv")
    assert version.startswith("# torusobs continuous v1")
    assert header == CONTINUOUS_HEADER
    assert {row[0] for row in rows} == {"200.0", "10000.0"}
    assert len(rows) == 8  # two speeds x four intervals

    report = json.loads((out / "continuous_report.json").read_text())
    assert report["schema"] == "torusobs-continuous/2"
    # the per-interval records live in continuous.csv only
    assert "records" not in report
    assert report["monotone_ok"] and report["realized_ok"]
    assert report["certified_factors"]["10000.0"] > 0.0
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0


def strict_json(path):
    def reject(name):
        raise ValueError(f"{name} in {path.name}")

    return json.loads(path.read_text(), parse_constant=reject)


def continuous_run(tmp_path):
    config = write_config(
        tmp_path,
        model="wave",
        datum={"window": 2, "seed": 2},
        schedule={"speeds": [200.0, 10000.0], "interval": 1},
    )
    out = tmp_path / "out"
    assert main(["continuous", "--config", str(config), "--out", str(out)]) == 0
    return config, out


def test_verify_detects_continuous_report_final_mean_tampering(tmp_path, capsys):
    config, out = continuous_run(tmp_path)
    path = out / "continuous_report.json"
    report = strict_json(path)
    report["final_means"]["10000.0"] *= 1.0 + 1e-9
    path.write_text(json.dumps(report))
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "continuous_report.json: final mean at speed 10000.0" in err


def test_verify_detects_a_realized_margin_below_one(tmp_path, capsys):
    config, out = continuous_run(tmp_path)
    path = out / "continuous_report.json"
    report = strict_json(path)
    report["realized_margin"] = 0.5
    path.write_text(json.dumps(report))
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "realized margin 0.5 below 1" in capsys.readouterr().err


def test_verify_detects_a_certified_loss_that_breaks_monotonicity(tmp_path, capsys):
    config, out = continuous_run(tmp_path)
    path = out / "continuous.csv"
    lines = path.read_text().splitlines()
    slow = next(line.split(",") for line in lines[2:] if line.startswith("200.0,"))
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == "10000.0" and cells[1] == slow[1]:
            cells[4] = repr(2.0 * float(slow[4]))
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "monotone_ok does not recompute" in capsys.readouterr().err


def set_continuous_cell(row, column, change):
    def edit(out):
        path = out / "continuous.csv"
        lines = path.read_text().splitlines()
        cells = lines[1 + row].split(",")
        cells[column] = change(cells[column])
        lines[1 + row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    return edit


@pytest.mark.parametrize(
    "row, column, change",
    [
        (1, "speed", lambda v: "300.0"),
        (1, "interval", lambda v: "9"),
        (3, "window", lambda v: "1"),
        (2, "macro_count", lambda v: str(int(v) + 1)),
        (6, "certified_loss", lambda v: repr(float(v) * (1.0 + 1e-12))),
    ],
    ids=["speed", "interval", "window", "macro-count", "certified-loss"],
)
def test_verify_checks_every_continuous_row_against_its_rebuilt_path(
    tmp_path, capsys, row, column, change
):
    config, out = continuous_run(tmp_path)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
    set_continuous_cell(row, CONTINUOUS_HEADER.split(",").index(column), change)(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert (
        f"continuous.csv: row {row} differs from the config's ladder and its rebuilt "
        f"path ({column})" in err
    )


def test_verify_reports_a_short_continuous_row(tmp_path, capsys):
    config, out = continuous_run(tmp_path)
    path = out / "continuous.csv"
    lines = path.read_text().splitlines()
    lines[4] = ",".join(lines[4].split(",")[:5])
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "continuous.csv: unreadable (row 3 has 5 cells, not 7)" in capsys.readouterr().err


def test_continuous_report_writes_null_when_no_speed_certifies(tmp_path):
    # on the committed quick config neither speed leaves a positive factor,
    # so no interval bounds the realized margin
    out = tmp_path / "out"
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    for command in ("experiment", "continuous"):
        assert main([command, "--config", str(quick), "--out", str(out)]) == 0
    report = strict_json(out / "continuous_report.json")
    assert set(report["certified_factors"].values()) == {0.0}
    assert report["realized_margin"] is None
    for path in out.glob("*.json"):
        strict_json(path)
    assert main(["verify", "--config", str(quick), "--out", str(out)]) == 0


def test_json_artifacts_refuse_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "bad.json", {"margin": float("inf")})


def test_calibrate_command(tmp_path):
    config = write_config(tmp_path, model="wave", datum={"window": 2, "seed": 2})
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["lower"] == pytest.approx(0.5)
    assert payload["upper"] == pytest.approx(1.0)


def set_mode_row(index, key, scale=None, value=None):
    def edit(cal):
        row = cal["mode_table"][index]
        row[key] = row[key] * scale if scale is not None else value

    return edit


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda cal: cal.update(model="schrodinger"), "model"),
        (lambda cal: cal.update(mass=0.5), "mass"),
        (lambda cal: cal.update(duration=9.0), "duration"),
        (lambda cal: cal.update(lower=cal["lower"] * (1.0 + 1e-9)), "lower"),
        (set_mode_row(1, "gram_min", scale=0.5), "mode_table[1].gram_min"),
        (set_mode_row(3, "gram_max", scale=1.0 + 1e-9), "mode_table[3].gram_max"),
        (set_mode_row(2, "frequency", value=1.0), "mode_table[2].frequency"),
    ],
    ids=["model", "mass", "duration", "lower", "gram-min", "gram-max", "frequency"],
)
def test_verify_recomputes_every_calibration_field(tmp_path, capsys, edit, key):
    config = write_config(tmp_path, model="wave", datum={"window": 2, "seed": 2})
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(config), "--out", str(out), "--check"]) == 0
    path = out / "calibration.json"
    calibration = strict_json(path)
    assert len(calibration["mode_table"]) == 4
    edit(calibration)
    _write_json(path, calibration)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"calibration.json: differs from the recomputed calibration ({key})" in err


def late_schedule(tmp_path):
    """A schedule CSV of interval 200, so t runs from 199 to 200: 5000 rows,
    three blocks, written with its sidecar."""
    config = write_config(
        tmp_path, interval_count=200, schedule={"interval": 200, "csv_row_cap": 5000}
    )
    out = tmp_path / "out"
    assert main(["schedule", "--config", str(config), "--out", str(out)]) == 0
    return config, out, out / "schedule_m200.csv"


def test_verify_reads_the_late_schedule_csv_exactly(tmp_path, capsys):
    config, out, path = late_schedule(tmp_path)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
    assert "verify: ok" in capsys.readouterr().out
    schedule = prepare_protocol(quick_config(interval_count=200)).schedule(200)
    serial = "".join(_schedule_lines(schedule, 5000))
    assert path.read_text() == f"{SCHEDULE_VERSION}\n{schedule_header(1)}\n" + serial


def test_verify_detects_schedule_slot_order_tampering(tmp_path, capsys):
    config, out, path = late_schedule(tmp_path)
    lines = path.read_text().splitlines()
    lines[5], lines[6] = lines[6], lines[5]
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "schedule_m200.csv: row 4 differs from the rebuilt schedule" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["199.5,abc,0,0.0", "199.5"])
def test_verify_reports_a_malformed_schedule_row(tmp_path, capsys, row):
    config, out, path = late_schedule(tmp_path)
    lines = path.read_text().splitlines()
    lines[4] = row
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "schedule_m200.csv: row 3 differs from the rebuilt schedule" in capsys.readouterr().err


def test_verify_reports_a_schedule_csv_without_rows(tmp_path, capsys):
    config, out, path = late_schedule(tmp_path)
    path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "schedule_m200.csv: file ends after 0 of 5000 rows" in capsys.readouterr().err


def next_atom(cells):
    cells[2] = str(int(cells[2]) + 1)


def shift_moved(cells):
    cells[3] = repr(float(cells[3]) + 0.5)


def extra_field(cells):
    cells.append("junk")


@pytest.mark.parametrize(
    "edit", [next_atom, shift_moved, extra_field], ids=["atom", "shift", "extra-field"]
)
def test_verify_compares_every_column_of_the_schedule_csv(tmp_path, capsys, edit):
    # the time columns stay as written: only the cell the edit touches differs
    config, out, path = late_schedule(tmp_path)
    lines = path.read_text().splitlines()
    cells = lines[2 + 4099].split(",")
    edit(cells)
    lines[2 + 4099] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "schedule_m200.csv: row 4100 differs from the rebuilt schedule" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda text: "".join(text.splitlines(keepends=True)[: 2 + 4499]) + "199.",
         "file ends after 4499 of 5000 rows"),
        (lambda text: text + text.splitlines(keepends=True)[-1],
         "file runs on past its 5000 rows"),
        (lambda text: text.replace("\n", "\r\n", 1), "unrecognized layout"),
        (lambda text: "", "unrecognized layout"),
    ],
    ids=["cut-mid-row", "one-extra-row", "crlf-layout", "empty"],
)
def test_verify_requires_the_schedule_csv_to_end_with_its_last_row(
    tmp_path, capsys, cut, message
):
    config, out, path = late_schedule(tmp_path)
    path.write_text(cut(path.read_text()), newline="")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert f"schedule_m200.csv: {message}" in capsys.readouterr().err


def test_verify_reports_an_unreadable_schedule_csv(tmp_path, capsys):
    config, out, path = late_schedule(tmp_path)
    path.write_bytes(path.read_bytes()[:-40] + b"\xff\xfe\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "schedule_m200.csv: unreadable" in capsys.readouterr().err


# ------------------------------------------------- multi-block schedule files


@pytest.mark.parametrize("block", [3, 5, 12])
@pytest.mark.parametrize(
    "extent", ["inside-first-block", "one-block", "odd-block-count", "above-micro-count"]
)
def test_split_schedule_file_is_the_serial_text(tmp_path, monkeypatch, block, extent):
    # with a small block, small files are split into several blocks: the
    # layout lines and the block writer's chunks join to the serial text of
    # `_schedule_lines`, and only the CSV and its sidecar are left
    monkeypatch.setattr(cli, "SCHEDULE_BLOCK", block)
    schedule = prepare_protocol(quick_config(interval_count=200)).schedule(1)
    atoms = schedule.atom_count
    block_rows = max(1, block // atoms) * atoms
    cap, blocks = {
        "inside-first-block": (atoms - 2, 1),
        "one-block": (block_rows, 1),
        "odd-block-count": (5 * block_rows - 2, 5),
        "above-micro-count": (10**9, -(-schedule.micro_count // block_rows)),
    }[extent]
    assert -(-min(cap, schedule.micro_count) // block_rows) == blocks
    config = write_config(
        tmp_path, interval_count=200, schedule={"interval": 1, "csv_row_cap": cap}
    )
    out = tmp_path / "out"
    assert main(["schedule", "--config", str(config), "--out", str(out)]) == 0
    serial = "".join(_schedule_lines(schedule, cap))
    text = (out / "schedule_m1.csv").read_text()
    assert text == f"{SCHEDULE_VERSION}\n{schedule_header(1)}\n" + serial
    assert serial.count("\n") == min(cap, schedule.micro_count)
    assert sorted(path.name for path in out.iterdir()) == ["schedule_m1.csv", "schedule_m1.json"]


def test_a_failing_schedule_write_leaves_the_earlier_files(tmp_path, monkeypatch, capsys):
    # the text is written under a temporary name and moved into place after
    # its last row: a write that fails mid-file leaves the files of an
    # earlier run in the same --out byte for byte, and no temporary file
    config, out, path = late_schedule(tmp_path)
    sidecar = out / "schedule_m200.json"
    before = path.read_bytes(), sidecar.read_bytes()
    lines = cli._schedule_lines

    def failing(schedule, cap):
        chunks = lines(schedule, cap)
        yield next(chunks)
        raise ValueError("the formatter failed mid-file")

    monkeypatch.setattr(cli, "_schedule_lines", failing)
    assert main(["schedule", "--config", str(config), "--out", str(out)]) == 3
    assert "the formatter failed mid-file" in capsys.readouterr().err
    assert (path.read_bytes(), sidecar.read_bytes()) == before
    assert sorted(p.name for p in out.iterdir()) == ["schedule_m200.csv", "schedule_m200.json"]


def tamper_second_half(path, edit):
    """Apply `edit` to the data rows of the later half of the file."""
    lines = path.read_text().splitlines()
    rows = lines[2:]
    half = len(rows) // 2
    rows[half:] = edit(rows[half:])
    path.write_text("\n".join(lines[:2] + rows) + "\n")


def bump_one_ulp(rows):
    cells = rows[1234].split(",")
    cells[0] = repr(float(np.nextafter(float(cells[0]), np.inf)))
    rows[1234] = ",".join(cells)
    return rows


def swap_two_rows(rows):
    rows[1234], rows[1235] = rows[1235], rows[1234]
    return rows


@pytest.mark.parametrize("edit", [bump_one_ulp, swap_two_rows], ids=["one-ulp", "swapped-rows"])
def test_verify_detects_tampering_in_the_childs_half(tmp_path, capsys, edit):
    config, out, path = late_schedule(tmp_path)
    tamper_second_half(path, edit)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "schedule_m200.csv: row 3735 differs from the rebuilt schedule" in err


def test_verify_reports_a_malformed_row_in_the_childs_half(tmp_path, capsys):
    config, out, path = late_schedule(tmp_path)
    tamper_second_half(path, lambda rows: rows[:10] + ["199.5,abc,0,0.0"] + rows[11:])
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "schedule_m200.csv: row 2511 differs from the rebuilt schedule" in capsys.readouterr().err


def test_verify_detects_a_one_ulp_change_in_one_block_files(tmp_path, capsys):
    config = write_config(tmp_path, schedule={"interval": 1})
    out = tmp_path / "out"
    assert main(["schedule", "--config", str(config), "--out", str(out), "--check"]) == 0
    path = out / "schedule_m1.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(np.nextafter(float(cells[1]), -np.inf)))
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "schedule_m1.csv: row 2 differs from the rebuilt schedule" in capsys.readouterr().err


def nudge_one_shift(sidecar):
    # the second atom's shift moved by 1/2^40, still an exact fraction
    shift = sidecar["atoms"][1]["shift"]
    shift[0] = str(Fraction(shift[0]) + Fraction(1, 2**40))


def nudge_one_weight(sidecar):
    atom = sidecar["atoms"][1]
    atom["weight"] = float(np.nextafter(atom["weight"], np.inf))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("certified_loss", "next-ulp", "schedule_m200.json: summary differs"),
        ("macro_count", "plus-one", "schedule_m200.json: summary differs"),
        ("macro_length", "next-ulp", "schedule_m200.json: summary differs"),
        ("atoms", nudge_one_shift, "schedule_m200.json: summary differs"),
        ("atoms", nudge_one_weight, "schedule_m200.json: summary differs"),
        ("interval", 201, "schedule_m200.json: unreadable (interval 201 is not in the run)"),
        ("interval", "200", "schedule_m200.json: unreadable (interval '200' is not in the run)"),
    ],
    ids=[
        "certified-loss", "macro-count", "macro-length", "atom-shift", "atom-weight",
        "interval-past-the-run", "interval-as-text",
    ],
)
def test_verify_rebuilds_the_schedule_summary(tmp_path, capsys, key, value, message):
    config, out, path = late_schedule(tmp_path)
    sidecar_path = out / "schedule_m200.json"
    sidecar = strict_json(sidecar_path)
    if value == "next-ulp":
        sidecar[key] = float(np.nextafter(sidecar[key], np.inf))
    elif value == "plus-one":
        sidecar[key] += 1
    elif callable(value):
        value(sidecar)
    else:
        sidecar[key] = value
    _write_json(sidecar_path, sidecar)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err
    if "differs" in message:
        assert f"({key})" in err


def test_verify_checks_the_file_name_against_the_sidecar(tmp_path, capsys):
    # a renamed pair would otherwise pass: the sidecar rebuilds its own interval
    config = write_config(tmp_path, schedule={"interval": 1})
    out = tmp_path / "out"
    assert main(["schedule", "--config", str(config), "--out", str(out), "--check"]) == 0
    for suffix in ("csv", "json"):
        (out / f"schedule_m1.{suffix}").rename(out / f"schedule_m2.{suffix}")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "schedule_m2.json: unreadable (interval 1 is not" in capsys.readouterr().err


def test_verify_reports_a_schedule_csv_without_its_sidecar(tmp_path, capsys):
    config, out, path = late_schedule(tmp_path)
    (out / "schedule_m200.json").unlink()
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "schedule_m200.csv: unreadable (no sidecar" in capsys.readouterr().err
