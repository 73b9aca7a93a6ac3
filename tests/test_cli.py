"""Command-line driver: exit codes, artifact layout, reproducibility,
and verification of tampered outputs."""

import errno
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import torusobs
from torusobs import artifacts, checks, cli
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
from torusobs.artifacts import (
    CONTINUOUS_HEADER,
    SCHEDULE_BLOCK,
    SCHEDULE_VERSION,
    SERIES_HEADER,
    _boundaries,
    _fmt,
    _schedule_lines,
    schedule_header,
)
from torusobs import experiment as experiment_module
from torusobs.cli import main
from torusobs.config import RunConfig
from torusobs.experiment import prepare_protocol
from test_experiment import config_dict, continuous_report, quick_config


def write_config(tmp_path, name="run.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(config_dict(**overrides)))
    return path


def fresh_python(*args, env=None):
    """Run a new interpreter on this checkout's package, with the variables
    of `env` added to the environment: modules that earlier tests imported
    in this process cannot mask a missing import there."""
    src = str(Path(torusobs.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def _write_json(path, payload):
    path.write_text(artifacts._json(payload))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], lines[1], [line.split(",") for line in lines[2:]]


def test_design_command_writes_reduced_design(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "design_K1.json").read_text())
    assert len(payload["atoms"]) == 5
    assert payload["schema"] == "torusobs-design/2"
    assert sorted(payload) == [
        "atoms", "cutoff", "matrix_residual", "measure", "residual", "schema",
    ]
    assert payload["residual"] <= 1e-12
    assert payload["matrix_residual"] <= 1e-12
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
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_verify_process_does_not_import_numpy_random(tmp_path):
    # verify rebuilds the designs' matrix residuals, which draw nothing,
    # and never the seeded datum
    config = write_config(tmp_path, schedule={"emit_intervals": [1]})
    out = tmp_path / "out"
    for command in ("experiment", "continuous"):
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
    code = (
        "import sys\n"
        "from torusobs.cli import main\n"
        f"assert main(['verify', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# runs main() on the arguments after the script name, then prints its exit
# code and which of numpy.random and the OpenSSL-backed modules it pulls in
# main added to sys.modules (one a site hook loads earlier does not count)
DRAW_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from torusobs.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, sorted(m for m in ('numpy.random', 'secrets', 'hashlib', '_hashlib')\n"
    "                   if m in sys.modules and m not in before))\n"
)


@pytest.mark.parametrize(
    "command", ["design", "experiment", "continuous", "verify", "schedule", "calibrate"]
)
def test_no_command_loads_numpy_random_or_openssl(tmp_path, command):
    # the seeded datum and the random candidates come from the standard
    # library's random, so no process pays for numpy.random or OpenSSL
    config = write_config(
        tmp_path,
        model="wave",
        datum={"window": 3, "seed": 2},
        design={"method": "solver", "cutoff": 1, "candidate_kind": "random",
                "candidates": 32, "candidate_seed": 5},
    )
    out = tmp_path / "out"
    if command == "verify":
        for writer in ("experiment", "continuous"):
            assert main([writer, "--config", str(config), "--out", str(out)]) == 0
    done = fresh_python("-c", DRAW_PROBE, command, "--config", str(config), "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_no_process_imports_dataclasses(tmp_path):
    # records are NamedTuples or plain classes, so no module generates and
    # execs their methods at import: not the package, not a command
    package = Path(torusobs.__file__).parent
    modules = sorted(f"torusobs.{path.stem}" for path in package.glob("[!_]*.py"))
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    out = tmp_path / "out"
    for setup in (
        f"import {', '.join(modules)}\n",
        "from torusobs.cli import main\n"
        f"assert main(['experiment', '--config', {str(quick)!r}, '--out', {str(out)!r}]) == 0\n",
        "from torusobs.cli import main\n"
        f"assert main(['verify', '--config', {str(quick)!r}, '--out', {str(out)!r}]) == 0\n",
    ):
        done = fresh_python("-c", "import sys\n" + setup + "print('dataclasses' in sys.modules)\n")
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
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "out" / "schedule_m1.csv").exists()


PRINT_TORUSOBS_MODULES = (
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'torusobs'))\n"
)


def test_config_loading_imports_only_the_config_modules(tmp_path):
    # the set-up path reads the config, its space and its prototype set,
    # none of which needs numpy
    config = write_config(tmp_path)
    code = (
        "import sys, torusobs, torusobs.cli\n"
        f"config = torusobs.cli.RunConfig.from_file({str(config)!r})\n"
        "config.space(), config.prototype()\n"
        "print('numpy' in sys.modules)\n" + PRINT_TORUSOBS_MODULES
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == [
        "False", str(["torusobs", "torusobs.cli", "torusobs.config", "torusobs.geometry"])
    ]


# runs main() on the arguments after the script name, then prints its exit
# code, an argparse exit's included, and whether numpy was loaded
NUMPY_PROBE = (
    "import sys\n"
    "from torusobs.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(code, 'numpy' in sys.modules)\n"
)


@pytest.mark.parametrize(
    "case, code, numpy",
    [
        ("help", 0, False),
        ("no_config", 2, False),
        ("bad_json", 2, False),
        ("unknown_key", 2, False),
        ("out_under_a_file", 2, False),
        ("experiment", 0, True),
    ],
)
def test_only_a_command_that_computes_loads_numpy(tmp_path, case, code, numpy):
    # numpy arrives with the first module that computes: a process that
    # stops at --help, an argument or config error or an --out it cannot
    # make never loads it, and one that runs its command does
    config = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    out = tmp_path / "out"
    if case == "bad_json":
        config = tmp_path / "bad.json"
        config.write_text("{oops")
    elif case == "unknown_key":
        config = write_config(tmp_path, name="bad.json", flavor="spicy")
    elif case == "out_under_a_file":
        (tmp_path / "taken").write_text("not a directory\n")
        out = tmp_path / "taken" / "out"
    argv = ["experiment", "--config", str(config), "--out", str(out)]
    if case == "help":
        argv = ["--help"]
    elif case == "no_config":
        argv = ["experiment", "--out", str(out)]
    done = fresh_python("-c", NUMPY_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{code} {numpy}"


def test_design_process_imports_no_dynamics(tmp_path):
    config = write_config(tmp_path)
    code = (
        "import sys\n"
        "from torusobs.cli import main\n"
        f"assert main(['design', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n" + PRINT_TORUSOBS_MODULES
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.splitlines()[-1]
    assert "torusobs.design" in loaded
    for name in ("torusobs.evolve", "torusobs.schedule", "torusobs.experiment"):
        assert repr(name) not in loaded


def test_calibrate_process_imports_only_the_spectral_modules(tmp_path):
    # the calibration lives in spectral; --check adds the formats and
    # verify's checks
    config = write_config(tmp_path, model="wave")
    code = (
        "import sys\n"
        "from torusobs.cli import main\n"
        f"assert main(['calibrate', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}, '--check']) == 0\n" + PRINT_TORUSOBS_MODULES
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(
        [
            "torusobs",
            "torusobs.artifacts",
            "torusobs.checks",
            "torusobs.cli",
            "torusobs.config",
            "torusobs.geometry",
            "torusobs.spectral",
        ]
    )


def imported_modules(*args):
    """The torusobs modules a fresh interpreter imports running `args`,
    sorted, read off its `-X importtime` lines.  Under `-m torusobs.cli`
    the entry runs as `__main__`, so `torusobs.cli` is listed only if some
    module imports it as well."""
    done = fresh_python("-X", "importtime", *args)
    assert done.returncode == 0, done.stderr
    names = (
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines() if line.startswith("import time:")
    )
    return sorted(name for name in names if name.split(".")[0] == "torusobs")


# what each command's process loads beside the package, the config and the
# geometry it reads, as `python -m torusobs.cli`; --check adds `checks`
COMMAND_MODULES = {
    "design": ["artifacts", "design", "spectral"],
    "calibrate": ["artifacts", "spectral"],
    "schedule": ["artifacts", "design", "experiment", "schedule", "spectral"],
    "experiment": ["artifacts", "design", "evolve", "experiment", "schedule", "spectral"],
    "continuous": ["artifacts", "design", "evolve", "experiment", "schedule", "spectral"],
    "verify": ["artifacts", "checks", "design", "experiment", "schedule", "spectral"],
}


@pytest.mark.parametrize(
    "command, check",
    [(command, False) for command in sorted(COMMAND_MODULES)]
    + [(command, True) for command in sorted(COMMAND_MODULES) if command != "verify"],
)
def test_each_command_process_loads_only_what_it_runs(tmp_path, command, check):
    # verify reads designs, schedules, paths and reports, never an energy,
    # so it loads no evolve; the checks load with verify and --check only;
    # and no module imports torusobs.cli beside the __main__ entry
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    out = tmp_path / "out"
    if command == "verify":
        for writer in ("experiment", "continuous", "schedule"):
            assert main([writer, "--config", str(quick), "--out", str(out)]) == 0
    argv = ["-m", "torusobs.cli", command, "--config", str(quick), "--out", str(out)]
    loaded = imported_modules(*argv, *(["--check"] if check else []))
    assert "torusobs.cli" not in loaded
    assert ("torusobs.evolve" in loaded) == (command in ("experiment", "continuous"))
    assert ("torusobs.checks" in loaded) == (command == "verify" or check)
    expected = ["config", "geometry", *COMMAND_MODULES[command], *(["checks"] if check else [])]
    assert loaded == sorted(["torusobs", *(f"torusobs.{name}" for name in expected)])


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", ["design", "calibrate", "schedule", "experiment", "continuous"])
def test_an_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, command, under):
    # a file at --out, or on its way, is refused in one line, as a config
    # error is, before any work; the file is left as it was
    config = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "out" if under else taken
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    reason = "Not a directory" if under else "File exists"
    assert captured.err == f"cannot create output directory {out}: {reason}\n"
    assert captured.out == ""
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "command, name",
    [
        ("experiment", "series.csv"), ("experiment", "run_meta.json"),
        ("continuous", "continuous.csv"), ("continuous", "continuous_report.json"),
        ("schedule", "schedule_m1.json"),
    ],
)
def test_an_artifact_that_cannot_be_written_exits_2(tmp_path, command, name):
    # a directory where the command writes its first or its last artifact:
    # the process prints one line and exits 2, with no traceback and nothing
    # on stdout, and the files of the earlier run in --out stay as they were
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    out = tmp_path / "out"
    assert main([command, "--config", str(quick), "--out", str(out)]) == 0
    (out / name).unlink()
    (out / name).mkdir()
    before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    done = fresh_python("-m", "torusobs.cli", command, "--config", str(quick), "--out", str(out))
    assert done.returncode == 2
    assert done.stderr == f"cannot write {out / name}: Is a directory\n"
    assert done.stdout == ""
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before


# the last file each writing command publishes on configs/quick.json, and
# the builder that a failing run makes raise: a schedule CSV's formatter
# partway through its text, any other builder when it is called
LAST_ARTIFACT = {
    "design": ("design_K1.json", artifacts, "_design_payload"),
    "calibrate": ("calibration.json", artifacts, "_calibration_payload"),
    "schedule": ("schedule_m1.json", artifacts, "_schedule_lines"),
    "experiment": ("run_meta.json", artifacts, "_run_meta"),
    "continuous": ("continuous_report.json", experiment_module, "continuous_fields"),
}


def files_of(out):
    """Each file in `out` by name, with its inode, its modification time and
    its bytes: a file replaced or rewritten by the same bytes still changes."""
    return {
        p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
        for p in out.iterdir() if p.is_file()
    }


def failing_builder(builder):
    if builder.__name__ == "_schedule_lines":
        def failing(*args):
            yield next(builder(*args))
            raise ValueError("the builder failed")
    else:
        def failing(*args):
            raise ValueError("the builder failed")
    return failing


def full_disk_at_the_last_file(publish):
    """`publish`, with the disk full partway through its last file's text,
    when every earlier file is staged."""
    def failing(out, files):
        def text():
            yield "partial,"
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return publish(out, {**files, list(files)[-1]: text()})
    return failing


@pytest.mark.parametrize("failure", ["builder", "full-disk", "directory"])
@pytest.mark.parametrize("command", sorted(LAST_ARTIFACT))
def test_a_failed_write_leaves_the_earlier_run(tmp_path, monkeypatch, capsys, command, failure):
    # every command writes through one publisher: its files are staged and
    # moved into place only when all are staged, so a run that fails leaves
    # the files of an earlier run in the same --out untouched, not even
    # replaced by the same bytes, and no temporary file
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    out = tmp_path / "out"
    argv = [command, "--config", str(quick), "--out", str(out)]
    assert main(argv) == 0
    for path in out.iterdir():
        os.utime(path, ns=(0, 0))  # a write would stamp the file with the present
    name, module, builder = LAST_ARTIFACT[command]
    if failure == "builder":
        monkeypatch.setattr(module, builder, failing_builder(getattr(module, builder)))
        code, err = 3, "ValueError: the builder failed\n"
    elif failure == "full-disk":
        monkeypatch.setattr(artifacts, "publish", full_disk_at_the_last_file(artifacts.publish))
        code, err = 2, f"cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    else:
        (out / name).unlink()
        (out / name).mkdir()
        code, err = 2, f"cannot write {out / name}: Is a directory\n"
    before = files_of(out)
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)
    assert files_of(out) == before
    assert not list(out.glob("*.tmp"))


def test_a_rerun_that_cannot_write_a_sidecar_leaves_a_run_that_verifies(tmp_path, capsys):
    # a directory at the seed-7 run's sidecar: the seed-8 rerun exits 2
    # before it moves any file into place, so the seed-7 series.csv,
    # run_meta.json, calibration and designs stay together and verify
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    seed_8 = json.loads(quick.read_text())
    seed_8["datum"]["seed"] = 8
    (tmp_path / "seed_8.json").write_text(json.dumps(seed_8))
    out = tmp_path / "mix"
    assert main(["experiment", "--config", str(quick), "--out", str(out)]) == 0
    (out / "schedule_m1.json").unlink()
    (out / "schedule_m1.json").mkdir()
    capsys.readouterr()
    assert main(["experiment", "--config", str(tmp_path / "seed_8.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cannot write {out / 'schedule_m1.json'}: Is a directory\n"
    (out / "schedule_m1.json").rmdir()
    assert main(["verify", "--config", str(quick), "--out", str(out)]) == 0


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_command_checks_in_a_fresh_process(tmp_path, command):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    if command == "verify":
        assert main(["design", "--config", str(config), "--out", str(out)]) == 0
    done = fresh_python(
        "-m", "torusobs.cli", command, "--config", str(config), "--out", str(out), "--check"
    )
    assert done.returncode == 0, done.stderr
    assert f"verify: ok in {out}" in done.stdout


# the process entry exits with main()'s code after freezing every object
# alive (gc.freeze), which the exit collections then pass over; main()
# alone leaves the collector as it found it
FREEZE_PROBE = (
    "import gc, sys\n"
    "from torusobs import cli\n"
    "if sys.argv.pop(1) == 'entry':\n"
    "    try:\n"
    "        cli.entry()\n"
    "    except SystemExit as exc:\n"
    "        print(exc.code, gc.get_freeze_count())\n"
    "else:\n"
    "    print(cli.main(), gc.get_freeze_count())\n"
)


@pytest.mark.parametrize("how", ["entry", "main"])
@pytest.mark.parametrize(
    "case,code", [("design", 0), ("bad_config", 2), ("no_out", 3)]
)
def test_process_entry_exits_with_mains_code_and_freezes_the_collector(
    tmp_path, how, case, code
):
    config = write_config(tmp_path)
    command, out = "design", tmp_path / "out"
    if case == "bad_config":
        config = write_config(tmp_path, name="bad.json", interval_count=0)
    elif case == "no_out":
        command = "verify"
    argv = [command, "--config", str(config), "--out", str(out)]
    done = fresh_python("-c", FREEZE_PROBE, how, *argv)
    assert done.returncode == 0, done.stderr
    printed, frozen = done.stdout.split()[-2:]
    assert int(printed) == code
    assert (int(frozen) > 0) == (how == "entry")


def test_module_run_writes_the_bytes_of_an_in_process_run(tmp_path):
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    here, there = tmp_path / "main", tmp_path / "module"
    assert main(["experiment", "--config", str(quick), "--out", str(here)]) == 0
    done = fresh_python(
        "-m", "torusobs.cli", "experiment", "--config", str(quick), "--out", str(there)
    )
    assert done.returncode == 0, done.stderr
    names = sorted(path.name for path in here.iterdir())
    assert names == sorted(path.name for path in there.iterdir())
    assert "series.csv" in names
    for name in names:
        assert (here / name).read_bytes() == (there / name).read_bytes(), name


def test_verify_refuses_a_missing_directory(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "does_not_exist"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert f"{out}: no such directory" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_a_directory_without_artifacts(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "empty"
    out.mkdir()
    (out / "notes.txt").write_text("not an artifact\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert f"{out}: no artifact to verify" in capsys.readouterr().err


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
        for t0, t1, j in oracles.switching_slots(schedule, cap)
    ]
    assert "".join(_schedule_lines(schedule, cap)) == "".join(expected)


def test_boundaries_are_the_slot_times_of_micro_interval():
    # the first and the last macros of interval 200, t from 199 to 200: each
    # grid row is the scalar formula bit for bit, whatever block it sits in,
    # and the oracle's slots run from cell to cell
    schedule = prepare_protocol(quick_config(interval_count=200)).schedule(200)
    R, J, tau = schedule.macro_count, schedule.atom_count, schedule.macro_length
    cum = schedule.design.cumulative_weights.tolist()
    for first in (0, R - 3):
        grid = _boundaries(schedule, first, 3)
        assert grid.shape == (3, J + 1)
        for r, row in zip(range(first, first + 3), grid.tolist()):
            assert row == [(schedule.t_start + r * tau) + c * tau for c in cum]
            assert _boundaries(schedule, r, 1).tolist() == [row]
            assert oracles.switching_slots(schedule, J, r * J) == [
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
        monkeypatch.setattr(artifacts, "SCHEDULE_BLOCK", block)
    limit = artifacts.SCHEDULE_BLOCK
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
    # textually, and every cell is the oracle's scalar slot formula, bit for
    # bit; the observer's speed enters as the Lipschitz bound that sets R
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
    slots = oracles.switching_slots(schedule, cap)
    for k, (row, (start, end, atom)) in enumerate(zip(rows, slots)):
        assert row[2] == str(atom) == str(k % J)
        if k % J + 1 < J and k + 1 < len(rows):
            assert row[1] == rows[k + 1][0]
        assert row[:2] == [_fmt(start), _fmt(end)]


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


def test_random_candidates_are_pinned():
    # each coordinate keeps the top 20 bits of one random.Random(seed)
    # draw, candidate by candidate, axis by axis
    config = quick_config(
        space={"dim": 2},
        prototype={"boxes": [[[0, "1/4"], [0, "1/2"]]]},
        design={"method": "solver", "candidate_kind": "random", "candidates": 3,
                "candidate_seed": 0},
    )
    denom = 1 << 20
    assert [g.shift for g in artifacts._candidates(config, None)] == [
        (Fraction(885440, denom), Fraction(794772, denom)),
        (Fraction(441001, denom), Fraction(271493, denom)),
        (Fraction(536110, denom), Fraction(424604, denom)),
    ]


@pytest.mark.parametrize("command", ["design", "experiment"])
def test_a_negative_candidate_seed_exits_2(tmp_path, capsys, command):
    config = write_config(
        tmp_path,
        design={"method": "solver", "candidate_kind": "random", "candidate_seed": -3},
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: config.design.candidate_seed: must be >= 0\n"
    )
    assert not out.exists()


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


def openblas_core_types() -> list[str]:
    """The OpenBLAS kernels this host runs besides its default: Prescott
    (SSE3) on any x86-64 CPU, and Haswell where the CPU has AVX2; none off
    x86-64 or without OpenBLAS."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return []
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return []
    if "openblas" not in blas.lower():
        return []
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        flags = []
    return ["Prescott", *(["Haswell"] if "avx2" in flags else [])]


TORUS_2D = {
    **config_dict(),
    "space": {"dim": 2},
    "prototype": {"boxes": [[[0, "1/2"], [0, "1/2"]]]},
    "model": "wave",
    "sim_window": 4,
    "interval_count": 2,
    "windows": {"kind": "stride", "stride": 1, "cap": 2},
    "datum": {"window": 4, "decay": "power", "decay_power": 2.0, "seed": 0},
}


@pytest.mark.skipif(not openblas_core_types(), reason="needs OpenBLAS on x86-64")
def test_designs_and_calibration_are_the_same_bytes_on_every_blas_kernel(tmp_path):
    # the design residuals add in a fixed order and the calibration is a
    # closed form, so no BLAS kernel reaches their bits, and verify accepts
    # each run's designs under the other's kernel; series.csv and
    # run_meta.json still go through BLAS and are not compared
    config = tmp_path / "torus_2d.json"
    config.write_text(json.dumps(TORUS_2D))

    def run(command, out, core):
        env = {"OPENBLAS_CORETYPE": core} if core else None
        done = fresh_python(
            "-m", "torusobs.cli", command, "--config", str(config), "--out", str(out), env=env
        )
        assert done.returncode == 0, f"{command} under {core or 'default'}:\n{done.stderr}"

    base = tmp_path / "default"
    run("experiment", base, None)
    names = sorted(p.name for p in base.glob("design_K*.json")) + ["calibration.json"]
    assert len(names) == 3
    for core in openblas_core_types():
        other = tmp_path / core
        run("experiment", other, core)
        for name in names:
            assert (other / name).read_bytes() == (base / name).read_bytes(), (core, name)
        run("verify", other, None)
        run("verify", base, core)


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


def change_an_energy(change):
    """An edit of the second stored energy of series.csv and continuous.csv."""
    def edit(out):
        for name, column in (("series.csv", 3), ("continuous.csv", 5)):
            lines = (out / name).read_text().splitlines()
            cells = lines[3].split(",")
            cells[column] = change(cells[column])
            lines[3] = ",".join(cells)
            (out / name).write_text("\n".join(lines) + "\n")
    return edit


@pytest.mark.parametrize(
    "tamper",
    [change_an_energy(lambda cell: repr(1.5 * float(cell))), change_an_energy(lambda cell: "abc")],
    ids=["larger", "unreadable"],
)
def test_verify_finds_the_same_problems_in_any_order_of_the_checks(tmp_path, monkeypatch, tamper):
    # each checker reads the CSV its report is rebuilt from itself, so run
    # backwards, the checks of a tampered run find the same problems
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    out = tmp_path / "out"
    for command in ("experiment", "continuous", "schedule"):
        assert main([command, "--config", str(quick), "--out", str(out)]) == 0
    tamper(out)
    config = RunConfig.from_file(str(quick))
    forward = cli.verify_artifacts(config, out)
    monkeypatch.setattr(checks, "CHECKS", checks.CHECKS[::-1])
    backward = cli.verify_artifacts(config, out)
    assert {p.split(":")[0] for p in forward} == {
        "series.csv", "run_meta.json", "continuous.csv", "continuous_report.json"
    }
    assert sorted(backward) == sorted(forward)


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


def test_verify_names_the_mismatch_of_a_run_written_for_another_torus(tmp_path, capsys):
    # a 2D run's designs and continuous report verified under a 1D config:
    # each is a problem that says why, with no numpy message
    two_d = write_config(
        tmp_path, "run_2d.json",
        space={"dim": 2},
        prototype={"boxes": [[[0, "1/2"], ["1/8", "5/8"]]]},
        model="wave",
        sim_window=2,
        interval_count=3,
        windows={"kind": "explicit", "values": [1, 1, 0]},
        datum={"window": 2, "seed": 3},
    )
    out = tmp_path / "out"
    for command in ("experiment", "continuous"):
        assert main([command, "--config", str(two_d), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    for name in ("design_K0.json", "design_K1.json"):
        assert f"{name}: unreadable (shift dimension does not match the torus)" in err
    assert (
        "continuous_report.json: not rebuilt, since continuous.csv does not hold the "
        "config's 4 speeds of 4 intervals"
    ) in err
    for numpy_text in ("broadcast", "out of bounds", "shape", "axis"):
        assert numpy_text not in err


def test_verify_reports_a_design_field_of_the_wrong_type(tmp_path, capsys):
    # a JSON field of the wrong type makes the file unreadable, not verify crash
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    path = out / "design_K1.json"
    payload = strict_json(path)
    payload["atoms"] = 5
    _write_json(path, payload)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "design_K1.json: unreadable" in capsys.readouterr().err


def test_verify_reports_a_run_meta_field_of_the_wrong_type(tmp_path, capsys):
    # series.csv's checks read run_meta.json's energy too; neither may crash
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    set_meta("energy", value="x")(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "run_meta.json: unreadable" in capsys.readouterr().err


def set_series_cell(row, column, value):
    """Set a cell of data row `row` (from 0) to `value`, or to `value(cell)`."""

    def edit(out):
        path = out / "series.csv"
        lines = path.read_text().splitlines()
        cells = lines[2 + row].split(",")
        cells[column] = value(cells[column]) if callable(value) else value
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


def next_ulp(text):
    return repr(float(np.nextafter(float(text), np.inf)))


def longhand(text):
    # the same float in 18 significant digits: never the writer's repr
    return f"{float(text):.17e}"


META_DIFFERS = "run_meta.json: differs from the config and the recomputed calibration"


def set_json(name, *keys, scale=None, value=None):
    """An edit of the JSON artifact `name` at the nested `keys`."""

    def edit(out):
        path = out / name
        payload = strict_json(path)
        parent = payload
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = parent[keys[-1]] * scale if scale is not None else value
        _write_json(path, payload)

    return edit


def set_meta(key, scale=None, value=None):
    return set_json("run_meta.json", key, scale=scale, value=value)


def set_meta_tail(key, scale=None, value=None):
    return set_json("run_meta.json", "tail_reduction", key, scale=scale, value=value)


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
        (
            set_meta("lower_constant", value=math.nextafter(1.0, math.inf)),
            f"{META_DIFFERS} (lower_constant",
        ),
        (set_meta("upper_constant", scale=3.0), f"{META_DIFFERS} (upper_constant)"),
        (set_meta("energy", scale=1e6), f"{META_DIFFERS} (reference_bound)"),
        (set_meta("reference_bound", scale=3.0), f"{META_DIFFERS} (reference_bound, final_ratio)"),
        (set_meta("final_ratio", value=0.5), f"{META_DIFFERS} (final_ratio)"),
        (set_meta("reference_bound", value=0.0), "run_meta.json: unreadable"),
        (
            set_series_cell(1, 4, next_ulp),
            "series.csv: row 2 is not interval 2 of the config and its energies (A_N)",
        ),
        (
            set_series_cell(1, 3, longhand),
            "series.csv: row 2 is not interval 2 of the config and its energies (Q_m)",
        ),
        (set_meta("extra", value=1), f"{META_DIFFERS} (extra)"),
    ],
    ids=[
        "last-row-dropped", "K_m", "eps_m", "m", "short-row", "final-mean", "interval-count",
        "final-quarter-minimum", "model", "mass", "measure", "duration", "lower-constant",
        "one-ulp-lower-constant", "upper-constant", "energy", "reference-bound", "final-ratio",
        "zero-reference-bound", "one-ulp-A_N", "non-canonical-Q_m", "extra-key",
    ],
)
def test_verify_checks_series_and_run_meta_against_the_config(tmp_path, capsys, edit, message):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    edit(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err


def test_verify_reports_a_run_meta_fault_under_run_meta_only(tmp_path, capsys):
    # run_meta.json is parsed once; series.csv's energy ceiling, which reads
    # its energy, is skipped when it does not parse
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    set_meta("energy", value="x")(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("verify: ") == 1
    assert "verify: run_meta.json: unreadable" in err and "series.csv" not in err


@pytest.mark.parametrize(
    "name", ["design_K1.json", "calibration.json", "run_meta.json", "continuous_report.json"]
)
def test_verify_requires_each_json_artifacts_schema(tmp_path, capsys, name):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    for command in ("experiment", "continuous"):
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
    schema = strict_json(out / name)["schema"]
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
    set_json(name, "schema", value=schema.replace("/", "/9"))(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{name}: schema {schema.replace('/', '/9')!r} is not {schema}" in err


@pytest.mark.parametrize(
    "value", [5, {}, config_dict(interval_count=5)], ids=["number", "empty", "other-config"]
)
def test_verify_requires_run_meta_to_hold_the_loaded_config(tmp_path, capsys, value):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    assert strict_json(out / "run_meta.json")["config"] == config_dict()
    set_meta("config", value=value)(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "run_meta.json: config is not the loaded config" in capsys.readouterr().err


TAIL_DIFFERS = "run_meta.json: tail_reduction does not recompute from series.csv"


def split_bound_as_text(out):
    """run_meta.json's split bound written as a string of its own repr."""
    tail = strict_json(out / "run_meta.json")["tail_reduction"]
    set_meta_tail("split_bound", value=repr(tail["split_bound"]))(out)


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_meta_tail("upper_margin", scale=1.0 + 2**-50), f"{TAIL_DIFFERS} (upper_margin)"),
        (set_meta_tail("upper_ok", value=False), f"{TAIL_DIFFERS} (upper_ok)"),
        (set_meta_tail("tail_mean", scale=1.0 + 2**-50), f"{TAIL_DIFFERS} (tail_mean)"),
        (set_meta_tail("tail_fraction", scale=0.5), f"{TAIL_DIFFERS} (tail_fraction)"),
        (set_meta_tail("reference_bound", scale=2.0), f"{TAIL_DIFFERS} (reference_bound)"),
        (split_bound_as_text, f"{TAIL_DIFFERS} (split_bound)"),
        (set_meta_tail("split_ok", value=1), f"{TAIL_DIFFERS} (split_ok)"),
        (
            set_meta_tail("split_ok", value={"0.5": True, "0.1": True, "0.01": True}),
            f"{TAIL_DIFFERS} (split_ok)",
        ),
        (set_meta_tail("lower_margin", value=0.5), f"{TAIL_DIFFERS} (lower_ok)"),
        (set_meta_tail("lower_ok", value=False), f"{TAIL_DIFFERS} (lower_ok)"),
        (set_meta("tail_reduction", value=5), "run_meta.json: unreadable"),
    ],
    ids=[
        "upper-margin", "upper-ok", "tail-mean", "tail-fraction", "reference-bound",
        "split-bound-text", "split-ok-number", "split-ok-map", "lower-margin", "lower-ok",
        "report",
    ],
)
def test_verify_recomputes_the_tail_reduction_report(tmp_path, capsys, edit, message):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    edit(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err and "verify: series.csv" not in err


@pytest.mark.parametrize(
    "flag, fields",
    [("lower_ok", {"lower_margin": 0.5, "lower_ok": False}), ("split_ok", {"split_ok": False})],
    ids=["lower_ok", "split_ok"],
)
def test_verify_fails_a_consistent_but_false_flag(tmp_path, capsys, flag, fields):
    # a false flag that recomputes (a margin below 1 with its false flag, or
    # a false split verdict) is still a problem, as it is in experiment's
    # exit code
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    for key, value in fields.items():
        set_meta_tail(key, value=value)(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"run_meta.json: tail_reduction.{flag} is false" in err
    assert TAIL_DIFFERS not in err


@pytest.mark.parametrize("flag", ["upper_ok", "lower_ok", "split_ok"])
def test_experiment_and_verify_both_refuse_a_false_tail_flag(tmp_path, capsys, monkeypatch, flag):
    from torusobs import experiment

    check = experiment.tail_reduction_check
    monkeypatch.setattr(
        experiment, "tail_reduction_check", lambda series: {**check(series), flag: False}
    )
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 3
    assert "tail-reduction hypotheses FAILED" in capsys.readouterr().err
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "run_meta.json: tail_reduction" in capsys.readouterr().err


def test_verify_reports_an_old_run_meta_by_its_schema(tmp_path, capsys):
    # a torusobs-run/1 file keyed its split fields by the etas; it is not
    # rebuilt, and its schema is the one problem named
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    path = out / "run_meta.json"
    payload = strict_json(path)
    tail = payload["tail_reduction"]
    bound = tail.pop("split_bound")
    tail.update(
        etas=[0.5, 0.1, 0.01],
        split_ok={"0.5": True, "0.1": True, "0.01": True},
        eta_bounds={"0.5": bound, "0.1": bound, "0.01": bound},
        best_bound=bound,
    )
    payload["schema"] = "torusobs-run/1"
    _write_json(path, payload)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "verify: run_meta.json: schema 'torusobs-run/1' is not torusobs-run/2\n"


DESIGN_DIFFERS = "design_K1.json: differs from the design its atoms rebuild"


@pytest.mark.parametrize(
    "edit, message",
    [
        (set_json("design_K1.json", "cutoff", value="1"), f"{DESIGN_DIFFERS} (cutoff)"),
        (set_json("design_K1.json", "measure", value="0.25"), f"{DESIGN_DIFFERS} (measure)"),
        (set_json("design_K1.json", "residual", value="0.0"), f"{DESIGN_DIFFERS} (residual)"),
        (
            set_json("design_K1.json", "atoms", 0, "weight", value="0.2"),
            f"{DESIGN_DIFFERS} (atoms)",
        ),
        (set_json("design_K1.json", "extra", value=1), f"{DESIGN_DIFFERS} (extra)"),
        (
            set_json("design_K1.json", "atoms", 0, "shift", 0, value="1/0"),
            "design_K1.json: unreadable (",
        ),
    ],
    ids=[
        "text-cutoff", "text-measure", "text-residual", "text-weight", "extra-key",
        "zero-division",
    ],
)
def test_verify_rebuilds_a_design_from_its_atoms(tmp_path, capsys, edit, message):
    # numbers as JSON text parse to the same design, and a shift of 1/0
    # divides by zero: neither may pass, nor stop verify with a traceback
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    edit(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            set_json("design_K1.json", "matrix_residual", scale=1.0 + 2**-50),
            f"{DESIGN_DIFFERS} (matrix_residual)",
        ),
        (
            set_json("design_K1.json", "verification", value={"trials": 100, "seed": 0}),
            f"{DESIGN_DIFFERS} (verification)",
        ),
    ],
    ids=["matrix-residual", "verification"],
)
def test_verify_checks_a_design_files_verification(tmp_path, capsys, edit, message):
    # the matrix residual is recomputed exactly, and the random-draw
    # verification of schema 1 is no key of a design file
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    edit(out)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err


def test_verify_refuses_a_schema_1_design_file(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    path = out / "design_K1.json"
    payload = strict_json(path)
    residual = payload.pop("matrix_residual")
    payload["schema"] = "torusobs-design/1"
    payload["verification"] = {
        "matrix_residual": residual, "max_scalar_deviation": 0.0, "seed": 0, "trials": 100,
    }
    _write_json(path, payload)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "design_K1.json: schema 'torusobs-design/1' is not torusobs-design/2" in err


@pytest.mark.parametrize(
    "run, edit, message",
    [
        (
            "continuous",
            set_json("continuous_report.json", "certified_factors", "10000.0", scale=0.5),
            "continuous_report.json: certified_factors do not recompute from the rebuilt paths",
        ),
        (
            "continuous",
            set_json("continuous_report.json", "certified_factors", value={}),
            "continuous_report.json: certified_factors do not recompute from the rebuilt paths",
        ),
        (
            "continuous",
            set_json("continuous_report.json", "realized_ok", value=False),
            "continuous_report.json: realized_ok does not agree with realized_margin",
        ),
        (
            "continuous",
            set_json("continuous_report.json", "extra", value=1),
            "continuous_report.json: differs from the rebuilt report (extra)",
        ),
        (
            # no speed of the quick config certifies a positive factor
            "quick",
            set_json("continuous_report.json", "realized_margin", value=5.0),
            "continuous_report.json: realized_margin 5.0 where no rebuilt path certifies",
        ),
    ],
    ids=["factor", "factors", "realized-ok", "extra-key", "margin-without-factor"],
)
def test_verify_recomputes_the_continuous_certificates(tmp_path, capsys, run, edit, message):
    config, out = continuous_run(tmp_path) if run == "continuous" else quick_run(tmp_path)
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
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


def quick_run(tmp_path):
    """`experiment` and `continuous` on the committed quick config."""
    out = tmp_path / "out"
    quick = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    for command in ("experiment", "continuous"):
        assert main([command, "--config", str(quick), "--out", str(out)]) == 0
    return quick, out


def test_library_return_values_are_the_artifacts(tmp_path):
    # the tail and continuous reports the library returns are the payloads
    # the commands write, not copies of them
    from torusobs.experiment import continuous_protocol_delta, run_protocol, tail_reduction_check

    quick, out = quick_run(tmp_path)
    config = torusobs.RunConfig.from_file(quick)
    tail = tail_reduction_check(run_protocol(config))
    assert json.loads(json.dumps(tail)) == strict_json(out / "run_meta.json")["tail_reduction"]

    payload = continuous_report(config, continuous_protocol_delta(config, config.schedule.speeds))
    report = strict_json(out / "continuous_report.json")
    assert report.pop("schema") == "torusobs-continuous/2"
    assert json.loads(json.dumps(payload)) == report


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
        (3, "running_mean", next_ulp),
    ],
    ids=["speed", "interval", "window", "macro-count", "certified-loss", "one-ulp-mean"],
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


@pytest.mark.parametrize("name", ["series.csv", "continuous.csv"])
def test_verify_refuses_a_negative_stored_energy(tmp_path, capsys, name):
    # an energy is a sum of squares: one check refuses a negative one in
    # either CSV, though the running means beside it are recomputed to
    # match; in continuous.csv, whose report's final mean is recomputed
    # too, it is the only problem
    from torusobs.experiment import running_means

    quick, out = quick_run(tmp_path)
    path = out / name
    energy, mean = (3, 4) if name == "series.csv" else (5, 6)
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    run = rows if name == "series.csv" else [row for row in rows if row[0] == "10.0"]
    run[0][energy] = "-0.5"
    for row, value in zip(run, running_means([float(row[energy]) for row in run]).tolist()):
        row[mean] = _fmt(value)
    path.write_text("\n".join(lines[:2] + [",".join(row) for row in rows]) + "\n")
    if name == "continuous.csv":
        report = strict_json(out / "continuous_report.json")
        report["final_means"]["10.0"] = float(run[-1][mean])
        _write_json(out / "continuous_report.json", report)
    assert main(["verify", "--config", str(quick), "--out", str(out)]) == 3
    problems = [line for line in capsys.readouterr().err.splitlines() if line]
    assert f"verify: {name}: negative interval energy" in problems
    if name == "continuous.csv":
        assert problems == ["verify: continuous.csv: negative interval energy"]


def test_verify_requires_the_report_beside_continuous_csv(tmp_path, capsys):
    config, out = continuous_run(tmp_path)
    (out / "continuous_report.json").unlink()
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert "continuous.csv: no continuous_report.json beside it" in capsys.readouterr().err


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
        (lambda cal: cal.update(lower=math.nextafter(cal["lower"], math.inf)), "lower"),
        (set_mode_row(1, "gram_min", scale=0.5), "mode_table"),
        (set_mode_row(3, "gram_max", scale=1.0 + 1e-9), "mode_table"),
        (set_mode_row(2, "frequency", value=1.0), "mode_table"),
    ],
    ids=["model", "mass", "duration", "lower", "lower-ulp", "gram-min", "gram-max", "frequency"],
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
    "edit, columns",
    [(next_atom, "atom"), (shift_moved, "shift_0"), (extra_field, "shift_0")],
    ids=["atom", "shift", "extra-field"],
)
def test_verify_compares_every_column_of_the_schedule_csv(tmp_path, capsys, edit, columns):
    # the time columns stay as written: only the cell the edit touches
    # differs, and is named; a cell past the header's last is part of it
    config, out, path = late_schedule(tmp_path)
    lines = path.read_text().splitlines()
    cells = lines[2 + 4099].split(",")
    edit(cells)
    lines[2 + 4099] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 3
    assert (
        f"schedule_m200.csv: row 4100 differs from the rebuilt schedule ({columns})\n"
        in capsys.readouterr().err
    )


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
    monkeypatch.setattr(artifacts, "SCHEDULE_BLOCK", block)
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
        ("extra", 1, "schedule_m200.json: summary differs"),
    ],
    ids=[
        "certified-loss", "macro-count", "macro-length", "atom-shift", "atom-weight",
        "interval-past-the-run", "interval-as-text", "extra-key",
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
