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

All artifacts are bitwise-reproducible from (config, seed) (`artifacts`).
Exit codes: 0 ok, 2 config error or an --out that cannot be made a
directory or written, 3 numeric/infeasibility failure.

This module is the entry only: the parser, `main`, `entry` and one
function per command, which builds its artifacts' map and hands it to
`artifacts.publish`.  The formats and builders live in `artifacts`,
`verify`'s checks in `checks`, and each command imports what it calls when
it runs: a writing command without --check no `checks`, `verify` no
`evolve`, and `--help` or a config error no numpy.  No module imports
`torusobs.cli`: `python -m torusobs.cli` runs this file as `__main__`, and
an import would compile it again.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

# Only the config is imported here, and it needs no numpy: each command
# imports its own code (`artifacts`, `checks` and the modules it calls, which
# bring numpy) when it runs.
from .config import ConfigError, NumericError, RunConfig


def cmd_design(config: RunConfig, out: Path, args) -> int:
    from .artifacts import _build_design, _design_files, publish
    from .spectral import build_basis

    basis = build_basis(config.space(), config.design.cutoff)
    prototype = config.prototype()
    design = _build_design(config, basis, prototype)
    [path] = publish(out, _design_files(design, basis, prototype))
    print(
        f"design cutoff={config.design.cutoff} atoms={len(design)} "
        f"residual={design.residual:.3e} -> {path}"
    )
    return 0


def cmd_calibrate(config: RunConfig, out: Path, args) -> int:
    from .artifacts import _calibration, _calibration_files, publish

    constants = _calibration(config)
    [path] = publish(out, _calibration_files(constants))
    print(
        f"calibration model={config.model} lower={constants.lower!r} "
        f"upper={constants.upper!r} -> {path}"
    )
    return 0


def cmd_schedule(config: RunConfig, out: Path, args) -> int:
    from .artifacts import _schedule_files, publish
    from .experiment import prepare_protocol

    index = config.schedule.interval
    path, _ = publish(out, _schedule_files(config, index, prepare_protocol(config).schedule(index)))
    print(f"schedule interval={index} -> {path}")
    return 0


def cmd_experiment(config: RunConfig, out: Path, args) -> int:
    from .artifacts import _experiment_files, publish
    from .experiment import TAIL_FLAGS, run_protocol, tail_reduction_check

    series = run_protocol(config)
    tail = tail_reduction_check(series)
    files, meta = _experiment_files(config, series, tail)
    publish(out, files)
    print(f"final running-mean ratio: {meta['final_ratio']!r}")
    if not all(tail[flag] for flag in TAIL_FLAGS):
        print("tail-reduction hypotheses FAILED", file=sys.stderr)
        return 3
    return 0


def cmd_continuous(config: RunConfig, out: Path, args) -> int:
    from .artifacts import _continuous_files, publish
    from .experiment import continuous_protocol_delta

    run = continuous_protocol_delta(config, config.schedule.speeds)
    files, report = _continuous_files(config, run)
    publish(out, files)
    print(
        f"continuous speeds={report['speeds']} "
        f"monotone={report['monotone_ok']} realized={report['realized_ok']}"
    )
    if not (report["monotone_ok"] and report["realized_ok"]):
        print("continuous-path certificates FAILED", file=sys.stderr)
        return 3
    return 0


def verify_artifacts(config: RunConfig, out: Path) -> list[str]:
    """Revalidate every recognized artifact in `out` against the config.

    Each checker of `checks.CHECKS` applies its artifact's builder to what
    it rebuilds from the config and to the energies the artifacts store: a
    CSV must be its writer's text, a JSON file its payload key for key.  The
    stored energies and the tail report's split fields are taken on trust;
    a false verdict fails.  A file that cannot be read, or holds a field of
    the wrong type, is reported as unreadable, under its own name only.  A
    missing directory, or one holding none of these artifacts, is a
    problem: there is nothing to vouch for.
    """
    from .checks import CHECKS, UNREADABLE, _Rebuilt

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
    problems = verify_artifacts(config, out)
    for p in problems:
        print(f"verify: {p}", file=sys.stderr)
    print(f"verify: {'ok' if not problems else f'{len(problems)} problem(s)'} in {out}")
    return 0 if not problems else 3


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
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at --out or on its way
            print(f"cannot create output directory {out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    try:
        code = COMMANDS[args.command](config, out, args)
    except (NumericError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # an artifact that cannot be written
        print(f"cannot write {exc.filename or out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    if code == 0 and args.check and args.command != "verify":
        return cmd_verify(config, out, args)
    return code


def entry() -> None:
    """The process entry of `python -m torusobs.cli` and the `torusobs`
    script: `main()`, then exit with its code.

    Interpreter finalization runs several full collections over every
    object alive at exit, some 20,000 after numpy's import.  The command
    has returned and closed its files by then, so the entry first freezes
    them all (`gc.freeze`) and the exit collections pass them over.
    `main()` itself leaves the collector alone for in-process callers.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
