"""Benchmark of the torusobs command line, per command and per layer.

Usage (from any directory):

    python3 perfbench/run.py --workload desk_1d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each workload runs `torusobs design`, `experiment`, `verify` (on the
directory `experiment` wrote) and `continuous`, each in a fresh
`python3 -m torusobs.cli` process, on a config generated from the workload's
own config in perfbench/configs with the seed written into `datum.seed`
and `design.candidate_seed`.  The command sequence repeats while another
repetition fits in --seconds (at least three times); every repetition must
exit 0 everywhere and write byte-identical artifacts.

--trace 0 reports the end-to-end metrics: the mean wall time of each
command and the median set-up time, both relative to a reference task timed
in the same run, the largest child max-RSS, and the correct digits of
sampled Q_m against oracle.py.  --trace 1 runs tracer.py instead and
reports per-layer metrics (see tracer.LAYERS).  Metric names and units come
from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The program is imported from
src/ next to this directory, never from an installed copy; without it the
benchmark exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from tracer import LAYERS  # noqa: E402

# command -> (artifact directory inside a repetition, artifact that must exist)
COMMANDS = {
    "design": ("design", "design_K*.json"),
    "experiment": ("experiment", "series.csv"),
    "verify": ("experiment", "series.csv"),
    "continuous": ("continuous", "continuous.csv"),
}
ORACLE_SAMPLE = 16
MIN_REPETITIONS = 3

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# name -> overrides of perfbench/configs/<name>.json for the --tiny smoke size
TINY = {
    "desk_1d": {"interval_count": 6, "sim_window": 3, "datum": {"window": 3},
                "windows": {"kind": "stride", "stride": 3, "cap": 2},
                "design": {"cutoff": 2, "candidates": 48},
                "schedule": {"speeds": [1000.0], "emit_intervals": [1, 6]}},
    "torus_2d": {"sim_window": 2, "datum": {"window": 2},
                 "windows": {"kind": "stride", "stride": 1, "cap": 1}},
}

# A fixed task that does not touch torusobs: interpreter start, numpy import,
# small complex BLAS calls and a Python loop, like the commands themselves.
# On shared virtual machines host load can drift by tens of percent within
# minutes and slow every process alike, so command times are reported in
# units of this task's mean time within the same run.  Means, not medians:
# short runs of this task take one of two distinct times depending on host
# load, and a median of a few of them jumps between the two.  Set-up time is
# reported in seconds at a fixed speed: each set-up probe is divided by the
# reference run just before it and multiplied by REFERENCE_S, the reference
# task's typical time on the baseline machine (see README.md).
REFERENCE_S = 0.28
REFERENCE = """
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
total = 0.0
for _ in range(2000):
    total += float(np.real(np.vdot(a[0], a @ a[1])))
counts = {}
for i in range(200000):
    counts[i % 997] = counts.get(i % 997, 0) + i
"""

PROBE = (
    "import sys, torusobs, torusobs.cli; "
    "torusobs.cli.RunConfig.from_file(sys.argv[1]); print(torusobs.__file__)"
)


def child_env() -> dict:
    """One BLAS thread per child, and the program from this checkout only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def environment() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"{blas.get('name')} {blas.get('version')}, nproc {len(os.sched_getaffinity(0))}, "
            f"load {load}")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, broken set-up)."""


def run_child(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one process; return (exit code, wall seconds, max RSS in MB)."""
    with log.open("ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def merged(base: dict, overrides: dict) -> dict:
    out = dict(base)
    for key, value in overrides.items():
        out[key] = merged(base.get(key, {}), value) if isinstance(value, dict) else value
    return out


def write_config(name: str, seed: int, tiny: bool, where: Path) -> Path:
    """The workload config with the seed in it: all the program sees."""
    config = json.loads((HERE / "configs" / f"{name}.json").read_text())
    if tiny:
        config = merged(config, TINY[name])
    config = merged(config, {"datum": {"seed": seed}, "design": {"candidate_seed": seed}})
    path = where / f"{name}.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def probe_setup(config: Path, log: Path) -> float:
    """Seconds for a fresh interpreter to import torusobs.cli and load the
    config; fails unless torusobs comes from this checkout."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", PROBE, str(config)], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        log.write_text(done.stdout + done.stderr)
        raise BenchmarkError(f"torusobs does not load from {SRC}:\n{done.stderr}")
    imported = Path(done.stdout.strip().splitlines()[-1]).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchmarkError(f"torusobs was imported from {imported}, not {SRC}")
    return seconds


def repetition(config: Path, where: Path) -> dict:
    """Run the command sequence once in fresh processes.  Before each command
    run the reference task and then one set-up probe."""
    where.mkdir(parents=True)
    log = where / "commands.log"
    times, reference, setup, rss, problems = {}, [], [], [], []
    for command, (subdir, expected) in COMMANDS.items():
        out = where / subdir
        code, seconds, _ = run_child([sys.executable, "-c", REFERENCE], log)
        if code != 0:
            raise BenchmarkError(f"the reference task exited {code}")
        reference.append(seconds)
        setup.append(probe_setup(config, where / "setup.log"))
        argv = [sys.executable, "-m", "torusobs.cli", command,
                "--config", str(config), "--out", str(out)]
        code, seconds, peak = run_child(argv, log)
        times[command] = seconds
        rss.append(peak)
        if code != 0:
            problems.append(f"{command} exited {code}")
        elif not any(out.glob(expected)):
            problems.append(f"{command} wrote no {expected}")
    if problems:
        problems += log.read_text(errors="replace").splitlines()[-5:]
    log.unlink()
    return {"times": times, "reference": reference, "setup": setup, "rss": max(rss),
            "problems": problems, "digest": digest(where)}


def oracle_error(config: Path, experiment_dir: Path, seed: int, log: Path) -> dict:
    series = experiment_dir / "series.csv"
    done = subprocess.run(
        [sys.executable, str(HERE / "oracle.py"), str(config), str(series),
         str(experiment_dir), str(seed), str(ORACLE_SAMPLE)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True)
    if done.returncode != 0:
        log.write_text(done.stdout + done.stderr)
        raise BenchmarkError(f"oracle failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_run(name: str, seed: int, seconds: float, tiny: bool, work: Path) -> dict:
    config = write_config(name, seed, tiny, work)
    reps, durations, problems = [], [], []
    kept = None
    start = time.perf_counter()
    while (len(reps) < MIN_REPETITIONS
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        where = work / f"rep{len(reps)}"
        began = time.perf_counter()
        rep = repetition(config, where)
        durations.append(time.perf_counter() - began)
        if reps and rep["digest"] != reps[0]["digest"]:
            rep["problems"].append("artifacts differ from the first repetition")
        problems += [f"repetition {len(reps)}: {p}" for p in rep["problems"]]
        reps.append(rep)
        if kept is None and (where / "experiment" / "series.csv").exists():
            kept = where
        else:
            shutil.rmtree(where)
    oracle = (oracle_error(config, kept / "experiment", seed, work / "oracle.log")
              if kept is not None else {"rel_err": 1.0, "intervals": []})
    failed = sum(1 for rep in reps if rep["problems"])
    reference = [t for rep in reps for t in rep["reference"]]
    unit = statistics.fmean(reference)
    setup = [t for rep in reps for t in rep["setup"]]
    setup_ref = statistics.median(s / r for rep in reps
                                  for s, r in zip(rep["setup"], rep["reference"]))
    seconds = {c: statistics.fmean(r["times"][c] for r in reps) for c in COMMANDS}
    seconds["setup"] = statistics.median(setup)
    values = {
        "setup_s": (setup_ref * REFERENCE_S, len(setup)),
        **{f"{c}_ref": (seconds[c] / unit, len(reps)) for c in COMMANDS},
        "peak_rss_mb": (max(r["rss"] for r in reps), len(reps)),
        "oracle_digits": (correct_digits(oracle["rel_err"]), len(oracle["intervals"])),
    }
    return {"attempted": len(reps), "failed": failed, "problems": problems,
            "values": values, "seconds": seconds, "reference": (unit, len(reference)),
            "oracle": oracle}


def correct_digits(rel_err: float) -> float:
    """-log10 of the relative error; an exact match counts as the 53 bits of
    a double.  Unlike the error itself, which is rounding noise that varies
    by factors from seed to seed, the digit count is steady across seeds."""
    return -math.log10(max(rel_err, 2.0**-53))


def artifact_counts(directory: Path) -> dict[str, int]:
    files = [p for p in directory.rglob("*") if p.is_file()]
    rows = 0
    for path in files:
        if path.suffix == ".csv":
            lines = path.read_bytes().splitlines()
            rows += sum(1 for line in lines if line and not line.startswith(b"#")) - 1
    return {"cli.files_written": len(files),
            "cli.bytes_written": sum(p.stat().st_size for p in files),
            "cli.rows_written": rows}


def traced_run(name: str, seed: int, tiny: bool, work: Path) -> dict:
    config = write_config(name, seed, tiny, work)
    probe_setup(config, work / "setup.log")  # fails early without the program

    def sequence(where: Path) -> list[list[str]]:
        return [[command, str(config), str(where / subdir)]
                for command, (subdir, _) in COMMANDS.items()]

    spec = {"warmup": sequence(work / "warmup"), "untraced": sequence(work / "untraced"),
            "traced": sequence(work / "traced"), "result": str(work / "trace.json")}
    (work / "spec.json").write_text(json.dumps(spec))
    code, _, _ = run_child([sys.executable, str(HERE / "tracer.py"), str(work / "spec.json")],
                           work / "tracer.log")
    if code != 0:
        raise BenchmarkError(f"tracer exited {code}: {(work / 'tracer.log').read_text()}")
    result = json.loads((work / "trace.json").read_text())
    problems = [f"{label} {r['command']} exited {r['code']}"
                for label in ("warmup", "untraced", "traced") for r in result[label]
                if r["code"] != 0]
    identical = digest(work / "traced") == digest(work / "untraced")
    if not identical:
        problems.append("traced artifacts differ from the untraced run's")
    untraced_ok = all(r["code"] == 0 for r in result["warmup"] + result["untraced"])
    traced_ok = identical and all(r["code"] == 0 for r in result["traced"])
    metrics = result["metrics"]
    metrics.update(artifact_counts(work / "traced"))
    metrics["trace.overhead_frac"] = (sum(r["seconds"] for r in result["traced"])
                                      / sum(r["seconds"] for r in result["untraced"]) - 1.0)
    keep = WORK / f"trace_{name}_seed{seed}.json"
    shutil.copyfile(work / "trace.json", keep)
    return {"attempted": 2, "failed": (not untraced_ok) + (not traced_ok),
            "problems": problems, "metrics": metrics, "missing": result["missing"],
            "hook_errors": result["hook_errors"], "spans_file": keep}


def report_timed(name: str, seed: int, run: dict) -> dict:
    print(f"workload {name}  seed {seed}  repetitions {run['attempted']}")
    print(f"  {'metric':<16}{'unit':<6}{'value':>14}  n")
    metrics = {}
    for metric, unit in END_TO_END.items():
        value, count = run["values"][metric]
        print(f"  {metric:<16}{unit:<6}{value:>14.6g}  {count}")
        metrics[metric] = {"value": value, "unit": unit}
    reference, count = run["reference"]
    print(f"  {'reference_s':<16}{'s':<6}{reference:>14.6g}  {count}")
    for command, value in run["seconds"].items():
        label, n = (("setup_wall_s", count) if command == "setup"
                    else (command + "_s", run["attempted"]))
        print(f"  {label:<16}{'s':<6}{value:>14.6g}  {n}")
    print(f"  {'oracle_rel_err':<16}{'1':<6}{run['oracle']['rel_err']:>14.6g}  "
          f"{len(run['oracle']['intervals'])}")
    rate = run["failed"] / run["attempted"]
    print(f"  {'failure_rate':<16}{'1':<6}{rate:>14.6g}  {run['attempted']}")
    for row in run["oracle"]["intervals"]:
        print(f"  oracle interval {row['interval']:>4} K={row['window']} "
              f"R={row['macro_count']:<8} rel_err {row['rel_err']:.3e}")
    return metrics


def report_traced(name: str, seed: int, run: dict) -> dict:
    print(f"workload {name}  seed {seed}  traced run (spans in {run['spans_file']})")
    for metric, value in sorted(run["metrics"].items()):
        unit = PER_LAYER.get(metric, "s" if metric.endswith("_s") else "count")
        print(f"  {metric:<44}{unit:<6}{value:>16.6g}")
    # a counter whose function is never called (or no longer exists) reads 0
    metrics = {m: {"value": run["metrics"].get(m, 0), "unit": unit}
               for m, unit in PER_LAYER.items()}
    if run["missing"]:
        print(f"  skipped, not found in the program: {', '.join(run['missing'])}")
    for traced, error in run["hook_errors"].items():
        print(f"  counts unavailable for {traced}: {error}")
    return metrics


def print_layers() -> None:
    print("layer       | metrics | should move | on")
    for layer, metrics, moves, where in LAYERS:
        print(f"{layer:<11} | {metrics} | {moves} | {where}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a smoke-test size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "torusobs" / "cli.py").is_file():
        print(f"no torusobs sources under {SRC}", file=sys.stderr)
        return 1

    print(f"environment: {environment()}")
    names = list(WHY) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            print(f"{name}: {WHY[name]}")
            where = work / name
            where.mkdir(parents=True)
            if args.trace:
                run = traced_run(name, args.seed, args.tiny, where)
                metrics = report_traced(name, args.seed, run)
            else:
                run = timed_run(name, args.seed, args.seconds, args.tiny, where)
                metrics = report_timed(name, args.seed, run)
            for problem in run["problems"]:
                print(f"  FAILED {problem}")
            results[name] = (run["attempted"], run["failed"], metrics)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        print_layers()

    attempted = sum(r[0] for r in results.values())
    failed = sum(r[1] for r in results.values())
    metrics = (results[names[0]][2] if len(names) == 1
               else {f"{n}.{m}": v for n, r in results.items() for m, v in r[2].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
