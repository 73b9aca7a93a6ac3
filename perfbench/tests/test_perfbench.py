"""Tests of the benchmark's own code.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", trace, "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "1":  # both workloads run the solver, whose wrapper supplies `history`
        assert result["metrics"]["design.solve_design.iterations"]["value"] > 0


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        ("root", 0.0, 10.0, None, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0),
        ("b", 5.0, 6.0, 0, 0),
        ("threads", 20.0, 30.0, None, 1),
        ("t1", 21.0, 24.0, 4, 1),
        ("t2", 23.0, 25.0, 4, 1),  # overlaps t1: covered once
        ("late", 29.0, 31.0, 4, 1),  # clipped at the parent's end
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 5.0, 3.0, 2.0, 2.0])


def test_tracer_rebinds_every_copy_and_lists_missing_names(monkeypatch):
    from torusobs import cli, design, spectral

    originals = (spectral.gamma_matrix, cli.cmd_design)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("geometry.gone", "torusobs.geometry:no_such_function", True, None),
        ("nowhere.gone", "torusobs.nowhere:f", True, None),
    ])
    t = tracer.Tracer()
    t.install()
    try:
        assert spectral.gamma_matrix is not originals[0]
        assert design.gamma_matrix is spectral.gamma_matrix
        assert cli.COMMANDS["design"] is cli.cmd_design is not originals[1]
    finally:
        t.uninstall()
    assert (spectral.gamma_matrix, cli.COMMANDS["design"]) == originals
    assert t.missing == ["torusobs.geometry:no_such_function", "torusobs.nowhere:f"]


def test_oracle_one_atom_whole_circle_is_the_interval_energy_by_hand():
    # one mode n = 1 with a = 0, b = 1: the output is cos(2 pi t), so the
    # energy over [t0, t0 + T] is T/2 + (sin 4 pi (t0+T) - sin 4 pi t0) / (8 pi)
    t0, duration = Fraction(3, 2), Fraction(3, 10)
    terms = oracle.kinetic_terms([(1,)], np.array([0j]), np.array([1 + 0j]), 0.0)
    value = oracle.switching_energy(terms, [((0, 1),)], t0, duration, 1, 1)
    with mp.workdps(oracle.DIGITS):
        t0m, tm = mp.mpf(3) / 2, mp.mpf(3) / 10
        expected = tm / 2 + (mp.sin(4 * mp.pi * (t0m + tm)) - mp.sin(4 * mp.pi * t0m)) / (8 * mp.pi)
        assert abs(value - expected) < mp.mpf(10) ** -30


def test_oracle_whole_circle_matches_the_full_torus_energy_of_a_datum():
    from torusobs import TorusSpace, build_basis, interval_output_energy, random_datum

    basis = build_basis(TorusSpace(1), 3)
    datum = random_datum("wave", basis, window=3, seed=5)
    terms = oracle.kinetic_terms(basis.modes, datum.a, datum.b, 0.0)
    value = oracle.switching_energy(terms, [((0, 1),)], Fraction(7), Fraction(1), 1, 1)
    program = interval_output_energy(datum, 7.0, 1.0, "time_derivative")
    assert float(abs(value - program) / value) < 1e-12


@mp.workdps(oracle.DIGITS)
def test_oracle_geometric_sum_is_exact_at_integers():
    assert oracle.geometric_sum(mp.mpf(3), 7) == 7
    direct = sum(mp.expjpi(2 * mp.mpf(1) / 3 * r) for r in range(5))
    assert abs(oracle.geometric_sum(mp.mpf(1) / 3, 5) - direct) < mp.mpf(10) ** -35


def test_interval_sample_is_seeded_and_keeps_the_last_interval():
    first = oracle.sample_intervals(200, 4, 16)
    assert first == oracle.sample_intervals(200, 4, 16)
    assert len(first) == 16 and first[-1] == 200 and len(set(first)) == 16
    assert oracle.sample_intervals(3, 0, 16) == [1, 2, 3]
