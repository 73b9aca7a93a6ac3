"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `[criterion N] PASS/FAIL - detail` line (with
capture suspended, so it lands on the real stdout) and then asserts, so a
plain `pytest` run doubles as the acceptance report.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from torusobs import (
    ConvexDesign,
    DesignAtom,
    GroupElement,
    PrototypeSet,
    RunConfig,
    TorusSpace,
    build_basis,
    build_continuous,
    build_switching,
    calibration,
    caratheodory_reduce,
    conserved_energy,
    design_gammas,
    equispaced_design,
    gamma_matrix,
    interval_output_energy,
    moment_matrix,
    moment_residual,
    path_observation_energy,
    random_datum,
    run_protocol,
    solve_design,
    tail_reduction_check,
    trajectory_lipschitz_bound,
)
from torusobs.evolve import phase_integral
from torusobs.experiment import reference_bound, running_means

import oracles

T1 = TorusSpace(1)
T2 = TorusSpace(2)
MODELS = (("wave", 0.0), ("klein_gordon", 1.0), ("schrodinger", 0.0))
QUARTER = PrototypeSet.from_boxes(T1, [(0, "1/4")])


def report(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {number}] {status} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def seeded_datum(model, mass, basis, window, seed):
    return random_datum(
        model, basis, window, seed=seed, mass=mass if mass else None
    )


def test_criterion_1_equispaced_design_is_exact(capsys):
    worst = 0.0
    for cutoff in (1, 2, 3):
        basis = build_basis(T1, cutoff)
        for measure in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
            w = PrototypeSet.from_boxes(T1, [(0, measure)])
            design = equispaced_design(basis, w)
            residual = moment_residual(
                design.weights, design_gammas(design, basis, w), float(measure)
            )
            worst = max(worst, residual)
    report(
        capsys,
        1,
        worst <= 1e-12,
        f"worst equispaced moment residual {worst:.3e} (tol 1e-12) "
        "over K in {1,2,3} x L in {0.1,0.25,0.5}",
    )


def test_criterion_2_caratheodory_cap(capsys):
    basis = build_basis(T1, 1)
    rng = np.random.default_rng(5)
    candidates = [
        GroupElement.of(Fraction(int(v), 2**20))
        for v in rng.integers(0, 2**20, size=64)
    ]
    design = solve_design(basis, QUARTER, candidates, tol=1e-8)
    # a fat exact design: the union of ten shifted 5-point grids
    rng = np.random.default_rng(41)
    union = []
    for _ in range(10):
        offset = Fraction(int(rng.integers(0, 1024)), 1024)
        for j in range(5):
            union.append(DesignAtom(GroupElement.of(offset + Fraction(j, 5)), 1.0 / 50))
    fat = ConvexDesign(atoms=tuple(union), measure=0.25, cutoff=1, residual=0.0)

    cap = basis.dim**2 + 1
    moment_cap = (4 * basis.cutoff + 1) ** basis.space.dim
    counts, drift = [], 0.0
    for start in (design, fat):
        gammas = design_gammas(start, basis, QUARTER)
        reduced = caratheodory_reduce(start, basis, QUARTER)
        before = moment_matrix(start.weights, gammas)
        after = moment_matrix(
            reduced.weights, design_gammas(reduced, basis, QUARTER)
        )
        drift = max(drift, float(np.linalg.norm(after - before)))
        counts.append((len(start), len(reduced)))
    ok = all(n <= moment_cap <= cap for _, n in counts) and drift <= 1e-11
    (solver_in, solver_out), (fat_in, fat_out) = counts
    report(
        capsys,
        2,
        ok,
        f"solver support {solver_in} -> {solver_out} atoms, union of shifted "
        f"grids {fat_in} -> {fat_out} atoms (cap (4K+1)^d = {moment_cap}, "
        f"dim^2+1 = {cap}), moment drift {drift:.3e} (tol 1e-11)",
    )


def test_criterion_3_switching_realization_band(capsys):
    eps, duration = 0.01, 1.0
    floor = (float(QUARTER.measure_exact) - eps) * (1.0 - 1e-9)
    worst = math.inf
    for model, mass in MODELS:
        for cutoff in (1, 2):
            basis = build_basis(T1, cutoff)
            design = equispaced_design(basis, QUARTER)
            rate = trajectory_lipschitz_bound(basis, model, mass, duration)
            schedule = build_switching(design, (0.0, duration), rate, eps)
            gamma0 = gamma_matrix(basis, QUARTER, GroupElement.of(0))
            for seed in range(100):
                datum = seeded_datum(model, mass, basis, cutoff, seed)
                observed = path_observation_energy(datum, schedule, gamma0)
                full = interval_output_energy(datum, 0.0, duration)
                worst = min(worst, observed / full)
    report(
        capsys,
        3,
        worst >= floor,
        f"600 seeded data (100 x K in {{1,2}} x 3 models): worst "
        f"observed/full ratio {worst:.6f} >= floor {floor:.6f}",
    )


def test_criterion_4_kinetic_calibration_formula(capsys):
    duration = 1.0
    worst = 0.0
    for model, mass in (("wave", 0.0), ("klein_gordon", 1.0)):
        basis = build_basis(T1, 8)
        constants = calibration(model, basis, mass, duration)
        table = zip(constants.mode_frequencies, constants.gram_minima, constants.gram_maxima)
        for rho, low, high in table:
            for offset in (0.0, 0.37):
                eigs = np.linalg.eigvalsh(oracles.temporal_gram(rho, offset, duration))
                worst = max(worst, abs(eigs[0] - low), abs(eigs[1] - high))
    report(
        capsys,
        4,
        worst <= 1e-12,
        f"calibration band T0/2 -+ |sin(rho T0)|/(2 rho) vs numeric temporal Gram "
        f"eigenvalues: max deviation {worst:.3e} (tol 1e-12) at offsets 0 and 0.37",
    )


def test_criterion_5_first_order_full_torus_identity(capsys):
    full = PrototypeSet.from_boxes(T1, [(0, 1)])
    basis = build_basis(T1, 3)
    worst = 0.0
    for duration in (1.0, 0.7):
        design = equispaced_design(basis, full)
        rate = trajectory_lipschitz_bound(basis, "schrodinger", 0.0, duration)
        schedule = build_switching(design, (0.0, duration), rate, 0.5)
        gamma0 = gamma_matrix(basis, full, GroupElement.of(0))
        datum = random_datum("schrodinger", basis, 3, seed=11)
        observed = path_observation_energy(datum, schedule, gamma0)
        expected = duration * conserved_energy(datum).total
        worst = max(worst, abs(observed - expected) / expected)
    report(
        capsys,
        5,
        worst <= 1e-12,
        f"full-torus first-order energy vs T0*||u0||^2: worst relative "
        f"deviation {worst:.3e} (tol 1e-12) for T0 in {{1.0, 0.7}}",
    )


CESARO_MODELS = (("schrodinger", 0.0), ("wave", 0.0), ("klein_gordon", 1.0))


def cesaro_config(model, mass):
    data = {
        "schema": 1,
        "space": {"dim": 1},
        "prototype": {"boxes": [[0, "1/4"]]},
        "model": model,
        "duration": 1.0,
        "sim_window": 8,
        "interval_count": 200,
        "windows": {"kind": "stride", "stride": 5, "cap": 7},
        "tolerances": {"kind": "harmonic"},
        "datum": {"window": 8, "decay": "power", "decay_power": 2.0, "seed": 0},
    }
    if mass:
        data["mass"] = mass
    return RunConfig.from_dict(data)


@pytest.fixture(scope="module")
def cesaro_runs():
    return {
        model: run_protocol(cesaro_config(model, mass))
        for model, mass in CESARO_MODELS
    }


def test_criterion_6_cesaro_running_mean_trend(cesaro_runs, capsys):
    ok = True
    parts = []
    for model, series in cesaro_runs.items():
        reference = reference_bound(
            series.setup.config.measure, series.constants.lower, series.energy
        )
        means = running_means(series.observed)
        final = means[-1] / reference
        last50 = means[-50:].min() / reference
        ok = ok and final >= 0.95 and last50 >= 0.90
        parts.append(f"{model} final {final:.4f}, min-last-50 {last50:.4f}")
    report(
        capsys,
        6,
        ok,
        "A_N / (L c_T0 E) over 200 intervals: "
        + "; ".join(parts)
        + " (need >= 0.95 final, >= 0.90 min-last-50)",
    )


def test_criterion_7_tail_reduction_hypotheses(cesaro_runs, capsys):
    ok = True
    parts = []
    for model, series in cesaro_runs.items():
        check = tail_reduction_check(series)
        split = all(check["split_ok"].values())
        tail_ok = check["tail_mean"] <= 0.01 * series.energy
        ok = ok and check["upper_ok"] and check["lower_ok"] and split and tail_ok
        parts.append(
            f"{model} upper={check['upper_ok']} lower={check['lower_ok']} "
            f"split={split} tail-mean/E={check['tail_mean'] / series.energy:.2e}"
        )
    report(
        capsys,
        7,
        ok,
        "; ".join(parts) + " (tail Cesaro mean must be <= 0.01 E)",
    )


def test_criterion_8_continuous_loss_ladder(capsys):
    measure, duration = float(QUARTER.measure_exact), 1.0
    basis = build_basis(T1, 1)
    design = equispaced_design(basis, QUARTER)
    gamma0 = gamma_matrix(basis, QUARTER, GroupElement.of(0))
    speeds = (10.0, 100.0, 1000.0, 10000.0)
    ok = True
    parts = []
    for model, mass in MODELS:
        rate = trajectory_lipschitz_bound(basis, model, mass, duration)
        paths = [
            build_continuous(design, (0.0, duration), v, rate) for v in speeds
        ]
        losses = [path.certified_loss for path in paths]
        monotone = all(a > b for a, b in zip(losses, losses[1:]))
        realized = True
        checked = 0
        for path in paths:
            eps = path.certified_loss
            if eps >= measure:
                continue
            floor = (measure - eps) * (1.0 - 1e-9)
            for seed in range(20):
                datum = seeded_datum(model, mass, basis, 1, seed)
                ratio = path_observation_energy(
                    datum, path, gamma0
                ) / interval_output_energy(datum, 0.0, duration)
                realized = realized and ratio >= floor
                checked += 1
        ok = ok and monotone and realized
        parts.append(
            f"{model} eps(V)={'/'.join(f'{x:.3g}' for x in losses)} "
            f"monotone={monotone} realized ok on {checked} data={realized}"
        )
    report(capsys, 8, ok, "; ".join(parts))


def test_criterion_9_closed_forms_match_dense_quadrature(capsys):
    # observation matrices, 1d: random two-piece sets against a Riemann sum
    rng = np.random.default_rng(2026)
    worst_gamma = 0.0
    for _ in range(20):
        lo, hi, lo2 = np.sort(rng.choice(999, size=3, replace=False) + 1)
        w = PrototypeSet.from_boxes(
            T1,
            [
                (0, Fraction(int(lo), 1000)),
                (Fraction(int(hi), 1000), Fraction(int(lo2) + 1, 1000)),
            ],
        )
        g = GroupElement.of(Fraction(int(rng.integers(0, 200)), 200))
        basis = build_basis(T1, int(rng.integers(1, 4)))
        exact = gamma_matrix(basis, w, g).entries
        dense = oracles.riemann_gamma_1d(basis, w, g)
        worst_gamma = max(worst_gamma, float(np.max(np.abs(exact - dense))))

    # observation matrices, 2d: product boxes against Gauss-Legendre
    for _ in range(2):
        a, b = np.sort(rng.choice(31, size=2, replace=False) + 1)
        c, d = np.sort(rng.choice(31, size=2, replace=False) + 1)
        w2 = PrototypeSet.from_boxes(
            T2,
            [
                [
                    (Fraction(int(a), 32), Fraction(int(b), 32)),
                    (Fraction(int(c), 32), Fraction(int(d), 32)),
                ]
            ],
        )
        g2 = GroupElement.of(
            Fraction(int(rng.integers(0, 64)), 64),
            Fraction(int(rng.integers(0, 64)), 64),
        )
        basis2 = build_basis(T2, 1)
        exact2 = gamma_matrix(basis2, w2, g2).entries
        dense2 = oracles.gauss_gamma_2d(basis2, w2, g2)
        worst_gamma = max(worst_gamma, float(np.max(np.abs(exact2 - dense2))))

    # oscillatory time integrals against Simpson's rule
    worst_time = 0.0
    alphas = np.concatenate([[0.0], rng.uniform(-100.0, 100.0, size=24)])
    for alpha in alphas:
        closed = phase_integral(np.array([alpha]), 0.3, 1.7 - 0.3)[0]
        dense = oracles.simpson_phase_integral(float(alpha), 0.3, 1.7)
        worst_time = max(worst_time, abs(closed - dense))

    # observation energies (switching, plain interval, continuous path)
    basis = build_basis(T1, 1)
    design = equispaced_design(basis, QUARTER)
    gammas = [gamma_matrix(basis, QUARTER, s) for s in design.shifts]
    gamma0 = gamma_matrix(basis, QUARTER, GroupElement.of(0))
    for (model, mass), speed in zip(MODELS, (12.0, 9.0, 18.0)):
        rate = trajectory_lipschitz_bound(basis, model, mass, 1.0)
        datum = seeded_datum(model, mass, basis, 1, seed=17)

        schedule = build_switching(design, (0.3, 1.0), rate, 0.24)
        q = path_observation_energy(datum, schedule, gamma0)
        dense = oracles.simpson_schedule_energy(datum, schedule, gammas)
        worst_time = max(worst_time, abs(q - dense) / abs(dense))

        q_full = interval_output_energy(datum, 0.15, 1.3)
        dense_full = oracles.simpson_interval_energy(datum, 0.15, 1.3)
        worst_time = max(worst_time, abs(q_full - dense_full) / abs(dense_full))

        path = build_continuous(design, (0.0, 1.0), speed, rate)
        q_path = path_observation_energy(datum, path, gamma0)
        dense_path = oracles.simpson_path_energy(datum, path, gamma0.entries)
        worst_time = max(worst_time, abs(q_path - dense_path) / abs(dense_path))

    ok = worst_gamma <= 1e-6 and worst_time <= 1e-8
    report(
        capsys,
        9,
        ok,
        f"quadrature oracles: worst matrix-entry gap {worst_gamma:.3e} "
        f"(tol 1e-6), worst time-integral gap {worst_time:.3e} (tol 1e-8)",
    )
