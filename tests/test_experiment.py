"""End-to-end protocol runs: calibration, Cesaro series, tail reduction,
and the continuous-path rerun."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torusobs import (
    Realization,
    RunConfig,
    WindowExceedsSimulation,
    calibration,
    conserved_energy,
    continuous_protocol_delta,
    run_protocol,
    tail_reduction_check,
)
from torusobs.config import (
    DatumSpec,
    DesignOptions,
    ScheduleOptions,
    ToleranceSchedule,
    WindowSchedule,
)
from torusobs import experiment

TWO_PI = 2.0 * math.pi


def config_dict(**overrides):
    base = {
        "schema": 1,
        "space": {"dim": 1},
        "prototype": {"boxes": [[0, "1/4"]]},
        "model": "schrodinger",
        "duration": 1.0,
        "sim_window": 3,
        "interval_count": 4,
        "windows": {"kind": "stride", "stride": 2, "cap": 2},
        "tolerances": {"kind": "harmonic"},
        "datum": {"window": 3, "decay": "power", "decay_power": 2.0, "seed": 7},
    }
    base.update(overrides)
    return base


def quick_config(**overrides) -> RunConfig:
    return RunConfig.from_dict(config_dict(**overrides))


# ---------------------------------------------------------------- temporal grams


def test_temporal_gram_closed_form():
    got = oracles.temporal_gram(0.0, 0.3, 1.7)
    assert np.array_equal(got, np.array([[0.0, 0.0], [0.0, 1.7]]))

    grid = np.linspace(0.2, 1.2, 20001)
    for rho in (1.0, TWO_PI, 7.3):
        gram = oracles.temporal_gram(rho, 0.2, 1.0)
        s = np.sin(rho * grid)
        c = np.cos(rho * grid)
        dense = np.array(
            [
                [np.trapezoid(s * s, grid), np.trapezoid(s * c, grid)],
                [np.trapezoid(s * c, grid), np.trapezoid(c * c, grid)],
            ]
        )
        assert np.max(np.abs(gram - dense)) <= 1e-8


def single_band(model: str, mass: float, duration: float) -> tuple[float, float, float]:
    """The one calibration row of the constant mode: its frequency is the mass."""
    from torusobs import build_basis, TorusSpace

    constants = calibration(model, build_basis(TorusSpace(1), 0), mass, duration)
    (row,) = zip(constants.mode_frequencies, constants.gram_minima, constants.gram_maxima)
    return row


def test_gram_eigenvalue_band_is_offset_free():
    for mass in (1.0, TWO_PI, 7.3, 100.0):
        rho, lo, hi = single_band("klein_gordon", mass, 1.0)
        for t_start in (0.0, 0.37):
            eigs = np.linalg.eigvalsh(oracles.temporal_gram(rho, t_start, 1.0))
            assert eigs[0] == pytest.approx(lo, abs=1e-12)
            assert eigs[1] == pytest.approx(hi, abs=1e-12)
        assert lo == pytest.approx(0.5 - abs(math.sin(rho)) / (2.0 * rho), abs=1e-15)
    assert single_band("wave", 0.0, 1.3) == (0.0, 0.0, 1.3)


def test_integer_frequencies_have_a_flat_band():
    rho, lo, hi = single_band("klein_gordon", TWO_PI, 1.0)
    assert rho == pytest.approx(TWO_PI, rel=1e-15)
    assert lo == pytest.approx(0.5, abs=1e-15)
    assert hi == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------- calibration


def test_first_order_calibration_is_the_interval_length():
    from torusobs import build_basis, TorusSpace

    basis = build_basis(TorusSpace(1), 2)
    for duration in (1.0, 2.5):
        constants = calibration("schrodinger", basis, 0.0, duration)
        assert constants.lower == duration
        assert constants.upper == duration
        assert constants.mode_frequencies == ()


def test_wave_calibration_table():
    from torusobs import build_basis, TorusSpace

    basis = build_basis(TorusSpace(1), 2)
    constants = calibration("wave", basis, 0.0, 1.0)
    assert constants.mode_frequencies == pytest.approx((0.0, TWO_PI, 2 * TWO_PI))
    # integer frequencies sit at the flat center of the band; the constant
    # mode is velocity-only and contributes the full interval
    assert constants.lower == pytest.approx(0.5, abs=1e-12)
    assert constants.upper == 1.0
    for rho, lo, hi in zip(
        constants.mode_frequencies, constants.gram_minima, constants.gram_maxima
    ):
        blo, bhi = np.linalg.eigvalsh(oracles.temporal_gram(rho, 0.0, 1.0))
        assert lo == pytest.approx(blo, abs=1e-12)
        assert hi == pytest.approx(bhi, abs=1e-12)

    payload = constants.to_dict()
    assert len(payload["mode_table"]) == 3
    assert payload["mode_table"][1]["gram_min"] == constants.gram_minima[1]


def test_massive_calibration_is_dominated_by_the_slowest_mode():
    from torusobs import build_basis, TorusSpace

    basis = build_basis(TorusSpace(1), 2)
    constants = calibration("klein_gordon", basis, 1.0, 1.0)
    assert constants.mode_frequencies[0] == pytest.approx(1.0)
    assert constants.lower == pytest.approx(0.5 - math.sin(1.0) / 2.0, rel=1e-13)
    assert constants.lower < 0.08


def test_calibration_guards():
    from torusobs import build_basis, TorusSpace

    basis = build_basis(TorusSpace(1), 1)
    with pytest.raises(ValueError):
        calibration("schrodinger", basis, 0.0, 0.0)
    with pytest.raises(ValueError):
        calibration("schrodinger", basis, 1.0, 1.0)
    with pytest.raises(ValueError):
        calibration("wave", basis, 0.5, 1.0)
    with pytest.raises(ValueError):
        calibration("klein_gordon", basis, 0.0, 1.0)
    with pytest.raises(ValueError):
        calibration("transport", basis, 0.0, 1.0)


# ---------------------------------------------------------------- protocol runs


def test_protocol_records_are_internally_consistent():
    config = quick_config()
    series = run_protocol(config)
    setup = series.setup
    for energies in (series.observed, series.windowed, series.truncated, series.tail):
        assert energies.shape == (4,)
    windows = [config.window_at(m) for m in range(1, 5)]
    assert windows == [1, 1, 2, 2]
    for m, window in enumerate(windows, start=1):
        tolerance = config.tolerance_at(m)
        assert tolerance == pytest.approx(0.25 / (m + 1), rel=1e-15)
        rate = setup.design_bounds[window]
        expected_macros = max(1, math.ceil((0.25 + 1.0) * rate / tolerance))
        assert setup.schedule(m).macro_count == expected_macros
    observed = series.observed
    means = np.cumsum(observed) / np.arange(1, 5)
    assert np.max(np.abs(experiment.running_means(observed) - means)) <= 1e-15
    assert experiment.final_quarter_minimum(means) == means[-1:].min()

    energy = conserved_energy(setup.datum)
    assert series.energy == energy.total
    assert series.windowed.tolist() == [energy.below(k) for k in windows]
    assert set(setup.designs) == {1, 2}
    for design in setup.designs.values():
        assert design.residual <= 1e-12
    assert tail_reduction_check(series)["reference_bound"] == pytest.approx(
        0.25 * series.constants.lower * series.energy, rel=1e-15
    )


def test_full_torus_observations_sit_inside_the_calibration_band():
    config = quick_config(
        prototype={"boxes": [[0, 1]]},
        model="wave",
        datum={"window": 3, "seed": 2},
        tolerances={"kind": "fixed", "value": 0.4},
    )
    series = run_protocol(config)
    lower = series.constants.lower * series.energy
    upper = series.constants.upper * series.energy
    for value in series.observed:
        assert value >= lower * (1.0 - 1e-10)
        assert value <= upper * (1.0 + 1e-10)
    assert experiment.running_means(series.observed)[-1] >= lower * (1.0 - 1e-10)


@pytest.mark.parametrize(
    "model,mass", [("wave", 0.0), ("klein_gordon", 1.0), ("schrodinger", 0.0)]
)
def test_windowed_data_meet_the_certified_floor(model, mass):
    config = quick_config(
        model=model,
        mass=mass,
        windows={"kind": "fixed", "value": 1},
        datum={"window": 1, "seed": 3},
    )
    series = run_protocol(config)
    c = series.constants.lower
    for m, (observed, windowed) in enumerate(zip(series.observed, series.windowed), start=1):
        floor = (0.25 - config.tolerance_at(m)) * c * windowed
        assert observed >= floor * (1.0 - 1e-10)


def test_single_interval_run_has_a_trivial_mean():
    series = run_protocol(quick_config(interval_count=1))
    assert len(series.observed) == 1
    assert experiment.running_means(series.observed)[-1] == series.observed[0]


def test_windows_at_the_simulation_cutoff_are_rejected_at_runtime():
    config = RunConfig(
        dim=1,
        boxes=((0, Fraction(1, 4)),),
        model="schrodinger",
        mass=0.0,
        duration=1.0,
        sim_window=2,
        interval_count=1,
        windows=WindowSchedule(kind="explicit", values=(2,)),
        tolerances=ToleranceSchedule(),
        datum=DatumSpec(window=2, seed=0),
        design=DesignOptions(),
        schedule=ScheduleOptions(),
    )
    with pytest.raises(WindowExceedsSimulation):
        run_protocol(config)


# ---------------------------------------------------------------- tail reduction

#: the fixed split parameters the tail report used before its closed form
ETA_LADDER = (0.5, 0.1, 0.01)


def eta_bound(truncated, tail, eta):
    """The split bound of the tail-reduction proposition at one eta."""
    return (1.0 - eta) * np.asarray(truncated) - (1.0 / eta - 1.0) * np.asarray(tail)


split_energies = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(split_energies, split_energies, st.floats(1e-6, 1.0 - 1e-6))
def test_split_optimum_is_the_best_eta_bound(truncated, tail, eta):
    optimum = float(experiment.split_optimum(truncated, tail))
    rounding = 1e-12 * (truncated + tail)
    for each in (*ETA_LADDER, eta):
        assert optimum >= eta_bound(truncated, tail, each) - rounding
    if tail == 0.0:  # the supremum, approached as eta -> 0
        assert optimum == pytest.approx(truncated, rel=1e-12)
    elif tail < truncated:
        best = math.sqrt(tail / truncated)
        assert optimum == pytest.approx(eta_bound(truncated, tail, best), rel=0, abs=rounding)
    else:
        assert optimum == 0.0


@pytest.mark.parametrize("negative", [-0.0, -1e-300])
def test_split_optimum_of_a_rounding_level_negative_is_finite(negative):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [
            experiment.split_optimum(negative, 1.0),
            experiment.split_optimum(1.0, negative),
            experiment.split_optimum(np.array([negative, 2.0]), np.array([0.5, negative])),
        ]
    assert all(np.all(np.isfinite(value)) for value in values)
    assert float(values[1]) == 1.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_split_optimum_holds_for_positive_semidefinite_forms(n, seed):
    # ||w + t||_K >= ||w||_K - ||t||_K for every Hermitian K >= 0
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    kernel = a @ a.conj().T
    w, t = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))

    def form(v):
        return float(np.real(v.conj() @ kernel @ v))

    rounding = 1e-12 * np.linalg.norm(kernel) * (np.vdot(w, w).real + np.vdot(t, t).real)
    assert form(w + t) >= experiment.split_optimum(form(w), form(t)) - rounding


def test_tail_reduction_on_a_run_with_a_genuine_tail():
    series = run_protocol(quick_config())
    report = tail_reduction_check(series)
    assert report["upper_ok"]
    assert report["lower_ok"]
    assert report["lower_margin"] >= 1.0 - 1e-10
    assert report["split_ok"] is True
    # the closed form is at least the best bound of the old eta ladder ...
    assert report["split_bound"] >= max(
        float(np.mean(eta_bound(series.truncated, series.tail, eta))) for eta in ETA_LADDER
    )
    # ... and can never beat what was actually observed
    slack = 1e-8 * max(series.energy, 1.0)
    assert report["split_bound"] <= experiment.running_means(series.observed)[-1] + slack
    assert report["tail_mean"] == pytest.approx(
        float(np.mean(series.energy - series.windowed)), rel=1e-12
    )
    assert report["tail_fraction"] == report["tail_mean"] / series.energy
    assert report["tail_mean"] > 0.0
    json.dumps(report, allow_nan=False)


def test_experiment_builds_one_switching_template_per_interval(monkeypatch):
    # each interval's schedule gets one template, and its three energies
    # are taken from that template in one pass, started at the interval
    from torusobs import evolve

    templates, passes = [], []

    def counted_template(path, table):
        templates.append((path.t_start, real_template(path, table)))
        return templates[-1][1]

    def counted_energies(gamma_base, table, t_start, template, coeffs):
        passes.append((t_start, template, len(coeffs)))
        return real_energies(gamma_base, table, t_start, template, coeffs)

    real_template, real_energies = evolve.path_template, evolve.kernel_energies
    monkeypatch.setattr(evolve, "path_template", counted_template)
    monkeypatch.setattr(evolve, "kernel_energies", counted_energies)
    config = quick_config()
    tail_reduction_check(run_protocol(config))
    starts = [float(m) for m in range(config.interval_count)]
    assert [t for t, _ in templates] == starts
    assert [(t, id(template), 3) for t, template, _ in passes] == [
        (t, id(template), 3) for t, template in templates
    ]


@pytest.mark.parametrize(
    "run",
    [run_protocol, lambda config: continuous_protocol_delta(config, (300.0, 1e4))],
    ids=["run_protocol", "continuous_protocol_delta"],
)
def test_a_run_builds_one_difference_table(monkeypatch, run):
    from torusobs import evolve

    tables = []
    real_build = evolve.DifferenceTable.build

    def counted_build(cls, *args):
        tables.append(len(args))
        return real_build(*args)

    monkeypatch.setattr(evolve.DifferenceTable, "build", classmethod(counted_build))
    config = quick_config(interval_count=6, windows={"kind": "stride", "stride": 2, "cap": 2})
    run(config)
    assert len(tables) == 1


@pytest.mark.parametrize(
    "model,mass", [("schrodinger", 0.0), ("wave", 0.0), ("klein_gordon", 1.0)]
)
def test_tail_report_equals_a_fresh_kernel_on_the_rebuilt_schedule(model, mass):
    # the kernel route of the oracles forms each kernel whole; the blocked
    # energies must be its quadratic forms to the last bit
    from torusobs.evolve import DifferenceTable, output_expansion
    from torusobs.schedule import build_switching

    config = quick_config(model=model, mass=mass)
    series = run_protocol(config)
    setup = series.setup
    _, alpha = output_expansion(setup.datum)
    for m in range(1, config.interval_count + 1):
        window = config.window_at(m)
        schedule = build_switching(
            setup.designs[window],
            ((m - 1) * config.duration, config.duration),
            setup.design_bounds[window],
            config.tolerance_at(m),
        )
        table = DifferenceTable.build(alpha, setup.basis.mode_differences)
        kernel = oracles.path_kernel(schedule, table, setup.gamma_base)
        inside, _ = output_expansion(setup.datum.windowed(window))
        outside, _ = output_expansion(setup.datum.tail(window))
        assert series.truncated[m - 1] == oracles.kernel_energy(kernel, inside)
        assert series.tail[m - 1] == oracles.kernel_energy(kernel, outside)
        assert series.observed[m - 1] == oracles.kernel_energy(kernel, setup.coeff)


def test_tail_reduction_without_a_tail_is_exact():
    config = quick_config(
        windows={"kind": "fixed", "value": 1},
        datum={"window": 1, "seed": 5},
    )
    series = run_protocol(config)
    report = tail_reduction_check(series)
    assert np.max(np.abs(series.truncated - series.observed)) <= 1e-12 * series.energy
    assert np.max(np.abs(series.tail)) <= 1e-14 * series.energy
    assert report["tail_mean"] == 0.0


def test_unbounded_margins_are_written_as_null():
    series = run_protocol(quick_config())
    report = tail_reduction_check(series)
    assert math.isfinite(report["lower_margin"]) and report["lower_ok"]
    # with no windowed energy no interval has a positive floor
    unbounded = tail_reduction_check(series._replace(windowed=np.zeros_like(series.windowed)))
    assert unbounded["lower_margin"] is None and unbounded["lower_ok"]
    json.dumps(unbounded, allow_nan=False)


# ---------------------------------------------------------------- continuous rerun


def continuous_report(config, run):
    """The continuous_report.json payload of a rerun, its certified losses
    read off the paths."""
    losses = {
        speed: [run.paths[config.window_at(m), speed].certified_loss
                for m in range(1, config.interval_count + 1)]
        for speed in run.observed
    }
    return experiment.continuous_fields(
        config.measure, run.paths, run.observed, losses, run.realized_margin
    )


def test_continuous_rerun_improves_with_speed():
    config = quick_config(model="wave", datum={"window": 3, "seed": 2})
    run = continuous_protocol_delta(config, speeds=(200.0, 10000.0))
    report = continuous_report(config, run)
    assert tuple(run.observed) == (200.0, 10000.0)
    assert report["speeds"] == [200.0, 10000.0]
    assert report["monotone_ok"]
    assert report["realized_ok"]
    assert run.realized_margin >= 1.0 - 1e-9
    # the slow ladder rung certifies nothing here; the fast one does
    assert report["certified_factors"]["200.0"] == 0.0
    assert report["certified_factors"]["10000.0"] > 0.0
    for speed, observed in run.observed.items():
        assert len(observed) == 4
        means = np.cumsum(observed) / np.arange(1, 5)
        assert np.max(np.abs(experiment.running_means(observed) - means)) <= 1e-15
    json.dumps(report, allow_nan=False)


def test_monotone_check_compares_speeds_in_sorted_order(monkeypatch):
    # certified losses fall with speed, so the check is exercised by
    # inflating the fastest rung's loss between those of the two slower
    # rungs: only the (100, 1000) pair, which an unsorted ladder never puts
    # next to each other, sees it
    config = quick_config(model="wave", datum={"window": 3, "seed": 2})
    ladder = (100.0, 10.0, 1000.0)

    def losses(run, speed):
        return {m: run.paths[config.window_at(m), speed].certified_loss for m in range(1, 5)}

    honest = continuous_protocol_delta(config, speeds=ladder)
    assert tuple(honest.observed) == ladder
    assert continuous_report(config, honest)["monotone_ok"]
    slow, mid = losses(honest, 10.0), losses(honest, 100.0)
    assert all(mid[m] < slow[m] for m in mid)
    build = experiment.build_continuous

    def inflated(design, interval, speed, bound):
        path = build(design, interval, speed, bound)
        if speed == 1000.0:
            mid_loss = build(design, interval, 100.0, bound).certified_loss
            path = Realization(
                path.design, path.t_start, path.duration, path.macro_count, path.speed,
                1.5 * mid_loss,
            )
        return path

    monkeypatch.setattr(experiment, "build_continuous", inflated)
    run = continuous_protocol_delta(config, speeds=ladder)
    assert tuple(run.observed) == ladder
    fast = losses(run, 1000.0)
    assert all(mid[m] < fast[m] < slow[m] for m in fast)
    assert not continuous_report(config, run)["monotone_ok"]


def started_path_energies(config, speed):
    """Observed energy per interval by the direct route: build the window's
    path, start it at the interval, and take the quadratic form of that
    path's whole kernel (`oracles.path_kernel`)."""
    from torusobs.schedule import build_continuous

    setup = experiment.prepare_protocol(config)
    values = []
    for m in range(1, config.interval_count + 1):
        window = config.window_at(m)
        path = build_continuous(
            setup.designs[window], (0.0, config.duration), speed,
            setup.design_bounds[window],
        )
        started = Realization(
            path.design, (m - 1) * config.duration, path.duration, path.macro_count,
            path.speed, path.certified_loss,
        )
        kernel = oracles.path_kernel(started, setup.differences, setup.gamma_base)
        values.append((path, oracles.kernel_energy(kernel, setup.coeff)))
    return values


def solver_design(basis, prototype):
    """A reduced solver design: not an equal-weight grid."""
    from torusobs.design import caratheodory_reduce, default_candidates, solve_design

    design = solve_design(basis, prototype, default_candidates(basis))
    return caratheodory_reduce(design, basis, prototype)


@pytest.mark.parametrize(
    "model,mass", [("schrodinger", 0.0), ("wave", 0.0), ("klein_gordon", 1.0)]
)
def test_continuous_records_equal_the_started_path_kernel(model, mass):
    # the template is reduced once per window and speed; every observed
    # value must be the energy of the started path's kernel up to rounding,
    # the summation order being all that differs
    config = quick_config(
        model=model,
        mass=mass,
        interval_count=7,
        windows={"kind": "stride", "stride": 3, "cap": 2},
    )
    speeds = (300.0, 10000.0)
    run = continuous_protocol_delta(config, speeds=speeds)
    for speed in speeds:
        direct = started_path_energies(config, speed)
        observed = run.observed[speed]
        assert len(observed) == len(direct) == 7
        for m, (path, value) in enumerate(direct, start=1):
            ran = run.paths[config.window_at(m), speed]
            assert observed[m - 1] == pytest.approx(value, rel=1e-13, abs=0.0)
            assert ran.macro_count == path.macro_count
            assert ran.certified_loss == path.certified_loss


def test_continuous_rerun_refuses_a_solver_design(monkeypatch):
    # a solver design is a certificate, not something an observer realizes:
    # the rerun stops at the first template, before any tour sum
    from torusobs import evolve

    def no_tour(*args):
        raise AssertionError("the grid tour sum ran on a non-grid design")

    monkeypatch.setattr(experiment, "equispaced_design", solver_design)
    monkeypatch.setattr(evolve, "grid_tour_factors", no_tour)
    config = quick_config(interval_count=7, windows={"kind": "stride", "stride": 3, "cap": 2})
    designs = experiment.prepare_protocol(config).designs.values()
    assert all(design.grid_per_axis is None for design in designs)
    with pytest.raises(ValueError, match="equal-weight grid tours only"):
        continuous_protocol_delta(config, speeds=(300.0, 10000.0))


def test_2d_continuous_records_equal_the_started_path_kernel():
    config = quick_config(
        space={"dim": 2},
        prototype={"boxes": [[[0, "1/2"], ["1/8", "5/8"]]]},
        model="wave",
        sim_window=2,
        interval_count=3,
        windows={"kind": "explicit", "values": [1, 1, 0]},
        datum={"window": 2, "seed": 3},
    )
    run = continuous_protocol_delta(config, speeds=(1e4,))
    direct = started_path_energies(config, 1e4)
    observed = run.observed[1e4].tolist()
    assert observed == pytest.approx([v for _, v in direct], rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "windows,runs",
    [
        ({"kind": "stride", "stride": 4, "cap": 3}, 3),
        ({"kind": "explicit", "values": [1, 1, 2, 2, 2, 1, 1, 3, 3, 3, 3, 1]}, 3),
    ],
    ids=["stride", "revisited"],
)
def test_continuous_rerun_builds_one_template_per_window_run(monkeypatch, windows, runs):
    from torusobs import evolve

    calls = []
    real = evolve.grid_tour_factors

    def counted(*args):
        calls.append(args[2].speed)
        return real(*args)

    monkeypatch.setattr(evolve, "grid_tour_factors", counted)
    config = quick_config(sim_window=4, interval_count=12, windows=windows)
    speeds = (300.0, 10000.0)
    continuous_protocol_delta(config, speeds=speeds)
    assert calls == [speed for speed in speeds for _ in range(runs)]


def test_energies_hold_no_kernel_sized_array(monkeypatch):
    # both realizations evaluate their kernels one block of rows at a time:
    # while the energies run on a warm setup, the traced allocations never
    # rise by the bytes of one kernel; a formed kernel alone would
    import tracemalloc

    from torusobs import evolve

    config = quick_config(
        space={"dim": 2},
        prototype={"boxes": [[[0, "1/2"], [0, "1/2"]]]},
        model="wave",
        sim_window=8,
        interval_count=3,
        windows={"kind": "stride", "stride": 1, "cap": 3},
        datum={"window": 8, "seed": 3},
    )
    setup = experiment.prepare_protocol(config)
    for part in ("datum", "windowed", "tails", "gamma_base", "differences"):
        getattr(setup, part)
    monkeypatch.setattr(experiment, "prepare_protocol", lambda _: setup)
    size = setup.coeff.size
    kernel_bytes = 16 * size * size
    assert size == 578 and len(evolve.row_blocks(size)) >= 4
    runs = [run_protocol, lambda c: continuous_protocol_delta(c, (1e4,))]
    for run in runs:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < kernel_bytes


def test_continuous_rerun_needs_a_speed():
    with pytest.raises(ValueError):
        continuous_protocol_delta(quick_config(interval_count=1), speeds=())


def desk_config() -> RunConfig:
    """The 1D desk run of the benchmark: 100 intervals over 7 windows,
    rerun at 3 speeds."""
    return quick_config(
        model="wave",
        sim_window=8,
        interval_count=100,
        windows={"kind": "stride", "stride": 5, "cap": 7},
        datum={"window": 8, "decay": "power", "decay_power": 2.0, "seed": 0},
        schedule={"speeds": [100.0, 1000.0, 10000.0]},
    )


def count_builds(monkeypatch, name: str) -> list:
    """Replace the cached `ConvexDesign.<name>` by one that records the
    design each time it is built."""
    from functools import cached_property

    from torusobs.design import ConvexDesign

    built = []
    real = ConvexDesign.__dict__[name].func

    def build(design):
        built.append(design)
        return real(design)

    counted = cached_property(build)
    counted.__set_name__(ConvexDesign, name)
    monkeypatch.setattr(ConvexDesign, name, counted)
    return built


def test_tour_and_cumulative_weights_are_built_once_per_design(monkeypatch):
    # 100 switching realizations and 21 continuous ones of the desk run's 7
    # designs: each design measures its tour (`cycle`) once; the schedule
    # text of every interval reads each design's cumulative weights, built
    # once
    from torusobs import artifacts

    tours = count_builds(monkeypatch, "cycle")
    weights = count_builds(monkeypatch, "cumulative_weights")
    realizations = []

    def recording(real):
        def build(*args):
            realizations.append(real(*args))
            return realizations[-1]

        return build

    for name in ("build_switching", "build_continuous"):
        monkeypatch.setattr(experiment, name, recording(getattr(experiment, name)))
    config = desk_config()

    series = run_protocol(config)
    assert len(series.setup.designs) == 7 and len(realizations) == 100
    assert sorted(map(id, tours)) == sorted(map(id, series.setup.designs.values()))
    assert weights == []

    run = continuous_protocol_delta(config, config.schedule.speeds)
    assert continuous_report(config, run)["realized_ok"] and len(realizations) == 100 + 21
    assert len(tours) == len(set(map(id, tours))) == 7 + 7

    setup = series.setup
    for m in range(1, config.interval_count + 1):
        "".join(artifacts._schedule_lines(setup.schedule(m), 10))
    assert sorted(map(id, weights)) == sorted(map(id, setup.designs.values()))
