"""Interval-by-interval observation protocol with running-average verification.

The protocol partitions time into consecutive intervals of a fixed length,
grows the design cutoff slowly with the interval index, tightens the switching
loss target, and records the observed energy of one fixed datum per interval
together with its running (Cesaro) mean.  The mean is compared against
measure * lower_constant * conserved_energy, the asymptotic floor the
construction certifies for the windowed part; two companion reports verify the
hypotheses that let the spectral tail be discarded, and rerun the protocol
with continuous speed-bounded paths in place of switching.

Every interval's energy comes from one observation matrix, Gamma(0) on the
simulation basis, built once per run: shifted matrices are phase products of
it, and the atoms of the equal-weight grid designs are summed in closed form.
One `ProtocolSetup` holds everything the intervals share, and each interval's
switching kernel is built once: the observed, windowed and tail energies are
three quadratic forms of it.  In the continuous rerun every interval of one
window runs the same path at a given speed, so that path's template is built
once per (window, speed) and moved to each interval by one phase e^{i D t}.
Every kernel of a run reads one table of the distinct frequency differences
D of the datum's expansion (`ProtocolSetup.differences`), built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import RunConfig
from .design import ConvexDesign, equispaced_design
from .evolve import (
    DifferenceTable,
    ModalDatum,
    check_model_mass,
    conserved_energy,
    expansion_interval_energy,
    kernel_energy,
    output_expansion,
    output_kind_for,
    path_template,
    random_datum,
    shifted_energies,
    switching_kernel,
)
from .schedule import (
    SwitchingSchedule,
    build_continuous,
    build_switching,
)
from .spectral import (
    ModalBasis,
    ObservationMatrix,
    build_basis,
    gamma_matrix,
    trajectory_lipschitz_bound,
)

__all__ = [
    "CalibrationConstants",
    "CesaroSeries",
    "ContinuousReport",
    "IntervalRecord",
    "ProtocolSetup",
    "TailReductionReport",
    "WindowExceedsSimulation",
    "calibration",
    "continuous_protocol_delta",
    "prepare_protocol",
    "run_protocol",
    "tail_reduction_check",
    "temporal_gram",
]


class WindowExceedsSimulation(Exception):
    """A requested window cutoff reaches or exceeds the simulation cutoff."""


def temporal_gram(rho: float, t_start: float, duration: float) -> np.ndarray:
    """Gram matrix of {sin(rho t), cos(rho t)} over [t_start, t_start+duration].

    Closed form via product-to-sum identities; the zero-frequency pair
    degenerates to {0, 1} whose Gram is diag(0, duration).
    """
    if rho == 0.0:
        return np.array([[0.0, 0.0], [0.0, duration]])
    phase = rho * (2.0 * t_start + duration)
    swing = math.sin(rho * duration) / (2.0 * rho)
    ss = duration / 2.0 - math.cos(phase) * swing
    cc = duration / 2.0 + math.cos(phase) * swing
    sc = math.sin(phase) * swing
    return np.array([[ss, sc], [sc, cc]])


def gram_eigenvalue_band(rho: float, duration: float) -> tuple[float, float]:
    """Predicted temporal Gram eigenvalues duration/2 -+ |sin(rho T)|/(2 rho);
    the off-diagonal block is a reflection, so the band is offset-independent.
    At rho = 0 the analytic limit gives (0, duration)."""
    if rho == 0.0:
        return 0.0, duration
    swing = abs(math.sin(rho * duration)) / (2.0 * rho)
    return duration / 2.0 - swing, duration / 2.0 + swing


@dataclass(frozen=True, eq=False)
class CalibrationConstants:
    """Full-torus per-interval observation constants.

    lower * E <= interval output energy <= upper * E for every datum built on
    the calibrated basis and every interval of the given duration.  For the
    second-order models the table lists one row per distinct temporal
    frequency: (frequency, smallest and largest temporal Gram eigenvalue).
    """

    model: str
    mass: float
    duration: float
    lower: float
    upper: float
    mode_frequencies: tuple[float, ...]
    gram_minima: tuple[float, ...]
    gram_maxima: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "mass": self.mass,
            "duration": self.duration,
            "lower": self.lower,
            "upper": self.upper,
            "mode_table": [
                {"frequency": f, "gram_min": lo, "gram_max": hi}
                for f, lo, hi in zip(
                    self.mode_frequencies, self.gram_minima, self.gram_maxima
                )
            ],
        }


def calibration(
    model: str, basis: ModalBasis, mass: float, duration: float, t_start: float = 0.0
) -> CalibrationConstants:
    """Compute the interval observation constants over the simulated spectrum.

    The first-order model conserves the output norm pointwise in time, so both
    constants equal the interval length exactly.  For the second-order models
    each frequency contributes the eigenvalue band of its temporal Gram matrix
    (computed numerically from the closed-form entries); the zero-frequency
    mode carries velocity only and contributes the full interval length.  The
    lower constant is the infimum over the simulated spectrum only, which is
    exact for data supported on the calibrated basis.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    check_model_mass(model, mass)
    if model == "schrodinger":
        return CalibrationConstants(
            model=model,
            mass=0.0,
            duration=duration,
            lower=duration,
            upper=duration,
            mode_frequencies=(),
            gram_minima=(),
            gram_maxima=(),
        )
    # sorted distinct frequencies; np.unique would import numpy.ma
    rhos = np.sort(np.sqrt(basis.eigenvalues + mass * mass))
    rhos = rhos[np.concatenate(([True], rhos[1:] != rhos[:-1]))]
    minima: list[float] = []
    maxima: list[float] = []
    lower = math.inf
    for rho in rhos:
        eigs = np.linalg.eigvalsh(temporal_gram(float(rho), t_start, duration))
        minima.append(float(eigs[0]))
        maxima.append(float(eigs[1]))
        # the zero-frequency displacement is quotiented out, so that mode's
        # reachable output is the constant velocity: it contributes duration
        contribution = duration if rho == 0.0 else float(eigs[0])
        lower = min(lower, contribution)
    if lower <= 0.0:
        raise ValueError("degenerate calibration: lower constant is not positive")
    return CalibrationConstants(
        model=model,
        mass=mass,
        duration=duration,
        lower=lower,
        upper=duration,
        mode_frequencies=tuple(float(r) for r in rhos),
        gram_minima=tuple(minima),
        gram_maxima=tuple(maxima),
    )


@dataclass(frozen=True)
class IntervalRecord:
    """One interval of the protocol."""

    index: int             # 1-based interval number
    window: int            # design cutoff used on this interval
    tolerance: float       # switching loss target
    macro_count: int       # schedule repetitions realizing that target
    observed: float        # observation energy along the schedule
    running_mean: float    # mean of `observed` over intervals 1..index
    windowed_energy: float # conserved energy of the datum below `window`
    truncated: float       # observation energy of the datum below `window`
    tail: float            # observation energy of the datum above `window`


@dataclass(eq=False)
class CesaroSeries:
    """Protocol output: interval records and the setup they were run on."""

    setup: ProtocolSetup
    model: str
    mass: float
    measure: float
    duration: float
    energy: float
    constants: CalibrationConstants
    records: tuple[IntervalRecord, ...]

    @property
    def reference_bound(self) -> float:
        """The asymptotic floor measure * lower_constant * energy."""
        return self.measure * self.constants.lower * self.energy

    @property
    def observed(self) -> np.ndarray:
        return np.array([r.observed for r in self.records])

    @property
    def running_means(self) -> np.ndarray:
        return np.array([r.running_mean for r in self.records])

    @property
    def final_mean(self) -> float:
        return self.records[-1].running_mean

    @property
    def final_quarter_minimum(self) -> float:
        """Minimum running mean over the last quarter of the run; the finite
        stand-in for the asymptotic lower limit."""
        count = max(1, len(self.records) // 4)
        return float(self.running_means[-count:].min())

    def to_rows(self) -> list[tuple]:
        return [
            (
                r.index,
                r.window,
                r.tolerance,
                r.observed,
                r.running_mean,
                r.windowed_energy,
            )
            for r in self.records
        ]


@dataclass(frozen=True, eq=False)
class ProtocolSetup:
    """The protocol state every command reads.

    It holds, for each window the intervals use, the equal-weight design and
    its Lipschitz bound.  Built on first use: the datum on the simulation
    basis with its output expansion (coeff, alpha); the output coefficients
    of the datum below (`windowed`) and above (`tails`) each window; the one
    unshifted observation matrix; and the frequency differences of `alpha`
    (`differences`), which every kernel of the run reads.  Windowing masks
    coefficients only, so every part shares `alpha`.  `schedule` is the one
    place an interval's switching schedule is built, and reads none of the
    lazy parts.
    """

    config: RunConfig
    basis: ModalBasis
    designs: dict[int, ConvexDesign]
    design_bounds: dict[int, float]

    @cached_property
    def datum(self) -> ModalDatum:
        config = self.config
        return random_datum(
            config.model,
            self.basis,
            window=config.datum_window,
            decay=config.datum_decay,
            decay_power=config.datum_decay_power,
            seed=config.seed,
            mass=config.mass,
        )

    @property
    def kind(self) -> str:
        return output_kind_for(self.config.model)

    @cached_property
    def _expansion(self) -> tuple[np.ndarray, np.ndarray]:
        return output_expansion(self.datum, self.kind)

    @property
    def coeff(self) -> np.ndarray:
        return self._expansion[0]

    @property
    def alpha(self) -> np.ndarray:
        return self._expansion[1]

    @cached_property
    def windowed(self) -> dict[int, np.ndarray]:
        return {
            k: output_expansion(self.datum.windowed(k), self.kind)[0]
            for k in self.designs
        }

    @cached_property
    def tails(self) -> dict[int, np.ndarray]:
        return {
            k: output_expansion(self.datum.tail(k), self.kind)[0] for k in self.designs
        }

    @cached_property
    def gamma_base(self) -> ObservationMatrix:
        space = self.config.space()
        return gamma_matrix(self.basis, self.config.prototype(), space.identity())

    @cached_property
    def differences(self) -> DifferenceTable:
        return DifferenceTable.build(self.alpha, self.basis.mode_differences)

    def schedule(self, index: int) -> SwitchingSchedule:
        """Switching schedule of interval `index` (1-based): the design of the
        interval's window, sized to the interval's loss target."""
        duration = self.config.duration
        window = self.config.window_at(index)
        return build_switching(
            self.designs[window],
            ((index - 1) * duration, duration),
            self.design_bounds[window],
            self.config.tolerance_at(index),
        )


def prepare_protocol(config: RunConfig) -> ProtocolSetup:
    """Build the per-window designs and bounds; the rest of the setup is
    built when first read.

    Windows are prepared in interval order, so a window at or above the
    simulation cutoff is reported for the first interval that uses it.
    """
    space = config.space()
    prototype = config.prototype()
    designs: dict[int, ConvexDesign] = {}
    design_bounds: dict[int, float] = {}
    for m in range(1, config.interval_count + 1):
        window = config.window_at(m)
        if window in designs:
            continue
        if window >= config.sim_window:
            raise WindowExceedsSimulation(
                f"window {window} needs modes outside the simulated cutoff "
                f"{config.sim_window}"
            )
        design_basis = build_basis(space, window)
        designs[window] = equispaced_design(design_basis, prototype)
        design_bounds[window] = trajectory_lipschitz_bound(
            design_basis, config.model, config.mass, config.duration
        )
    return ProtocolSetup(
        config=config,
        basis=build_basis(space, config.sim_window),
        designs=designs,
        design_bounds=design_bounds,
    )


def run_protocol(config: RunConfig) -> CesaroSeries:
    """Run the full switching protocol described by the config.

    For each interval: build the switching schedule of the interval's window
    and loss target, build its kernel once, and take three quadratic forms
    of it in closed form: the observed energy of the evolving datum and the
    energies of its parts below and above the window.
    """
    setup = prepare_protocol(config)
    energy = conserved_energy(setup.datum)
    constants = calibration(config.model, setup.basis, config.mass, config.duration)

    records: list[IntervalRecord] = []
    total = 0.0
    for m in range(1, config.interval_count + 1):
        window = config.window_at(m)
        schedule = setup.schedule(m)
        kernel = switching_kernel(schedule, setup.differences, setup.gamma_base)
        value = kernel_energy(kernel, setup.coeff)
        total += value
        records.append(
            IntervalRecord(
                index=m,
                window=window,
                tolerance=config.tolerance_at(m),
                macro_count=schedule.macro_count,
                observed=value,
                running_mean=total / m,
                windowed_energy=energy.below(window),
                truncated=kernel_energy(kernel, setup.windowed[window]),
                tail=kernel_energy(kernel, setup.tails[window]),
            )
        )

    return CesaroSeries(
        setup=setup,
        model=config.model,
        mass=config.mass,
        measure=config.measure,
        duration=config.duration,
        energy=energy.total,
        constants=constants,
        records=tuple(records),
    )


def _finite_or_none(value: float) -> float | None:
    """A margin for JSON: None (null) when no interval bounds it."""
    return value if math.isfinite(value) else None


@dataclass(eq=False)
class TailReductionReport:
    """Numerical check of the hypotheses that discard the spectral tail.

    For each interval the protocol records the observed energy of the datum
    truncated at the interval's cutoff and of the complementary tail; the
    report verifies the uniform upper bound, the windowed lower bound, and
    the split inequality

        observed >= (1 - eta) * truncated - (1/eta - 1) * tail

    for every eta in the grid, and evaluates the running-mean floor each eta
    implies.
    """

    etas: tuple[float, ...]
    observed: np.ndarray
    truncated: np.ndarray
    tail: np.ndarray
    upper_margin: float            # max over m of observed / (upper * E)
    upper_ok: bool
    lower_margin: float            # min over m of truncated / positive floor; inf if none
    lower_ok: bool
    split_ok: dict[float, bool]
    eta_bounds: dict[float, float] # final-mean floor implied by each eta
    best_bound: float
    reference_bound: float
    tail_mean: float               # Cesaro average of tail energies E - E_leK
    tail_fraction: float           # tail_mean / E

    def to_dict(self) -> dict:
        return {
            "etas": list(self.etas),
            "upper_margin": self.upper_margin,
            "upper_ok": self.upper_ok,
            "lower_margin": _finite_or_none(self.lower_margin),
            "lower_ok": self.lower_ok,
            "split_ok": {str(k): v for k, v in self.split_ok.items()},
            "eta_bounds": {str(k): v for k, v in self.eta_bounds.items()},
            "best_bound": self.best_bound,
            "reference_bound": self.reference_bound,
            "tail_mean": self.tail_mean,
            "tail_fraction": self.tail_fraction,
        }


def tail_reduction_check(
    series: CesaroSeries, etas: tuple[float, ...] = (0.5, 0.1, 0.01)
) -> TailReductionReport:
    """Verify the tail-discarding hypotheses on a finished protocol run."""
    if any(eta <= 0.0 or eta >= 1.0 for eta in etas):
        raise ValueError("split parameters must lie in (0, 1)")
    observed = series.observed
    truncated = np.array([r.truncated for r in series.records])
    tail = np.array([r.tail for r in series.records])
    floors = np.array([
        series.constants.lower * (series.measure - r.tolerance) * r.windowed_energy
        for r in series.records
    ])

    scale = series.constants.upper * series.energy
    upper_margin = float(observed.max() / scale)
    upper_ok = bool(np.all(observed <= scale * (1.0 + 1e-10)))
    with np.errstate(divide="ignore", invalid="ignore"):
        lower_ratios = np.where(floors > 0, truncated / np.where(floors > 0, floors, 1.0), np.inf)
    lower_margin = float(lower_ratios.min())
    lower_ok = bool(np.all(truncated >= floors * (1.0 - 1e-10)))

    split_ok: dict[float, bool] = {}
    eta_bounds: dict[float, float] = {}
    slack = 1e-10 * max(series.energy, 1.0)
    for eta in etas:
        bound_terms = (1.0 - eta) * truncated - (1.0 / eta - 1.0) * tail
        split_ok[eta] = bool(np.all(observed >= bound_terms - slack))
        eta_bounds[eta] = float(bound_terms.mean())
    best_bound = max(eta_bounds.values())

    tails = series.energy - np.array([r.windowed_energy for r in series.records])
    tail_mean = float(tails.mean())
    return TailReductionReport(
        etas=tuple(etas),
        observed=observed,
        truncated=truncated,
        tail=tail,
        upper_margin=upper_margin,
        upper_ok=upper_ok,
        lower_margin=lower_margin,
        lower_ok=lower_ok,
        split_ok=split_ok,
        eta_bounds=eta_bounds,
        best_bound=best_bound,
        reference_bound=series.reference_bound,
        tail_mean=tail_mean,
        tail_fraction=tail_mean / series.energy,
    )


@dataclass(frozen=True)
class ContinuousIntervalRecord:
    """One interval of the continuous-path rerun at one speed."""

    index: int
    window: int
    macro_count: int
    certified_loss: float   # loss the path certifies (may exceed the measure)
    observed: float
    running_mean: float


@dataclass(eq=False)
class ContinuousReport:
    """Continuous-path rerun of the protocol over a ladder of speeds.

    For each speed the protocol intervals are re-realized by one continuous
    speed-bounded path each; the certified factor measure - loss(speed, R)
    must improve monotonically with speed, and for each interval the observed
    energy of the windowed datum must respect the certified factor times the
    full-torus interval energy.
    """

    speeds: tuple[float, ...]
    records: dict[float, tuple[ContinuousIntervalRecord, ...]]
    certified_factors: dict[float, float]  # worst certified factor per speed
    monotone_ok: bool
    realized_ok: bool
    realized_margin: float  # inf when no interval leaves a positive factor
    final_means: dict[float, float]

    def to_dict(self) -> dict:
        return {
            "speeds": list(self.speeds),
            "certified_factors": {str(v): f for v, f in self.certified_factors.items()},
            "monotone_ok": self.monotone_ok,
            "realized_ok": self.realized_ok,
            "realized_margin": _finite_or_none(self.realized_margin),
            "final_means": {str(v): f for v, f in self.final_means.items()},
        }


def continuous_protocol_delta(config: RunConfig, speeds) -> ContinuousReport:
    """Rerun the protocol with continuous paths for each speed in the ladder.

    At one speed every interval of a window runs the same path, started at
    (m - 1) * duration.  Its template (`path_template`) is built once per
    (window, speed), and `shifted_energies` reduces it once onto the
    distinct frequency differences: every interval of the window then gets
    its observed energy, and where needed its windowed one, from one phase
    product over its start, with no kernel formed.  The energies are those
    of the started path's `path_kernel` up to rounding, and the running
    means are sequential sums of them.

    The realized-bound check is evaluated on the datum truncated at each
    interval's cutoff (the certificate covers the windowed part; the tail
    only adds energy), and only where the certified loss leaves a positive
    factor.  Its full-torus references are computed once per interval for
    all speeds.  Certified losses must not grow from one speed to the next
    faster one, compared in sorted-speed order; the report keeps the
    ladder's order.
    """
    speeds = tuple(float(v) for v in speeds)
    if not speeds:
        raise ValueError("at least one speed is required")
    setup = prepare_protocol(config)
    count = config.interval_count
    windows = np.array([config.window_at(m) for m in range(1, count + 1)])
    starts = np.arange(count) * config.duration
    members = {k: np.flatnonzero(windows == k) for k in setup.designs}
    table = setup.differences
    references = np.empty(count)
    for k, at in members.items():
        references[at] = expansion_interval_energy(
            setup.windowed[k], setup.alpha, starts[at], config.duration
        )

    records: dict[float, tuple[ContinuousIntervalRecord, ...]] = {}
    certified: dict[float, float] = {}
    final_means: dict[float, float] = {}
    realized_ok = True
    realized_margin = math.inf
    for speed in speeds:
        # paths of one window differ only in t_start; each is built at 0
        paths = {
            k: build_continuous(
                setup.designs[k], (0.0, config.duration), speed, setup.design_bounds[k]
            )
            for k in setup.designs
        }
        factors = {k: max(config.measure - path.certified_loss, 0.0) for k, path in paths.items()}
        observed = np.empty(count)
        for k, at in members.items():
            factor = factors[k]
            parts = [setup.coeff, setup.windowed[k]] if factor > 0.0 else [setup.coeff]
            # built before Gamma(0) is first read, and released before the
            # next window's: the run's memory peak is a template's build
            repeats, segments = path_template(paths[k], table)
            energies = shifted_energies(
                setup.gamma_base, table, starts[at], repeats, segments, parts
            )
            repeats = segments = None
            observed[at] = energies[:, 0]
            if factor > 0.0:
                bounded = references[at] > 0.0
                part = energies[bounded, 1]
                floors = factor * references[at][bounded]
                ratio = float(np.min(part / floors, initial=math.inf))
                realized_margin = min(realized_margin, ratio)
                if np.any(part < floors * (1.0 - 1e-9)):
                    realized_ok = False
        means = np.cumsum(observed) / np.arange(1, count + 1)
        records[speed] = tuple(
            ContinuousIntervalRecord(
                index=m,
                window=window,
                macro_count=paths[window].macro_count,
                certified_loss=paths[window].certified_loss,
                observed=value,
                running_mean=mean,
            )
            for m, window, value, mean in zip(
                range(1, count + 1), windows.tolist(), observed.tolist(), means.tolist()
            )
        )
        certified[speed] = min(factors.values())
        final_means[speed] = records[speed][-1].running_mean

    ladder = sorted(set(speeds))
    monotone_ok = all(
        r_hi.certified_loss <= r_lo.certified_loss * (1.0 + 1e-12)
        for lo, hi in zip(ladder, ladder[1:])
        for r_lo, r_hi in zip(records[lo], records[hi])
    )
    return ContinuousReport(
        speeds=speeds,
        records=records,
        certified_factors=certified,
        monotone_ok=monotone_ok,
        realized_ok=realized_ok,
        realized_margin=realized_margin,
        final_means=final_means,
    )
