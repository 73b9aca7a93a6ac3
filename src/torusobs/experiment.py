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
Both realizations are one `schedule.Realization`: a switching schedule is
the continuous path at infinite speed, whose legs take no time, and is
summed by the same `path_template`.  One `ProtocolSetup` holds
everything the intervals share, and each interval's kernel is built once:
the observed, windowed and tail energies are three quadratic forms of it.
In the continuous rerun every interval of one window runs the same path at
a given speed, so that path's template sum is built once per (window, speed)
and moved to each interval by one phase e^{i D t}.  Every kernel of a run
reads one table of the distinct frequency differences D of the datum's
expansion (`ProtocolSetup.differences`), built once.  The full-torus
calibration constants come from `spectral.calibration`.

Every number the artifacts derive from the energies has one formula here,
from running means to the tail and continuous reports (`tail_report`,
`continuous_fields`); the writers and `verify` both call them.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import NumericError, RunConfig
from .design import ConvexDesign, equispaced_design
from .evolve import (
    DifferenceTable,
    ModalDatum,
    conserved_energy,
    expansion_interval_energy,
    kernel_energy,
    output_expansion,
    output_kind_for,
    path_template,
    random_datum,
    shifted_energies,
    shifted_kernel,
)
from .schedule import Realization, build_continuous, build_switching
from .spectral import (
    CalibrationConstants,
    ModalBasis,
    ObservationMatrix,
    build_basis,
    calibration,
    gamma_matrix,
    trajectory_lipschitz_bound,
)

__all__ = [
    "CesaroSeries",
    "ContinuousReport",
    "IntervalRecord",
    "ProtocolSetup",
    "TailReductionReport",
    "WindowExceedsSimulation",
    "continuous_protocol_delta",
    "prepare_protocol",
    "run_protocol",
    "tail_reduction_check",
]


class WindowExceedsSimulation(NumericError):
    """A requested window cutoff reaches or exceeds the simulation cutoff."""


class IntervalRecord(NamedTuple):
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


class CesaroSeries(NamedTuple):
    """Protocol output: interval records and the setup they were run on."""

    setup: ProtocolSetup
    measure: float
    energy: float
    constants: CalibrationConstants
    records: tuple[IntervalRecord, ...]

    @property
    def reference_bound(self) -> float:
        return reference_bound(self.measure, self.constants.lower, self.energy)

    @property
    def observed(self) -> np.ndarray:
        return np.array([r.observed for r in self.records])

    @property
    def windowed(self) -> np.ndarray:
        return np.array([r.windowed_energy for r in self.records])

    @property
    def running_means(self) -> np.ndarray:
        return np.array([r.running_mean for r in self.records])

    @property
    def final_mean(self) -> float:
        return self.records[-1].running_mean

    @property
    def final_quarter_minimum(self) -> float:
        return final_quarter_minimum(self.running_means)


def running_means(observed) -> np.ndarray:
    """Cesaro means A_N: entry N - 1 is the mean of the first N values, their
    sum taken in order."""
    observed = np.asarray(observed, dtype=float)
    return np.cumsum(observed) / np.arange(1, len(observed) + 1)


def final_quarter_minimum(means: np.ndarray) -> float:
    """Least running mean over the last quarter of the run; the finite
    stand-in for the asymptotic lower limit."""
    return float(means[-max(1, len(means) // 4) :].min())


def reference_bound(measure: float, lower: float, energy: float) -> float:
    """The asymptotic floor measure * lower_constant * energy."""
    return measure * lower * energy


def final_ratio(final_mean: float, bound: float) -> float:
    return final_mean / bound


def clears(margin: float | None, slack: float) -> bool:
    """Whether a margin, None (null) when no interval bounds it, is at least
    1 up to `slack`."""
    return margin is None or margin >= 1.0 - slack


class ProtocolSetup:
    """The protocol state every command reads.

    It holds, for each window the intervals use, the equal-weight design and
    its Lipschitz bound.  Built on first use: the datum on the simulation
    basis with its output expansion (coeff, alpha); the output coefficients
    of the datum below (`windowed`) and above (`tails`) each window; the one
    unshifted observation matrix; and the frequency differences of `alpha`
    (`differences`), which every kernel of the run reads.  Windowing masks
    coefficients only, so every part shares `alpha`.  `schedule` is the one
    place an interval's switching realization is built, and `path` the one
    place a window's continuous one is; both share the design's tour and
    cumulative weights, built once per design, and neither reads the lazy
    parts.
    """

    def __init__(
        self,
        config: RunConfig,
        basis: ModalBasis,
        designs: dict[int, ConvexDesign],
        design_bounds: dict[int, float],
    ) -> None:
        self.config = config
        self.basis = basis
        self.designs = designs
        self.design_bounds = design_bounds

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

    def schedule(self, index: int) -> Realization:
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

    def path(self, window: int, speed: float) -> Realization:
        """Continuous path of `window`'s design at `speed` over [0, duration]:
        the paths of one window's intervals differ only in t_start, which
        the energies take as a phase."""
        return build_continuous(
            self.designs[window], (0.0, self.config.duration), speed,
            self.design_bounds[window],
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
    and loss target, build its kernel once (its legless template moved to
    the interval's start), and take three quadratic forms of it in closed
    form: the observed energy of the evolving datum and the energies of its
    parts below and above the window.
    """
    setup = prepare_protocol(config)
    energy = conserved_energy(setup.datum)
    constants = calibration(config.model, setup.basis, config.mass, config.duration)

    observed, fields = [], []
    for m in range(1, config.interval_count + 1):
        window = config.window_at(m)
        schedule = setup.schedule(m)
        template = path_template(schedule, setup.differences)
        kernel = shifted_kernel(
            setup.gamma_base, setup.differences, schedule.t_start, *template
        )
        observed.append(kernel_energy(kernel, setup.coeff))
        fields.append(dict(
            index=m,
            window=window,
            tolerance=config.tolerance_at(m),
            macro_count=schedule.macro_count,
            observed=observed[-1],
            windowed_energy=energy.below(window),
            truncated=kernel_energy(kernel, setup.windowed[window]),
            tail=kernel_energy(kernel, setup.tails[window]),
        ))
    records = [
        IntervalRecord(running_mean=mean, **record)
        for record, mean in zip(fields, running_means(observed).tolist())
    ]

    return CesaroSeries(
        setup=setup,
        measure=config.measure,
        energy=energy.total,
        constants=constants,
        records=tuple(records),
    )


def _finite_or_none(value: float) -> float | None:
    """A margin for JSON: None (null) when no interval bounds it."""
    return value if math.isfinite(value) else None


def _reported(key: str) -> property:
    """A report attribute read from the report's payload."""
    return property(lambda self: self.to_dict()[key])


class TailReductionReport(NamedTuple):
    """Numerical check of the hypotheses that discard the spectral tail.

    For each interval the protocol records the observed energy of the datum
    truncated at the interval's cutoff and of the complementary tail; the
    report verifies the uniform upper bound, the windowed lower bound, and
    the split inequality

        observed >= (1 - eta) * truncated - (1/eta - 1) * tail

    for every eta in the grid, and evaluates the running-mean floor each eta
    implies.  The fields are what the payload (`tail_report`) is built
    from; the verdicts and the other derived numbers are read from it.
    """

    etas: tuple[float, ...]
    observed: np.ndarray
    windowed: np.ndarray           # conserved energy of the datum below each window
    truncated: np.ndarray
    tail: np.ndarray
    upper: float                   # the calibration's upper constant
    energy: float
    reference_bound: float
    lower_margin: float            # min over m of truncated / positive floor; inf if none
    split_ok: dict[float, bool]
    eta_bounds: dict[float, float] # final-mean floor implied by each eta

    upper_margin = _reported("upper_margin")  # max over m of observed / (upper * E)
    upper_ok = _reported("upper_ok")
    lower_ok = _reported("lower_ok")
    best_bound = _reported("best_bound")
    tail_mean = _reported("tail_mean")        # Cesaro average of tail energies E - E_leK
    tail_fraction = _reported("tail_fraction")  # tail_mean / E

    def to_dict(self) -> dict:
        split = {
            "etas": list(self.etas),
            "lower_margin": _finite_or_none(self.lower_margin),
            "split_ok": {str(k): v for k, v in self.split_ok.items()},
            "eta_bounds": {str(k): v for k, v in self.eta_bounds.items()},
        }
        return tail_report(
            self.observed, self.windowed, self.upper, self.energy, self.reference_bound, split
        )


def tail_report(
    observed: np.ndarray,
    windowed: np.ndarray,
    upper: float,
    energy: float,
    bound: float,
    split: dict,
) -> dict:
    """The tail-reduction report as run_meta.json holds it.  `split` holds,
    as JSON, the fields only the truncated and tail energies give (etas,
    lower_margin, split_ok, eta_bounds); the rest derive from them, the
    energies Q_m and E_leK, the upper constant, E and the reference bound."""
    scale = upper * energy
    tail_mean = float((energy - windowed).mean())
    return {
        "etas": split["etas"],
        "upper_margin": float(observed.max() / scale),
        "upper_ok": bool(np.all(observed <= scale * (1.0 + 1e-10))),
        "lower_margin": split["lower_margin"],
        "lower_ok": clears(split["lower_margin"], 1e-10),
        "split_ok": split["split_ok"],
        "eta_bounds": split["eta_bounds"],
        "best_bound": max(split["eta_bounds"].values()),
        "reference_bound": bound,
        "tail_mean": tail_mean,
        "tail_fraction": tail_mean / energy,
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
    with np.errstate(divide="ignore", invalid="ignore"):
        lower_ratios = np.where(floors > 0, truncated / np.where(floors > 0, floors, 1.0), np.inf)

    split_ok: dict[float, bool] = {}
    eta_bounds: dict[float, float] = {}
    slack = 1e-10 * max(series.energy, 1.0)
    for eta in etas:
        bound_terms = (1.0 - eta) * truncated - (1.0 / eta - 1.0) * tail
        split_ok[eta] = bool(np.all(observed >= bound_terms - slack))
        eta_bounds[eta] = float(bound_terms.mean())
    return TailReductionReport(
        etas=tuple(etas),
        observed=observed,
        windowed=series.windowed,
        truncated=truncated,
        tail=tail,
        upper=series.constants.upper,
        energy=series.energy,
        reference_bound=series.reference_bound,
        lower_margin=float(lower_ratios.min()),
        split_ok=split_ok,
        eta_bounds=eta_bounds,
    )


def certified_factor(measure: float, loss: float) -> float:
    """The factor measure - loss a realization certifies, at least 0."""
    return max(measure - loss, 0.0)


def certified_factors(measure: float, paths: dict) -> dict[float, float]:
    """Per speed, the least factor the `(window, speed)` paths certify."""
    factors: dict[float, float] = {}
    for (_, speed), path in paths.items():
        factor = certified_factor(measure, path.certified_loss)
        factors[speed] = min(factors.get(speed, factor), factor)
    return factors


def monotone_ok(losses: dict[float, list[float]]) -> bool:
    """Whether no interval's certified loss grows from one speed to the next
    faster one, the speeds compared in sorted order."""
    ladder = sorted(losses)
    return all(
        hi <= lo * (1.0 + 1e-12)
        for slow, fast in zip(ladder, ladder[1:])
        for lo, hi in zip(losses[slow], losses[fast])
    )


def continuous_fields(
    measure: float,
    paths: dict,
    observed: dict[float, np.ndarray],
    losses: dict[float, list[float]],
    margin: float | None,
) -> dict:
    """The continuous report as continuous_report.json holds it: the speeds
    of `observed` in ladder order, each one's least certified factor over
    the `(window, speed)` paths and the final running mean of its observed
    energies, whether the per-interval certified `losses` fall monotonically
    with speed, and the realized margin with whether it clears 1."""
    factors = certified_factors(measure, paths)
    return {
        "speeds": list(observed),
        "certified_factors": {str(v): factors[v] for v in observed},
        "monotone_ok": monotone_ok(losses),
        "realized_ok": clears(margin, 1e-9),
        "realized_margin": margin,
        "final_means": {str(v): float(running_means(column)[-1]) for v, column in observed.items()},
    }


class ContinuousReport(NamedTuple):
    """Continuous-path rerun of the protocol over a ladder of speeds.

    For each speed the protocol intervals are re-realized by one continuous
    speed-bounded path per window; the certified factor measure - loss(speed,
    R) must improve monotonically with speed, and for each interval the
    observed energy of the windowed datum must respect the certified factor
    times the full-torus interval energy.
    """

    speeds: tuple[float, ...]
    windows: tuple[int, ...]               # each interval's window
    paths: dict[tuple[int, float], Realization]  # each (window, speed)'s path
    observed: dict[float, np.ndarray]      # per speed, each interval's energy
    measure: float
    realized_margin: float  # inf when no interval leaves a positive factor

    @property
    def losses(self) -> dict[float, list[float]]:
        """Per speed, the loss each interval's path certifies."""
        return {
            v: [self.paths[k, v].certified_loss for k in self.windows] for v in self.speeds
        }

    @property
    def certified_factors(self) -> dict[float, float]:
        return certified_factors(self.measure, self.paths)

    monotone_ok = _reported("monotone_ok")
    realized_ok = _reported("realized_ok")

    def to_dict(self) -> dict:
        return continuous_fields(
            self.measure, self.paths, self.observed, self.losses,
            _finite_or_none(self.realized_margin),
        )


def continuous_protocol_delta(config: RunConfig, speeds) -> ContinuousReport:
    """Rerun the protocol with continuous paths for each speed in the ladder.

    At one speed every interval of a window runs the same path, started at
    (m - 1) * duration.  Its template (`path_template`) is built once per
    (window, speed), and `shifted_energies` reduces it once onto the
    distinct frequency differences: every interval of the window then gets
    its observed energy, and where needed its windowed one, from one phase
    product over its start, with no kernel formed.  The energies are those
    of the started path's `path_kernel` up to rounding.

    The realized margin is evaluated on the datum truncated at each
    interval's cutoff (the certificate covers the windowed part; the tail
    only adds energy), and only where the certified loss leaves a positive
    factor.  Its full-torus references are computed once per interval for
    all speeds.
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

    paths: dict[tuple[int, float], Realization] = {}
    observed: dict[float, np.ndarray] = {}
    realized_margin = math.inf
    for speed in speeds:
        for k in setup.designs:
            paths[k, speed] = setup.path(k, speed)
        observed[speed] = np.empty(count)
        for k, at in members.items():
            factor = certified_factor(config.measure, paths[k, speed].certified_loss)
            parts = [setup.coeff, setup.windowed[k]] if factor > 0.0 else [setup.coeff]
            # built before Gamma(0) is first read, and released before the
            # next window's: the run's memory peak is a template's build
            repeats, segments = path_template(paths[k, speed], table)
            energies = shifted_energies(
                setup.gamma_base, table, starts[at], repeats, segments, parts
            )
            repeats = segments = None
            observed[speed][at] = energies[:, 0]
            if factor > 0.0:
                bounded = references[at] > 0.0
                part = energies[bounded, 1]
                floors = factor * references[at][bounded]
                ratio = float(np.min(part / floors, initial=math.inf))
                realized_margin = min(realized_margin, ratio)

    return ContinuousReport(
        speeds=speeds,
        windows=tuple(windows.tolist()),
        paths=paths,
        observed=observed,
        measure=config.measure,
        realized_margin=realized_margin,
    )
