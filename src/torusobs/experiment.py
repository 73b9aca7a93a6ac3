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
everything the intervals share, and each interval's template is built
once: the observed, windowed and tail energies are three quadratic forms
of its kernel, taken in one pass over the kernel's blocks of rows.
In the continuous rerun every interval of one window runs the same path at
a given speed, so that path's template is built once per (window, speed)
and moved to each interval by one phase e^{i D t}.  No command forms a
kernel: `evolve` evaluates each one block of rows at a time, so memory
grows with the distinct keys and one block.  Every template of a run reads
one table of the distinct frequency differences D of the datum's expansion
(`ProtocolSetup.differences`), built once.  The full-torus calibration
constants come from `spectral.calibration`.

The protocol returns numbers and payloads, not report objects: the
per-interval energies (`CesaroSeries`), the tail-reduction report as
run_meta.json holds it, and the paths and energies of the continuous rerun
(`ContinuousRun`).  Every number the artifacts derive from the energies has
one formula here, from running means to the tail and continuous reports
(`tail_report`, `continuous_fields`); the writers and `verify` both call
them.

The energies are `evolve`'s, and only the code that evaluates them imports
it, when it runs: `ProtocolSetup`'s datum, expansions and difference
table, `run_protocol` and `continuous_protocol_delta`.  `schedule` and
`verify` read the designs, realizations and report formulas here, so
their processes never compile `evolve`.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import NumericError, RunConfig
from .design import ConvexDesign, equispaced_design
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

if TYPE_CHECKING:
    from .evolve import DifferenceTable, ModalDatum

__all__ = [
    "CesaroSeries",
    "ContinuousRun",
    "ProtocolSetup",
    "WindowExceedsSimulation",
    "continuous_protocol_delta",
    "prepare_protocol",
    "run_protocol",
    "tail_reduction_check",
]


#: the tail-report verdicts a run's certificate needs, all true
TAIL_FLAGS = ("upper_ok", "lower_ok", "split_ok")


class WindowExceedsSimulation(NumericError):
    """A requested window cutoff reaches or exceeds the simulation cutoff."""


class CesaroSeries(NamedTuple):
    """Protocol output: the setup it ran on, the datum's conserved energy E,
    the calibration constants, and per interval the observed energy Q_m,
    the conserved energy E_leK of the datum below the interval's window, and
    the observation energies of the datum below (`truncated`) and above
    (`tail`) that window."""

    setup: ProtocolSetup
    energy: float
    constants: CalibrationConstants
    observed: np.ndarray
    windowed: np.ndarray
    truncated: np.ndarray
    tail: np.ndarray


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
    (`differences`), which every template of the run reads.  Windowing masks
    coefficients only, so every part shares `alpha`.  `schedule` is the one
    place an interval's switching realization is built, and `path` the one
    place a window's continuous one is; both share the design's tour length
    (`cycle`) and cumulative weights, built once per design, and neither
    reads the lazy parts.
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
        from .evolve import random_datum

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

    @cached_property
    def _expansion(self) -> tuple[np.ndarray, np.ndarray]:
        from .evolve import output_expansion

        return output_expansion(self.datum)

    @property
    def coeff(self) -> np.ndarray:
        return self._expansion[0]

    @property
    def alpha(self) -> np.ndarray:
        return self._expansion[1]

    @cached_property
    def windowed(self) -> dict[int, np.ndarray]:
        from .evolve import output_expansion

        return {k: output_expansion(self.datum.windowed(k))[0] for k in self.designs}

    @cached_property
    def tails(self) -> dict[int, np.ndarray]:
        from .evolve import output_expansion

        return {k: output_expansion(self.datum.tail(k))[0] for k in self.designs}

    @cached_property
    def gamma_base(self) -> ObservationMatrix:
        space = self.config.space()
        return gamma_matrix(self.basis, self.config.prototype(), space.identity())

    @cached_property
    def differences(self) -> DifferenceTable:
        from .evolve import DifferenceTable

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
    and loss target and its legless template, and take three quadratic
    forms of the template's kernel at the interval's start in one pass over
    its blocks (`kernel_energies`): the observed energy of the evolving
    datum and the energies of its parts below and above the window.  With
    the conserved energy below the window, these are the series' four
    per-interval arrays.
    """
    from .evolve import conserved_energy, kernel_energies, path_template

    setup = prepare_protocol(config)
    energy = conserved_energy(setup.datum)
    constants = calibration(config.model, setup.basis, config.mass, config.duration)

    energies = []  # per interval: Q_m, E_leK, truncated, tail
    for m in range(1, config.interval_count + 1):
        window = config.window_at(m)
        schedule = setup.schedule(m)
        parts = [setup.coeff, setup.windowed[window], setup.tails[window]]
        # the template is released before the next interval's is built
        observed, truncated, tail = kernel_energies(
            setup.gamma_base, setup.differences, schedule.t_start,
            path_template(schedule, setup.differences), parts,
        )
        energies.append((observed, energy.below(window), truncated, tail))
    return CesaroSeries(setup, energy.total, constants, *np.array(energies).T)


def _finite_or_none(value: float) -> float | None:
    """A margin for JSON: None (null) when no interval bounds it."""
    return value if math.isfinite(value) else None


def tail_report(
    observed: np.ndarray,
    windowed: np.ndarray,
    upper: float,
    energy: float,
    bound: float,
    split: dict,
) -> dict:
    """The tail-reduction report as run_meta.json holds it.  `split` holds,
    as JSON, the fields only the truncated and tail energies give
    (lower_margin, split_ok, split_bound); the rest derive from them, the
    energies Q_m and E_leK, the upper constant, E and the reference bound."""
    scale = upper * energy
    tail_mean = float((energy - windowed).mean())
    return {
        "upper_margin": float(observed.max() / scale),
        "upper_ok": bool(np.all(observed <= scale * (1.0 + 1e-10))),
        "lower_margin": split["lower_margin"],
        "lower_ok": clears(split["lower_margin"], 1e-10),
        "split_ok": bool(split["split_ok"]),
        "split_bound": float(split["split_bound"]),
        "reference_bound": bound,
        "tail_mean": tail_mean,
        "tail_fraction": tail_mean / energy,
    }


def split_optimum(truncated, tail) -> np.ndarray:
    """sup over eta in (0, 1) of (1 - eta) * truncated - (1/eta - 1) * tail,
    reached at eta = sqrt(tail / truncated): (sqrt(truncated) - sqrt(tail))**2
    where tail < truncated, else 0.  Each energy is clipped at 0 first, so a
    rounding-level negative gives no NaN."""
    gap = np.sqrt(np.maximum(truncated, 0.0)) - np.sqrt(np.maximum(tail, 0.0))
    return np.maximum(gap, 0.0) ** 2


def tail_reduction_check(series: CesaroSeries) -> dict:
    """The tail-reduction report of a finished protocol run, as
    run_meta.json holds it (`tail_report`).

    It checks the hypotheses that discard the spectral tail: the uniform
    upper bound, the windowed lower bound (each interval's truncated energy
    against its certified floor lower * (measure - eps_m) * E_leK), and the
    split inequality observed >= `split_optimum`(truncated, tail) on every
    interval, whose mean is `split_bound`.  `coeff` is exactly `windowed +
    tails` (windowing masks coefficients), so the inequality is a theorem:
    a false `split_ok` means a kernel's quadratic form was not positive
    semidefinite in floating point.
    """
    config = series.setup.config
    constants = series.constants
    observed, truncated, tail = series.observed, series.truncated, series.tail
    tolerances = np.array([config.tolerance_at(m) for m in range(1, config.interval_count + 1)])
    floors = constants.lower * (config.measure - tolerances) * series.windowed
    with np.errstate(divide="ignore", invalid="ignore"):
        lower_ratios = np.where(floors > 0, truncated / np.where(floors > 0, floors, 1.0), np.inf)

    slack = 1e-10 * max(series.energy, 1.0)
    optimum = split_optimum(truncated, tail)
    split = {
        "lower_margin": _finite_or_none(float(lower_ratios.min())),
        "split_ok": bool(np.all(observed >= optimum - slack)),
        "split_bound": float(optimum.mean()),
    }
    bound = reference_bound(config.measure, constants.lower, series.energy)
    return tail_report(observed, series.windowed, constants.upper, series.energy, bound, split)


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


class ContinuousRun(NamedTuple):
    """Continuous-path rerun of the protocol over a ladder of speeds: each
    `(window, speed)`'s path, per speed each interval's observed energy, and
    the realized margin, None when no interval's path leaves a positive
    factor (`continuous_fields` builds the report from them)."""

    paths: dict[tuple[int, float], Realization]
    observed: dict[float, np.ndarray]
    realized_margin: float | None


def continuous_protocol_delta(config: RunConfig, speeds) -> ContinuousRun:
    """Rerun the protocol with continuous paths for each speed in the ladder.

    At one speed every interval of a window runs the same path, started at
    (m - 1) * duration.  Its template (`path_template`) is built once per
    (window, speed), and `shifted_energies` reduces it once onto the
    distinct frequency differences: every interval of the window then gets
    its observed energy, and where needed its windowed one, from one phase
    product over its start, with no kernel formed.  The energies are the
    quadratic forms of the started path's kernel up to rounding.

    The realized margin is evaluated on the datum truncated at each
    interval's cutoff (the certificate covers the windowed part; the tail
    only adds energy), and only where the certified loss leaves a positive
    factor.  Its full-torus references are computed once per interval for
    all speeds.
    """
    from .evolve import expansion_interval_energy, path_template, shifted_energies

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
            # the template is released before the next window's is built
            energies = shifted_energies(
                setup.gamma_base, table, starts[at], path_template(paths[k, speed], table), parts
            )
            observed[speed][at] = energies[:, 0]
            if factor > 0.0:
                bounded = references[at] > 0.0
                part = energies[bounded, 1]
                floors = factor * references[at][bounded]
                ratio = float(np.min(part / floors, initial=math.inf))
                realized_margin = min(realized_margin, ratio)

    return ContinuousRun(paths, observed, _finite_or_none(realized_margin))
