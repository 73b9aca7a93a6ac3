"""Observer realizations of a convex design on a time interval.

A realization tiles an interval with R equal macro intervals of length tau
and runs one macro template in each: the observer dwells on atom j for
theta_j * (tau - cycle/speed), in design order, and then moves along leg j
of the design's closed tour to the next atom at the fixed speed.  A
switching schedule is the realization at infinite speed: its legs take no
time, so the dwells fill the whole macro interval.  One `Realization` type
holds both as a mesh, a speed and the design, whose tour length is its
`cycle`; the closed-form energies in `evolve` read nothing else, and no
segment list is ever built.

The two constructors size R differently.  `build_switching` meets a loss
target through the Lipschitz oscillation bound: splitting finely enough
that each observation density moves by at most Lambda * T0 / R inside a
macro interval costs at most (L+1) * Lambda * T0^2 / R of the exact design
identity.  `build_continuous` balances that oscillation term against the
transit deficit L*D*R/(speed*T0) at a given speed.

Schedules can be astronomically fine (R ~ 10^6 at desk scale), so no slot
list is ever materialized: the schedule CSV writer forms the slot times of
a block of macro intervals from the design's cumulative weights, and the
energies sum the R repetitions of the template in closed form.
"""

from __future__ import annotations

import math

from .config import NumericError
from .design import ConvexDesign


class SpeedTooLow(NumericError):
    """The speed bound cannot traverse the atom cycle within one macro interval."""


class Realization:
    """A design realized on [t_start, t_start + duration] by R = macro_count
    repetitions of one macro template at a speed bound; `speed` is infinite
    for a switching schedule.  `certified_loss` is the loss the constructor
    certifies for every profile-space datum."""

    def __init__(
        self,
        design: ConvexDesign,
        t_start: float,
        duration: float,
        macro_count: int,
        speed: float,
        certified_loss: float,
    ) -> None:
        self.design = design
        self.t_start = t_start
        self.duration = duration
        self.macro_count = macro_count
        self.speed = speed
        self.certified_loss = certified_loss

    @property
    def macro_length(self) -> float:
        return self.duration / self.macro_count

    @property
    def cycle(self) -> float:
        """The length of the design's tour; at infinite speed it takes no time."""
        return self.design.cycle

    @property
    def atom_count(self) -> int:
        return len(self.design)

    @property
    def micro_count(self) -> int:
        """Dwell slots over the interval, R * J."""
        return self.macro_count * self.atom_count


def build_switching(
    design: ConvexDesign,
    interval: tuple[float, float],
    lipschitz_bound: float,
    target_loss: float,
) -> Realization:
    """Switching schedule: size the macro mesh so the certified realization
    loss meets the target.

    R = max(1, ceil((L+1) * Lambda * T0^2 / target)); the oscillation argument
    then certifies a loss of at most the target for every profile-space datum.
    """
    t_start, duration = interval
    if duration <= 0:
        raise ValueError("interval duration must be positive")
    if lipschitz_bound < 0:
        raise ValueError("Lipschitz bound must be >= 0")
    measure = design.measure
    if not (0.0 < target_loss < measure):
        raise ValueError(
            f"target loss must lie in (0, L) = (0, {measure}), got {target_loss}"
        )
    raw = (measure + 1.0) * lipschitz_bound * duration * duration / target_loss
    return Realization(
        design=design,
        t_start=float(t_start),
        duration=float(duration),
        macro_count=max(1, math.ceil(raw)),
        speed=math.inf,
        certified_loss=float(target_loss),
    )


def continuous_loss(
    measure: float,
    cycle: float,
    macro_count: int,
    speed: float,
    duration: float,
    lipschitz_bound: float,
) -> float:
    """Certified loss of a continuous realization:
    L*D*R/(speed*T0) + (L+1)*T0*Lambda*(T0/R)."""
    transit = measure * cycle * macro_count / (speed * duration)
    oscillation = (measure + 1.0) * duration * lipschitz_bound * (duration / macro_count)
    return transit + oscillation


def build_continuous(
    design: ConvexDesign,
    interval: tuple[float, float],
    speed: float,
    lipschitz_bound: float,
) -> Realization:
    """Continuous realization at a fixed speed bound.

    Picks R = max(1, floor(sqrt(speed*T0*Lambda*(L+1)*T0 / (L*D)))) clipped to
    the largest integer strictly below speed*T0/D (dwell time must stay
    positive).  With a zero-length cycle there is no transit cost and the
    same balance formula is used with unit cycle length.
    """
    t_start, duration = interval
    if duration <= 0:
        raise ValueError("interval duration must be positive")
    if speed <= 0:
        raise ValueError("speed must be positive")
    measure = design.measure
    cycle = design.cycle

    balance = speed * duration * lipschitz_bound * (measure + 1.0) * duration / measure
    if cycle == 0.0:
        macro_count = max(1, math.floor(math.sqrt(balance)))
    else:
        if speed * duration / cycle <= 1.0:
            raise SpeedTooLow(
                f"speed {speed} cannot close a cycle of length {cycle} "
                f"within the interval; need speed > {cycle / duration}"
            )
        r_max = math.ceil(speed * duration / cycle) - 1
        macro_count = min(max(1, math.floor(math.sqrt(balance / cycle))), r_max)

    transit_time = cycle / speed
    dwell_total = duration / macro_count - transit_time
    # speeds sitting a rounding error above an integer multiple of the cycle
    # rate can leave the clipped mesh with no dwell time; coarsen until some is left
    while dwell_total <= 0.0 and macro_count > 1:
        macro_count -= 1
        dwell_total = duration / macro_count - transit_time
    if dwell_total <= 0:
        raise SpeedTooLow("no dwell time left inside a macro interval")

    loss = continuous_loss(measure, cycle, macro_count, speed, duration, lipschitz_bound)
    return Realization(
        design=design,
        t_start=float(t_start),
        duration=float(duration),
        macro_count=macro_count,
        speed=float(speed),
        certified_loss=float(loss),
    )
