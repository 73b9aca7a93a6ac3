"""Observer schedules realizing a convex design dynamically.

A switching schedule tiles an interval with R equal macro intervals; inside
each, the observer dwells on atom j for the fraction theta_j of the macro
length, in design order.  The certified realization loss comes from the
Lipschitz oscillation bound: splitting finely enough that each observation
density moves by at most Lambda * T0 / R inside a macro interval costs at
most (L+1) * Lambda * T0^2 / R of the exact design identity.

A continuous path replaces the jumps with transit legs run at one fixed speed
along shortest torus arcs, trading dwell time for motion; its certified loss
adds the transit deficit L*D*R/(speed*T0) to the oscillation term.  Read the
other way, a switching schedule is that path with legs that take no time: it
supplies the same macro template (dwell segments only), a zero cycle and an
infinite speed, so the closed-form energies in `evolve` take either.

Schedules can be astronomically fine (R ~ 10^6 at desk scale), so no slot
list is ever materialized: `SwitchingSchedule.boundaries` forms the slot
times of a block of macro intervals when the schedule CSV is written, and
the energies sum the R repetitions of the template in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .config import NumericError
from .design import ConvexDesign


class SpeedTooLow(NumericError):
    """The speed bound cannot traverse the atom cycle within one macro interval."""


def _cumulative_weights(design: ConvexDesign) -> np.ndarray:
    cum = np.concatenate([[0.0], np.cumsum(design.weights)])
    cum[-1] = 1.0  # absorb rounding so slots tile each macro interval exactly
    return cum


@dataclass(frozen=True, eq=False)
class SwitchingSchedule:
    """Piecewise-constant observer positions realizing a design on an interval.

    Micro slot (r, j) is [t_start + (r + cum_j) * tau, t_start + (r + cum_{j+1}) * tau)
    with tau = duration / macro_count; the final endpoint belongs to the last
    slot.  Slots are half-open; `boundaries` forms their times on demand.

    As a path it has no legs: `cycle` is 0 and `speed` infinite, so none of
    the macro interval goes to transit, and `template` lists one dwell per
    atom.
    """

    design: ConvexDesign
    t_start: float
    duration: float
    macro_count: int
    lipschitz_bound: float
    certified_loss: float
    cum: np.ndarray

    cycle: ClassVar[float] = 0.0
    speed: ClassVar[float] = math.inf

    @property
    def macro_length(self) -> float:
        return self.duration / self.macro_count

    @property
    def atom_count(self) -> int:
        return len(self.design)

    @property
    def micro_count(self) -> int:
        return self.macro_count * self.atom_count

    def boundaries(self, first: int, count: int) -> np.ndarray:
        """Slot boundaries of macros first .. first + count - 1 as a
        (count, J + 1) grid: macro r's row is (t_start + r tau) + cum_k tau,
        k = 0..J, and slot (r, j) runs from cell j to cell j + 1.  Every slot
        time of the schedule is formed here."""
        tau = self.macro_length
        r = np.arange(first, first + count)
        return (self.t_start + r * tau)[:, None] + self.cum[None, :] * tau

    @cached_property
    def template(self) -> tuple["PathSegment", ...]:
        """The dwells of one macro interval, slot j on [cum_j tau, cum_{j+1} tau)."""
        tau = self.macro_length
        offsets = (self.cum * tau).tolist()
        dim = self.design.atoms[0].shift.dim
        return tuple(
            PathSegment(
                offset_start=offsets[j],
                offset_end=offsets[j + 1],
                kind="dwell",
                atom_index=j,
                position=tuple(atom.shift.as_floats().tolist()),
                velocity=(0.0,) * dim,
            )
            for j, atom in enumerate(self.design.atoms)
        )


def build_switching(
    design: ConvexDesign,
    interval: tuple[float, float],
    lipschitz_bound: float,
    target_loss: float,
) -> SwitchingSchedule:
    """Size the macro mesh so the certified realization loss meets the target.

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
    macro_count = max(1, math.ceil(raw))
    return SwitchingSchedule(
        design=design,
        t_start=float(t_start),
        duration=float(duration),
        macro_count=macro_count,
        lipschitz_bound=float(lipschitz_bound),
        certified_loss=float(target_loss),
        cum=_cumulative_weights(design),
    )


def torus_displacement(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shortest signed per-axis displacement from a to b on the unit torus."""
    return (b - a + 0.5) % 1.0 - 0.5


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


@dataclass(frozen=True)
class PathSegment:
    """One dwell or transit segment of the per-macro template.

    Offsets are relative to the macro interval start.  Dwells have zero
    velocity; transit legs move at the path's speed along a shortest arc.
    """

    offset_start: float
    offset_end: float
    kind: str               # "dwell" | "transit"
    atom_index: int         # dwell: the atom; transit: the leg's source atom
    position: tuple[float, ...]   # dwell shift, or transit start point
    velocity: tuple[float, ...]   # zeros for dwells


@dataclass(frozen=True, eq=False)
class ContinuousPath:
    """Speed-bounded continuous observer path realizing a design.

    Each macro interval runs the same template: dwell at atom j for
    theta_j * (tau - D/speed), then move to the next atom at the fixed speed;
    the closing leg returns to the first atom.
    """

    design: ConvexDesign
    t_start: float
    duration: float
    macro_count: int
    speed: float
    cycle: float
    lipschitz_bound: float
    certified_loss: float
    template: tuple[PathSegment, ...]

    @property
    def macro_length(self) -> float:
        return self.duration / self.macro_count


def build_continuous(
    design: ConvexDesign,
    interval: tuple[float, float],
    speed: float,
    lipschitz_bound: float,
) -> ContinuousPath:
    """Continuous realization at a fixed speed bound.

    Picks R = max(1, floor(sqrt(speed*T0*Lambda*(L+1)*T0 / (L*D)))) clipped to
    the largest integer strictly below speed*T0/D (dwell time must stay
    positive), then lays out dwells and constant-speed transit legs.  With a
    zero-length cycle there is no transit cost and the same balance formula is
    used with unit cycle length.
    """
    t_start, duration = interval
    if duration <= 0:
        raise ValueError("interval duration must be positive")
    if speed <= 0:
        raise ValueError("speed must be positive")
    measure = design.measure
    shifts = [a.shift.as_floats() for a in design.atoms]
    # leg j runs from atom j to atom j + 1, the last one back to atom 0; a
    # single atom's only leg has length 0.  The cycle adds the legs in
    # order from 0.0
    points = np.array(shifts)
    deltas = torus_displacement(points, np.roll(points, -1, axis=0))
    legs = [float(np.linalg.norm(delta)) for delta in deltas]
    cycle = 0.0
    for leg in legs:
        cycle += leg

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

    tau = duration / macro_count
    transit_time = cycle / speed
    dwell_total = tau - transit_time
    # speeds sitting a rounding error above an integer multiple of the cycle
    # rate can leave the clipped mesh with no dwell time; coarsen until some is left
    while dwell_total <= 0.0 and macro_count > 1:
        macro_count -= 1
        tau = duration / macro_count
        dwell_total = tau - transit_time
    if dwell_total <= 0:
        raise SpeedTooLow("no dwell time left inside a macro interval")

    segments: list[PathSegment] = []
    offset = 0.0
    dim = design.atoms[0].shift.dim
    for j in range(len(design)):
        dwell_len = design.atoms[j].weight * dwell_total
        segments.append(
            PathSegment(
                offset_start=offset,
                offset_end=offset + dwell_len,
                kind="dwell",
                atom_index=j,
                position=tuple(shifts[j]),
                velocity=(0.0,) * dim,
            )
        )
        offset += dwell_len
        if legs[j] > 0.0:
            leg_time = legs[j] / speed
            segments.append(
                PathSegment(
                    offset_start=offset,
                    offset_end=offset + leg_time,
                    kind="transit",
                    atom_index=j,
                    position=tuple(shifts[j]),
                    velocity=tuple(deltas[j] / leg_time),
                )
            )
            offset += leg_time
    # absorb rounding: last segment ends exactly at the macro boundary
    last = segments[-1]
    segments[-1] = PathSegment(
        offset_start=last.offset_start,
        offset_end=tau,
        kind=last.kind,
        atom_index=last.atom_index,
        position=last.position,
        velocity=last.velocity,
    )
    loss = continuous_loss(measure, cycle, macro_count, speed, duration, lipschitz_bound)
    return ContinuousPath(
        design=design,
        t_start=float(t_start),
        duration=float(duration),
        macro_count=macro_count,
        speed=float(speed),
        cycle=cycle,
        lipschitz_bound=float(lipschitz_bound),
        certified_loss=float(loss),
        template=tuple(segments),
    )
