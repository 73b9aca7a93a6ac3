"""Observer schedules realizing a convex design dynamically.

A switching schedule tiles an interval with R equal macro intervals; inside
each, the observer dwells on atom j for the fraction theta_j of the macro
length, in design order.  The certified realization loss comes from the
Lipschitz oscillation bound: splitting finely enough that each observation
density moves by at most Lambda * T0 / R inside a macro interval costs at
most (L+1) * Lambda * T0^2 / R of the exact design identity.

A continuous path replaces the jumps with transit legs run at one fixed speed
along shortest torus arcs, trading dwell time for motion; its certified loss
adds the transit deficit L*D*R/(speed*T0) to the oscillation term.

Schedules can be astronomically fine (R ~ 10^6 at desk scale), so the micro
structure is generated on demand instead of being materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .design import ConvexDesign


class OutOfInterval(Exception):
    """Query time outside the scheduled interval."""


class SpeedTooLow(Exception):
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
    slot.  Slots are half-open and generated on demand.
    """

    design: ConvexDesign
    t_start: float
    duration: float
    macro_count: int
    lipschitz_bound: float
    certified_loss: float
    cum: np.ndarray

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

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

    def micro_interval(self, r: int, j: int) -> tuple[float, float, int]:
        """Slot (macro r, atom j) as (t_start, t_end, atom_index)."""
        if not (0 <= r < self.macro_count and 0 <= j < self.atom_count):
            raise IndexError(f"no micro slot ({r}, {j})")
        start, end = self.boundaries(r, 1)[0, j : j + 2].tolist()
        return (start, end, j)

    def iter_micro(self) -> Iterator[tuple[float, float, int]]:
        for r in range(self.macro_count):
            for j in range(self.atom_count):
                yield self.micro_interval(r, j)

    def micro_intervals(self, max_slots: int = 1_000_000) -> list[tuple[float, float, int]]:
        if self.micro_count > max_slots:
            raise ValueError(
                f"{self.micro_count} micro slots exceed the materialization cap {max_slots}"
            )
        return list(self.iter_micro())

    def observer_at(self, t: float) -> int:
        """Atom index active at time t (binary search; endpoint -> last slot)."""
        if t < self.t_start or t > self.t_end:
            raise OutOfInterval(f"t = {t} outside [{self.t_start}, {self.t_end}]")
        tau = self.macro_length
        r = min(int((t - self.t_start) / tau), self.macro_count - 1)
        s = (t - self.t_start - r * tau) / tau
        j = int(np.searchsorted(self.cum, s, side="right")) - 1
        return min(max(j, 0), self.atom_count - 1)


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


def cycle_length(shifts: list[np.ndarray]) -> float:
    """Flat length of the closed tour through the shifts in index order."""
    n = len(shifts)
    if n <= 1:
        return 0.0
    total = 0.0
    for k in range(n):
        delta = torus_displacement(shifts[k], shifts[(k + 1) % n])
        total += float(np.linalg.norm(delta))
    return total


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
    def t_end(self) -> float:
        return self.t_start + self.duration

    @property
    def macro_length(self) -> float:
        return self.duration / self.macro_count

    def position_at(self, t: float) -> np.ndarray:
        if t < self.t_start or t > self.t_end:
            raise OutOfInterval(f"t = {t} outside [{self.t_start}, {self.t_end}]")
        tau = self.macro_length
        r = min(int((t - self.t_start) / tau), self.macro_count - 1)
        s = t - self.t_start - r * tau
        seg = self.template[-1]
        for candidate in self.template:
            if s < candidate.offset_end:
                seg = candidate
                break
        pos = np.array(seg.position) + np.array(seg.velocity) * max(
            0.0, s - seg.offset_start
        )
        return pos % 1.0


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
    # order from 0.0, as `cycle_length` does
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
