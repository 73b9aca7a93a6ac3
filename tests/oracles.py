"""Slow, independent numerical routes used to cross-check the closed forms.

Nothing here reuses the package's antiderivative-based integration: restricted
set integrals are redone by midpoint Riemann sums (1d) or per-box tensor
Gauss-Legendre quadrature (2d), time integrals by composite Simpson rules on
dense grids, output trajectories by direct trig evaluation, and the state
flow by its rotation formulas.  The path oracle redoes the segment sum at 40
digits with mpmath.  Schedule slots come from the scalar slot formula, one
float operation at a time, path positions from a scan of the macro
template, and the tour's cycle from a loop over its legs.  That template is
summed segment by segment for any design, with the package's own slot
integral (`per_segment_sum`), the route the grid tour sum replaced.  The
difference table is rebuilt from the dense D by sorting every kernel entry's key.
The kernel route forms a whole kernel and takes its quadratic form in one
matrix-vector product (`path_kernel`, `kernel_energy`), where the package
evaluates one block of rows at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy.integrate import simpson

from torusobs.evolve import (
    DifferenceTable,
    ModalDatum,
    PairKeys,
    path_template,
    phase_integral,
    template_rows,
)
from torusobs.geometry import torus_displacement

TWO_PI = 2.0 * np.pi


class PathSegment(NamedTuple):
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


def template(path) -> tuple[PathSegment, ...]:
    """One macro interval of `path`: dwell j lasts theta_j * (tau - cycle/speed),
    then leg j (to the next atom, the last back to atom 0) follows where it
    takes time; the last segment ends at tau exactly."""
    tau = path.macro_length
    span = tau - path.cycle / path.speed
    points = np.array([a.shift.as_floats() for a in path.design.atoms])
    deltas = torus_displacement(points, np.roll(points, -1, axis=0))
    rest = (0.0,) * deltas.shape[1]
    segments: list[PathSegment] = []
    offset = 0.0
    for j, (atom, delta) in enumerate(zip(path.design.atoms, deltas)):
        position = tuple(atom.shift.as_floats().tolist())
        width = atom.weight * span
        segments.append(PathSegment(offset, offset + width, "dwell", j, position, rest))
        offset += width
        leg_time = float(np.linalg.norm(delta)) / path.speed
        if leg_time > 0.0:
            velocity = tuple((delta / leg_time).tolist())
            segments.append(
                PathSegment(offset, offset + leg_time, "transit", j, position, velocity)
            )
            offset += leg_time
    # absorb rounding: the last segment ends exactly at the macro boundary
    segments[-1] = segments[-1]._replace(offset_end=tau)
    return tuple(segments)


def per_segment_sum(diff: np.ndarray, mode_differences: np.ndarray, path) -> np.ndarray:
    """Segment integrals of one macro template summed segment by segment.

    On a segment the position is affine in t, so the shift phase stays a
    complex exponential e^{i rate (t - t1)} that folds into the slot
    integral; a dwell is the segment of rate 0.  Any design, at any speed.
    `diff` is the dense D on the lifted axes and `mode_differences` holds
    n_i - n_k, shape (dim, dim, d).
    """
    # 2 pi (n_i - n_k), lifted to the (mode, branch, mode, branch) axes
    mdiff = TWO_PI * mode_differences[:, None, :, None, :]
    total = np.zeros_like(diff, dtype=complex)
    for seg in template(path):
        width = seg.offset_end - seg.offset_start
        if width <= 0.0:
            continue
        position = np.exp(-1j * (mdiff @ np.asarray(seg.position, dtype=float)))
        rate = -(mdiff @ np.asarray(seg.velocity, dtype=float))
        local = np.exp(1j * diff * seg.offset_start) * phase_integral(diff + rate, 0.0, width)
        total += position * local
    return total


def riemann_gamma_1d(basis, prototype, shift, nodes: int = 1_000_000) -> np.ndarray:
    """Observation matrix on the circle by midpoint Riemann summation.

    Entry (i, j) is the sum of e^{2 pi i (n_j - n_i) y} over the cell midpoints
    inside the translated set, divided by the node count.  When every piece
    endpoint is a multiple of 1/nodes no cell is straddled and only the
    midpoint rule's O(h^2) curvature error remains (~1e-10 here).
    """
    translated = prototype.translate(shift)
    ys = (np.arange(nodes) + 0.5) / nodes
    mask = np.zeros(nodes, dtype=bool)
    for box in translated.pieces:
        (a, b), = box
        mask |= (ys >= float(a)) & (ys < float(b))
    inside = ys[mask]
    dim = basis.dim
    out = np.empty((dim, dim), dtype=complex)
    cache: dict[int, complex] = {}
    for i, ni in enumerate(basis.modes):
        for j, nj in enumerate(basis.modes):
            m = nj[0] - ni[0]
            if m not in cache:
                cache[m] = complex(np.exp(2j * np.pi * m * inside).sum() / nodes)
            out[i, j] = cache[m]
    return out


def gauss_gamma_2d(basis, prototype, shift, order: int = 200) -> np.ndarray:
    """Observation matrix on the 2-torus by per-box tensor Gauss-Legendre.

    Each translated box contributes a full order x order tensor sum of
    e^{2 pi i m . y} (no factorized shortcut); order 200 is far past exact
    for these entire integrands.
    """
    translated = prototype.translate(shift)
    x0, w0 = np.polynomial.legendre.leggauss(order)
    dim = basis.dim
    out = np.zeros((dim, dim), dtype=complex)
    for box in translated.pieces:
        (ax, bx), (ay, by) = [(float(a), float(b)) for a, b in box]
        xs = 0.5 * (bx - ax) * x0 + 0.5 * (ax + bx)
        ys = 0.5 * (by - ay) * x0 + 0.5 * (ay + by)
        wx = 0.5 * (bx - ax) * w0
        wy = 0.5 * (by - ay) * w0
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        weights = np.outer(wx, wy)
        cache: dict[tuple[int, int], complex] = {}
        for i, ni in enumerate(basis.modes):
            for j, nj in enumerate(basis.modes):
                m = (nj[0] - ni[0], nj[1] - ni[1])
                if m not in cache:
                    cache[m] = complex(
                        np.sum(weights * np.exp(2j * np.pi * (m[0] * gx + m[1] * gy)))
                    )
                out[i, j] += cache[m]
    return out


def simpson_phase_integral(alpha: float, t1: float, t2: float,
                           nodes: int = 100_001) -> complex:
    """Composite-Simpson value of the integral of e^{i alpha t} over [t1, t2]."""
    ts = np.linspace(t1, t2, nodes)
    vals = np.exp(1j * alpha * ts)
    return complex(simpson(vals.real, x=ts) + 1j * simpson(vals.imag, x=ts))


def output_matrix(datum, ts: np.ndarray) -> np.ndarray:
    """Observed output coefficients at the given times, one row per time.

    Direct trig evaluation of the model's solution formulas: the kinetic
    output -rho a sin(rho t) + b cos(rho t) for the second-order models, the
    field c e^{i lambda t} for the first-order one.
    """
    ts = np.asarray(ts, dtype=float)
    if datum.model == "schrodinger":
        return datum.c[None, :] * np.exp(1j * np.outer(ts, datum.basis.eigenvalues))
    rho = datum.rho
    arg = np.outer(ts, rho)
    return (-datum.a * rho)[None, :] * np.sin(arg) + datum.b[None, :] * np.cos(arg)


def simpson_schedule_energy(datum, schedule, gammas,
                            nodes_per_slot: int = 129, chunk: int = 4096) -> float:
    """Quadrature of v(t)^H Gamma_j v(t) over every micro slot, summed.

    Slot (r, j) starts at t_start + (r + cum_j) tau and is integrated in local
    time over its width (cum_{j+1} - cum_j) tau, so late start times do not
    wear the widths down.  `chunk` macro repetitions are done at a time, so
    every one of the R * J slots is integrated even at R ~ 10^5.
    """
    tau = schedule.macro_length
    cum = schedule.design.cumulative_weights
    total = 0.0
    for first in range(0, schedule.macro_count, chunk):
        r = np.arange(first, min(first + chunk, schedule.macro_count))
        for j in range(schedule.atom_count):
            width = (cum[j + 1] - cum[j]) * tau
            if width <= 0.0:
                continue
            local = np.linspace(0.0, width, nodes_per_slot)
            starts = schedule.t_start + (r + cum[j]) * tau
            ts = starts[:, None] + local[None, :]
            v = output_matrix(datum, ts.ravel()).reshape(*ts.shape, -1)
            vals = np.real(np.einsum("sti,ij,stj->st", v.conj(), gammas[j].entries, v))
            total += float(np.sum(simpson(vals, x=local, axis=-1)))
    return total


def simpson_interval_energy(datum, t_start: float, duration: float,
                            nodes: int = 100_001) -> float:
    """Quadrature of the full-torus output energy over one interval."""
    ts = np.linspace(t_start, t_start + duration, nodes)
    v = output_matrix(datum, ts)
    vals = np.sum(np.abs(v) ** 2, axis=1)
    return float(simpson(vals, x=ts))


def simpson_path_energy(datum, path, gamma0_entries: np.ndarray,
                        nodes_per_segment: int = 801) -> float:
    """Quadrature of v(t)^H Gamma(g(t)) v(t) along a continuous path.

    The moving-set matrix is the base matrix twisted by the entrywise phases
    e^{2 pi i (n_j - n_i) . g(t)} with g(t) affine on each segment.  Loops
    over every macro repetition, so only cheap for small macro counts.
    """
    modes = datum.basis.mode_array.astype(float)
    mdiff = modes[None, :, :] - modes[:, None, :]
    segments = template(path)
    total = 0.0
    for r in range(path.macro_count):
        base_t = path.t_start + r * path.macro_length
        for seg in segments:
            t1 = base_t + seg.offset_start
            t2 = base_t + seg.offset_end
            if t2 <= t1:
                continue
            ts = np.linspace(t1, t2, nodes_per_segment)
            v = output_matrix(datum, ts)
            pos_phase = np.exp(2j * np.pi * (mdiff @ np.asarray(seg.position)))
            rate = TWO_PI * (mdiff @ np.asarray(seg.velocity))
            moving = np.exp(1j * rate[None, :, :] * (ts - t1)[:, None, None])
            kernel = (gamma0_entries * pos_phase)[None, :, :] * moving
            vals = np.real(np.einsum("ti,tij,tj->t", v.conj(), kernel, v))
            total += float(simpson(vals, x=ts))
    return total


def _mpf(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def _torus_step(a: Fraction, b: Fraction) -> Fraction:
    """Shortest signed displacement from a to b on the unit circle, exactly."""
    return (b - a + Fraction(1, 2)) % 1 - Fraction(1, 2)


def mpmath_path_energy(datum, path, gamma0_entries: np.ndarray,
                       digits: int = 40) -> float:
    """Observation energy along a continuous path, segment by segment, at
    `digits` significant digits.

    The macro template is rebuilt from the design's exact rational shifts:
    each leg is the exact shortest displacement between consecutive atoms
    (the closing leg returns to the first), dwells take
    theta_j (tau - cycle/speed) of each macro interval, and the last segment
    ends at tau.  Offsets are
    accumulated at full precision from tau = duration / R, so in 1D they are
    the exact rationals to 40 digits.  A segment starting at offset o with
    shift g and displacement delta over time l contributes, per entry,

        e^{-2 pi i m.g} e^{i D o} (e^{i beta l} - 1) / (i beta),
        beta l = D l - 2 pi m.delta,

    with m = n_i - n_k and D = alpha_kq - alpha_ip; the R macro repetitions
    sum as (z^R - 1)/(z - 1), z = e^{i D tau}.  Output coefficients,
    frequencies (recomputed from the float eigenvalues and mass) and the
    Gamma(0) entries are taken as exact inputs.
    """
    with mp.workdps(digits):
        if datum.model == "schrodinger":
            terms = [(i, mp.mpc(complex(c)), mp.mpf(float(lam)))
                     for i, (c, lam) in enumerate(zip(datum.c, datum.basis.eigenvalues))]
        else:
            terms = []
            for i, (a, b, lam) in enumerate(
                zip(datum.a, datum.b, datum.basis.eigenvalues)
            ):
                rho = mp.sqrt(mp.mpf(float(lam)) + mp.mpf(datum.mass) ** 2)
                a_mp, b_mp = mp.mpc(complex(a)), mp.mpc(complex(b))
                terms.append((i, (b_mp + 1j * rho * a_mp) / 2, rho))
                terms.append((i, (b_mp - 1j * rho * a_mp) / 2, -rho))

        atoms = path.design.atoms
        shifts = [atom.shift.shift for atom in atoms]
        speed = mp.mpf(path.speed)
        tau = mp.mpf(path.duration) / path.macro_count
        steps = [
            tuple(_torus_step(x, y) for x, y in zip(shifts[j], shifts[(j + 1) % len(atoms)]))
            for j in range(len(atoms))
        ] if len(atoms) > 1 else []
        lengths = [mp.sqrt(_mpf(sum(x * x for x in step))) for step in steps]
        dwell_total = tau - sum(lengths, mp.mpf(0)) / speed
        # (start offset, duration, shift, displacement) per segment
        segments = []
        offset = mp.mpf(0)
        for j, atom in enumerate(atoms):
            width = mp.mpf(atom.weight) * dwell_total
            segments.append([offset, width, shifts[j], None])
            offset += width
            if steps and lengths[j] > 0:
                segments.append([offset, lengths[j] / speed, shifts[j], steps[j]])
                offset += lengths[j] / speed
        segments[-1][1] = tau - segments[-1][0]

        modes = datum.basis.modes
        t0 = mp.mpf(path.t_start)
        cache: dict = {}
        total = mp.mpc(0)
        for i, c_i, a_i in terms:
            for k, c_k, a_k in terms:
                m = tuple(x - y for x, y in zip(modes[i], modes[k]))
                key = (a_i, a_k, m)
                if key not in cache:
                    d = a_k - a_i
                    z = mp.expj(d * tau)
                    repeats = (
                        mp.mpf(path.macro_count) if z == 1
                        else (mp.expj(d * tau * path.macro_count) - 1) / (z - 1)
                    )
                    template = mp.mpc(0)
                    for start, width, shift, step in segments:
                        turn = sum((x * y for x, y in zip(m, shift)), Fraction(0))
                        phase = mp.expjpi(-2 * _mpf(turn % 1)) * mp.expj(d * start)
                        moved = Fraction(0) if step is None else sum(
                            (x * y for x, y in zip(m, step)), Fraction(0)
                        )
                        beta_l = d * width - 2 * mp.pi * _mpf(moved)
                        if beta_l == 0:
                            template += phase * width
                        else:
                            template += phase * mp.expm1(1j * beta_l) * width / (1j * beta_l)
                    cache[key] = mp.expj(d * t0) * repeats * template
                gamma = mp.mpc(complex(gamma0_entries[i, k]))
                total += mp.conj(c_i) * c_k * gamma * cache[key]
        return float(total.real)


def switching_slots(schedule, count: int | None = None,
                    first: int = 0) -> list[tuple[float, float, int]]:
    """Micro slots first .. first + count - 1 of a switching schedule (to the
    last one by default) as (start, end, atom), in (macro, atom) order.  Slot
    (r, j) runs from (t_start + r tau) + cum_j tau to
    (t_start + r tau) + cum_{j+1} tau, with cum the design's cumulative
    weights, each evaluated in Python floats."""
    tau = schedule.macro_length
    cum = schedule.design.cumulative_weights.tolist()
    atoms = len(cum) - 1
    stop = schedule.macro_count * atoms
    if count is not None:
        stop = min(stop, first + count)
    slots = []
    for k in range(first, stop):
        r, j = divmod(k, atoms)
        base = schedule.t_start + r * tau
        slots.append((base + cum[j] * tau, base + cum[j + 1] * tau, j))
    return slots


def path_position(path, t: float) -> np.ndarray:
    """Observer position of a continuous path at absolute time t: the
    template segment holding the macro-local time, scanned in order (the
    interval's end belongs to the last macro), moved along its velocity."""
    tau = path.macro_length
    r = min(int((t - path.t_start) / tau), path.macro_count - 1)
    s = t - path.t_start - r * tau
    segments = template(path)
    seg = segments[-1]
    for candidate in segments:
        if s < candidate.offset_end:
            seg = candidate
            break
    pos = np.array(seg.position) + np.array(seg.velocity) * max(0.0, s - seg.offset_start)
    return pos % 1.0


def cycle_length(shifts: list[np.ndarray]) -> float:
    """Flat length of the closed tour through the shifts in index order, the
    legs added one at a time from 0.0."""
    n = len(shifts)
    if n <= 1:
        return 0.0
    total = 0.0
    for k in range(n):
        delta = (shifts[(k + 1) % n] - shifts[k] + 0.5) % 1.0 - 0.5
        total += float(np.linalg.norm(delta))
    return total


def temporal_gram(rho: float, t_start: float, duration: float) -> np.ndarray:
    """Gram matrix of {sin(rho t), cos(rho t)} over [t_start, t_start+duration].

    Closed form via product-to-sum identities; the zero-frequency pair
    degenerates to {0, 1} whose Gram is diag(0, duration).  Its eigenvalues,
    taken numerically, are the independent route to the calibration band.
    """
    if rho == 0.0:
        return np.array([[0.0, 0.0], [0.0, duration]])
    phase = rho * (2.0 * t_start + duration)
    swing = math.sin(rho * duration) / (2.0 * rho)
    ss = duration / 2.0 - math.cos(phase) * swing
    cc = duration / 2.0 + math.cos(phase) * swing
    sc = math.sin(phase) * swing
    return np.array([[ss, sc], [sc, cc]])


def evolve_to(datum, t: float):
    """The datum's state at absolute time t: the Schrodinger coefficients
    times e^{i lambda t}, the wave/Klein-Gordon pair (a, b) rotated by
    rho t (the zero-mode velocity is constant in the mass-zero quotient)."""
    if datum.model == "schrodinger":
        c = datum.c * np.exp(1j * datum.basis.eigenvalues * t)
        return ModalDatum(datum.model, datum.mass, datum.basis, c=c)
    rho = datum.rho
    cos = np.cos(rho * t)
    sin = np.sin(rho * t)
    positive = rho > 0.0
    safe_rho = np.where(positive, rho, 1.0)
    a_new = np.where(positive, datum.a * cos + datum.b * sin / safe_rho, datum.a)
    b_new = np.where(positive, -datum.a * safe_rho * sin + datum.b * cos, datum.b)
    return ModalDatum(datum.model, datum.mass, datum.basis, a_new, b_new)


def frequency_differences(alpha: np.ndarray) -> np.ndarray:
    """D[i, p, k, q] = alpha[k, q] - alpha[i, p] for an expansion of shape (dim, P).

    Kernels live on these (mode, branch, mode, branch) axes; a mode matrix
    M of shape (dim, dim) enters them by broadcasting as M[:, None, :, None].
    """
    return alpha[None, None, :, :] - alpha[:, :, None, None]


def sorted_difference_table(alpha: np.ndarray, mode_differences: np.ndarray) -> DifferenceTable:
    """The `DifferenceTable` of `alpha` by sorting: `np.unique` over the bit
    patterns of the dense D, then over one integer code D index * span + m
    per kernel entry and pair kind, each index in its narrowest unsigned
    type."""

    def compact(index, count):
        return index.astype(np.min_scalar_type(max(count - 1, 0)))

    diff = frequency_differences(alpha)
    bits, inverse = np.unique(diff.ravel().view(np.int64), return_inverse=True)
    values = bits.view(np.float64)

    def pairs(m):
        low = int(m.min())
        span = int(m.max()) - low + 1
        code = inverse.reshape(diff.shape) * span + (m - low)[:, None, :, None]
        keys, pair_inverse = np.unique(code.ravel(), return_inverse=True)
        return PairKeys(
            diff=values[keys // span],
            modes=(keys % span + low).astype(np.min_scalar_type(-span)),
            inverse=compact(pair_inverse, keys.size).reshape(diff.shape),
        )

    dim = mode_differences.shape[-1]
    return DifferenceTable(
        values=values,
        inverse=compact(inverse, values.size).reshape(diff.shape),
        axes=tuple(pairs(mode_differences[..., a]) for a in range(dim)),
        carries=tuple(
            pairs(mode_differences[..., a:].sum(axis=-1)) for a in range(dim - 1)
        ),
    )


# The kernel route: a whole kernel formed at once, and its quadratic form by
# one BLAS matrix-vector product.  The package evaluates the same kernel one
# block of rows at a time and never forms it.


def kernel_energy(kernel: np.ndarray, coeff: np.ndarray) -> float:
    """Re sum conj(C[i, p]) K[i, p, k, q] C[k, q] for a kernel on the lifted axes."""
    flat = coeff.ravel()
    return float(np.real(np.vdot(flat, kernel.reshape(flat.size, flat.size) @ flat)))


def shifted_kernel(gamma_base, table, t_start: float, repeats, body) -> np.ndarray:
    """Gamma(0) times e^{i D t_start} times the repeat sum times the macro
    sum `body`: `repeats` on the distinct D of `table`, `body` on the lifted
    axes."""
    start = np.exp(1j * table.values * t_start)
    kernel = (start * repeats)[table.inverse] * body
    # Gamma(0) the left operand, as in the package's blocks
    return np.multiply(gamma_base.entries[:, None, :, None], kernel, out=kernel)


def template_body(table, template) -> np.ndarray:
    """The template's macro sum on the lifted axes, all rows at once."""
    size = table.inverse.shape[0] * table.inverse.shape[1]
    return template_rows(table, template, 0, size).reshape(table.inverse.shape)


def path_kernel(path, table, gamma_base) -> np.ndarray:
    """The whole kernel along a grid path or switching schedule: its
    template's macro sum formed in one piece and moved to `path.t_start`."""
    template = path_template(path, table)
    body = template_body(table, template)
    return shifted_kernel(gamma_base, table, path.t_start, template.repeats, body)
