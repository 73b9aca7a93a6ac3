"""Exact spectral evolution and closed-form windowed observation energies.

Models on the torus, diagonal in the character basis:

  wave / klein_gordon   u_tt = Lap u - mass^2 u, modal frequency
                        rho_n = sqrt(lambda_n + mass^2);
                        state (a_n, b_n) = (displacement, velocity) rotates as
                        a -> a cos(rho t) + b sin(rho t)/rho,
                        b -> -a rho sin(rho t) + b cos(rho t).
                        The observed output is the time derivative (kinetic).
                        Mass zero quotients out the constant displacement:
                        the rho = 0 mode carries only a velocity coefficient.
  schrodinger           i u_t = Lap u; modal coefficients c_n pick up the
                        unit phase e^{i lambda_n t}.  The output is the field.

Conserved energy: sum(rho^2 |a|^2 + |b|^2) resp. sum |c|^2.

No state is ever advanced to a time: every output coefficient trajectory is
a sum of at most two complex exponentials c * e^{i alpha t}
(`output_expansion`), and every energy is a time integral of it.  All time
integrals of Gram-weighted output energies therefore reduce to the primitive

    int_{t0}^{t0+w} e^{i alpha t} dt = e^{i alpha t0} * w * sinc(alpha w / 2) * e^{i alpha w / 2},

which is exact for every alpha including alpha = 0 (the equal-frequency
degenerate case is the analytic sinc limit, no threshold branch needed).  The
width w is passed in, never recovered as a difference of absolute times, and

    sum_{r=0}^{R-1} e^{i alpha tau r} = e^{i delta (R-1)/2} * sin(R delta/2) / sin(delta/2),
    delta = alpha tau reduced mod 2 pi to (-pi, pi],

aggregates the R repetitions of a macro-interval slot in O(1); this is what
makes 10^6-macro schedules affordable.

Observation matrices enter only through Gamma(0): the matrix at shift g is
Gamma(0) times the entrywise phase e^{-2 pi i (n_i - n_k).g}.  Kernels live on
(mode, branch, mode, branch) axes, and mode matrices are lifted onto them by
broadcasting.

Both realizations of a design repeat one macro template R times.  A
continuous path dwells at the atoms in design order, joined by
constant-speed legs; a switching schedule is the same tour at infinite
speed, whose legs take no time, so one `schedule.Realization` and one sum
serve both.  Energies are summed over equal-weight grid tours only (J1
shifts c/J1 per axis, J = J1^d atoms, the tour in lexicographic order),
which is every design the protocol realizes; any other design is refused
with a `ValueError` before a kernel-sized array exists.  On the grid a
leg's carry level a (the slowest axis it moves) fixes both its direction
and its duration, so the legs fall into d classes, and the dwell start
offsets are affine in every grid coordinate.  The dwells then sum to one
slot integral times one Dirichlet ratio per axis, and each class of legs
likewise: the whole template is d + 1 segment integrals times per-axis
Dirichlet sums, O(d^2) factors whatever the atom count, and a switching
template (no leg classes) d of them (`grid_tour_factors`).  Neither the
template nor the repeat sum depends on where the realization starts
(`path_template`); one phase e^{i D t_start} moves them to an interval, so
realizations that differ only in their start share them.

Every factor of a grid kernel is a function of the frequency difference
D = alpha_k - alpha_i alone (start phase, repeat sum, slot integral), of a
pair (D, m_a) with one component of the mode difference (the per-axis
Dirichlet sums), or of a pair (D, sum_{b>=a} m_b) (the leg integral of carry
level a).  A run has far fewer distinct keys than kernel entries: the 2D
box with 81 modes has 26,244 entries but 354 distinct D and 2,971 distinct
(D, m_0).  A `DifferenceTable`, built once per run, holds the distinct keys
and, for each kind, the index of every entry's key.  A template evaluates
each factor once per key (`Template`), and the kernel's entries are
gathered from it.  The table is built by counting, not sorting, and forms
no dense D: the distinct D are the differences of the distinct alpha, keyed
on their bit patterns, so every gathered entry is the dense formula's
floating-point operation on the same operands, and each pair key is read
off an occupancy array of #D rows.

No kernel is ever formed.  It is evaluated one block of lifted rows at a
time, at most `BLOCK_ENTRIES` entries (128 KiB) each (`kernel_blocks`):
the factors are gathered onto the block's rows and multiplied in a fixed
operand order.  A switching energy is the quadratic form c^H K c, with K c
assembled block by block (`kernel_energies`).  A continuous energy is
Re sum_D e^{i D t_start} repeats(D) W(D), since that phase and the repeat
sum are functions of D alone; W(D) sums the coefficient-weighted start-free
kernel over the entries of difference D, block by block, so one reduction
per coefficient vector serves every start (`shifted_energies`).  So an
energy's memory grows with the keys and one block, not with the kernel:
what a run keeps of kernel size is the table's narrow index arrays.  And no
product's bits depend on numpy's temporary elision, which starts at
256 KiB (`BLOCK_ENTRIES`).
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import NumericError, check_model_mass
from .geometry import torus_displacement
from .spectral import ModalBasis, ObservationMatrix

if TYPE_CHECKING:
    from .schedule import Realization

TWO_PI = 2.0 * math.pi


class BasisMismatch(NumericError):
    """Gram matrices and datum are built on different bases."""


class ModalDatum:
    """Modal coefficients of one datum on a simulation basis.

    wave/klein_gordon carry (a, b); schrodinger carries c.  Arrays are
    aligned with `basis.modes` and never mutated in place.
    """

    def __init__(
        self,
        model: str,
        mass: float,
        basis: ModalBasis,
        a: np.ndarray | None = None,
        b: np.ndarray | None = None,
        c: np.ndarray | None = None,
    ) -> None:
        self.model = model
        self.mass = mass
        self.basis = basis
        self.a = a
        self.b = b
        self.c = c
        check_model_mass(model, mass)
        d = basis.dim
        if model == "schrodinger":
            if c is None or a is not None or b is not None:
                raise ValueError("schrodinger datum needs exactly the c array")
            if c.shape != (d,):
                raise ValueError("c has the wrong shape")
        else:
            if a is None or b is None or c is not None:
                raise ValueError("wave/klein_gordon datum needs the (a, b) arrays")
            if a.shape != (d,) or b.shape != (d,):
                raise ValueError("(a, b) have the wrong shape")
            zero = self.rho == 0.0
            if np.any(zero) and np.any(a[zero] != 0.0):
                raise ValueError(
                    "zero-frequency displacement is quotiented out; a must vanish there"
                )

    @cached_property
    def rho(self) -> np.ndarray:
        """Temporal frequencies sqrt(lambda + mass^2) (wave/klein_gordon)."""
        return np.sqrt(self.basis.eigenvalues + self.mass * self.mass)

    def windowed(self, window: int) -> "ModalDatum":
        """Datum with all modes of max-norm above `window` zeroed."""
        return self._masked(self.basis.window_mask(window))

    def tail(self, window: int) -> "ModalDatum":
        """Datum with all modes of max-norm <= `window` zeroed."""
        return self._masked(~self.basis.window_mask(window))

    def _masked(self, mask: np.ndarray) -> "ModalDatum":
        if self.model == "schrodinger":
            return ModalDatum(self.model, self.mass, self.basis, c=self.c * mask)
        return ModalDatum(self.model, self.mass, self.basis, self.a * mask, self.b * mask)


def _standard_normals(rng: random.Random, count: int) -> list[float]:
    """`count` standard normal draws from `rng` by Marsaglia's polar method.

    Each attempt takes u, v uniform on [-1, 1) and keeps the pair
    (u f, v f), f = sqrt(-2 log(s) / s), when 0 < s = u^2 + v^2 < 1; an odd
    count drops the last pair's second value.  Scalar `math` keeps the
    bytes off numpy's SIMD-dispatched `log`.
    """
    out: list[float] = []
    while len(out) < count:
        u = 2.0 * rng.random() - 1.0
        v = 2.0 * rng.random() - 1.0
        s = u * u + v * v
        if 0.0 < s < 1.0:
            f = math.sqrt(-2.0 * math.log(s) / s)
            out += (u * f, v * f)
    return out[:count]


def random_datum(
    model: str,
    basis: ModalBasis,
    window: int,
    decay: str = "flat",
    decay_power: float = 2.0,
    seed: int = 0,
    mass: float | None = None,
) -> ModalDatum:
    """Seeded complex Gaussian datum supported on modes |n|_inf <= window.

    decay "power" scales mode coefficients by (1 + |n|_2)^(-decay_power), so
    modal energies fall off like (1 + |n|)^(-2 p) in expectation; "flat"
    applies no scaling.  Identical (model, basis, window, decay, seed) give
    identical coefficients.  `mass` defaults to the model's (1 for
    klein_gordon, else 0); the `ModalDatum` built checks it against the model.

    The draws come from the standard library's `random.Random(seed)`, whose
    `random()` sequence Python keeps fixed across versions, turned into
    normals by `_standard_normals`: the coefficients do not depend on the
    installed numpy.  Each complex vector draws its real parts, then its
    imaginary parts; a wave datum draws xi_a, then xi_b.
    """
    if decay not in ("flat", "power"):
        raise ValueError(f"unknown decay profile {decay!r}")
    if mass is None:
        mass = 1.0 if model == "klein_gordon" else 0.0
    if window < 0 or window > basis.cutoff:
        raise ValueError(f"window must lie in [0, {basis.cutoff}]")
    rng = random.Random(seed)
    d = basis.dim
    norms = np.linalg.norm(basis.mode_array.astype(float), axis=1)
    scale = (1.0 + norms) ** (-decay_power) if decay == "power" else np.ones(d)
    mask = basis.window_mask(window)

    def draw() -> np.ndarray:
        re = np.array(_standard_normals(rng, d))
        im = np.array(_standard_normals(rng, d))
        return (re + 1j * im) / math.sqrt(2.0)

    if model == "schrodinger":
        c = draw() * scale * mask
        return ModalDatum(model=model, mass=mass, basis=basis, c=c)
    xi_a = draw()
    xi_b = draw()
    rho = np.sqrt(basis.eigenvalues + mass * mass)
    positive = rho > 0.0
    # scale the displacement by 1/rho so both summands of the modal energy
    # rho^2 |a|^2 + |b|^2 are unit-variance Gaussians before decay weighting
    a = np.where(positive, scale * xi_a / np.where(positive, rho, 1.0), 0.0)
    b = scale * xi_b
    return ModalDatum(model=model, mass=mass, basis=basis, a=a * mask, b=b * mask)


class EnergyDecomposition(NamedTuple):
    """Conserved energy with its per-mode split and window partial sums."""

    total: float
    per_mode: np.ndarray
    window_sums: dict[int, float]

    def below(self, window: int) -> float:
        return self.window_sums[window]


def conserved_energy(datum: ModalDatum) -> EnergyDecomposition:
    """E = sum(rho^2 |a|^2 + |b|^2) for wave/klein_gordon, sum |c|^2 for
    schrodinger, with partial sums over every window up to the cutoff."""
    if datum.model == "schrodinger":
        per_mode = np.abs(datum.c) ** 2
    else:
        per_mode = (datum.rho * np.abs(datum.a)) ** 2 + np.abs(datum.b) ** 2
    sums = {
        k: float(per_mode[datum.basis.window_mask(k)].sum())
        for k in range(datum.basis.cutoff + 1)
    }
    return EnergyDecomposition(
        total=float(per_mode.sum()), per_mode=per_mode, window_sums=sums
    )


def output_expansion(datum: ModalDatum) -> tuple[np.ndarray, np.ndarray]:
    """Output coefficients as sums of complex exponentials; the model
    decides the output.

    Returns (C, alpha) of shape (dim, P): the output coefficient of mode n is
    v_n(t) = sum_p C[n, p] e^{i alpha[n, p] t}.  Schrodinger field output has
    one branch (alpha = lambda); the kinetic wave output has two
    (alpha = +-rho with C = (b +- i rho a)/2).
    """
    if datum.model == "schrodinger":
        c = datum.c[:, None]
        alpha = datum.basis.eigenvalues[:, None]
        return c.astype(complex), alpha.astype(float)
    rho = datum.rho
    plus = (datum.b + 1j * rho * datum.a) / 2.0
    minus = (datum.b - 1j * rho * datum.a) / 2.0
    coeff = np.stack([plus, minus], axis=1)
    alpha = np.stack([rho, -rho], axis=1)
    return coeff.astype(complex), alpha.astype(float)


def phase_integral(alpha: np.ndarray, t_start: float, width: float) -> np.ndarray:
    """Exact elementwise integral of e^{i alpha t} over [t_start, t_start + width].

    The width is taken as given, never recovered as a difference of absolute
    times, so a slot keeps its exact length however late it starts; the
    absolute phase e^{i alpha t_start} is a separate factor.
    """
    # np.sinc(x) = sin(pi x)/(pi x); entire, so alpha = 0 needs no branch
    local = width * np.sinc(alpha * width / TWO_PI) * np.exp(0.5j * alpha * width)
    return np.exp(1j * alpha * t_start) * local


def geometric_phase_sum(alpha: np.ndarray, tau: float, count: int) -> np.ndarray:
    """Exact elementwise sum of e^{i alpha tau r} for r = 0..count-1.

    Reduces alpha*tau mod 2 pi to delta in (-pi, pi] (each term is invariant
    under the reduction since r is an integer), then evaluates the Dirichlet
    ratio, which is stable because |sin(delta/2)| has no cancellation there.
    """
    x = alpha * tau
    delta = x - TWO_PI * np.round(x / TWO_PI)
    half = 0.5 * delta
    den = np.sin(half)
    safe = np.where(den == 0.0, 1.0, den)
    ratio = np.where(den == 0.0, float(count), np.sin(count * half) / safe)
    return ratio * np.exp(1j * (count - 1) * half)


class PairKeys(NamedTuple):
    """The distinct pairs (D, m) of one mode-difference component m, and
    the pair of every kernel entry: the entry's D and m are
    `diff[inverse]` and `modes[inverse]`."""

    diff: np.ndarray
    modes: np.ndarray
    inverse: np.ndarray


def _index_type(count: int) -> np.dtype:
    """The narrowest unsigned integer type that holds 0..count-1."""
    return np.min_scalar_type(max(count - 1, 0))


class DifferenceTable(NamedTuple):
    """The frequency differences D of one expansion, deduplicated.

    `values` holds the distinct D and `inverse` the index of each entry's D
    on the lifted axes, so the dense D would be `values[inverse]`.
    `axes[a]` holds the distinct pairs (D, m_a) of the mode differences
    m = n_i - n_k, and `carries[a]` those of (D, sum_{b>=a} m_b) for the
    carry levels a < d - 1; level d - 1 is the pair (D, m_{d-1}) itself
    (`carry`).  These keys are all the grid tour sum reads.  Only the index
    arrays are kernel-sized, and each is stored in the narrowest unsigned
    type that holds it.

    The table is built by counting, with no dense D and no sort over kernel
    entries (`build`).
    """

    values: np.ndarray
    inverse: np.ndarray
    axes: tuple[PairKeys, ...]
    carries: tuple[PairKeys, ...]

    @classmethod
    def build(cls, alpha: np.ndarray, mode_differences: np.ndarray) -> "DifferenceTable":
        """Deduplicate the D of the expansion frequencies `alpha` (dim, P)
        and their pairs with every component of `mode_differences`.

        D is subtracted once per pair of distinct alpha, the operands of
        every entry it stands for and so the same bits, and gathered back
        to the entries.  A pair (D, m) is a cell of an occupancy array of
        #D rows and one column per value of m; its rank among the occupied
        cells in row-major order is its rank among the sorted codes
        D * span + m.  Only the distinct alpha and their difference grid
        are sorted, never the kernel entries.
        """
        # keyed on the bit pattern, so -0.0 and 0.0 stay distinct operands
        bits, alpha_inverse = np.unique(alpha.ravel().view(np.int64), return_inverse=True)
        distinct = bits.view(np.float64)
        grid = distinct[None, :] - distinct[:, None]
        bits, grid_inverse = np.unique(grid.ravel().view(np.int64), return_inverse=True)
        values = bits.view(np.float64)
        grid_inverse = grid_inverse.astype(_index_type(values.size)).reshape(grid.shape)
        lifted = alpha_inverse.reshape(alpha.shape)
        inverse = grid_inverse[lifted[:, :, None, None], lifted[None, None, :, :]]

        def pairs(m: np.ndarray) -> PairKeys:
            # one integer code per (D, m): the D index times the span of m,
            # in intp, since the narrow `inverse` times a Python int would wrap
            low = int(m.min())
            span = int(m.max()) - low + 1
            code = inverse * np.intp(span) + (m - low)[:, None, :, None]
            occupied = np.zeros(values.size * span, dtype=bool)
            occupied[code] = True
            keys = np.flatnonzero(occupied)
            rank = np.zeros(occupied.size, dtype=_index_type(keys.size))
            rank[keys] = np.arange(keys.size)
            return PairKeys(
                diff=values[keys // span],
                # |m| < span, so the narrowest type holding -span holds m
                modes=(keys % span + low).astype(np.min_scalar_type(-span)),
                inverse=rank[code],
            )

        dim = mode_differences.shape[-1]
        return cls(
            values=values,
            inverse=inverse,
            axes=tuple(pairs(mode_differences[..., a]) for a in range(dim)),
            carries=tuple(
                pairs(mode_differences[..., a:].sum(axis=-1)) for a in range(dim - 1)
            ),
        )

    def carry(self, level: int) -> PairKeys:
        """The pairs (D, sum_{b>=level} m_b)."""
        return self.carries[level] if level < len(self.carries) else self.axes[-1]


#: The most kernel entries one block of lifted rows holds (a block never
#: has less than one row): the bound on every energy's kernel-sized memory.
#: 8192 complex entries are 128 KiB, below the 256 KiB from which numpy may
#: evaluate `a * b` with a temporary right operand as `b * a`, written into
#: that temporary (temporary elision), and complex multiplication under FMA
#: rounds `b * a` differently.  So no product's bits depend on elision: each
#: takes the operand order it is written in.  A constant, not an option: no
#: energy depends on it while every block has two rows or more
#: (`kernel_energies`).
BLOCK_ENTRIES = 8192


def row_blocks(size: int) -> list[tuple[int, int]]:
    """The blocks [start, stop) of a kernel's `size` lifted rows: the fewest
    of at most `BLOCK_ENTRIES` entries (at least one row each), their row
    counts differing by at most one."""
    count = -(-size // max(1, BLOCK_ENTRIES // size))
    bounds = [k * size // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _key_blocks(count: int) -> list[slice]:
    """Consecutive slices of `count` keys, at most `BLOCK_ENTRIES` each: a
    factor evaluated elementwise one slice at a time has the same values,
    and temporaries of at most a block."""
    return [slice(start, start + BLOCK_ENTRIES) for start in range(0, count, BLOCK_ENTRIES)]


def _rows(index: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Lifted rows [start, stop) of a C-ordered array on the lifted axes,
    as a view: its (N, N) reshape, sliced."""
    size = index.shape[0] * index.shape[1]
    return index.reshape(size, -1)[start:stop]


def _check_gamma_base(datum: ModalDatum, gamma_base: ObservationMatrix) -> None:
    if gamma_base.basis.modes != datum.basis.modes:
        raise BasisMismatch(
            "observation matrices must be assembled on the simulation basis"
        )
    if any(gamma_base.shift.shift):
        raise ValueError("gamma_base must be the unshifted observation matrix")


def interval_output_energy(
    datum: ModalDatum, t_start: float, duration: float, _kind: object = None
) -> float:
    """Full-torus output energy over one interval (Gram = identity).

    The model decides the output.  A fourth positional argument is accepted
    and ignored, since `perfbench/tests` passes an output kind; ROADMAP
    item 1 drops it with the next benchmark change.
    """
    coeff, alpha = output_expansion(datum)
    return float(expansion_interval_energy(coeff, alpha, t_start, duration))


def expansion_interval_energy(
    coeff: np.ndarray, alpha: np.ndarray, t_start, duration: float
) -> np.ndarray:
    """`interval_output_energy` of an output expansion (C, alpha) over
    [t, t + duration] for every start t in `t_start`, a float or an array;
    the result has the shape of `t_start`.

    Only branches of one mode interact, so the kernel is (dim, P, P).
    """
    starts = np.asarray(t_start, dtype=float)
    diff = alpha[:, None, :] - alpha[:, :, None]
    base = phase_integral(diff, starts[..., None, None, None], duration)
    return np.real(np.einsum("ip,...ipq,iq->...", coeff.conj(), base, coeff))


class Template(NamedTuple):
    """The start-free factors of a kernel along a realization, each
    evaluated once on the keys it depends on (`path_template`).

    On the distinct D of the table: `repeats`, the Dirichlet sum over the R
    macro repetitions, and `slot`, the integral of one dwell slot.
    `dwells[b]` is the dwell Dirichlet sum of axis b on the pairs (D, m_b).
    Where the legs take time, `legs[a]` holds the leg integral of carry
    level a on the pairs (D, sum_{b>=a} m_b) with the per-axis factors of
    its class, and `after_dwell` is e^{i D w} on the D; a legless template
    has no legs and no `after_dwell`.  `template_rows` gathers them onto
    the lifted axes.
    """

    repeats: np.ndarray
    slot: np.ndarray
    dwells: tuple[np.ndarray, ...]
    legs: tuple[tuple[np.ndarray, tuple[np.ndarray, ...]], ...]
    after_dwell: np.ndarray | None


def grid_tour_factors(table: DifferenceTable, per_axis: int, path: Realization) -> tuple:
    """The key-level factors of one macro template summed over the grid
    tour: the `Template` fields after `repeats`.

    The tour visits the J = J1^d grid atoms in lexicographic order.  The leg
    leaving atom j has carry level a when j_{a+1..d-1} = J1-1 and j_a < J1-1
    (the closing leg from atom J-1 has level 0): it moves axes a..d-1 by the
    step s = torus_displacement(0, 1/J1) and lasts l_a = |s| sqrt(d-a)/speed.
    The dwells share the span S = tau - cycle/speed of the macro interval,
    w = S / J1^d each, and atom j's dwell starts at the offset sum_b c_b j_b,

        c_b = S / J1^(b+1) + l_b + sum_{a>b} l_a (J1-1) J1^(a-1-b),

    so its slot phase and its shift phase are both affine in every j_b, and
    the dwells sum to one slot integral times one Dirichlet sum per axis.
    The level-a legs start at the dwell offsets plus w and form a sub-grid:
    axes b < a over J1 values, axis a over J1-1 values (J1 at level 0), the
    later axes fixed at J1-1.  Each class is one moving-phase integral over
    [0, l_a) times at most d Dirichlet sums, O(d^2) factors for the whole
    template whatever J is.  Slot phases are evaluated on the distinct D of
    `table`, the dwell sums on the distinct (D, m_b) and the level-a leg
    integrals on the distinct (D, sum_{b>=a} m_b), the pairs one slice of
    keys at a time (`_key_blocks`).

    Where the legs take no time there are no leg classes: a switching
    schedule (infinite speed, so S = tau and c_b = tau / J1^(b+1)) and a
    one-atom tour (s = 0) are their dwells alone.
    """
    dim = len(table.axes)
    span = path.macro_length - path.cycle / path.speed
    dwell = span / per_axis**dim
    step = float(torus_displacement(0.0, 1.0 / per_axis))
    legs = [abs(step) * math.sqrt(dim - a) / path.speed for a in range(dim)]
    moving = min(legs) > 0.0
    # level 0 runs axis 0 over all J1 values and no level fixes axis 0, so
    # the short and fixed factors exist from axis 1 on
    full, short, fixed = [], [None], [None]
    for b, keys in enumerate(table.axes):
        offset = span / per_axis ** (b + 1) + legs[b]
        for a in range(b + 1, dim):
            offset += legs[a] * (per_axis - 1) * per_axis ** (a - 1 - b)
        full.append(np.empty(keys.diff.size, dtype=complex))
        if moving and b > 0:
            short.append(np.empty_like(full[b]))
            fixed.append(np.empty_like(full[b]))
        for at in _key_blocks(keys.diff.size):
            arg = keys.diff[at] * offset - (TWO_PI / per_axis) * keys.modes[at]
            full[b][at] = geometric_phase_sum(arg, 1.0, per_axis)
            if moving and b > 0:
                short[b][at] = geometric_phase_sum(arg, 1.0, per_axis - 1)
                fixed[b][at] = np.exp(1j * (per_axis - 1) * arg)
    slot = phase_integral(table.values, 0.0, dwell)
    if not moving:
        return slot, tuple(full), (), None
    classes = []
    for a in range(dim):
        keys = table.carry(a)
        rate = -(TWO_PI * step / legs[a])
        leg = np.empty(keys.diff.size, dtype=complex)
        for at in _key_blocks(keys.diff.size):
            leg[at] = phase_integral(keys.diff[at] + rate * keys.modes[at], 0.0, legs[a])
        factors = full[:a] + [(full if a == 0 else short)[a]] + fixed[a + 1 :]
        classes.append((leg, tuple(factors)))
    return slot, tuple(full), tuple(classes), np.exp(1j * table.values * dwell)


def _grid_size(path: Realization) -> int:
    """J1 of the path's design, which must be an equal-weight grid."""
    if path.design.grid_per_axis is None:
        raise ValueError("energies are summed over equal-weight grid tours only, not this design")
    return path.design.grid_per_axis


def path_template(path: Realization, table: DifferenceTable) -> Template:
    """The start-free factors of a kernel along a path or a switching
    schedule of an equal-weight grid design (`_grid_size`): the Dirichlet
    sum over the R macro repetitions and the grid tour's factors
    (`grid_tour_factors`), all on the keys of `table`.

    Nothing here reads `path.t_start`, so realizations that differ only in
    their start share one template, and nothing is kernel-sized.
    """
    per_axis = _grid_size(path)
    repeats = geometric_phase_sum(table.values, path.macro_length, path.macro_count)
    return Template(repeats, *grid_tour_factors(table, per_axis, path))


def template_rows(
    table: DifferenceTable, template: Template, start: int, stop: int
) -> np.ndarray:
    """Lifted rows [start, stop) of the template's macro sum, shape
    (stop - start, N): each factor gathered from its keys, multiplied in
    place in a fixed order (the slot, the dwell sums by axis, then each
    leg class added), so a row has the same bits in any block."""
    inverse = _rows(table.inverse, start, stop)
    body = template.slot[inverse]
    for factor, keys in zip(template.dwells, table.axes):
        body *= factor[_rows(keys.inverse, start, stop)]
    for level, (leg, factors) in enumerate(template.legs):
        atoms = leg[_rows(table.carry(level).inverse, start, stop)]
        atoms *= template.after_dwell[inverse]
        for factor, keys in zip(factors, table.axes):
            atoms *= factor[_rows(keys.inverse, start, stop)]
        body += atoms
    return body


def kernel_blocks(
    gamma_base: ObservationMatrix,
    table: DifferenceTable,
    template: Template,
    start_phase: np.ndarray | None = None,
):
    """Per block of lifted rows (`row_blocks`): the rows, the D index of
    their entries, and Gamma(0) times the template's rows, first multiplied
    by `start_phase` (given on the distinct D) when one is given.

    With `start_phase` e^{i D t} times the repeat sum, a block is those rows
    of the kernel of the realization started at t; without it, of the
    start-free kernel.  Each is a fresh array of at most `BLOCK_ENTRIES`
    entries, taken as Gamma(0) * (start_phase * macro sum) in that operand
    order.
    """
    size = table.inverse.shape[0] * table.inverse.shape[1]
    dim = gamma_base.entries.shape[0]
    for start, stop in row_blocks(size):
        inverse = _rows(table.inverse, start, stop)
        block = template_rows(table, template, start, stop)
        # each factor the left operand, the product written over the block
        if start_phase is not None:
            np.multiply(start_phase[inverse], block, out=block)
        gamma = gamma_base.entries[np.arange(start, stop) // (size // dim), :, None]
        by_mode = block.reshape(stop - start, dim, -1)
        np.multiply(gamma, by_mode, out=by_mode)
        yield slice(start, stop), inverse, block


def kernel_energies(
    gamma_base: ObservationMatrix,
    table: DifferenceTable,
    t_start: float,
    template: Template,
    coeffs: list[np.ndarray],
) -> list[float]:
    """Re sum conj(C[i, p]) K[i, p, k, q] C[k, q] for each output
    coefficient vector C in `coeffs`, K the template's kernel started at
    `t_start`: Gamma(0) times e^{i D t_start} times the repeat sum times the
    macro sum.

    K C is assembled one block of K's rows at a time (`kernel_blocks`), and
    each energy is one `vdot` over it; no kernel is formed.  A block's
    product is the BLAS matrix-vector product of a whole kernel restricted
    to its rows, row for row the same bits, so the energies are bitwise the
    whole kernel's quadratic form.  numpy takes a block of one row as a dot
    product instead, which the balanced `row_blocks` leave only to kernels
    of more than 2,730 lifted rows; there they agree to rounding.
    """
    flats = [coeff.ravel() for coeff in coeffs]
    start_phase = np.exp(1j * table.values * t_start) * template.repeats
    products = [np.empty_like(flat) for flat in flats]
    for rows, _, block in kernel_blocks(gamma_base, table, template, start_phase):
        for flat, product in zip(flats, products):
            product[rows] = block @ flat
    return [float(np.real(np.vdot(flat, product))) for flat, product in zip(flats, products)]


def shifted_energies(
    gamma_base: ObservationMatrix,
    table: DifferenceTable,
    starts: np.ndarray,
    template: Template,
    coeffs: list[np.ndarray],
) -> np.ndarray:
    """`kernel_energies` of the template for every start t in `starts` and
    every output coefficient vector in `coeffs`, shape (len(starts),
    len(coeffs)), with no kernel formed.

    The start phase and the repeat sum depend on an entry's D alone, so
    each energy is Re sum_D e^{i D t} repeats(D) W(D), where W(D) sums
    conj(C_i) Gamma(0) body C_k over the entries of difference D: one
    reduction of the start-free kernel per coefficient vector, whatever the
    number of starts.  Each block's density is added into W with `np.add.at`
    in entry order, the same additions as one `np.bincount` over all
    entries.  Only the order of summation differs from `kernel_energies`,
    so the two agree to rounding.
    """
    flats = [coeff.ravel() for coeff in coeffs]
    reduced = np.zeros((table.values.size, len(flats)), dtype=complex)
    for rows, inverse, block in kernel_blocks(gamma_base, table, template):
        index = inverse.ravel()
        for j, flat in enumerate(flats):
            density = block * flat[rows, None].conj()
            density *= flat
            np.add.at(reduced[:, j], index, density.ravel())
    phases = np.exp(1j * np.outer(starts, table.values)) * template.repeats
    return (phases @ reduced).real


def path_observation_energy(
    datum: ModalDatum, path: Realization, gamma_base: ObservationMatrix
) -> float:
    """Observation energy of the datum along a continuous path or a
    switching schedule: the quadratic form of its kernel, Gamma(0) times
    e^{i D t_start} times the Dirichlet sum over the R macro repetitions
    times the segment sum of one macro template (`kernel_energies` of
    `path_template`).

    For a switching schedule this is the sum over micro slots of
    v(t)^H Gamma(g_j) v(t) integrated in closed form, with
    Gamma(g_j) = Gamma(0) * phase(g_j).  `gamma_base` is Gamma at shift 0
    on the datum's basis; tail modes of the datum above the design cutoff
    are included.  A design that is not an equal-weight grid raises a
    `ValueError` before the difference table is built (`_grid_size`).
    """
    _check_gamma_base(datum, gamma_base)
    _grid_size(path)
    coeff, alpha = output_expansion(datum)
    table = DifferenceTable.build(alpha, gamma_base.basis.mode_differences)
    template = path_template(path, table)
    return kernel_energies(gamma_base, table, path.t_start, template, [coeff])[0]
