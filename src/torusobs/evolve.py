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

Every output coefficient trajectory is a sum of at most two complex
exponentials c * e^{i alpha t}.  All time integrals of Gram-weighted output
energies therefore reduce to the primitive

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
broadcasting.  For the equal-weight grid design (J1 shifts c/J1 per axis,
J = J1^d atoms, slot width w = tau/J) both the slot start j*w and the shift
phase are affine in each grid coordinate j_a of the atom index, so the sum
over all J atoms is the same Dirichlet ratio once per axis: each interval
costs O((dim*P)^2) whatever the atom count.  Any other design is summed atom
by atom.

A continuous path through that grid repeats one macro template: dwells at
the atoms in lexicographic order, joined by constant-speed legs.  A leg's
carry level a (the slowest axis it moves) fixes both its direction and its
duration, so the legs fall into d classes, and the dwell start offsets are
affine in every grid coordinate.  Dwells and each class of legs then sum
like the switching slots: the whole template costs d + 1 segment integrals
times per-axis Dirichlet sums, O(d^2) kernel-sized operations whatever the
atom count (`grid_tour_sum`).  Any other design is summed segment by segment.
Neither that template sum nor the repeat sum depends on where the path
starts (`path_template`); one phase e^{i D t_start} moves them to an interval
(`shifted_kernel`), so paths that differ only in their start share them.
Since that phase and the repeat sum are functions of D alone, an energy
along any of those paths is Re sum_D e^{i D t_start} repeats(D) W(D), with
W(D) the coefficient-weighted template summed over the entries of
difference D: one reduction of the template per coefficient vector serves
every start (`shifted_energies`), and no kernel is formed.

Every factor of a grid kernel is a function of the frequency difference
D = alpha_k - alpha_i alone (start phase, repeat sum, slot integral), of a
pair (D, m_a) with one component of the mode difference (the per-axis
Dirichlet sums), or of a pair (D, sum_{b>=a} m_b) (the leg integral of carry
level a).  A run has far fewer distinct keys than kernel entries: the 2D
box with 81 modes has 26,244 entries but 354 distinct D and 2,971 distinct
(D, m_0).  A `DifferenceTable`, built once per run, holds the distinct keys
and, for each kind, the index of every entry's key; a kernel evaluates each
factor once per key and gathers it back with that index.  The distinct D are
keyed on their bit patterns, so every gathered entry is the dense formula's
floating-point operation on the same operands, and kernels are bitwise
those of the dense evaluation.  Only the products of factors of different
keys stay dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .schedule import ContinuousPath, SwitchingSchedule, torus_displacement
from .spectral import ModalBasis, ObservationMatrix, shift_phase

TWO_PI = 2.0 * math.pi

MODELS = ("wave", "klein_gordon", "schrodinger")

#: output kinds per model
FIELD = "field"
TIME_DERIVATIVE = "time_derivative"


class BasisMismatch(Exception):
    """Gram matrices and datum are built on different bases."""


def check_model_mass(model: str, mass: float) -> None:
    """Raise ValueError unless `model` is known and `mass` suits it: the wave
    and Schrodinger models take mass 0, Klein-Gordon a nonzero mass."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if model == "schrodinger" and mass != 0.0:
        raise ValueError("schrodinger model carries no mass term")
    if model == "wave" and mass != 0.0:
        raise ValueError("wave model has mass 0; use klein_gordon otherwise")
    if model == "klein_gordon" and mass == 0.0:
        raise ValueError("klein_gordon needs a nonzero mass")


@dataclass(frozen=True, eq=False)
class ModalDatum:
    """Modal coefficients of one datum on a simulation basis.

    wave/klein_gordon carry (a, b); schrodinger carries c.  Arrays are
    aligned with `basis.modes` and never mutated in place.
    """

    model: str
    mass: float
    basis: ModalBasis
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    c: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_model_mass(self.model, self.mass)
        d = self.basis.dim
        if self.model == "schrodinger":
            if self.c is None or self.a is not None or self.b is not None:
                raise ValueError("schrodinger datum needs exactly the c array")
            if self.c.shape != (d,):
                raise ValueError("c has the wrong shape")
        else:
            if self.a is None or self.b is None or self.c is not None:
                raise ValueError("wave/klein_gordon datum needs the (a, b) arrays")
            if self.a.shape != (d,) or self.b.shape != (d,):
                raise ValueError("(a, b) have the wrong shape")
            zero = self.rho == 0.0
            if np.any(zero) and np.any(self.a[zero] != 0.0):
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
            return replace(self, c=self.c * mask)
        return replace(self, a=self.a * mask, b=self.b * mask)


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
    identical coefficients.
    """
    if decay not in ("flat", "power"):
        raise ValueError(f"unknown decay profile {decay!r}")
    if mass is None:
        mass = 1.0 if model == "klein_gordon" else 0.0
    check_model_mass(model, mass)
    if window < 0 or window > basis.cutoff:
        raise ValueError(f"window must lie in [0, {basis.cutoff}]")
    rng = np.random.default_rng(seed)
    d = basis.dim
    norms = np.linalg.norm(basis.mode_array.astype(float), axis=1)
    scale = (1.0 + norms) ** (-decay_power) if decay == "power" else np.ones(d)
    mask = basis.window_mask(window)

    def draw() -> np.ndarray:
        re = rng.standard_normal(d)
        im = rng.standard_normal(d)
        return (re + 1j * im) / math.sqrt(2.0)

    if model == "schrodinger":
        c = draw() * scale * mask
        return ModalDatum(model=model, mass=0.0, basis=basis, c=c)
    xi_a = draw()
    xi_b = draw()
    rho = np.sqrt(basis.eigenvalues + mass * mass)
    positive = rho > 0.0
    # scale the displacement by 1/rho so both summands of the modal energy
    # rho^2 |a|^2 + |b|^2 are unit-variance Gaussians before decay weighting
    a = np.where(positive, scale * xi_a / np.where(positive, rho, 1.0), 0.0)
    b = scale * xi_b
    return ModalDatum(model=model, mass=mass, basis=basis, a=a * mask, b=b * mask)


@dataclass(frozen=True, eq=False)
class EnergyDecomposition:
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


def evolve_to(datum: ModalDatum, t: float) -> ModalDatum:
    """Exact unitary evolution to absolute time t (zero-mode velocity is
    constant in the mass-zero quotient)."""
    if datum.model == "schrodinger":
        return replace(datum, c=datum.c * np.exp(1j * datum.basis.eigenvalues * t))
    rho = datum.rho
    cos = np.cos(rho * t)
    sin = np.sin(rho * t)
    positive = rho > 0.0
    safe_rho = np.where(positive, rho, 1.0)
    a_new = np.where(positive, datum.a * cos + datum.b * sin / safe_rho, datum.a)
    b_new = np.where(positive, -datum.a * safe_rho * sin + datum.b * cos, datum.b)
    return replace(datum, a=a_new, b=b_new)


def output_kind_for(model: str) -> str:
    return FIELD if model == "schrodinger" else TIME_DERIVATIVE


def output_expansion(datum: ModalDatum, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Output coefficients as sums of complex exponentials.

    Returns (C, alpha) of shape (dim, P): the output coefficient of mode n is
    v_n(t) = sum_p C[n, p] e^{i alpha[n, p] t}.  Schrodinger field output has
    one branch (alpha = lambda); the kinetic wave output has two
    (alpha = +-rho with C = (b +- i rho a)/2).
    """
    if datum.model == "schrodinger":
        if kind != FIELD:
            raise ValueError("schrodinger observations use the field output")
        c = datum.c[:, None]
        alpha = datum.basis.eigenvalues[:, None]
        return c.astype(complex), alpha.astype(float)
    if kind != TIME_DERIVATIVE:
        raise ValueError("wave/klein_gordon observations use the kinetic output")
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


def frequency_differences(alpha: np.ndarray) -> np.ndarray:
    """D[i, p, k, q] = alpha[k, q] - alpha[i, p] for an expansion of shape (dim, P).

    Kernels live on these (mode, branch, mode, branch) axes; a mode matrix
    M of shape (dim, dim) enters them by broadcasting as M[:, None, :, None].
    """
    return alpha[None, None, :, :] - alpha[:, :, None, None]


@dataclass(frozen=True, eq=False)
class PairKeys:
    """The distinct pairs (D, m) of one mode-difference component m, and
    the pair of every kernel entry: the entry's D and m are
    `diff[inverse]` and `modes[inverse]`."""

    diff: np.ndarray
    modes: np.ndarray
    inverse: np.ndarray


def _compact(index: np.ndarray, count: int) -> np.ndarray:
    """`index` in the narrowest unsigned integer type that holds 0..count-1."""
    return index.astype(np.min_scalar_type(max(count - 1, 0)))


@dataclass(frozen=True, eq=False)
class DifferenceTable:
    """The frequency differences D of one expansion, deduplicated.

    `values` holds the distinct D and `inverse` the index of each entry's D
    on the lifted axes, so the dense D is `values[inverse]` (`diff`).
    `axes[a]` holds the distinct pairs (D, m_a) of the mode differences
    m = n_i - n_k, and `carries[a]` those of (D, sum_{b>=a} m_b) for the
    carry levels a < d - 1; level d - 1 is the pair (D, m_{d-1}) itself
    (`carry`).  `mode_differences` is the integer (dim, dim, d) array m the
    pairs were read from.  Only the index arrays are kernel-sized, and each
    is stored in the narrowest unsigned type that holds it.
    """

    values: np.ndarray
    inverse: np.ndarray
    axes: tuple[PairKeys, ...]
    carries: tuple[PairKeys, ...]
    mode_differences: np.ndarray

    @classmethod
    def build(cls, alpha: np.ndarray, mode_differences: np.ndarray) -> "DifferenceTable":
        """Deduplicate the D of the expansion frequencies `alpha` (dim, P)
        and their pairs with every component of `mode_differences`."""
        diff = frequency_differences(alpha)
        # keyed on the bit pattern, so -0.0 and 0.0 stay distinct operands
        bits, inverse = np.unique(diff.ravel().view(np.int64), return_inverse=True)
        values = bits.view(np.float64)

        def pairs(m: np.ndarray) -> PairKeys:
            # one integer code per (D, m): the D index times the span of m
            low = int(m.min())
            span = int(m.max()) - low + 1
            code = inverse.reshape(diff.shape) * span + (m - low)[:, None, :, None]
            keys, pair_inverse = np.unique(code.ravel(), return_inverse=True)
            return PairKeys(
                diff=values[keys // span],
                # |m| < span, so the narrowest type holding -span holds m
                modes=(keys % span + low).astype(np.min_scalar_type(-span)),
                inverse=_compact(pair_inverse, keys.size).reshape(diff.shape),
            )

        dim = mode_differences.shape[-1]
        return cls(
            values=values,
            inverse=_compact(inverse, values.size).reshape(diff.shape),
            axes=tuple(pairs(mode_differences[..., a]) for a in range(dim)),
            carries=tuple(
                pairs(mode_differences[..., a:].sum(axis=-1)) for a in range(dim - 1)
            ),
            mode_differences=mode_differences,
        )

    @property
    def diff(self) -> np.ndarray:
        """The dense D on the lifted axes, as `frequency_differences` gives it."""
        return self.values[self.inverse]

    def carry(self, level: int) -> PairKeys:
        """The pairs (D, sum_{b>=level} m_b)."""
        return self.carries[level] if level < len(self.carries) else self.axes[-1]


def kernel_energy(kernel: np.ndarray, coeff: np.ndarray) -> float:
    """Re sum conj(C[i, p]) K[i, p, k, q] C[k, q] for a kernel on the lifted axes."""
    flat = coeff.ravel()
    return float(np.real(np.vdot(flat, kernel.reshape(flat.size, flat.size) @ flat)))


def grid_atom_sum(table: DifferenceTable, per_axis: int, tau: float) -> np.ndarray:
    """Slot integrals of one macro interval summed over an equal-weight grid.

    Atom j = sum_a j_a J1^(d-1-a) sits at shift (j_0, .., j_{d-1})/J1 and
    dwells on [j w, (j+1) w) of the macro interval, w = tau / J1^d.  Its
    shift phase e^{-2 pi i m.g_j} (m = n_i - n_k) and its slot phase
    e^{i D j w} are both affine in every j_a, so the sum over all J1^d atoms
    factors into one Dirichlet sum per axis, of
    D w J1^(d-1-a) - 2 pi m_a / J1 over j_a = 0..J1-1, times the shared
    slot integral over [0, w).  The slot integral is evaluated on the
    distinct D and each axis sum on the distinct (D, m_a) of `table`.
    """
    width = tau / per_axis ** len(table.axes)
    total = phase_integral(table.values, 0.0, width)[table.inverse]
    for a, keys in enumerate(table.axes):
        arg = keys.diff * (tau / per_axis ** (a + 1)) - (TWO_PI / per_axis) * keys.modes
        total = total * geometric_phase_sum(arg, 1.0, per_axis)[keys.inverse]
    return total


def per_atom_sum(
    diff: np.ndarray, basis: ModalBasis, schedule: SwitchingSchedule
) -> np.ndarray:
    """Slot integrals of one macro interval summed atom by atom.

    Atom j contributes phase(g_j) times the integral over its slot, which
    starts at cum_j tau and is (cum_{j+1} - cum_j) tau wide; any design.
    """
    tau = schedule.macro_length
    cum = schedule.cum
    total = np.zeros_like(diff, dtype=complex)
    for j, atom in enumerate(schedule.design.atoms):
        phase = shift_phase(basis, atom.shift)[:, None, :, None]
        width = (cum[j + 1] - cum[j]) * tau
        total += phase * phase_integral(diff, cum[j] * tau, width)
    return total


def switching_kernel(
    schedule: SwitchingSchedule, table: DifferenceTable, gamma_base: ObservationMatrix
) -> np.ndarray:
    """Lifted kernel of the observation energy along a switching schedule.

    Gamma(0) times e^{i D t_start} times the Dirichlet sum over the R macro
    repetitions times the atom sum of one macro interval (closed form for
    the equal-weight grid, atom by atom otherwise).  Its quadratic form in
    the output coefficients (`kernel_energy`) is the observed energy.
    `table` holds the frequency differences of the output expansion.
    """
    tau = schedule.macro_length
    per_axis = schedule.design.grid_per_axis
    if per_axis is None:
        atoms = per_atom_sum(table.diff, gamma_base.basis, schedule)
    else:
        atoms = grid_atom_sum(table, per_axis, tau)
    repeats = geometric_phase_sum(table.values, tau, schedule.macro_count)
    return shifted_kernel(gamma_base, table, schedule.t_start, repeats, atoms)


def shifted_kernel(
    gamma_base: ObservationMatrix,
    table: DifferenceTable,
    t_start: float,
    repeats: np.ndarray,
    body: np.ndarray,
) -> np.ndarray:
    """Gamma(0) times e^{i D t_start} times the repeat sum times the macro
    sum `body`: the one step of a kernel that depends on where the interval
    starts.  The start phase and `repeats` are functions of D alone, given
    on the distinct D of `table`; `body` is on the lifted axes."""
    start = np.exp(1j * table.values * t_start)
    return gamma_base.entries[:, None, :, None] * (
        (start * repeats)[table.inverse] * body
    )


def shifted_energies(
    gamma_base: ObservationMatrix,
    table: DifferenceTable,
    starts: np.ndarray,
    repeats: np.ndarray,
    body: np.ndarray,
    coeffs: list[np.ndarray],
) -> np.ndarray:
    """`kernel_energy` of `shifted_kernel(gamma_base, table, t, repeats,
    body)` for every start t in `starts` and every output coefficient vector
    in `coeffs`, shape (len(starts), len(coeffs)), with no kernel formed.

    The start phase and `repeats` depend on an entry's D alone, so each
    energy is Re sum_D e^{i D t} repeats(D) W(D), where W(D) sums
    conj(C_i) Gamma(0) body C_k over the entries of difference D: one
    `np.bincount` over `table.inverse` per coefficient vector and part
    (real, imaginary), whatever the number of starts.  Only the order of
    summation differs from `kernel_energy`, so the two agree to rounding.
    """
    index = table.inverse.ravel()
    size = table.values.size
    reduced = np.empty((size, len(coeffs)), dtype=complex)
    for j, coeff in enumerate(coeffs):
        # one kernel-sized product at a time, scaled in place
        density = gamma_base.entries[:, None, :, None] * body
        density *= coeff.conj()[:, :, None, None]
        density *= coeff
        reduced[:, j].real = np.bincount(index, density.real.ravel(), size)
        reduced[:, j].imag = np.bincount(index, density.imag.ravel(), size)
    phases = np.exp(1j * np.outer(starts, table.values)) * repeats
    return (phases @ reduced).real


def _check_gamma_base(datum: ModalDatum, gamma_base: ObservationMatrix) -> None:
    if gamma_base.basis.modes != datum.basis.modes:
        raise BasisMismatch(
            "observation matrices must be assembled on the simulation basis"
        )
    if any(gamma_base.shift.shift):
        raise ValueError("gamma_base must be the unshifted observation matrix")


def windowed_observation_energy(
    datum: ModalDatum,
    schedule: SwitchingSchedule,
    kind: str,
    gamma_base: ObservationMatrix,
) -> float:
    """Observation energy of the datum along a switching schedule.

    Equals the sum over micro slots of v(t)^H Gamma(g_j) v(t) integrated in
    closed form, with Gamma(g_j) = Gamma(0) * phase(g_j).  `gamma_base` is
    Gamma at shift 0 on the datum's basis; tail modes of the datum above
    the design cutoff are included.
    """
    _check_gamma_base(datum, gamma_base)
    coeff, alpha = output_expansion(datum, kind)
    table = DifferenceTable.build(alpha, gamma_base.basis.mode_differences)
    return kernel_energy(switching_kernel(schedule, table, gamma_base), coeff)


def interval_output_energy(
    datum: ModalDatum, t_start: float, duration: float, kind: str
) -> float:
    """Full-torus output energy over one interval (Gram = identity)."""
    coeff, alpha = output_expansion(datum, kind)
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


def per_segment_sum(
    diff: np.ndarray, mode_differences: np.ndarray, path: ContinuousPath
) -> np.ndarray:
    """Segment integrals of one macro template summed segment by segment.

    On a transit leg the position is affine in t, so the shift phase stays
    a complex exponential e^{i rate (t - t1)} that folds into the slot
    integral; any design.  `mode_differences` holds n_i - n_k, shape
    (dim, dim, d).
    """
    # 2 pi (n_i - n_k), lifted to the (mode, branch, mode, branch) axes
    mdiff = TWO_PI * mode_differences[:, None, :, None, :]
    total = np.zeros_like(diff, dtype=complex)
    for seg in path.template:
        width = seg.offset_end - seg.offset_start
        if width <= 0.0:
            continue
        position = np.exp(-1j * (mdiff @ np.asarray(seg.position, dtype=float)))
        if seg.kind == "dwell":
            local = phase_integral(diff, seg.offset_start, width)
        else:
            rate = -(mdiff @ np.asarray(seg.velocity, dtype=float))
            local = np.exp(1j * diff * seg.offset_start) * phase_integral(
                diff + rate, 0.0, width
            )
        total += position * local
    return total


def grid_tour_sum(
    table: DifferenceTable, per_axis: int, path: ContinuousPath
) -> np.ndarray:
    """Segment integrals of one macro template summed over the grid tour.

    The tour visits the J = J1^d grid atoms in lexicographic order.  The leg
    leaving atom j has carry level a when j_{a+1..d-1} = J1-1 and j_a < J1-1
    (the closing leg from atom J-1 has level 0): it moves axes a..d-1 by the
    step s = torus_displacement(0, 1/J1) and lasts l_a = |s| sqrt(d-a)/speed.
    With dwell w = theta (tau - D/speed), atom j's dwell starts at the offset
    sum_b c_b j_b,

        c_b = w J1^(d-1-b) + l_b + sum_{a>b} l_a (J1-1) J1^(a-1-b),

    so its slot phase and its shift phase are both affine in every j_b, and
    the dwells sum to one slot integral times one Dirichlet sum per axis.
    The level-a legs start at the dwell offsets plus w and form a sub-grid:
    axes b < a over J1 values, axis a over J1-1 values (J1 at level 0), the
    later axes fixed at J1-1.  Each class is one moving-phase integral over
    [0, l_a) times at most d Dirichlet sums, O(d^2) kernel-sized operations
    for the whole template whatever J is.  Slot phases are evaluated on the
    distinct D of `table`, the dwell sums on the distinct (D, m_b) and the
    level-a leg integrals on the distinct (D, sum_{b>=a} m_b).
    """
    dim = len(table.axes)
    dwell = path.design.atoms[0].weight * (path.macro_length - path.cycle / path.speed)
    total = phase_integral(table.values, 0.0, dwell)[table.inverse]
    if per_axis == 1:
        return total
    step = float(torus_displacement(0.0, 1.0 / per_axis))
    legs = [abs(step) * math.sqrt(dim - a) / path.speed for a in range(dim)]
    # level 0 runs axis 0 over all J1 values and no level fixes axis 0, so
    # the short and fixed factors exist from axis 1 on
    full, short, fixed = [], [None], [None]
    for b, keys in enumerate(table.axes):
        offset = dwell * per_axis ** (dim - 1 - b) + legs[b]
        for a in range(b + 1, dim):
            offset += legs[a] * (per_axis - 1) * per_axis ** (a - 1 - b)
        arg = keys.diff * offset - (TWO_PI / per_axis) * keys.modes
        full.append(geometric_phase_sum(arg, 1.0, per_axis)[keys.inverse])
        if b > 0:
            short.append(geometric_phase_sum(arg, 1.0, per_axis - 1)[keys.inverse])
            fixed.append(np.exp(1j * (per_axis - 1) * arg)[keys.inverse])
    # products are taken in place on fresh arrays, to hold fewer
    # kernel-sized temporaries at once; the operations are unchanged
    total *= math.prod(full)
    after_dwell = np.exp(1j * table.values * dwell)[table.inverse]
    for a in range(dim):
        along = (full if a == 0 else short)[a]
        atoms = math.prod(full[:a]) * along * math.prod(fixed[a + 1 :])
        keys = table.carry(a)
        rate = -(TWO_PI * step / legs[a]) * keys.modes
        atoms *= after_dwell
        atoms *= phase_integral(keys.diff + rate, 0.0, legs[a])[keys.inverse]
        total += atoms
    return total


def path_template(
    path: ContinuousPath, table: DifferenceTable
) -> tuple[np.ndarray, np.ndarray]:
    """The start-free factors (repeats, segments) of a path kernel.

    `repeats` is the Dirichlet sum over the R macro repetitions, on the
    distinct D of `table`; `segments` the segment sum of one macro template
    on the lifted axes: closed-form for an equal-weight grid design
    (`grid_tour_sum`), segment by segment otherwise (`per_segment_sum`).
    Neither reads `path.t_start`, so paths that differ only in their start
    share them.
    """
    per_axis = path.design.grid_per_axis
    if per_axis is None:
        segments = per_segment_sum(table.diff, table.mode_differences, path)
    else:
        segments = grid_tour_sum(table, per_axis, path)
    repeats = geometric_phase_sum(table.values, path.macro_length, path.macro_count)
    return repeats, segments


def path_kernel(
    path: ContinuousPath, table: DifferenceTable, gamma_base: ObservationMatrix
) -> np.ndarray:
    """Lifted kernel of the observation energy along a continuous path.

    Gamma(0) times e^{i D t_start} times the Dirichlet sum over the R macro
    repetitions times the segment sum of one macro template.  Only the first
    phase depends on the start, so the kernel is the path's template
    (`path_template`, built once per window and speed by the continuous
    rerun) moved to `path.t_start` by one phase (`shifted_kernel`).
    """
    repeats, segments = path_template(path, table)
    return shifted_kernel(gamma_base, table, path.t_start, repeats, segments)


def path_observation_energy(
    datum: ModalDatum,
    path: ContinuousPath,
    kind: str,
    gamma_base: ObservationMatrix,
) -> float:
    """Observation energy along a continuous path (see `path_kernel`).

    `gamma_base` is Gamma at shift 0 on the datum's basis.
    """
    _check_gamma_base(datum, gamma_base)
    coeff, alpha = output_expansion(datum, kind)
    table = DifferenceTable.build(alpha, gamma_base.basis.mode_differences)
    return kernel_energy(path_kernel(path, table, gamma_base), coeff)
