"""Convex observation designs: finitely many translates whose weighted Gram
matrices average exactly to measure * identity on the profile space.

A design is a list of atoms (g_j, theta_j), theta_j > 0 summing to one, with

    sum_j theta_j Gamma(g_j) = L * Id,      L = measure(omega),

so that the weighted translated-set energies of any profile-space function
reproduce the full-torus energy scaled by L, with no convexification loss.

The identity depends on theta only through the trigonometric moments
mu(m) = sum_j theta_j e^{-2 pi i m.g_j} for 0 < |m|_inf <= 2K.  Building
and reducing designs therefore works on one real moment point per shift
(`moment_points`, length (4K+1)^d - 1) instead of dim(H)^2 Gram entries:
the solver is Wolfe's minimum-norm point over those points and the
Caratheodory reduction removes their affine dependencies, so a design
never needs more than (4K+1)^d atoms.  `moment_residual` recomputes the
residual from the Gamma matrices, as an independent check of the
moment-space arithmetic.  Both residuals add their terms in a fixed order
and their squares exactly (`math.fsum`), with no BLAS kernel, so their bits
do not depend on the CPU code path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import NumericError
from .geometry import GroupElement, PrototypeSet, torus_displacement
from .spectral import ModalBasis, ObservationMatrix, gamma_matrix, phase_table

#: atoms with weight below this are pruned and the rest renormalized
WEIGHT_FLOOR = 1e-13

#: Wolfe's optimality test: ||x||^2 - min_j <x, p_j> <= OPTIMALITY_GAP ||x|| max_j ||p_j||
OPTIMALITY_GAP = 1e-12

#: a residual below ZERO_NORM * max_j ||p_j|| is zero to rounding
ZERO_NORM = 64 * np.finfo(float).eps


class DesignError(NumericError):
    """Base class for design construction failures."""


class DesignInfeasible(DesignError):
    """The solver could not reach the requested moment residual."""


class EmptyCandidates(DesignError):
    """No candidate shifts were supplied."""


class NumericalRankFailure(DesignError):
    """A required affine dependency could not be certified numerically."""


class DesignAtom(NamedTuple):
    shift: GroupElement
    weight: float


class ConvexDesign:
    """Finite convex combination of translates with its moment residual.

    Equal designs have equal atoms, measure, cutoff and residual.  The tour,
    grid test and cumulative weights are cached on the instance."""

    def __init__(
        self,
        atoms: tuple[DesignAtom, ...],
        measure: float,     # L of the prototype set
        cutoff: int,        # basis cutoff K the design was built for
        residual: float,    # ||sum theta Gamma - L Id||_F at build time (moment space)
    ) -> None:
        self.atoms = atoms
        self.measure = measure
        self.cutoff = cutoff
        self.residual = residual
        if not atoms:
            raise ValueError("design needs at least one atom")
        w = self.weights
        # written so that a NaN fails each test
        if not np.all(w > 0):
            raise ValueError("atom weights must be positive")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {w.sum()}, not 1")
        if not math.isfinite(residual):
            raise ValueError(f"residual {residual} is not finite")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConvexDesign):
            return NotImplemented
        return (self.atoms, self.measure, self.cutoff, self.residual) == (
            other.atoms, other.measure, other.cutoff, other.residual
        )

    @property
    def weights(self) -> np.ndarray:
        return np.array([a.weight for a in self.atoms], dtype=float)

    @property
    def shifts(self) -> list[GroupElement]:
        return [a.shift for a in self.atoms]

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def grid_per_axis(self) -> int | None:
        """J1 if the design is the equal-weight grid, else None.

        The grid has J1^d atoms of one common weight whose shifts are
        (c_0/J1, ..., c_{d-1}/J1) in lexicographic order, which is how
        `equispaced_design` lists them.  Weights and shifts are compared
        exactly, with no float tolerance.
        """
        if len({a.weight for a in self.atoms}) != 1:
            return None
        dim = self.atoms[0].shift.dim
        per_axis = round(len(self) ** (1.0 / dim))
        if per_axis**dim != len(self):
            return None
        return per_axis if self.shifts == _grid_shifts(per_axis, dim) else None

    @cached_property
    def cumulative_weights(self) -> np.ndarray:
        """0, theta_0, theta_0 + theta_1, ..., ending at exactly 1.0: switching
        slot j of a macro interval of length tau is [cum_j tau, cum_{j+1} tau)."""
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        cum[-1] = 1.0  # absorb rounding so slots tile each macro interval exactly
        cum.flags.writeable = False
        return cum

    @cached_property
    def tour(self) -> tuple[np.ndarray, tuple[float, ...]]:
        """The closed tour through the atoms in design order: the shortest
        displacement of each leg, shape (J, d), and its flat length.  Leg j
        runs from atom j to atom j + 1, the last one back to atom 0; a
        single atom's only leg has length 0."""
        points = np.array([a.shift.as_floats() for a in self.atoms])
        deltas = torus_displacement(points, np.roll(points, -1, axis=0))
        deltas.flags.writeable = False
        return deltas, tuple(float(np.linalg.norm(delta)) for delta in deltas)

    @cached_property
    def cycle(self) -> float:
        """The length of the tour, its legs added in order from 0.0."""
        cycle = 0.0
        for leg in self.tour[1]:
            cycle += leg
        return cycle

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "cutoff": self.cutoff,
            "residual": self.residual,
            "atoms": [
                {
                    "shift": [str(s) for s in a.shift.shift],
                    "weight": a.weight,
                }
                for a in self.atoms
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConvexDesign":
        atoms = tuple(
            DesignAtom(
                shift=GroupElement(tuple(Fraction(c) for c in rec["shift"])),
                weight=float(rec["weight"]),
            )
            for rec in data["atoms"]
        )
        return cls(
            atoms=atoms,
            measure=float(data["measure"]),
            cutoff=int(data["cutoff"]),
            residual=float(data["residual"]),
        )


def design_gammas(
    design: ConvexDesign, basis: ModalBasis, prototype: PrototypeSet
) -> list[ObservationMatrix]:
    """Observation matrices of the design atoms on the given basis."""
    return [gamma_matrix(basis, prototype, a.shift) for a in design.atoms]


def moment_matrix(weights: np.ndarray, gammas: Iterable[ObservationMatrix]) -> np.ndarray:
    """sum_j theta_j Gamma_j, added in atom order.  `gammas` may be a
    generator, so that one atom's matrix is held at a time."""
    acc = 0.0
    for w, g in zip(weights, gammas):
        # 0.0 + x is x, bit for bit, as from a zero matrix
        acc = acc + w * g.entries
    return acc


def moment_residual(
    weights: np.ndarray, gammas: Iterable[ObservationMatrix], measure: float
) -> float:
    """||sum_j theta_j Gamma(g_j) - L Id||_F from the matrices themselves:
    the square root of the exact sum of the squared real and imaginary parts.

    Every trial vector xi has |Re xi^H E xi| / |xi|^2 <= ||E||_2 <= ||E||_F
    for E = sum_j theta_j Gamma(g_j) - L Id, so this one number bounds the
    error of the identity on every function of the profile space."""
    moment = moment_matrix(weights, gammas)
    excess = moment - measure * np.eye(moment.shape[0])
    return math.sqrt(math.fsum(np.square(excess.view(float)).ravel().tolist()))


def moment_points(
    basis: ModalBasis, prototype: PrototypeSet, shifts: Sequence[GroupElement]
) -> np.ndarray:
    """Real moment point of each shift, one row per shift.

    With c = prototype.fourier_table(2K) and mult(m) the number of mode
    pairs (i, k) with n_i - n_k = m, weights theta summing to one give

        ||sum_j theta_j Gamma(g_j) - L Id||_F^2
            = sum_{m != 0} mult(m) |c(m)|^2 |mu(m)|^2,
        mu(m) = sum_j theta_j e^{-2 pi i m.g_j},

    since the m = 0 term is (c(0) sum theta - L)^2 = 0.  As
    mu(-m) = conj(mu(m)), the sum runs over the lexicographic half m > 0
    with weight 2 mult(m), and the point of g is
    sqrt(2 mult(m)) |c(m)| (Re, Im) e^{-2 pi i m.g} over that half: length
    (4K+1)^d - 1, and the design residual is ||sum_j theta_j p_j||.
    """
    if basis.space != prototype.space:
        raise ValueError("basis and prototype live on different tori")
    k2 = 2 * basis.cutoff
    size = (2 * k2 + 1) ** basis.space.dim
    half = slice(size // 2 + 1, None)
    mult = np.bincount(basis.difference_index.ravel(), minlength=size)
    scale = np.sqrt(2.0 * mult[half]) * np.abs(prototype.fourier_table(k2).ravel()[half])
    points = np.empty((len(shifts), 2, size // 2))
    for row, g in zip(points, shifts):
        phase = phase_table(g, k2).ravel()[half] * scale
        row[0], row[1] = phase.real, phase.imag
    return points.reshape(len(shifts), -1)


def design_of(
    atoms: Sequence[DesignAtom], basis: ModalBasis, prototype: PrototypeSet
) -> ConvexDesign:
    """The design of `atoms` on `basis`: the prototype's measure, the basis
    cutoff and the atoms' moment residual ||sum_j theta_j p_j||."""
    atoms = tuple(atoms)
    points = moment_points(basis, prototype, [a.shift for a in atoms])
    weights = np.array([a.weight for a in atoms], dtype=float)
    # the atoms' terms added in atom order, the squares exactly: no BLAS
    moment = np.add.reduce(weights[:, None] * points, axis=0)
    return ConvexDesign(
        atoms=atoms,
        measure=prototype.measure,
        cutoff=basis.cutoff,
        residual=math.sqrt(math.fsum((moment * moment).tolist())),
    )


def equispaced_design(basis: ModalBasis, prototype: PrototypeSet) -> ConvexDesign:
    """Equal weights on a regular grid of 4K+1 shifts per axis.

    Every moment mu(m) with 0 < |m|_inf <= 2K sums the phases of a nonzero
    frequency over J >= 4K+1 equispaced shifts, which vanishes, so the
    design identity holds exactly (to rounding).
    """
    shifts = _grid_shifts(4 * basis.cutoff + 1, basis.space.dim)
    weight = 1.0 / len(shifts)
    return design_of([DesignAtom(shift=s, weight=weight) for s in shifts], basis, prototype)


def default_candidates(basis: ModalBasis) -> list[GroupElement]:
    """Regular candidate grid of 4K+2 shifts per axis.

    One more point per axis than the exact equal-weight grid needs, so an
    exact design is always inside the candidate simplex and the solver's
    feasibility is guaranteed.
    """
    return _grid_shifts(4 * basis.cutoff + 2, basis.space.dim)


def _grid_shifts(per_axis: int, dim: int) -> list[GroupElement]:
    """The shifts (c_0, ..., c_{dim-1}) / per_axis in lexicographic order."""
    return [
        GroupElement(tuple(Fraction(c, per_axis) for c in combo))
        for combo in product(range(per_axis), repeat=dim)
    ]


def _affine_minimizer(points: np.ndarray) -> np.ndarray:
    """Coefficients (summing to one) of the point of least norm in the affine hull."""
    if len(points) == 1:
        return np.ones(1)
    base = points[0]
    beta = np.linalg.lstsq((points[1:] - base).T, -base, rcond=None)[0]
    return np.concatenate(([1.0 - beta.sum()], beta))


def _minor_cycles(
    points: np.ndarray, corral: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Wolfe's minor cycles: shrink the corral until its affine minimizer is interior.

    While some affine coefficient is not positive, move from the convex
    weights `lam` toward the affine minimizer until the first weight hits
    zero (ties: lowest corral position) and drop the atoms at zero.
    """
    while True:
        alpha = _affine_minimizer(points[corral])
        if alpha.min() > 0.0:
            return corral, alpha
        gap = lam - alpha
        ratios = np.full(len(lam), np.inf)
        blocking = alpha <= 0.0
        ratios[blocking] = np.divide(
            lam[blocking], gap[blocking],
            out=np.zeros(int(blocking.sum())), where=gap[blocking] > 0.0,
        )
        leaving = int(np.argmin(ratios))
        lam = lam - ratios[leaving] * gap
        lam[leaving] = 0.0
        keep = lam > 0.0
        corral, lam = corral[keep], lam[keep]


def _min_norm_point(
    points: np.ndarray, max_cycles: int, history: list[float] | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Wolfe's minimum-norm point of conv(points): (corral, weights, norm).

    Starts at the shortest point.  Each major cycle adds the point with the
    least inner product with the iterate x and runs minor cycles until x is
    the affine minimizer of an affinely independent corral, so the norm
    strictly decreases and no corral repeats.  Stops when x is optimal
    (Wolfe's test) or zero to rounding, or when a cycle makes no progress
    at rounding level; that cycle is then discarded.
    """
    sq = np.einsum("ij,ij->i", points, points)
    scale = math.sqrt(float(sq.max()))
    first = int(np.argmin(sq))
    corral, lam = np.array([first]), np.ones(1)
    x, norm = points[first], math.sqrt(float(sq[first]))
    if history is not None:
        history.append(norm)
    for _ in range(max_cycles):
        if norm <= ZERO_NORM * scale:
            break
        dots = points @ x
        j = int(np.argmin(dots))
        if norm * norm - dots[j] <= OPTIMALITY_GAP * norm * scale:
            break
        trial, weights = _minor_cycles(points, np.append(corral, j), np.append(lam, 0.0))
        y = weights @ points[trial]
        trial_norm = float(np.linalg.norm(y))
        if trial_norm >= norm:
            break
        corral, lam, x, norm = trial, weights, y, trial_norm
        if history is not None:
            history.append(norm)
    return corral, lam, norm


def solve_design(
    basis: ModalBasis,
    prototype: PrototypeSet,
    candidates: Sequence[GroupElement],
    tol: float = 1e-10,
    max_iter: int = 20000,
    history: list[float] | None = None,
) -> ConvexDesign:
    """Wolfe's minimum-norm point over the candidates' moment points.

    The design residual is ||sum_j theta_j p_j|| (`moment_points`), so the
    best convex design is the point of conv{p_j} nearest the origin.
    Wolfe's algorithm (Math. Programming 11, 1976) finds it in finitely
    many major cycles, `max_iter` at most, and its support is affinely
    independent: at most (4K+1)^d atoms, listed in candidate order.  Raises
    DesignInfeasible if the minimum norm stays above tol.  If `history` is
    a list, the residual at the start and after every major cycle is
    appended to it; it never increases.
    """
    if len(candidates) == 0:
        raise EmptyCandidates("no candidate shifts supplied")
    points = moment_points(basis, prototype, candidates)
    corral, lam, norm = _min_norm_point(points, max_iter, history)
    if norm > tol:
        raise DesignInfeasible(
            f"minimum norm {norm:.3e} above tolerance {tol:.1e} after at most "
            f"{max_iter} major cycles"
        )
    order = np.argsort(corral, kind="stable")
    corral, lam = corral[order], lam[order]
    keep = lam > WEIGHT_FLOOR
    kept = corral[keep]
    theta = lam[keep] / lam[keep].sum()
    atoms = [DesignAtom(shift=candidates[int(i)], weight=float(w)) for i, w in zip(kept, theta)]
    return design_of(atoms, basis, prototype)


def _null_vector(b: np.ndarray) -> np.ndarray | None:
    """A certified null vector of b, or None if its columns are independent."""
    _, s, vt = np.linalg.svd(b)
    rank_tol = max(b.shape) * np.finfo(float).eps * s[0]
    if int(np.sum(s > rank_tol)) == b.shape[1]:
        return None
    direction = vt[-1]
    if float(np.linalg.norm(b @ direction)) > 1e-8 * max(1.0, s[0]):
        raise NumericalRankFailure("null vector fails the dependency check")
    return direction


def caratheodory_reduce(
    design: ConvexDesign,
    basis: ModalBasis,
    prototype: PrototypeSet,
    drift_tol: float = 1e-11,
) -> ConvexDesign:
    """Reduce the atoms to an affinely independent set of moment points.

    A design whose lifted points [p_j, 1] are already linearly independent,
    as the solver's are, is checked with one SVD.  Otherwise atoms enter one
    at a time, in order, beside an affinely independent active set.  While
    the active lifted points are dependent, a null vector from their SVD
    gives a direction that keeps the moment and the weight sum; moving
    until the first weight hits zero (ties: lowest atom index exits)
    removes an atom.  Each null vector thus comes from at most affine
    rank + 2 atoms, and at most (4K+1)^d atoms remain, the length of a
    moment point plus one.
    """
    points = moment_points(basis, prototype, design.shifts)
    lifted = np.hstack([points, np.ones((len(design), 1))])
    weights = design.weights.copy()
    original_moment = weights @ points
    active = list(range(len(design)))
    if _null_vector(lifted.T) is not None:
        active = []
        for entering in range(len(design)):
            active.append(entering)
            while len(active) > 1:
                direction = _null_vector(lifted[active].T)
                if direction is None:
                    break
                if direction.max() < -direction.min():
                    direction = -direction  # use the sign with the larger positive part
                positive = np.flatnonzero(direction > 1e-15)
                if positive.size == 0:
                    raise NumericalRankFailure("degenerate dependency direction")
                w = weights[active]
                steps = w[positive] / direction[positive]
                order = int(np.argmin(steps))  # ties: first occurrence = lowest index
                exiting = int(positive[order])
                w = w - float(steps[order]) * direction
                w[exiting] = 0.0
                weights[active] = w
                active = [
                    idx for pos, idx in enumerate(active)
                    if pos != exiting and w[pos] > WEIGHT_FLOOR
                ]
                if not active:
                    raise NumericalRankFailure("reduction removed every atom")

    kept = np.array(active)
    w = weights[kept]
    w = w / w.sum()
    drift = float(np.linalg.norm(w @ points[kept] - original_moment))
    if drift > drift_tol:
        raise NumericalRankFailure(f"moment drift {drift:.3e} exceeds {drift_tol:.1e}")
    atoms = [
        DesignAtom(shift=design.atoms[int(i)].shift, weight=float(wi))
        for i, wi in zip(kept, w)
    ]
    return design_of(atoms, basis, prototype)
