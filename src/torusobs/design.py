"""Convex observation designs: finitely many translates whose weighted Gram
matrices average exactly to measure * identity on the profile space.

A design is a list of atoms (g_j, theta_j), theta_j > 0 summing to one, with

    sum_j theta_j Gamma(g_j) = L * Id,      L = measure(omega),

so that the weighted translated-set energies of any profile-space function
reproduce the full-torus energy scaled by L, with no convexification loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .geometry import GroupElement, PrototypeSet
from .spectral import ModalBasis, ObservationMatrix, gamma_matrix

#: atoms with weight below this are pruned and the rest renormalized
WEIGHT_FLOOR = 1e-13


class DesignError(Exception):
    """Base class for design construction failures."""


class DesignInfeasible(DesignError):
    """The solver could not reach the requested moment residual."""


class EmptyCandidates(DesignError):
    """No candidate shifts were supplied."""


class NumericalRankFailure(DesignError):
    """A required affine dependency could not be certified numerically."""


@dataclass(frozen=True)
class DesignAtom:
    shift: GroupElement
    weight: float


@dataclass(frozen=True)
class ConvexDesign:
    """Finite convex combination of translates with its moment residual."""

    atoms: tuple[DesignAtom, ...]
    measure: float          # L of the prototype set
    cutoff: int             # basis cutoff K the design was built for
    residual: float         # ||sum theta Gamma - L Id||_F at build time

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("design needs at least one atom")
        w = self.weights
        if np.any(w <= 0):
            raise ValueError("atom weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()}, not 1")

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
        grid = product(range(per_axis), repeat=dim)
        for atom, combo in zip(self.atoms, grid):
            if atom.shift.shift != tuple(Fraction(c, per_axis) for c in combo):
                return None
        return per_axis

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


def moment_matrix(weights: np.ndarray, gammas: Sequence[ObservationMatrix]) -> np.ndarray:
    acc = np.zeros_like(gammas[0].entries)
    for w, g in zip(weights, gammas):
        acc = acc + w * g.entries
    return acc


def moment_residual(
    weights: np.ndarray, gammas: Sequence[ObservationMatrix], measure: float
) -> float:
    m = moment_matrix(weights, gammas)
    return float(np.linalg.norm(m - measure * np.eye(m.shape[0]), "fro"))


def equispaced_design(basis: ModalBasis, prototype: PrototypeSet) -> ConvexDesign:
    """Equal weights on a regular grid of 4K+1 shifts per axis.

    All off-diagonal Gram entries live at frequency differences with
    |m|_inf <= 2K; summing the translation phases over J >= 4K+1 equispaced
    shifts kills every such nonzero frequency, so the design identity holds
    exactly (to rounding).
    """
    k = basis.cutoff
    j_axis = 4 * k + 1
    shifts = [
        GroupElement(tuple(Fraction(c, j_axis) for c in combo))
        for combo in product(range(j_axis), repeat=basis.space.dim)
    ]
    weight = 1.0 / len(shifts)
    atoms = tuple(DesignAtom(shift=s, weight=weight) for s in shifts)
    gammas = [gamma_matrix(basis, prototype, s) for s in shifts]
    residual = moment_residual(np.full(len(shifts), weight), gammas, prototype.measure)
    return ConvexDesign(
        atoms=atoms, measure=prototype.measure, cutoff=k, residual=residual
    )


def default_candidates(basis: ModalBasis) -> list[GroupElement]:
    """Regular candidate grid of 4K+2 shifts per axis.

    One more point per axis than the exact equal-weight grid needs, so an
    exact design is always inside the candidate simplex and the solver's
    feasibility is guaranteed.
    """
    per_axis = 4 * basis.cutoff + 2
    return [
        GroupElement(tuple(Fraction(c, per_axis) for c in combo))
        for combo in product(range(per_axis), repeat=basis.space.dim)
    ]


def solve_design(
    basis: ModalBasis,
    prototype: PrototypeSet,
    candidates: Sequence[GroupElement],
    tol: float = 1e-10,
    max_iter: int = 20000,
    history: list[float] | None = None,
) -> ConvexDesign:
    """Frank-Wolfe with away steps over the candidate simplex.

    Minimizes ||sum_j theta_j Gamma(g_j) - L Id||_F.  The objective is a
    convex quadratic, so each step uses exact line search; away steps let the
    iterate drop unused candidates, which is what makes sparse exact designs
    reachable.  Raises DesignInfeasible if the residual never reaches tol.
    If `history` is a list, the residual after every iterate (including the
    start) is appended to it.
    """
    if len(candidates) == 0:
        raise EmptyCandidates("no candidate shifts supplied")
    gammas = [gamma_matrix(basis, prototype, g) for g in candidates]
    measure = prototype.measure
    n = basis.dim
    j_count = len(candidates)

    # stack moments as complex vectors; Frobenius <-> complex 2-norm
    cols = np.stack([g.entries.ravel() for g in gammas])  # (J, n*n)
    target = (measure * np.eye(n)).ravel().astype(complex)

    theta = np.full(j_count, 1.0 / j_count)
    moment = theta @ cols

    def residual_of(m: np.ndarray) -> float:
        return float(np.linalg.norm(m - target))

    resid = residual_of(moment)
    if history is not None:
        history.append(resid)
    for _ in range(max_iter):
        if resid <= tol:
            break
        grad = 2.0 * np.real(cols @ np.conj(moment - target))
        s = int(np.argmin(grad))
        support = np.flatnonzero(theta > 0)
        a = int(support[np.argmax(grad[support])])

        gap_fw = grad[s] - float(grad @ theta)     # <grad, e_s - theta>
        gap_aw = float(grad @ theta) - grad[a]     # <grad, theta - e_a>
        if gap_fw <= gap_aw:
            direction = cols[s] - moment
            slope = gap_fw
            gamma_max = 1.0
            toward, away = s, None
        else:
            direction = moment - cols[a]
            slope = gap_aw
            gamma_max = theta[a] / (1.0 - theta[a]) if theta[a] < 1.0 else 0.0
            toward, away = None, a
        if slope >= 0.0:
            break  # stationary over the simplex
        denom = float(np.real(np.vdot(direction, direction)))
        if denom == 0.0:
            break
        step = min(max(-slope / (2.0 * denom), 0.0), gamma_max)
        if step == 0.0:
            break
        if toward is not None:
            theta *= 1.0 - step
            theta[toward] += step
        else:
            theta *= 1.0 + step
            theta[away] -= step
        np.clip(theta, 0.0, None, out=theta)
        theta /= theta.sum()
        moment = theta @ cols
        resid = residual_of(moment)
        if history is not None:
            history.append(resid)

    if resid > tol:
        raise DesignInfeasible(
            f"residual {resid:.3e} above tolerance {tol:.1e} after {max_iter} iterations"
        )

    keep = np.flatnonzero(theta > WEIGHT_FLOOR)
    theta_kept = theta[keep] / theta[keep].sum()
    atoms = tuple(
        DesignAtom(shift=candidates[int(i)], weight=float(w))
        for i, w in zip(keep, theta_kept)
    )
    final = moment_residual(theta_kept, [gammas[int(i)] for i in keep], measure)
    return ConvexDesign(
        atoms=atoms, measure=measure, cutoff=basis.cutoff, residual=final
    )


def _real_moment_vectors(gammas: Sequence[ObservationMatrix]) -> np.ndarray:
    """Real embedding of the Hermitian moments (rows: one vector per atom)."""
    rows = [
        np.concatenate([g.entries.real.ravel(), g.entries.imag.ravel()])
        for g in gammas
    ]
    return np.stack(rows)


def caratheodory_reduce(
    design: ConvexDesign,
    gammas: Sequence[ObservationMatrix],
    drift_tol: float = 1e-11,
) -> ConvexDesign:
    """Reduce the atom count to at most (real affine dimension) + 1.

    While the moment vectors are affinely dependent, a null vector of the
    stacked [moments; ones] matrix gives a direction that preserves the
    moment and the weight sum; moving until the first weight hits zero
    (ties: lowest atom index exits) removes at least one atom.  The final
    count is at most dim(E)^2 + 1, the real dimension of the Hermitian
    moment space plus one.
    """
    if len(gammas) != len(design):
        raise ValueError("one observation matrix per atom is required")
    hermitian_dim = gammas[0].dim ** 2

    vectors = _real_moment_vectors(gammas)
    weights = design.weights.copy()
    index = list(range(len(design)))
    original_moment = weights @ vectors

    while True:
        j = len(index)
        vs = vectors[index]
        b = np.vstack([vs.T, np.ones((1, j))])
        u, s, vt = np.linalg.svd(b)
        rank_tol = max(b.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
        rank = int(np.sum(s > rank_tol))
        nullity = j - rank
        if nullity <= 0:
            if j > hermitian_dim + 1:
                raise NumericalRankFailure(
                    f"{j} atoms exceed the affine bound {hermitian_dim + 1} "
                    "but no dependency was certified"
                )
            break
        direction = vt[-1]
        if float(np.linalg.norm(b @ direction)) > 1e-8 * max(1.0, s[0]):
            raise NumericalRankFailure("null vector fails the dependency check")
        if direction.max() < -direction.min():
            direction = -direction  # use the sign with the larger positive part
        positive = np.flatnonzero(direction > 1e-15)
        if positive.size == 0:
            raise NumericalRankFailure("degenerate dependency direction")
        steps = weights[np.array(index)][positive] / direction[positive]
        order = int(np.argmin(steps))  # ties: first occurrence = lowest index
        step = float(steps[order])
        exiting = int(positive[order])

        w = weights[np.array(index)] - step * direction
        w[exiting] = 0.0
        for pos, idx in enumerate(index):
            weights[idx] = w[pos]
        index = [idx for pos, idx in enumerate(index) if pos != exiting and w[pos] > WEIGHT_FLOOR]
        if not index:
            raise NumericalRankFailure("reduction removed every atom")

    kept = np.array(index)
    w = weights[kept]
    w = w / w.sum()
    drift = float(np.linalg.norm(w @ vectors[kept] - original_moment))
    if drift > drift_tol:
        raise NumericalRankFailure(f"moment drift {drift:.3e} exceeds {drift_tol:.1e}")
    atoms = tuple(
        DesignAtom(shift=design.atoms[int(i)].shift, weight=float(wi))
        for i, wi in zip(kept, w)
    )
    residual = moment_residual(w, [gammas[int(i)] for i in kept], design.measure)
    return ConvexDesign(
        atoms=atoms, measure=design.measure, cutoff=design.cutoff, residual=residual
    )


@dataclass(frozen=True)
class DesignVerification:
    """Randomized and matrix-level check of the design identity."""

    trials: int
    seed: int
    matrix_residual: float
    max_scalar_deviation: float  # relative to ||f||^2

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "matrix_residual": self.matrix_residual,
            "max_scalar_deviation": self.max_scalar_deviation,
        }


def verify_design(
    design: ConvexDesign,
    basis: ModalBasis,
    prototype: PrototypeSet,
    trials: int = 100,
    seed: int = 0,
) -> DesignVerification:
    """Check sum_j theta_j * energy(f on g_j.omega) = L * ||f||^2 on random f.

    Draws complex Gaussian coefficient vectors and reports the worst relative
    deviation, together with the Frobenius residual of the matrix identity.
    """
    gammas = design_gammas(design, basis, prototype)
    weights = design.weights
    resid = moment_residual(weights, gammas, design.measure)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        re = rng.standard_normal(basis.dim)
        im = rng.standard_normal(basis.dim)
        xi = (re + 1j * im) / math.sqrt(2.0)
        norm_sq = float(np.real(np.vdot(xi, xi)))
        lhs = sum(
            w * g.restricted_energy(xi) for w, g in zip(weights, gammas)
        )
        dev = abs(lhs - design.measure * norm_sq) / norm_sq
        worst = max(worst, dev)
    return DesignVerification(
        trials=trials, seed=seed, matrix_residual=resid, max_scalar_deviation=worst
    )
