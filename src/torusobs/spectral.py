"""Modal bases on the torus and observation Gram matrices.

The profile space at cutoff K is spanned by the characters
e_n(y) = e^{2 pi i n.y} over integer frequency vectors with max-norm <= K,
listed in lexicographic order; the Laplacian eigenvalue of e_n is
lambda_n = 4 pi^2 |n|_2^2.

The observation matrix of a translated set g.omega is, in bra-ket convention,

    Gamma(g)[i, j] = integral over g.omega of conj(e_i) e_j dmu,

so that v^H Gamma(g) v is the energy of sum_n v_n e_n restricted to g.omega.
Entry (i, j) equals the indicator Fourier coefficient of g.omega at n_i - n_j.
Translation multiplies that coefficient by e^{-2 pi i (n_i - n_j).g}, so

    Gamma(g) = D_g Gamma(0) D_g^*,      D_g = diag(e^{-2 pi i n.g}),

and every shifted matrix is the cached Gamma(0) times one entrywise phase.

In time, a second-order mode of frequency rho contributes the 2x2 Gram
matrix of {sin(rho t), cos(rho t)} over an interval of length T.  Its
off-diagonal part is a reflection, so its eigenvalue band is the same over
every interval, T/2 -+ |sin(rho T)| / (2 rho), and (0, T) at rho = 0.  That
closed form over the simulated spectrum gives the full-torus calibration
constants (`calibration`), whose lower constant bounds the Lipschitz
constant of the observation densities (`trajectory_lipschitz_bound`).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .config import check_model_mass
from .geometry import GroupElement, PrototypeSet, TorusSpace

FOUR_PI_SQ = 4.0 * math.pi**2
TWO_PI = 2.0 * math.pi

#: guard against accidentally huge profile spaces
MAX_DIM = 4096


class _ModalBasis(NamedTuple):
    space: TorusSpace
    cutoff: int
    modes: tuple[tuple[int, ...], ...]


class ModalBasis(_ModalBasis):
    """Characters with frequency max-norm <= cutoff, in lexicographic order.

    Compared and hashed by value (`_base_entries` is cached on it); the
    arrays derived from the modes are cached on the instance."""

    @property
    def dim(self) -> int:
        return len(self.modes)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Laplacian eigenvalues 4 pi^2 |n|^2, aligned with `modes`."""
        sq = np.array([sum(c * c for c in n) for n in self.modes], dtype=float)
        return FOUR_PI_SQ * sq

    @cached_property
    def mode_array(self) -> np.ndarray:
        return np.array(self.modes, dtype=int)

    @cached_property
    def mode_differences(self) -> np.ndarray:
        """Integer array of shape (dim, dim, d) holding n_i - n_j."""
        modes = self.mode_array
        return modes[:, None, :] - modes[None, :, :]

    @cached_property
    def difference_index(self) -> np.ndarray:
        """Flat index of n_i - n_j into a C-ordered table over |m|_inf <= 2K."""
        k2 = 2 * self.cutoff
        shape = (2 * k2 + 1,) * self.space.dim
        shifted = np.moveaxis(self.mode_differences + k2, -1, 0)
        return np.ravel_multi_index(tuple(shifted), shape)

    def window_mask(self, window: int) -> np.ndarray:
        """Boolean mask selecting modes with max-norm <= window."""
        return np.max(np.abs(self.mode_array), axis=1) <= window


def build_basis(space: TorusSpace, cutoff: int) -> ModalBasis:
    """All modes with |n|_inf <= cutoff, lexicographic, with a size guard."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    dim = (2 * cutoff + 1) ** space.dim
    if dim > MAX_DIM:
        raise ValueError(f"profile space would have dimension {dim} > maximum {MAX_DIM}")
    rng = range(-cutoff, cutoff + 1)
    modes = tuple(product(rng, repeat=space.dim))
    return ModalBasis(space=space, cutoff=cutoff, modes=modes)


class ObservationMatrix(NamedTuple):
    """Gram matrix of the modal basis restricted to a translated set.

    Hermitian and positive semidefinite with eigenvalues in [0, 1] and trace
    dim * measure(set).  `entries` is read-only.
    """

    basis: ModalBasis
    prototype: PrototypeSet
    shift: GroupElement
    entries: np.ndarray


@lru_cache(maxsize=64)
def _base_entries(basis: ModalBasis, prototype: PrototypeSet) -> np.ndarray:
    """Gamma(0) entries: the coefficient table over |m|_inf <= 2K, read at n_i - n_j."""
    table = prototype.fourier_table(2 * basis.cutoff).ravel()
    entries = table[basis.difference_index]
    entries.setflags(write=False)
    return entries


def phase_table(shift: GroupElement, bound: int) -> np.ndarray:
    """Phases e^{-2 pi i m.g} over |m|_inf <= bound, laid out like `fourier_table(bound)`.

    Each per-axis product m * g_a is reduced mod 1 exactly (g is rational)
    before it is rounded; the phase of m is the product of its per-axis
    factors.
    """
    table = np.ones((), dtype=complex)
    for s in shift.shift:
        p, q = s.numerator, s.denominator
        turns = np.array([(m * p) % q / q for m in range(-bound, bound + 1)])
        table = np.multiply.outer(table, np.exp(-1j * TWO_PI * turns))
    return table


def shift_phase(basis: ModalBasis, shift: GroupElement) -> np.ndarray:
    """Entrywise phases e^{-2 pi i (n_i - n_j).g}, so Gamma(g) = Gamma(0) * phases.

    The `phase_table` over |m|_inf <= 2K, read at n_i - n_j.
    """
    return phase_table(shift, 2 * basis.cutoff).ravel()[basis.difference_index]


def gamma_matrix(basis: ModalBasis, prototype: PrototypeSet, shift: GroupElement) -> ObservationMatrix:
    """Gamma(g) as the cached Gamma(0) of (basis, prototype) times `shift_phase`.

    Gamma(0) is assembled once per (basis, prototype) from the vectorised
    indicator coefficient table of the prototype.
    """
    if basis.space != prototype.space:
        raise ValueError("basis and prototype live on different tori")
    if shift.dim != basis.space.dim:
        raise ValueError("shift dimension does not match the torus")
    entries = _base_entries(basis, prototype) * shift_phase(basis, shift)
    entries.setflags(write=False)
    return ObservationMatrix(basis=basis, prototype=prototype, shift=shift, entries=entries)


class CalibrationConstants(NamedTuple):
    """Full-torus per-interval observation constants.

    lower * E <= interval output energy <= upper * E for every datum built on
    the calibrated basis and every interval of the given duration.  For the
    second-order models the table lists one row per distinct temporal
    frequency: (frequency, smallest and largest temporal Gram eigenvalue).
    """

    model: str
    mass: float
    duration: float
    lower: float
    upper: float
    mode_frequencies: tuple[float, ...]
    gram_minima: tuple[float, ...]
    gram_maxima: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "mass": self.mass,
            "duration": self.duration,
            "lower": self.lower,
            "upper": self.upper,
            "mode_table": [
                {"frequency": f, "gram_min": lo, "gram_max": hi}
                for f, lo, hi in zip(
                    self.mode_frequencies, self.gram_minima, self.gram_maxima
                )
            ],
        }


def calibration(
    model: str, basis: ModalBasis, mass: float, duration: float
) -> CalibrationConstants:
    """Compute the interval observation constants over the simulated spectrum.

    The first-order model conserves the output norm pointwise in time, so both
    constants equal the interval length exactly.  For the second-order models
    each distinct frequency rho contributes the eigenvalue band of its
    temporal Gram matrix, T/2 -+ |sin(rho T)| / (2 rho), and (0, T) at
    rho = 0; the zero-frequency mode carries velocity only and contributes
    the full interval length.  The lower constant is the infimum over the
    simulated spectrum only, which is exact for data supported on the
    calibrated basis.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    check_model_mass(model, mass)
    if model == "schrodinger":
        return CalibrationConstants(
            model=model,
            mass=0.0,
            duration=duration,
            lower=duration,
            upper=duration,
            mode_frequencies=(),
            gram_minima=(),
            gram_maxima=(),
        )
    # sorted distinct frequencies; np.unique would import numpy.ma
    rhos = np.sort(np.sqrt(basis.eigenvalues + mass * mass))
    rhos = rhos[np.concatenate(([True], rhos[1:] != rhos[:-1]))].tolist()
    minima: list[float] = []
    maxima: list[float] = []
    for rho in rhos:
        # at rho = 0 the pair is {0, 1}, whose band is (0, T)
        swing = abs(math.sin(rho * duration)) / (2.0 * rho) if rho else duration / 2.0
        minima.append(duration / 2.0 - swing)
        maxima.append(duration / 2.0 + swing)
    # the zero-frequency displacement is quotiented out, so that mode's
    # reachable output is the constant velocity: it contributes duration
    lower = min(duration if rho == 0.0 else low for rho, low in zip(rhos, minima))
    if lower <= 0.0:
        raise ValueError("degenerate calibration: lower constant is not positive")
    return CalibrationConstants(
        model=model,
        mass=mass,
        duration=duration,
        lower=lower,
        upper=duration,
        mode_frequencies=tuple(rhos),
        gram_minima=tuple(minima),
        gram_maxima=tuple(maxima),
    )


def trajectory_lipschitz_bound(
    basis: ModalBasis, model: str, mass: float, duration: float
) -> float:
    """Certified Lipschitz constant for windowed observation densities.

    For trajectories V built from the given basis, normalized to unit total
    interval energy, every t -> restricted-energy curve F(t) (any observation
    set, including the full torus) satisfies |F'| <= Lambda with

        wave / klein_gordon:  Lambda = 2 rho_max / c   (rho_n = sqrt(lambda_n + mass^2),
                              c = the basis's calibration lower constant),
        schrodinger:          Lambda = 2 lambda_max / duration
                              (the full-torus density is constant in t).

    This is an over-estimate: validity of downstream certificates never
    depends on its tightness.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if basis.dim == 0:
        raise ValueError("basis must be nonempty")
    if model == "schrodinger":
        return 2.0 * float(basis.eigenvalues.max()) / duration
    constants = calibration(model, basis, mass, duration)
    return 2.0 * constants.mode_frequencies[-1] / constants.lower
