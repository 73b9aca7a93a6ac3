"""Flat-torus geometry: half-open box unions, translations, exact Fourier data.

The ambient space is the flat torus with unit period per coordinate and total
measure one.  Observation sets are finite disjoint unions of half-open boxes
prod_i [a_i, b_i) taken mod 1.  Endpoints are kept as exact rationals
(`fractions.Fraction`; floats convert exactly, strings such as "1/4" parse
exactly), so translation, wrap splitting, disjointness and measure bookkeeping
involve no rounding at all.  Only the Fourier/phase evaluations use floats.

Loading a config builds a space and a prototype set, which need no numpy, so
this module does not import it: the two methods that return arrays,
`GroupElement.as_floats` and `PrototypeSet.fourier_table`, import it when
they run, and `torus_displacement` is plain arithmetic that works on arrays
as on floats.  A process that only reads its config, or stops at an error in
it, never loads numpy.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

ScalarLike = Union[int, float, str, Fraction]

#: one half-open interval on an axis, 0 <= a < b <= 1 after normalization
AxisInterval = tuple[Fraction, Fraction]
#: one box: an AxisInterval per axis
Box = tuple[AxisInterval, ...]

TWO_PI = 2.0 * math.pi


def _as_fraction(value: ScalarLike) -> Fraction:
    """Convert an endpoint/shift component to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite coordinate {value!r}")
        return Fraction(value)  # exact binary expansion
    raise TypeError(f"cannot interpret {value!r} as a torus coordinate")


def _mod1(x: Fraction) -> Fraction:
    return x - (x // 1)


class _TorusSpace(NamedTuple):
    dim: int


class TorusSpace(_TorusSpace):
    """Flat torus of dimension 1 or 2, unit period, total measure one."""

    __slots__ = ()

    def __new__(cls, dim: int) -> "TorusSpace":
        if dim not in (1, 2):
            raise ValueError(f"torus dimension must be 1 or 2, got {dim}")
        return super().__new__(cls, dim)

    def identity(self) -> "GroupElement":
        """The zero translation."""
        return GroupElement((Fraction(0),) * self.dim)


class _GroupElement(NamedTuple):
    shift: tuple[Fraction, ...]


class GroupElement(_GroupElement):
    """A translation of the torus, stored as exact per-axis shifts mod 1."""

    __slots__ = ()

    def __new__(cls, shift: Iterable[ScalarLike]) -> "GroupElement":
        return super().__new__(cls, tuple(_mod1(_as_fraction(s)) for s in shift))

    @classmethod
    def of(cls, *components: ScalarLike) -> "GroupElement":
        return cls(tuple(_as_fraction(c) for c in components))

    @property
    def dim(self) -> int:
        return len(self.shift)

    def as_floats(self) -> np.ndarray:
        import numpy as np

        return np.array([float(s) for s in self.shift], dtype=float)


def torus_displacement(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shortest signed per-axis displacement from a to b on the unit torus."""
    return (b - a + 0.5) % 1.0 - 0.5


def _normalize_axis(a: Fraction, b: Fraction) -> list[AxisInterval]:
    """Reduce [a, b) mod 1 to one or two non-wrapping intervals.

    The length b - a must lie in (0, 1].  Length exactly 1 covers the axis.
    """
    length = b - a
    if length <= 0:
        raise ValueError(f"empty or inverted interval [{a}, {b})")
    if length > 1:
        raise ValueError(f"interval [{a}, {b}) longer than the period")
    a0 = _mod1(a)
    if length == 1:
        return [(Fraction(0), Fraction(1))]
    end = a0 + length
    if end <= 1:
        return [(a0, end)]
    return [(a0, Fraction(1)), (Fraction(0), end - 1)]


def _boxes_overlap(p: Box, q: Box) -> bool:
    return all(a1 < b2 and a2 < b1 for (a1, b1), (a2, b2) in zip(p, q))


class _PrototypeSet(NamedTuple):
    space: TorusSpace
    pieces: tuple[Box, ...]


class PrototypeSet(_PrototypeSet):
    """Finite disjoint union of half-open boxes mod 1 on a flat torus.

    `pieces` are normalized: every axis interval satisfies 0 <= a < b <= 1,
    so no stored box wraps.  Wrapping input boxes are split at construction.
    """

    __slots__ = ()

    def __new__(cls, space: TorusSpace, pieces: tuple[Box, ...]) -> "PrototypeSet":
        self = super().__new__(cls, space, pieces)
        if not pieces:
            raise ValueError("prototype set needs at least one box")
        d = space.dim
        for box in pieces:
            if len(box) != d:
                raise ValueError(f"box {box} does not match dimension {d}")
            for a, b in box:
                if not (0 <= a < b <= 1):
                    raise ValueError(f"axis interval [{a}, {b}) is not normalized")
        n = len(pieces)
        for i in range(n):
            for j in range(i + 1, n):
                if _boxes_overlap(pieces[i], pieces[j]):
                    raise ValueError(f"pieces {i} and {j} overlap")
        if self.measure_exact > 1:
            raise ValueError("total measure exceeds the torus measure")
        return self

    @classmethod
    def from_boxes(
        cls, space: TorusSpace, boxes: Iterable[Sequence[Sequence[ScalarLike]]]
    ) -> "PrototypeSet":
        """Build from raw per-axis (a, b) pairs; wrapping boxes are split.

        For dim 1 a box may be given as a bare (a, b) pair.
        """
        pieces: list[Box] = []
        for raw in boxes:
            if space.dim == 1 and len(raw) == 2 and not isinstance(raw[0], (list, tuple)):
                raw = [raw]  # bare (a, b) on the line
            if len(raw) != space.dim:
                raise ValueError(f"box {raw!r} does not match dimension {space.dim}")
            per_axis = [
                _normalize_axis(_as_fraction(a), _as_fraction(b)) for a, b in raw
            ]
            for combo in product(*per_axis):
                pieces.append(tuple(combo))
        return cls(space, tuple(pieces))

    @property
    def measure_exact(self) -> Fraction:
        total = Fraction(0)
        for box in self.pieces:
            vol = Fraction(1)
            for a, b in box:
                vol *= b - a
            total += vol
        return total

    @property
    def measure(self) -> float:
        return float(self.measure_exact)

    def translate(self, g: GroupElement) -> "PrototypeSet":
        """Translate by g mod 1 (exact; boxes pushed over 1 are re-split)."""
        if g.dim != self.space.dim:
            raise ValueError("shift dimension does not match the torus")
        raw = [
            [(a + s, b + s) for (a, b), s in zip(box, g.shift)]
            for box in self.pieces
        ]
        return PrototypeSet.from_boxes(self.space, raw)

    def fourier_coefficient(self, freq: Sequence[int]) -> complex:
        """Exact value of the integral of e^{-2 pi i n.y} over the set.

        Per axis, for n != 0 the factor is
        (e^{-2 pi i n a} - e^{-2 pi i n b}) / (2 pi i n), and b - a for n = 0.
        An axis interval of full length contributes 0 for n != 0.
        """
        if len(freq) != self.space.dim:
            raise ValueError("frequency dimension does not match the torus")
        total = 0.0 + 0.0j
        for box in self.pieces:
            factor = 1.0 + 0.0j
            for (a, b), n in zip(box, freq):
                if n == 0:
                    factor *= float(b - a)
                elif b - a == 1:
                    factor = 0.0j
                    break
                else:
                    fa, fb = float(a), float(b)
                    factor *= (
                        cmath.exp(-1j * TWO_PI * n * fa) - cmath.exp(-1j * TWO_PI * n * fb)
                    ) / (1j * TWO_PI * n)
            total += factor
        return total

    def fourier_table(self, bound: int) -> np.ndarray:
        """All indicator Fourier coefficients with |n|_inf <= bound at once.

        Returns a complex array of shape (2*bound+1,)*dim whose entry at
        index n + bound is `fourier_coefficient(n)`.  Each box contributes
        the outer product of its per-axis factors, evaluated as vectors over
        n = -bound..bound with the same formulas.
        """
        import numpy as np

        if bound < 0:
            raise ValueError(f"frequency bound must be >= 0, got {bound}")
        freqs = np.arange(-bound, bound + 1)
        nonzero = freqs != 0
        safe = np.where(nonzero, freqs, 1)
        table = np.zeros((2 * bound + 1,) * self.space.dim, dtype=complex)
        for box in self.pieces:
            factor = np.ones((), dtype=complex)
            for a, b in box:
                if b - a == 1:
                    axis = np.where(nonzero, 0.0, 1.0).astype(complex)
                else:
                    fa, fb = float(a), float(b)
                    edges = (
                        np.exp(-1j * TWO_PI * freqs * fa) - np.exp(-1j * TWO_PI * freqs * fb)
                    ) / (1j * TWO_PI * safe)
                    axis = np.where(nonzero, edges, float(b - a))
                factor = np.multiply.outer(factor, axis)
            table += factor
        return table
