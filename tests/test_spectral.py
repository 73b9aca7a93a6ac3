"""Modal bases, localized observation matrices, and the switching-rate bound."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from torusobs import (
    GroupElement,
    PrototypeSet,
    TorusSpace,
    build_basis,
    gamma_matrix,
    temporal_gram_min_eigenvalue,
    trajectory_lipschitz_bound,
)

T1 = TorusSpace(1)
T2 = TorusSpace(2)
FOUR_PI_SQ = 4.0 * math.pi**2


def interval(a, b) -> PrototypeSet:
    return PrototypeSet.from_boxes(T1, [(a, b)])


# ---------------------------------------------------------------- bases


def test_basis_with_cutoff_zero_is_the_constant_mode():
    basis = build_basis(T1, 0)
    assert basis.modes == ((0,),)
    assert basis.dim == 1
    assert basis.eigenvalues[0] == 0.0


def test_basis_modes_are_lexicographic_and_complete():
    basis = build_basis(T1, 2)
    assert basis.modes == ((-2,), (-1,), (0,), (1,), (2,))
    assert basis.eigenvalues[0] == pytest.approx(4.0 * FOUR_PI_SQ, rel=1e-15)
    assert basis.eigenvalues[-1] == basis.eigenvalues[0]

    basis2 = build_basis(T2, 1)
    assert basis2.dim == 9
    assert basis2.modes[0] == (-1, -1)
    assert basis2.modes[-1] == (1, 1)
    i11 = basis2.modes.index((1, 1))
    assert basis2.eigenvalues[i11] == pytest.approx(2.0 * FOUR_PI_SQ, rel=1e-15)


@pytest.mark.parametrize("dim,cutoff", [(1, 3), (2, 2)])
def test_basis_dimension_count(dim, cutoff):
    basis = build_basis(TorusSpace(dim), cutoff)
    assert basis.dim == (2 * cutoff + 1) ** dim


def test_basis_guards():
    with pytest.raises(ValueError):
        build_basis(T1, -1)
    with pytest.raises(ValueError):
        build_basis(T2, 40)  # 81x81 modes: past the supported size


def test_window_mask():
    basis = build_basis(T1, 2)
    mask = basis.window_mask(1)
    assert mask.tolist() == [False, True, True, True, False]
    assert basis.window_mask(2).all()


# ---------------------------------------------------------------- gamma matrices


def test_full_torus_observation_is_the_identity():
    basis = build_basis(T1, 2)
    full = interval(0, 1)
    for g in (GroupElement.of(0), GroupElement.of("3/7")):
        gamma = gamma_matrix(basis, full, g)
        assert np.max(np.abs(gamma.entries - np.eye(5))) <= 1e-14


def test_half_interval_matrix_entries():
    basis = build_basis(T1, 1)
    gamma = gamma_matrix(basis, interval(0, "1/2"), GroupElement.of(0))
    assert np.allclose(np.diag(gamma.entries), 0.5, atol=1e-15)
    i0 = basis.modes.index((0,))
    i1 = basis.modes.index((1,))
    # row e_0 against column e_1: integral of e^{2 pi i y} over [0, 1/2)
    assert gamma.entries[i0, i1] == pytest.approx(1j / math.pi, abs=1e-15)
    assert gamma.entries[i1, i0] == pytest.approx(-1j / math.pi, abs=1e-15)

    dense = oracles.riemann_gamma_1d(basis, interval(0, "1/2"), GroupElement.of(0))
    assert np.max(np.abs(gamma.entries - dense)) <= 1e-6


def test_shift_conjugates_by_a_diagonal_phase():
    basis = build_basis(T1, 1)
    w = interval(0, "1/2")
    at_zero = gamma_matrix(basis, w, GroupElement.of(0)).entries
    at_half = gamma_matrix(basis, w, GroupElement.of("1/2")).entries
    phases = np.exp(2j * np.pi * np.array([m[0] for m in basis.modes]) * 0.5)
    conjugated = np.diag(phases) @ at_zero @ np.diag(phases).conj()
    assert np.max(np.abs(at_half - conjugated)) <= 1e-14


def test_matrices_are_hermitian_contractions():
    rng = np.random.default_rng(17)
    basis = build_basis(T1, 3)
    for _ in range(10):
        lo, hi, lo2 = np.sort(rng.choice(999, size=3, replace=False) + 1)
        w = PrototypeSet.from_boxes(
            T1,
            [(0, Fraction(int(lo), 1000)), (Fraction(int(hi), 1000), Fraction(int(lo2) + 1, 1000))],
        )
        g = GroupElement.of(Fraction(int(rng.integers(0, 200)), 200))
        gamma = gamma_matrix(basis, w, g)
        assert np.allclose(gamma.entries, gamma.entries.conj().T, atol=1e-12, rtol=0.0)
        eigs = np.linalg.eigvalsh(gamma.entries)
        assert eigs.min() >= -1e-12
        assert eigs.max() <= 1.0 + 1e-12
        assert np.trace(gamma.entries).real == pytest.approx(
            basis.dim * float(w.measure_exact), abs=1e-12
        )


@pytest.mark.parametrize("cutoff,count", [(1, 5), (1, 6), (2, 9), (3, 13)])
def test_equispaced_shift_average_flattens_the_matrix(cutoff, count):
    # averaging over count >= 4*cutoff+1 equispaced shifts leaves measure * identity
    basis = build_basis(T1, cutoff)
    w = interval(0, "3/10")
    total = np.zeros((basis.dim, basis.dim), dtype=complex)
    for j in range(count):
        total += gamma_matrix(basis, w, GroupElement.of(Fraction(j, count))).entries
    average = total / count
    assert np.max(np.abs(average - 0.3 * np.eye(basis.dim))) <= 1e-12


def test_matrix_against_dense_quadrature_1d():
    rng = np.random.default_rng(23)
    worst = 0.0
    for trial in range(8):
        cutoff = 1 + trial % 3
        basis = build_basis(T1, cutoff)
        a, b, c, d = np.sort(rng.choice(999, size=4, replace=False) + 1)
        w = PrototypeSet.from_boxes(
            T1,
            [
                (Fraction(int(a), 1000), Fraction(int(b), 1000)),
                (Fraction(int(c), 1000), Fraction(int(d), 1000)),
            ],
        )
        g = GroupElement.of(Fraction(int(rng.integers(0, 200)), 200))
        gamma = gamma_matrix(basis, w, g).entries
        dense = oracles.riemann_gamma_1d(basis, w, g)
        worst = max(worst, float(np.max(np.abs(gamma - dense))))
    assert worst <= 1e-6


def test_matrix_against_dense_quadrature_2d():
    rng = np.random.default_rng(29)
    basis = build_basis(T2, 1)
    for _ in range(3):
        a, b = np.sort(rng.choice(32, size=2, replace=False))
        c, d = np.sort(rng.choice(32, size=2, replace=False))
        w = PrototypeSet.from_boxes(
            T2,
            [
                [
                    (Fraction(int(a), 32), Fraction(int(b), 32)),
                    (Fraction(int(c), 32), Fraction(int(d), 32)),
                ]
            ],
        )
        g = GroupElement.of(
            Fraction(int(rng.integers(0, 64)), 64),
            Fraction(int(rng.integers(0, 64)), 64),
        )
        gamma = gamma_matrix(basis, w, g).entries
        dense = oracles.gauss_gamma_2d(basis, w, g)
        assert np.max(np.abs(gamma - dense)) <= 1e-6


@st.composite
def shifted_box_unions(draw):
    """(basis, prototype, shift): a random 1D/2D union of disjoint boxes with
    rational endpoints (some wrapping), a cutoff, and a rational shift."""
    dim = draw(st.sampled_from([1, 2]))
    denom = draw(st.sampled_from([8, 30, 1000, 2**20]))
    count = draw(st.integers(1, 3))
    edges = sorted(
        draw(st.lists(st.integers(0, denom), min_size=2 * count, max_size=2 * count,
                      unique=True))
    )
    turn = draw(st.integers(0, denom - 1))  # rotating the x-edges makes some wrap
    boxes = []
    for a, b in zip(edges[::2], edges[1::2]):
        box = [(Fraction(a + turn, denom), Fraction(b + turn, denom))]
        if dim == 2:
            lo = draw(st.integers(0, denom - 1))
            length = draw(st.integers(1, denom))
            box.append((Fraction(lo, denom), Fraction(lo + length, denom)))
        boxes.append(box)
    space = TorusSpace(dim)
    prototype = PrototypeSet.from_boxes(space, boxes)
    basis = build_basis(space, draw(st.integers(0, 3 if dim == 1 else 2)))
    shift = GroupElement.of(
        *(
            Fraction(draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 10**6)))
            for _ in range(dim)
        )
    )
    return basis, prototype, shift


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shifted_box_unions())
def test_phase_product_equals_translate_then_integrate(case):
    # Gamma(g) from the cached Gamma(0) and one entrywise phase, against the
    # exact translated set's indicator coefficients at n_i - n_k
    basis, prototype, shift = case
    translated = prototype.translate(shift)
    exact = np.array(
        [
            [
                translated.fourier_coefficient(tuple(a - b for a, b in zip(ni, nk)))
                for nk in basis.modes
            ]
            for ni in basis.modes
        ]
    )
    fast = gamma_matrix(basis, prototype, shift).entries
    assert np.max(np.abs(fast - exact)) <= 1e-13


# ---------------------------------------------------------------- rate bound


def test_temporal_floor_examples():
    assert temporal_gram_min_eigenvalue(0.0, 1.0) == 1.0
    assert temporal_gram_min_eigenvalue(2.0 * math.pi, 1.0) == pytest.approx(
        0.5, abs=1e-15
    )
    assert temporal_gram_min_eigenvalue(1.0, 1.0) == pytest.approx(
        0.5 - math.sin(1.0) / 2.0, abs=1e-15
    )


def test_rate_bound_single_mode_massive_case():
    basis = build_basis(T1, 0)
    bound = trajectory_lipschitz_bound(basis, "klein_gordon", 1.0, 1.0)
    floor = temporal_gram_min_eigenvalue(1.0, 1.0)
    assert bound == pytest.approx(2.0 / floor, rel=1e-14)


def test_rate_bound_scales_linearly_with_top_frequency():
    # on the unit circle every nonzero mode has an integer frequency, so the
    # temporal floor is the same 1/2 for every cutoff and the bound is linear
    basis1 = build_basis(T1, 1)
    basis2 = build_basis(T1, 2)
    b1 = trajectory_lipschitz_bound(basis1, "wave", 0.0, 1.0)
    b2 = trajectory_lipschitz_bound(basis2, "wave", 0.0, 1.0)
    assert b1 == pytest.approx(8.0 * math.pi, rel=1e-14)
    assert b2 / b1 == pytest.approx(2.0, rel=1e-14)


def test_rate_bound_first_order_model():
    basis = build_basis(T1, 1)
    bound = trajectory_lipschitz_bound(basis, "schrodinger", 0.0, 1.0)
    assert bound == pytest.approx(2.0 * FOUR_PI_SQ, rel=1e-14)
    assert trajectory_lipschitz_bound(build_basis(T1, 0), "schrodinger", 0.0, 1.0) == 0.0


def test_rate_bound_constant_wave_is_zero():
    assert trajectory_lipschitz_bound(build_basis(T1, 0), "wave", 0.0, 1.0) == 0.0


def test_rate_bound_guards():
    basis = build_basis(T1, 1)
    with pytest.raises(ValueError):
        trajectory_lipschitz_bound(basis, "wave", 0.0, 0.0)
    with pytest.raises(ValueError):
        trajectory_lipschitz_bound(basis, "wave", 0.0, -1.0)
    with pytest.raises(ValueError):
        trajectory_lipschitz_bound(basis, "heat", 0.0, 1.0)


# ---------------------------------------------------------------- records


def box_2d() -> PrototypeSet:
    return PrototypeSet.from_boxes(T2, [[("3/4", "5/4"), (0, "1/3")]])


@pytest.mark.parametrize(
    "build, field, cache_key",
    [
        (lambda: TorusSpace(2), "dim", lambda s: (build_basis(s, 1), box_2d())),
        (
            lambda: GroupElement.of("1/3", 0.5), "shift",
            lambda g: (build_basis(T2, 1), box_2d().translate(g)),
        ),
        (box_2d, "pieces", lambda p: (build_basis(T2, 1), p)),
        (lambda: build_basis(T2, 2), "modes", lambda b: (b, box_2d())),
    ],
    ids=["TorusSpace", "GroupElement", "PrototypeSet", "ModalBasis"],
)
def test_value_records_compare_and_hash_by_value_and_stay_immutable(build, field, cache_key):
    from torusobs.spectral import _base_entries

    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    with pytest.raises(AttributeError):
        setattr(first, field, getattr(second, field))
    # Gamma(0) is cached on (basis, prototype): an equal record is a hit
    entries = _base_entries(*cache_key(first))
    hits = _base_entries.cache_info().hits
    assert _base_entries(*cache_key(second)) is entries
    assert _base_entries.cache_info().hits == hits + 1


def test_design_records_build_as_perfbench_builds_them():
    # positional atoms and keyword designs, as perfbench/oracle.py calls them
    from torusobs.design import ConvexDesign, DesignAtom

    design = ConvexDesign(
        atoms=(DesignAtom(T2.identity(), 1.0),), measure=0.25, cutoff=1, residual=0.0
    )
    assert design.atoms[0].shift == T2.identity() and design.weights.tolist() == [1.0]
    assert design == ConvexDesign((DesignAtom(T2.identity(), 1.0),), 0.25, 1, 0.0)
