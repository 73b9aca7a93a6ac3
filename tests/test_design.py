"""Design synthesis: exact grids, the solver, atom reduction, verification."""

from fractions import Fraction

import numpy as np
import pytest

from torusobs import (
    ConvexDesign,
    DesignAtom,
    DesignInfeasible,
    EmptyCandidates,
    GroupElement,
    PrototypeSet,
    TorusSpace,
    build_basis,
    caratheodory_reduce,
    default_candidates,
    design_gammas,
    equispaced_design,
    moment_matrix,
    moment_residual,
    solve_design,
    verify_design,
)

T1 = TorusSpace(1)
T2 = TorusSpace(2)


def interval(a, b) -> PrototypeSet:
    return PrototypeSet.from_boxes(T1, [(a, b)])


def residual_of(design, basis, w) -> float:
    gammas = design_gammas(design, basis, w)
    return moment_residual(np.array(design.weights), gammas, float(w.measure_exact))


def test_equispaced_design_is_exact_on_the_circle():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    design = equispaced_design(basis, w)
    assert len(design) == 5
    assert list(design.shifts) == [GroupElement.of(Fraction(j, 5)) for j in range(5)]
    assert np.allclose(design.weights, 0.2, atol=0.0)
    assert design.residual <= 1e-14
    assert residual_of(design, basis, w) <= 1e-14


def test_equispaced_design_is_exact_on_the_square_torus():
    basis = build_basis(T2, 1)
    w = PrototypeSet.from_boxes(T2, [[(0, "1/2"), (0, "1/4")]])
    design = equispaced_design(basis, w)
    assert len(design) == 25
    assert design.residual <= 1e-12


def test_equal_weight_grid_is_detected_exactly():
    w = interval(0, "1/4")
    square = PrototypeSet.from_boxes(T2, [[(0, "1/2"), (0, "1/4")]])
    for space, cutoff, prototype in ((T1, 0, w), (T1, 2, w), (T2, 1, square)):
        grid = equispaced_design(build_basis(space, cutoff), prototype)
        assert grid.grid_per_axis == 4 * cutoff + 1
    grid = equispaced_design(build_basis(T1, 1), w)
    atoms = grid.atoms
    reordered = ConvexDesign(atoms=atoms[::-1], measure=0.25, cutoff=1, residual=0.0)
    assert reordered.grid_per_axis is None
    nudged = list(atoms)
    nudged[0] = DesignAtom(atoms[0].shift, np.nextafter(0.2, 1.0))
    nudged[1] = DesignAtom(atoms[1].shift, np.nextafter(0.2, 0.0))
    assert ConvexDesign(tuple(nudged), 0.25, 1, 0.0).grid_per_axis is None
    off_grid = (DesignAtom(GroupElement.of("1/5"), 1.0),)
    assert ConvexDesign(off_grid, 0.25, 1, 0.0).grid_per_axis is None
    on_grid = (DesignAtom(GroupElement.of(0), 1.0),)
    assert ConvexDesign(on_grid, 0.25, 1, 0.0).grid_per_axis == 1


def test_full_torus_needs_a_single_atom():
    basis = build_basis(T1, 2)
    w = interval(0, 1)
    single = ConvexDesign(
        atoms=(DesignAtom(T1.identity(), 1.0),),
        measure=1.0,
        cutoff=2,
        residual=0.0,
    )
    assert residual_of(single, basis, w) <= 1e-14

    reduced = caratheodory_reduce(
        equispaced_design(basis, w), design_gammas(equispaced_design(basis, w), basis, w)
    )
    assert len(reduced) == 1
    assert reduced.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_solver_accepts_the_equispaced_grid_unchanged():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    candidates = [GroupElement.of(Fraction(j, 5)) for j in range(5)]
    design = solve_design(basis, w, candidates, tol=1e-10)
    assert design.residual <= 1e-10
    assert np.allclose(design.weights, 0.2, atol=1e-12)


def test_solver_on_a_random_grid_reaches_tolerance():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    rng = np.random.default_rng(5)
    candidates = [
        GroupElement.of(Fraction(int(v), 2**20))
        for v in rng.integers(0, 2**20, size=64)
    ]
    history: list[float] = []
    design = solve_design(basis, w, candidates, tol=1e-8, history=history)
    assert design.residual <= 1e-8
    assert residual_of(design, basis, w) <= 1e-8
    # the recorded objective never increases along the run
    diffs = np.diff(np.array(history))
    assert diffs.max() <= 1e-12
    # convex weights
    weights = np.array(design.weights)
    assert weights.min() > 0.0
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_single_candidate_cannot_flatten_a_small_set():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    with pytest.raises(DesignInfeasible):
        solve_design(basis, w, [T1.identity()], tol=1e-8, max_iter=50)


def test_no_candidates_is_an_error():
    basis = build_basis(T1, 1)
    with pytest.raises(EmptyCandidates):
        solve_design(basis, interval(0, "1/4"), [], tol=1e-8)


def test_default_candidate_grid():
    basis = build_basis(T1, 1)
    grid = default_candidates(basis)
    assert len(grid) == 6
    assert grid[0] == T1.identity()
    grid2 = default_candidates(build_basis(T2, 1))
    assert len(grid2) == 36


def test_reduction_keeps_a_minimal_design_unchanged():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    design = equispaced_design(basis, w)
    reduced = caratheodory_reduce(design, design_gammas(design, basis, w))
    assert reduced.shifts == design.shifts
    assert np.array_equal(reduced.weights, design.weights)


def test_reduction_merges_duplicate_shifts():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    g = GroupElement.of("1/5")
    h = GroupElement.of("3/5")
    design = ConvexDesign(
        atoms=(DesignAtom(g, 0.3), DesignAtom(g, 0.2), DesignAtom(h, 0.5)),
        measure=0.25,
        cutoff=1,
        residual=0.0,
    )
    gammas = design_gammas(design, basis, w)
    before = moment_matrix(np.array(design.weights), gammas)
    reduced = caratheodory_reduce(design, gammas)
    assert len(reduced) == 2
    assert set(reduced.shifts) == {g, h}
    merged = dict(zip(reduced.shifts, reduced.weights))
    assert merged[g] == pytest.approx(0.5, abs=1e-14)
    assert merged[h] == pytest.approx(0.5, abs=1e-14)
    after = moment_matrix(np.array(reduced.weights), design_gammas(reduced, basis, w))
    assert np.max(np.abs(after - before)) <= 1e-14


def test_reduction_caps_the_atom_count():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    rng = np.random.default_rng(41)
    atoms = []
    for _ in range(10):
        offset = Fraction(int(rng.integers(0, 1024)), 1024)
        for j in range(5):
            atoms.append(DesignAtom(GroupElement.of(offset + Fraction(j, 5)), 1.0 / 50))
    fat = ConvexDesign(atoms=tuple(atoms), measure=0.25, cutoff=1, residual=0.0)
    gammas = design_gammas(fat, basis, w)
    before = moment_matrix(np.array(fat.weights), gammas)
    assert moment_residual(np.array(fat.weights), gammas, 0.25) <= 1e-12

    reduced = caratheodory_reduce(fat, gammas)
    assert len(reduced) <= basis.dim**2 + 1
    after = moment_matrix(np.array(reduced.weights), design_gammas(reduced, basis, w))
    assert np.max(np.abs(after - before)) <= 1e-11
    weights = np.array(reduced.weights)
    assert weights.min() > 0.0
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_verification_of_an_exact_design_is_quiet():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    design = equispaced_design(basis, w)
    report = verify_design(design, basis, w, trials=100, seed=0)
    assert report.matrix_residual <= 1e-14
    assert report.max_scalar_deviation <= 1e-12
    assert report.trials == 100
    payload = report.to_dict()
    assert payload["max_scalar_deviation"] == report.max_scalar_deviation


def test_verification_tracks_the_solver_residual():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    rng = np.random.default_rng(5)
    candidates = [
        GroupElement.of(Fraction(int(v), 2**20))
        for v in rng.integers(0, 2**20, size=64)
    ]
    design = solve_design(basis, w, candidates, tol=1e-8)
    report = verify_design(design, basis, w, trials=100, seed=1)
    assert report.max_scalar_deviation <= max(10.0 * report.matrix_residual, 1e-12)


def test_constant_profiles_average_exactly_for_any_weights():
    # the constant mode sees every translate with weight equal to the measure,
    # so even a lopsided weighting reproduces it with zero deviation
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    design = ConvexDesign(
        atoms=(DesignAtom(GroupElement.of("1/7"), 0.3), DesignAtom(GroupElement.of("5/7"), 0.7)),
        measure=0.25,
        cutoff=1,
        residual=0.0,
    )
    gammas = design_gammas(design, basis, w)
    i0 = basis.index_of((0,))
    averaged = sum(
        wt * g.entries[i0, i0].real for wt, g in zip(design.weights, gammas)
    )
    assert abs(averaged - 0.25) <= 1e-15


def test_verification_flags_perturbed_weights():
    basis = build_basis(T1, 1)
    w = interval(0, "1/2")
    design = equispaced_design(basis, w)
    bumped = np.array(design.weights)
    bumped[1] += 0.01
    bumped /= bumped.sum()
    crooked = ConvexDesign(
        atoms=tuple(
            DesignAtom(s, float(b)) for s, b in zip(design.shifts, bumped)
        ),
        measure=design.measure,
        cutoff=design.cutoff,
        residual=design.residual,
    )
    report = verify_design(crooked, basis, w, trials=100, seed=2)
    assert report.matrix_residual > 1e-6
    assert report.max_scalar_deviation > 1e-6


def test_design_round_trips_through_plain_dicts():
    basis = build_basis(T1, 1)
    design = equispaced_design(basis, interval(0, "1/4"))
    clone = ConvexDesign.from_dict(design.to_dict())
    assert clone == design


def test_design_weight_validation():
    with pytest.raises(ValueError):
        ConvexDesign(
            atoms=(DesignAtom(T1.identity(), 0.5),),
            measure=0.25,
            cutoff=1,
            residual=0.0,
        )
    with pytest.raises(ValueError):
        ConvexDesign(
            atoms=(
                DesignAtom(T1.identity(), 1.5),
                DesignAtom(GroupElement.of("1/2"), -0.5),
            ),
            measure=0.25,
            cutoff=1,
            residual=0.0,
        )
