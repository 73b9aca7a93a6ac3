"""Design synthesis: exact grids, the solver, atom reduction, residuals."""

from fractions import Fraction

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    gamma_matrix,
    moment_matrix,
    moment_points,
    moment_residual,
    solve_design,
)
from test_spectral import shifted_box_unions

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

    reduced = caratheodory_reduce(equispaced_design(basis, w), basis, w)
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
    reduced = caratheodory_reduce(design, basis, w)
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
    reduced = caratheodory_reduce(design, basis, w)
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

    reduced = caratheodory_reduce(fat, basis, w)
    assert len(reduced) <= basis.dim**2 + 1
    assert len(reduced) <= 4 * basis.cutoff + 1
    after = moment_matrix(np.array(reduced.weights), design_gammas(reduced, basis, w))
    assert np.max(np.abs(after - before)) <= 1e-11
    weights = np.array(reduced.weights)
    assert weights.min() > 0.0
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_verification_of_an_exact_design_is_quiet():
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    design = equispaced_design(basis, w)
    assert residual_of(design, basis, w) <= 1e-14


def test_verification_tracks_the_solver_residual():
    # ||sum theta Gamma - L Id||_F = ||sum theta p||: the matrix residual
    # and the moment residual are one number by two routes
    basis = build_basis(T1, 1)
    w = interval(0, "1/4")
    rng = np.random.default_rng(5)
    candidates = [
        GroupElement.of(Fraction(int(v), 2**20))
        for v in rng.integers(0, 2**20, size=64)
    ]
    design = solve_design(basis, w, candidates, tol=1e-8)
    assert abs(residual_of(design, basis, w) - design.residual) <= 1e-14


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
    i0 = basis.modes.index((0,))
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
    assert residual_of(crooked, basis, w) > 1e-3


def test_per_trial_deviations_stay_within_the_matrix_residual():
    # each random profile's relative deviation |Re xi^H E xi| / |xi|^2 is at
    # most ||E||_2 <= ||E||_F, the matrix residual: draws add nothing to it
    basis = build_basis(T1, 2)
    w = interval(0, "1/3")
    atoms = tuple(
        DesignAtom(GroupElement.of(Fraction(j, 7)), wt)
        for j, wt in enumerate([0.1, 0.3, 0.25, 0.35])
    )
    design = ConvexDesign(atoms=atoms, measure=w.measure, cutoff=2, residual=0.0)
    gammas = design_gammas(design, basis, w)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        re = rng.standard_normal(basis.dim)
        im = rng.standard_normal(basis.dim)
        xi = (re + 1j * im) / np.sqrt(2.0)
        norm_sq = float(np.real(np.vdot(xi, xi)))
        lhs = sum(
            wt * np.real(np.vdot(xi, g.entries @ xi))
            for wt, g in zip(design.weights, gammas)
        )
        worst = max(worst, abs(lhs - w.measure * norm_sq) / norm_sq)
    residual = residual_of(design, basis, w)
    assert worst > 1e-3
    assert worst <= residual * (1.0 + 1e-12)
    excess = moment_matrix(design.weights, gammas) - w.measure * np.eye(basis.dim)
    assert np.linalg.norm(excess, 2) <= residual * (1.0 + 1e-12)


def stacked_residual(design, basis, w) -> float:
    """The matrix residual with every atom's Gamma held at once, as one
    weighted contraction of the stack, and LAPACK's Frobenius norm: the
    reference for `moment_residual` up to rounding."""
    stack = np.stack([g.entries for g in design_gammas(design, basis, w)])
    moment = np.tensordot(design.weights, stack, axes=1)
    return float(np.linalg.norm(moment - design.measure * np.eye(basis.dim), "fro"))


def solver_design_on_the_circle():
    basis = build_basis(T1, 3)
    w = interval(0, "1/4")
    rng = np.random.default_rng(11)
    candidates = [
        GroupElement.of(Fraction(int(v), 2**20))
        for v in rng.integers(0, 2**20, size=96)
    ]
    return solve_design(basis, w, candidates, tol=1e-9), basis, w


def verification_case(case):
    if case == "grid-1d":
        w = interval(0, "1/4")
        basis = build_basis(T1, 7)
        return equispaced_design(basis, w), basis, w
    if case == "grid-2d":
        w = PrototypeSet.from_boxes(T2, [[(0, "1/2"), ("1/8", "5/8")]])
        basis = build_basis(T2, 2)
        return equispaced_design(basis, w), basis, w
    return solver_design_on_the_circle()


@pytest.mark.parametrize("case", ["grid-1d", "grid-2d", "solver"])
def test_moment_matrix_verification_matches_the_stacked_formula(case):
    # the same matrix by another contraction and another norm: equal to
    # rounding (the sums run over up to 81 atoms), and both equal to the
    # moment-space residual
    design, basis, w = verification_case(case)
    resid = residual_of(design, basis, w)
    assert abs(resid - stacked_residual(design, basis, w)) <= 1e-13
    assert abs(resid - design.residual) <= 1e-13


def chunked_residual(design, basis, w, chunk) -> float:
    """The matrix residual with the atoms' Gammas held `chunk` at a time
    as one stack (every atom at once for None), each stack added into M in
    atom order, and the squares of E = M - L Id summed exactly, real parts
    first: `moment_residual`, which holds one Gamma at a time and sums
    the squares interleaved, must give the same bits for every chunk size."""
    gammas = [g.entries for g in design_gammas(design, basis, w)]
    weights = design.weights
    step = chunk or len(design)
    moment = np.zeros((basis.dim, basis.dim), dtype=complex)
    for lo in range(0, len(design), step):
        stack = np.stack(gammas[lo : lo + step])
        for wt, g in zip(weights[lo : lo + step], stack):
            moment = moment + wt * g
    excess = moment - design.measure * np.eye(basis.dim)
    parts = excess.real.ravel().tolist() + excess.imag.ravel().tolist()
    return math.sqrt(math.fsum(x * x for x in parts))


# chunk None (id "module-chunk") holds every atom's Gamma in one stack
@pytest.mark.parametrize("chunk", [1, 5, None], ids=["chunk-1", "chunk-5", "module-chunk"])
@pytest.mark.parametrize("case", ["grid-1d", "grid-2d", "solver"])
def test_chunked_verification_is_bitwise_the_stacked_formula(case, chunk):
    design, basis, w = verification_case(case)
    if case != "solver":
        assert len(design) > 5
    resid = chunked_residual(design, basis, w, chunk)
    assert residual_of(design, basis, w).hex() == resid.hex()


@pytest.mark.parametrize("case", ["grid-2d", "solver"])
def test_streamed_moment_matrix_is_bitwise_the_held_list(case):
    # verify adds each atom's Gamma into the moment matrix as it is built:
    # the same sums, in the same order, from a zero matrix
    if case == "grid-2d":
        w = PrototypeSet.from_boxes(T2, [[(0, "1/2"), ("1/8", "5/8")]])
        basis = build_basis(T2, 2)
        design = equispaced_design(basis, w)
    else:
        design, basis, w = solver_design_on_the_circle()
    gammas = design_gammas(design, basis, w)
    held = np.zeros_like(gammas[0].entries)
    for weight, g in zip(design.weights, gammas):
        held = held + weight * g.entries
    stream = (gamma_matrix(basis, w, a.shift) for a in design.atoms)
    streamed = moment_matrix(design.weights, stream)
    assert streamed.dtype == held.dtype and streamed.tobytes() == held.tobytes()
    fresh = (gamma_matrix(basis, w, a.shift) for a in design.atoms)
    assert (
        moment_residual(design.weights, fresh, design.measure).hex()
        == moment_residual(design.weights, gammas, design.measure).hex()
    )


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


@pytest.mark.parametrize(
    "weights, residual",
    [((math.nan, 0.5), 0.0), ((math.nan, math.nan), 0.0), ((0.5, 0.5), math.nan),
     ((0.5, 0.5), math.inf)],
    ids=["one-nan-weight", "nan-weights", "nan-residual", "infinite-residual"],
)
def test_design_validation_refuses_nan(weights, residual):
    # NaN compares false both ways: each check is written so that it fails
    atoms = tuple(
        DesignAtom(shift, w) for shift, w in zip((T1.identity(), GroupElement.of("1/2")), weights)
    )
    with pytest.raises(ValueError):
        ConvexDesign(atoms=atoms, measure=0.25, cutoff=1, residual=residual)
    payload = {
        "measure": 0.25,
        "cutoff": 1,
        "residual": str(residual),
        "atoms": [
            {"shift": [shift], "weight": str(w)} for shift, w in zip(("0", "1/2"), weights)
        ],
    }
    with pytest.raises(ValueError):
        ConvexDesign.from_dict(payload)


def random_shifts(rng, count, dim):
    return [
        GroupElement(tuple(Fraction(int(v), 2**20) for v in rng.integers(0, 2**20, size=dim)))
        for _ in range(count)
    ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(shifted_box_unions(), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1))
def test_solver_design_identity_on_random_box_unions(case, cutoff, seed):
    # default candidates always hold an exact design; random shifts crowd them
    _, prototype, _ = case
    space = prototype.space
    basis = build_basis(space, cutoff)
    rng = np.random.default_rng(seed)
    candidates = default_candidates(basis) + random_shifts(rng, 16, space.dim)
    design = solve_design(basis, prototype, candidates, tol=1e-10)
    fresh = moment_residual(
        design.weights, design_gammas(design, basis, prototype), prototype.measure
    )
    assert fresh <= 1e-10
    assert len(design) <= (4 * cutoff + 1) ** space.dim
    assert abs(design.residual - fresh) <= 1e-13
    # the moment-space norm is the Frobenius residual for any convex weights
    weights = rng.dirichlet(np.ones(len(candidates)))
    gammas = [gamma_matrix(basis, prototype, g) for g in candidates]
    points = moment_points(basis, prototype, candidates)
    assert abs(
        np.linalg.norm(weights @ points) - moment_residual(weights, gammas, prototype.measure)
    ) <= 1e-13


def test_solver_survives_duplicate_candidates():
    # repeated points make corrals affinely dependent; the solver must still
    # stop, strictly decrease, and never return one shift twice
    basis = build_basis(T1, 2)
    w = interval("1/3", "3/5")
    rng = np.random.default_rng(3)
    base = random_shifts(rng, 12, 1) + default_candidates(basis)
    candidates = base + base[::-1] + base
    history: list[float] = []
    design = solve_design(basis, w, candidates, tol=1e-10, max_iter=200, history=history)
    assert residual_of(design, basis, w) <= 1e-10
    assert len(set(design.shifts)) == len(design) <= 9
    assert np.all(np.diff(history) < 0.0)
    assert len(history) - 1 <= 200
    with pytest.raises(DesignInfeasible):
        solve_design(basis, w, [GroupElement.of("1/7")] * 10, tol=1e-8)


def test_frequencies_where_the_prototype_coefficient_vanishes_drop_out():
    # [0, 1/4) has Gamma(0)(m) = 0 at m = +-4, so at K = 2 the 4-point grid
    # already averages exactly although the moment at m = 4 does not vanish
    basis = build_basis(T1, 2)
    w = interval(0, "1/4")
    assert abs(w.fourier_table(4)[8]) <= 1e-16
    quarter = [GroupElement.of(Fraction(j, 4)) for j in range(4)]
    design = solve_design(basis, w, quarter, tol=1e-12)
    assert design.shifts == quarter
    assert np.allclose(design.weights, 0.25, rtol=0.0, atol=1e-12)
    assert residual_of(design, basis, w) <= 1e-14
    rng = np.random.default_rng(11)
    mixed = solve_design(basis, w, random_shifts(rng, 40, 1) + quarter, tol=1e-10)
    assert residual_of(mixed, basis, w) <= 1e-10
    reduced = caratheodory_reduce(design, basis, w)
    assert reduced.shifts == quarter


def test_unreachable_tolerance_raises_within_the_cycle_cap():
    basis = build_basis(T1, 2)
    w = interval(0, "1/4")
    history: list[float] = []
    with pytest.raises(DesignInfeasible):
        solve_design(basis, w, default_candidates(basis), tol=1e-30, max_iter=50,
                     history=history)
    assert 1 <= len(history) <= 51
    assert history[-1] <= 1e-13  # exact to rounding, still above 1e-30
    history.clear()
    with pytest.raises(DesignInfeasible):
        solve_design(basis, w, default_candidates(basis), tol=1e-10, max_iter=2,
                     history=history)
    assert len(history) == 3


def test_an_infeasible_candidate_set_stops_at_its_optimum():
    # the 7x7 grid with 11 points missing cannot flatten this box at K = 1;
    # at the optimum a further major cycle gains nothing at rounding level,
    # and the solver must stop there instead of running out its cycle cap
    missing = {(0, 4), (2, 2), (2, 3), (2, 4), (2, 6), (4, 2), (4, 5), (5, 2), (5, 6),
               (6, 5), (6, 6)}
    w = PrototypeSet.from_boxes(T2, [[("5/8", "5/4"), (0, "3/8")]])
    candidates = [
        GroupElement.of(Fraction(a, 7), Fraction(b, 7))
        for a in range(7) for b in range(7) if (a, b) not in missing
    ]
    history: list[float] = []
    with pytest.raises(DesignInfeasible):
        solve_design(build_basis(T2, 1), w, candidates, tol=1e-10, max_iter=2000,
                     history=history)
    assert len(history) <= 100
    assert np.all(np.diff(history) < 0.0)
    assert history[-1] > 1e-4
