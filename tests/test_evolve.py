"""Exact propagation and closed-form observation energies, cross-checked
against dense quadrature."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import oracles
from torusobs import (
    BasisMismatch,
    ConvexDesign,
    DesignAtom,
    GroupElement,
    ModalDatum,
    PrototypeSet,
    TorusSpace,
    build_basis,
    build_continuous,
    build_switching,
    conserved_energy,
    equispaced_design,
    gamma_matrix,
    interval_output_energy,
    path_observation_energy,
    random_datum,
    trajectory_lipschitz_bound,
)
from torusobs import evolve
from torusobs.evolve import (
    DifferenceTable,
    expansion_interval_energy,
    frequency_differences,
    geometric_phase_sum,
    grid_tour_sum,
    kernel_energy,
    output_expansion,
    path_kernel,
    path_template,
    per_segment_sum,
    phase_integral,
    shifted_energies,
    shifted_kernel,
)
from torusobs.geometry import torus_displacement

T1 = TorusSpace(1)
T2 = TorusSpace(2)
MODELS = [("wave", 0.0), ("klein_gordon", 1.0), ("schrodinger", 0.0)]


def quarter_setup(cutoff=1):
    basis = build_basis(T1, cutoff)
    w = PrototypeSet.from_boxes(T1, [(0, "1/4")])
    return basis, w, equispaced_design(basis, w)


def make_datum(model, mass, basis, seed, window=None, decay="flat"):
    return random_datum(
        model,
        basis,
        basis.cutoff if window is None else window,
        decay=decay,
        seed=seed,
        mass=mass if mass else None,
    )


# ---------------------------------------------------------------- data


def test_random_datum_is_deterministic():
    basis = build_basis(T1, 2)
    one = random_datum("wave", basis, 2, seed=11)
    two = random_datum("wave", basis, 2, seed=11)
    assert np.array_equal(one.a, two.a)
    assert np.array_equal(one.b, two.b)
    other = random_datum("wave", basis, 2, seed=12)
    assert not np.array_equal(one.b, other.b)


def test_random_datum_respects_the_window():
    basis = build_basis(T1, 3)
    datum = random_datum("schrodinger", basis, 1, seed=3)
    mask = basis.window_mask(1)
    assert np.all(datum.c[~mask] == 0.0)
    assert np.all(datum.c[mask] != 0.0)


def test_zero_frequency_mode_has_no_displacement():
    basis = build_basis(T1, 2)
    datum = random_datum("wave", basis, 2, seed=4)
    i0 = basis.modes.index((0,))
    assert datum.a[i0] == 0.0
    assert datum.b[i0] != 0.0


def test_power_decay_sets_the_modal_energy_profile():
    basis = build_basis(T1, 2)
    norms = np.abs(np.array([m[0] for m in basis.modes], dtype=float))
    for model in ("wave", "schrodinger"):
        acc = np.zeros(basis.dim)
        count = 1000
        for seed in range(count):
            datum = random_datum(
                model, basis, 2, decay="power", decay_power=2.0, seed=seed
            )
            acc += conserved_energy(datum).per_mode
        mean = acc / count
        # kinetic data have two unit-variance summands per mode, except the
        # zero mode whose displacement is quotiented out; field data have one
        levels = np.where(norms > 0, 2.0, 1.0) if model == "wave" else np.ones(5)
        predicted = levels * (1.0 + norms) ** (-4.0)
        ratio = mean / predicted
        assert np.all(ratio > 0.9) and np.all(ratio < 1.1)


def test_datum_validation():
    basis = build_basis(T1, 1)
    ones = np.ones(basis.dim)
    czero = np.zeros(basis.dim, dtype=complex)
    with pytest.raises(ValueError):
        ModalDatum(model="burgers", mass=0.0, basis=basis, c=czero)
    with pytest.raises(ValueError):
        ModalDatum(model="schrodinger", mass=0.0, basis=basis, a=ones, b=ones)
    with pytest.raises(ValueError):
        ModalDatum(model="schrodinger", mass=1.0, basis=basis, c=czero)
    with pytest.raises(ValueError):
        ModalDatum(model="wave", mass=0.0, basis=basis, a=ones, b=np.ones(7))
    with pytest.raises(ValueError):
        ModalDatum(model="wave", mass=1.0, basis=basis, a=ones, b=ones)
    with pytest.raises(ValueError):
        ModalDatum(model="klein_gordon", mass=0.0, basis=basis, a=ones, b=ones)
    with pytest.raises(ValueError):
        # the zero mode of the massless wave carries no displacement
        ModalDatum(model="wave", mass=0.0, basis=basis, a=ones, b=ones, c=None)
    ok = np.array([1.0, 0.0, 1.0])
    ModalDatum(model="wave", mass=0.0, basis=basis, a=ok, b=ones)
    with pytest.raises(ValueError):
        random_datum("wave", basis, 5, seed=0)
    with pytest.raises(ValueError):
        random_datum("wave", basis, 1, decay="exp", seed=0)
    # the datum it builds rejects a mass its model does not take
    for model, mass in (("schrodinger", 1.0), ("wave", 0.5), ("burgers", 0.0)):
        with pytest.raises(ValueError):
            random_datum(model, basis, 1, seed=0, mass=mass)


def test_window_and_tail_partition_the_datum():
    basis = build_basis(T1, 3)
    datum = random_datum("klein_gordon", basis, 3, seed=9, mass=1.0)
    low = datum.windowed(1)
    high = datum.tail(1)
    assert np.array_equal(low.a + high.a, datum.a)
    assert np.array_equal(low.b + high.b, datum.b)
    energy = conserved_energy(datum)
    assert conserved_energy(low).total == pytest.approx(energy.below(1), rel=1e-15)


# ---------------------------------------------------------------- energy and flow


def test_conserved_energy_single_mode():
    basis = build_basis(T1, 1)
    a = np.array([0.0, 0.0, 1.0])
    b = np.zeros(3)
    datum = ModalDatum(model="wave", mass=0.0, basis=basis, a=a, b=b)
    energy = conserved_energy(datum)
    assert energy.total == pytest.approx(4.0 * math.pi**2, rel=1e-15)

    c = np.array([0.6, 0.0, 0.8], dtype=complex)
    sdatum = ModalDatum(model="schrodinger", mass=0.0, basis=basis, c=c)
    assert conserved_energy(sdatum).total == pytest.approx(1.0, rel=1e-15)


def test_window_sums_are_monotone():
    basis = build_basis(T1, 3)
    datum = random_datum("wave", basis, 3, seed=21)
    energy = conserved_energy(datum)
    sums = [energy.below(k) for k in range(4)]
    assert sums == sorted(sums)
    assert sums[-1] == pytest.approx(energy.total, rel=1e-15)
    assert energy.total == pytest.approx(float(energy.per_mode.sum()), rel=1e-15)


@pytest.mark.parametrize("model,mass", MODELS)
def test_energy_is_conserved_along_the_flow(model, mass):
    basis = build_basis(T1, 2)
    rng = np.random.default_rng(31)
    for seed in range(10):
        datum = make_datum(model, mass, basis, seed=seed)
        e0 = conserved_energy(datum).total
        for t in rng.uniform(-3.0, 3.0, size=10):
            et = conserved_energy(oracles.evolve_to(datum, float(t))).total
            assert abs(et - e0) <= 1e-12 * e0


def test_evolution_at_time_zero_is_the_identity():
    basis = build_basis(T1, 2)
    wave = random_datum("wave", basis, 2, seed=5)
    assert np.array_equal(oracles.evolve_to(wave, 0.0).a, wave.a)
    assert np.array_equal(oracles.evolve_to(wave, 0.0).b, wave.b)
    schro = random_datum("schrodinger", basis, 2, seed=5)
    assert np.array_equal(oracles.evolve_to(schro, 0.0).c, schro.c)


def test_wave_flow_on_the_circle_has_period_one():
    basis = build_basis(T1, 3)
    datum = random_datum("wave", basis, 3, seed=6)
    back = oracles.evolve_to(datum, 1.0)
    assert np.max(np.abs(back.a - datum.a)) <= 1e-12
    assert np.max(np.abs(back.b - datum.b)) <= 1e-12


@pytest.mark.parametrize("model,mass", MODELS)
def test_flow_satisfies_the_group_law(model, mass):
    basis = build_basis(T1, 2)
    datum = make_datum(model, mass, basis, seed=8)
    s, t = 0.37, 1.21
    two_steps = oracles.evolve_to(oracles.evolve_to(datum, s), t)
    one_step = oracles.evolve_to(datum, s + t)
    for name in ("a", "b", "c"):
        lhs = getattr(two_steps, name)
        rhs = getattr(one_step, name)
        if lhs is None:
            assert rhs is None
            continue
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


# ---------------------------------------------------------------- phase quadratures


def test_phase_integral_matches_dense_quadrature():
    rng = np.random.default_rng(41)
    alphas = np.concatenate(
        [[0.0, 1e-12, -1e-9, 500.0], rng.uniform(-100.0, 100.0, size=46)]
    )
    t1, t2 = 0.3, 1.7
    exact = phase_integral(alphas, t1, t2 - t1)
    assert exact[0] == t2 - t1  # zero frequency integrates the constant
    for k, alpha in enumerate(alphas):
        dense = oracles.simpson_phase_integral(float(alpha), t1, t2)
        assert abs(exact[k] - dense) <= 1e-8


def test_geometric_phase_sum_examples():
    rng = np.random.default_rng(43)
    taus = [0.013, 0.5]
    counts = [1, 2, 7, 100]
    for tau in taus:
        for count in counts:
            alphas = rng.uniform(-50.0, 50.0, size=10)
            got = geometric_phase_sum(alphas, tau, count)
            want = np.sum(
                np.exp(1j * np.outer(np.arange(count), alphas) * tau), axis=0
            )
            assert np.max(np.abs(got - want)) <= 1e-12 * count
    # exact and near resonance
    tau = 0.25
    res = np.array([8.0 * math.pi, 8.0 * math.pi + 4e-13, 0.0])
    got = geometric_phase_sum(res, tau, 1000)
    assert got[0] == pytest.approx(1000.0, abs=1e-9)
    assert got[1] == pytest.approx(1000.0, abs=1e-6)
    assert got[2] == 1000.0


# ---------------------------------------------------------------- switching energies


def test_full_torus_first_order_energy_is_flat():
    basis = build_basis(T1, 2)
    full = PrototypeSet.from_boxes(T1, [(0, 1)])
    design = equispaced_design(basis, full)
    gamma0 = gamma_matrix(basis, full, GroupElement.of(0))
    datum = random_datum("schrodinger", basis, 2, seed=14)
    for t_start, duration in ((0.0, 1.0), (0.4, 0.7)):
        schedule = build_switching(design, (t_start, duration), 0.0, 0.5)
        q = path_observation_energy(datum, schedule, gamma0)
        norm_sq = conserved_energy(datum).total
        assert q == pytest.approx(duration * norm_sq, rel=1e-12)
        assert q == pytest.approx(
            interval_output_energy(datum, t_start, duration), rel=1e-12
        )


def test_single_mode_kinetic_energy_matches_the_temporal_gram():
    basis = build_basis(T1, 1)
    i1 = basis.modes.index((1,))
    a = np.zeros(3)
    b = np.zeros(3)
    a[i1], b[i1] = 0.7, -0.3
    datum = ModalDatum(model="wave", mass=0.0, basis=basis, a=a, b=b)
    rho = 2.0 * math.pi
    t_start, duration = 0.2, 1.0
    q = interval_output_energy(datum, t_start, duration)
    vec = np.array([-a[i1] * rho, b[i1]])
    gram = oracles.temporal_gram(rho, t_start, duration)
    assert q == pytest.approx(float(vec @ gram @ vec), rel=1e-12)
    dense = oracles.simpson_interval_energy(datum, t_start, duration)
    assert q == pytest.approx(dense, rel=1e-8)


@pytest.mark.parametrize("model,mass", MODELS)
def test_observation_energy_is_bounded_by_the_full_output(model, mass):
    basis, w, design = quarter_setup()
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0))
    rate = trajectory_lipschitz_bound(basis, model, mass, 1.0)
    schedule = build_switching(design, (0.0, 1.0), rate, 0.1)
    for seed in range(5):
        datum = make_datum(model, mass, basis, seed=seed)
        q = path_observation_energy(datum, schedule, gamma0)
        full = interval_output_energy(datum, 0.0, 1.0)
        assert q >= -1e-12 * full
        assert q <= full * (1.0 + 1e-12)


@pytest.mark.parametrize("model,mass", MODELS)
def test_switching_energy_matches_dense_quadrature(model, mass):
    basis, w, design = quarter_setup()
    gammas = [gamma_matrix(basis, w, s) for s in design.shifts]
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0))
    rate = trajectory_lipschitz_bound(basis, model, mass, 1.0)
    schedule = build_switching(design, (0.3, 1.0), rate, 0.24)
    datum = make_datum(model, mass, basis, seed=2)
    q = path_observation_energy(datum, schedule, gamma0)
    dense = oracles.simpson_schedule_energy(datum, schedule, gammas)
    assert q == pytest.approx(dense, rel=1e-8)


def test_macro_aggregation_matches_an_explicit_slot_loop():
    basis, w, design = quarter_setup()
    gammas = [gamma_matrix(basis, w, s) for s in design.shifts]
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0))
    schedule = build_switching(design, (0.0, 1.0), 8.0 * math.pi, 0.2)
    assert schedule.macro_count > 10
    datum = make_datum("wave", 0.0, basis, seed=3)
    q = path_observation_energy(datum, schedule, gamma0)

    coeff, alpha = output_expansion(datum)
    flat_c = coeff.ravel()
    flat_a = alpha.ravel()
    diff = flat_a[None, :] - flat_a[:, None]
    total = 0.0
    for t1, t2, j in oracles.switching_slots(schedule):
        base = phase_integral(diff, t1, t2 - t1)
        kernel = np.kron(gammas[j].entries, np.ones((2, 2))) * base
        total += float(np.real(np.vdot(flat_c, kernel @ flat_c)))
    assert q == pytest.approx(total, rel=1e-12)


def test_gamma_bookkeeping_is_enforced():
    basis, w, design = quarter_setup()
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0))
    schedule = build_switching(design, (0.0, 1.0), 1.0, 0.2)
    fine = random_datum("wave", build_basis(T1, 2), 2, seed=0)
    with pytest.raises(BasisMismatch):
        path_observation_energy(fine, schedule, gamma0)
    datum = random_datum("wave", basis, 1, seed=0)
    shifted = gamma_matrix(basis, w, design.shifts[1])
    with pytest.raises(ValueError):
        path_observation_energy(datum, schedule, shifted)


@pytest.mark.parametrize("model,mass", MODELS)
def test_grid_closed_form_at_desk_scale(model, mass):
    # a late interval with R ~ 10^5 macro repetitions, where slot widths
    # recovered from absolute times would be off by ~1e-8 relative
    basis, w, design = quarter_setup()
    assert design.grid_per_axis == 5
    rate = trajectory_lipschitz_bound(basis, model, mass, 1.0)
    schedule = build_switching(design, (199.0, 1.0), rate, 1.25 * rate / 1e5)
    assert schedule.macro_count >= 10**5
    datum = make_datum(model, mass, basis, seed=19)
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0))
    q = path_observation_energy(datum, schedule, gamma0)
    gammas = [gamma_matrix(basis, w, s) for s in design.shifts]
    dense = oracles.simpson_schedule_energy(datum, schedule, gammas, nodes_per_slot=5)
    assert q == pytest.approx(dense, rel=1e-12)


def test_grid_closed_form_in_2d_with_aliased_frequencies():
    # sim modes reach |m_a| = 6 >= J1 = 5, so some shift phases alias onto
    # the grid and the per-axis Dirichlet sums hit resonance
    design_basis = build_basis(T2, 1)
    basis = build_basis(T2, 3)
    w = PrototypeSet.from_boxes(T2, [[(0, "1/2"), ("1/8", "5/8")]])
    design = equispaced_design(design_basis, w)
    assert design.grid_per_axis == 5 and len(design) == 25
    rate = trajectory_lipschitz_bound(design_basis, "wave", 0.0, 1.0)
    schedule = build_switching(design, (3.0, 1.0), rate, 0.2)
    datum = random_datum("wave", basis, 3, seed=4)
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0, 0))
    q = path_observation_energy(datum, schedule, gamma0)
    gammas = [gamma_matrix(basis, w, s) for s in design.shifts]
    dense = oracles.simpson_schedule_energy(datum, schedule, gammas, nodes_per_slot=9)
    assert q == pytest.approx(dense, rel=1e-10)


@pytest.mark.parametrize("model,mass", MODELS)
def test_interval_energy_matches_dense_quadrature(model, mass):
    basis = build_basis(T1, 1)
    datum = make_datum(model, mass, basis, seed=7)
    q = interval_output_energy(datum, 0.15, 1.3)
    dense = oracles.simpson_interval_energy(datum, 0.15, 1.3)
    assert q == pytest.approx(dense, rel=1e-8)


# ---------------------------------------------------------------- path energies


def test_single_atom_path_equals_single_atom_switching():
    basis = build_basis(T1, 1)
    w = PrototypeSet.from_boxes(T1, [(0, "1/4")])
    g = GroupElement.of("1/5")
    design = ConvexDesign(
        atoms=(DesignAtom(g, 1.0),), measure=0.25, cutoff=1, residual=0.0
    )
    path = build_continuous(design, (0.0, 1.0), 5.0, 1.0)
    schedule = build_switching(design, (0.0, 1.0), 1.0, 0.2)
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0))
    datum = random_datum("wave", basis, 1, seed=12)
    q_path = path_observation_energy(datum, path, gamma0)
    q_switch = path_observation_energy(datum, schedule, gamma0)
    assert q_path == pytest.approx(q_switch, rel=1e-12)


@pytest.mark.parametrize(
    "model,mass,speed",
    [("wave", 0.0, 12.0), ("klein_gordon", 1.0, 9.0), ("schrodinger", 0.0, 18.0)],
)
def test_path_energy_matches_dense_quadrature(model, mass, speed):
    basis, w, design = quarter_setup()
    rate = trajectory_lipschitz_bound(basis, model, mass, 1.0)
    path = build_continuous(design, (0.0, 1.0), speed, rate)
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0))
    datum = make_datum(model, mass, basis, seed=17)
    q = path_observation_energy(datum, path, gamma0)
    dense = oracles.simpson_path_energy(datum, path, gamma0.entries)
    assert q == pytest.approx(dense, rel=1e-8)


def test_path_energy_rejects_mismatched_matrices():
    basis, w, design = quarter_setup()
    path = build_continuous(design, (0.0, 1.0), 10.0, 1.0)
    datum = random_datum("wave", basis, 1, seed=1)
    shifted = gamma_matrix(basis, w, GroupElement.of("1/3"))
    with pytest.raises(ValueError):
        path_observation_energy(datum, path, shifted)
    coarse = gamma_matrix(build_basis(T1, 2), w, GroupElement.of(0))
    with pytest.raises(BasisMismatch):
        path_observation_energy(datum, path, coarse)


def grid_design(dim, per_axis):
    """Equal-weight lexicographic grid of per_axis^dim atoms, any dimension."""
    count = per_axis**dim
    atoms = tuple(
        DesignAtom(GroupElement(tuple(Fraction(c, per_axis) for c in combo)), 1.0 / count)
        for combo in product(range(per_axis), repeat=dim)
    )
    return ConvexDesign(atoms=atoms, measure=0.25, cutoff=1, residual=0.0)


def model_frequencies(model, mass, modes):
    """Output frequencies alpha of shape (dim, P) straight from integer modes."""
    eig = 4.0 * math.pi**2 * np.sum(modes.astype(float) ** 2, axis=1)
    if model == "schrodinger":
        return eig[:, None]
    rho = np.sqrt(eig + mass * mass)
    return np.stack([rho, -rho], axis=1)


@pytest.mark.parametrize(
    "model,mass,switching",
    [
        pytest.param(model, mass, switching, id=f"{model}-{mass}" + switching * "-switching")
        for switching in (False, True)
        for model, mass in MODELS
    ],
)
@pytest.mark.parametrize("per_axis", [1, 5, 9])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_tour_sum_matches_the_segment_loop(dim, per_axis, model, mass, switching):
    # the tour sum is dimension-generic while the torus stops at d = 2, so
    # the template sums are compared on integer mode differences directly;
    # 1D modes reach |m| = 10, past both grid sizes, so shift phases alias
    design = grid_design(dim, per_axis)
    assert design.grid_per_axis == per_axis
    if switching:
        # the legless tour against the loop over its dwells
        path = build_switching(design, (199.0, 1.0), 1e3, 0.1)
        assert path.macro_count == 12_500
        assert [seg.kind for seg in path.template] == ["dwell"] * per_axis**dim
    else:
        # a Lipschitz bound this large clips R to the speed limit: the
        # dwells shrink to a sliver of each macro interval
        speed = 1e5
        path = build_continuous(design, (199.0, 1.0), speed, speed)
        if per_axis > 1:
            assert path.macro_count == math.ceil(speed / path.cycle) - 1
    cut = {1: 5, 2: 2, 3: 1}[dim]
    modes = np.array(list(product(range(-cut, cut + 1), repeat=dim)))
    diff = frequency_differences(model_frequencies(model, mass, modes))
    mdiff = modes[:, None, :] - modes[None, :, :]
    table = DifferenceTable.build(model_frequencies(model, mass, modes), mdiff)
    tour = grid_tour_sum(table, per_axis, path)
    loop = per_segment_sum(diff, mdiff, path)
    assert np.max(np.abs(tour - loop)) <= 1e-12 * np.max(np.abs(loop))


def bits(x):
    """The bit patterns of a float or complex array: equal bits, equal
    floating-point values, signed zeros included."""
    return np.ascontiguousarray(x).view(np.int64)


def lift(m, shape):
    """A (dim, dim) mode matrix broadcast onto the lifted kernel axes."""
    return np.broadcast_to(m[:, None, :, None], shape)


@pytest.mark.parametrize("model,mass", MODELS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_difference_table_reproduces_its_keys(dim, model, mass):
    # every gather reproduces the dense keys bit for bit (the massless wave
    # has a -0.0 difference, which must not merge with 0.0), and no key
    # repeats
    cut = {1: 5, 2: 3, 3: 1}[dim]
    modes = np.array(list(product(range(-cut, cut + 1), repeat=dim)))
    mdiff = modes[:, None, :] - modes[None, :, :]
    alpha = model_frequencies(model, mass, modes)
    diff = frequency_differences(alpha)
    table = DifferenceTable.build(alpha, mdiff)
    assert np.array_equal(bits(table.values[table.inverse]), bits(diff))
    assert np.array_equal(bits(table.diff), bits(diff))
    assert np.unique(bits(table.values)).size == table.values.size
    assert len(table.axes) == dim and len(table.carries) == dim - 1
    expected = [(table.axes[a], mdiff[..., a]) for a in range(dim)]
    expected += [(table.carry(a), mdiff[..., a:].sum(axis=-1)) for a in range(dim)]
    for keys, m in expected:
        assert np.array_equal(bits(keys.diff[keys.inverse]), bits(diff))
        assert np.array_equal(keys.modes[keys.inverse], lift(m, diff.shape))
        pairs = set(zip(bits(keys.diff).tolist(), keys.modes.tolist()))
        assert len(pairs) == keys.diff.size
        assert keys.inverse.dtype.itemsize <= 2
    assert table.carry(dim - 1) is table.axes[dim - 1]
    if model == "wave":
        assert np.any((diff == 0.0) & np.signbit(diff))


# The dense formulas the table replaces, one transcendental per entry.


def dense_grid_atom_sum(diff, mode_differences, per_axis, tau):
    # the switching slots of one macro interval summed over the grid, the
    # formula switching kernels have always been built with: the legless
    # tour sum must reproduce it bit for bit
    dim = mode_differences.shape[-1]
    width = tau / per_axis**dim
    mdiff = mode_differences[:, None, :, None, :]
    total = phase_integral(diff, 0.0, width)
    for a in range(dim):
        arg = diff * (tau / per_axis ** (a + 1)) - (2.0 * math.pi / per_axis) * mdiff[..., a]
        total = total * geometric_phase_sum(arg, 1.0, per_axis)
    return total


def dense_grid_tour_sum(diff, mode_differences, per_axis, path):
    # each product has the operand order and the temporaries of
    # grid_tour_sum's, so that numpy's elision of a temporary right operand
    # (it evaluates b * a for a * b at 256 KiB and up) acts on both alike
    two_pi = 2.0 * math.pi
    dim = mode_differences.shape[-1]
    mdiff = mode_differences[:, None, :, None, :]
    span = path.macro_length - path.cycle / path.speed
    dwell = span / per_axis**dim
    total = phase_integral(diff, 0.0, dwell)
    step = float(torus_displacement(0.0, 1.0 / per_axis))
    legs = [abs(step) * math.sqrt(dim - a) / path.speed for a in range(dim)]
    full, short, fixed = [], [None], [None]
    for b in range(dim):
        offset = span / per_axis ** (b + 1) + legs[b]
        for a in range(b + 1, dim):
            offset += legs[a] * (per_axis - 1) * per_axis ** (a - 1 - b)
        arg = diff * offset - (two_pi / per_axis) * mdiff[..., b]
        full.append(geometric_phase_sum(arg, 1.0, per_axis))
        total = total * geometric_phase_sum(arg, 1.0, per_axis)
        if b > 0:
            short.append(geometric_phase_sum(arg, 1.0, per_axis - 1))
            fixed.append(np.exp(1j * (per_axis - 1) * arg))
    after_dwell = np.exp(1j * diff * dwell)
    for a in range(dim):
        rate = -(two_pi * step / legs[a]) * mdiff[..., a:].sum(axis=-1)
        atoms = phase_integral(diff + rate, 0.0, legs[a])
        atoms *= after_dwell
        for factor in full[:a] + [(full if a == 0 else short)[a]] + fixed[a + 1 :]:
            atoms *= factor
        total += atoms
    return total


def dense_shifted(gamma0, diff, t_start, repeats, body):
    start = np.exp(1j * diff * t_start)
    return gamma0.entries[:, None, :, None] * ((start * repeats) * body)


def late_grid_setup(dim, model, mass):
    """A grid design with 5 atoms per axis, Gamma(0) and an output
    expansion on a simulation basis past the design cutoff.  `dim`
    "torus_2d" is the 2D benchmark run's box and basis: 26,244 kernel
    entries (410 KiB) for the second-order models."""
    if dim == 1:
        space, boxes, sim = T1, [(0, "1/4")], 3
    elif dim == 2:
        space, boxes, sim = T2, [[(0, "1/2"), ("1/8", "5/8")]], 2
    else:
        space, boxes, sim = T2, [[(0, "1/2"), (0, "1/2")]], 4
    w = PrototypeSet.from_boxes(space, boxes)
    design = equispaced_design(build_basis(space, 1), w)
    assert design.grid_per_axis == 5
    basis = build_basis(space, sim)
    gamma0 = gamma_matrix(basis, w, space.identity())
    _, alpha = output_expansion(make_datum(model, mass, basis, seed=37))
    return design, basis, gamma0, alpha


@pytest.mark.parametrize("model,mass", MODELS)
@pytest.mark.parametrize("dim", [1, 2, "torus_2d"])
def test_table_kernels_are_bitwise_the_dense_formulas(dim, model, mass):
    # a late interval (t_start = 199) with R ~ 10^5 macro repetitions; the
    # switching schedule is the legless tour, bitwise the old atom sum
    design, basis, gamma0, alpha = late_grid_setup(dim, model, mass)
    table = DifferenceTable.build(alpha, basis.mode_differences)
    diff = frequency_differences(alpha)
    mdiff = basis.mode_differences

    rate = trajectory_lipschitz_bound(build_basis(basis.space, 1), model, mass, 1.0)
    schedule = build_switching(design, (199.0, 1.0), rate, 1.25 * rate / 1e5)
    assert schedule.macro_count >= 10**5
    tau = schedule.macro_length
    atoms = dense_grid_atom_sum(diff, mdiff, 5, tau)
    assert np.array_equal(bits(grid_tour_sum(table, 5, schedule)), bits(atoms))
    repeats = geometric_phase_sum(diff, tau, schedule.macro_count)
    assert np.array_equal(
        bits(geometric_phase_sum(table.values, tau, schedule.macro_count)[table.inverse]),
        bits(repeats),
    )
    kernel = dense_shifted(gamma0, diff, 199.0, repeats, atoms)
    assert np.array_equal(bits(path_kernel(schedule, table, gamma0)), bits(kernel))

    path = build_continuous(design, (199.0, 1.0), 1e5, 1e5)
    assert path.macro_count >= 10**4
    segments = dense_grid_tour_sum(diff, mdiff, 5, path)
    assert np.array_equal(bits(grid_tour_sum(table, 5, path)), bits(segments))
    repeats = geometric_phase_sum(diff, path.macro_length, path.macro_count)
    template = path_template(path, table)
    assert np.array_equal(bits(template[0][table.inverse]), bits(repeats))
    assert np.array_equal(bits(template[1]), bits(segments))
    kernel = dense_shifted(gamma0, diff, 199.0, repeats, segments)
    assert np.array_equal(bits(shifted_kernel(gamma0, table, 199.0, *template)), bits(kernel))
    assert np.array_equal(bits(path_kernel(path, table, gamma0)), bits(kernel))


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_tour_sum_makes_one_dirichlet_sum_less_than_two_per_axis(monkeypatch, dim):
    # level 0 reads only the full sum on axis 0, so no short sum is formed there
    design, basis, _, alpha = late_grid_setup(dim, "wave", 0.0)
    table = DifferenceTable.build(alpha, basis.mode_differences)
    path = build_continuous(design, (199.0, 1.0), 1e5, 1e5)
    calls = []

    def counted(*args):
        calls.append(args[2])
        return geometric_phase_sum(*args)

    monkeypatch.setattr(evolve, "geometric_phase_sum", counted)
    grid_tour_sum(table, 5, path)
    assert len(calls) == 2 * dim - 1
    assert calls.count(5) == dim and calls.count(4) == dim - 1


@pytest.mark.parametrize(
    "weights,shifts",
    [
        ((0.3, 0.1, 0.2, 0.25, 0.15), ("0", "1/5", "2/5", "3/5", "4/5")),
        ((0.2,) * 5, ("0", "1/7", "2/5", "3/5", "5/6")),
    ],
    ids=["unequal_weights", "off_grid_shifts"],
)
def test_non_grid_paths_take_the_segment_loop(monkeypatch, weights, shifts):
    basis = build_basis(T1, 1)
    w = PrototypeSet.from_boxes(T1, [(0, "1/4")])
    design = ConvexDesign(
        atoms=tuple(DesignAtom(GroupElement.of(g), t) for g, t in zip(shifts, weights)),
        measure=0.25,
        cutoff=1,
        residual=0.0,
    )
    assert design.grid_per_axis is None

    def no_tour(*args):
        raise AssertionError("the grid tour sum ran on a non-grid design")

    monkeypatch.setattr(evolve, "grid_tour_sum", no_tour)
    rate = trajectory_lipschitz_bound(basis, "wave", 0.0, 1.0)
    path = build_continuous(design, (0.0, 1.0), 12.0, rate)
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0))
    datum = make_datum("wave", 0.0, basis, seed=23)
    q = path_observation_energy(datum, path, gamma0)
    dense = oracles.simpson_path_energy(datum, path, gamma0.entries)
    assert q == pytest.approx(dense, rel=1e-8)


def test_template_shifted_to_a_late_start_is_the_path_kernel():
    # a non-grid design takes the segment loop; its template, built from a
    # path at t = 0 and moved to t = 199 by one phase, must be the kernel of
    # the path started at 199 entry for entry
    basis = build_basis(T1, 2)
    w = PrototypeSet.from_boxes(T1, [(0, "1/4")])
    design = ConvexDesign(
        atoms=tuple(
            DesignAtom(GroupElement.of(g), t)
            for g, t in zip(("0", "1/7", "2/5", "5/6"), (0.4, 0.1, 0.3, 0.2))
        ),
        measure=0.25,
        cutoff=1,
        residual=0.0,
    )
    assert design.grid_per_axis is None
    gamma0 = gamma_matrix(basis, w, GroupElement.of(0))
    _, alpha = output_expansion(make_datum("wave", 0.0, basis, seed=31))
    rate = trajectory_lipschitz_bound(basis, "wave", 0.0, 1.0)
    early = build_continuous(design, (0.0, 1.0), 40.0, rate)
    late = build_continuous(design, (199.0, 1.0), 40.0, rate)
    assert late.macro_count == early.macro_count > 1
    table = DifferenceTable.build(alpha, basis.mode_differences)
    repeats, segments = path_template(early, table)
    shifted = shifted_kernel(gamma0, table, 199.0, repeats, segments)
    assert np.array_equal(shifted, path_kernel(late, table, gamma0))


@pytest.mark.parametrize("model,mass", MODELS)
@pytest.mark.parametrize("dim", [1, 2])
def test_shifted_energies_are_the_quadratic_forms_of_the_shifted_kernels(dim, model, mass):
    # one reduction of the template per coefficient vector gives the energy
    # at every start, up to late ones with R ~ 10^4 macro repetitions; only
    # the summation order differs from the kernel's quadratic form
    design, basis, gamma0, alpha = late_grid_setup(dim, model, mass)
    datum = make_datum(model, mass, basis, seed=37)
    coeffs = [output_expansion(part)[0] for part in (datum, datum.windowed(1))]
    table = DifferenceTable.build(alpha, basis.mode_differences)
    path = build_continuous(design, (0.0, 1.0), 1e5, 1e5)
    assert path.macro_count >= 10**4
    repeats, segments = path_template(path, table)
    starts = np.array([0.0, 1.0, 57.0, 199.0])
    energies = shifted_energies(gamma0, table, starts, repeats, segments, coeffs)
    assert energies.shape == (4, 2)
    for t, row in zip(starts, energies):
        kernel = shifted_kernel(gamma0, table, t, repeats, segments)
        dense = [kernel_energy(kernel, coeff) for coeff in coeffs]
        assert row == pytest.approx(dense, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("model,mass", MODELS)
def test_interval_energy_over_an_array_of_starts(model, mass):
    basis = build_basis(T1, 3)
    datum = make_datum(model, mass, basis, seed=41)
    coeff, alpha = output_expansion(datum)
    starts = np.array([0.0, 0.15, 57.0, 199.0])
    energies = expansion_interval_energy(coeff, alpha, starts, 1.3)
    assert energies.shape == (4,)
    each = [interval_output_energy(datum, t, 1.3) for t in starts]
    assert energies == pytest.approx(each, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "dim,model,mass",
    [(1, "wave", 0.0), (1, "klein_gordon", 1.0), (1, "schrodinger", 0.0), (2, "wave", 0.0)],
)
def test_grid_path_energy_matches_the_40_digit_oracle(monkeypatch, dim, model, mass):
    # a late interval with R ~ 10^4..10^5 macro repetitions, summed by the
    # closed-form tour only
    def no_loop(*args):
        raise AssertionError("the segment loop ran on a grid design")

    monkeypatch.setattr(evolve, "per_segment_sum", no_loop)
    if dim == 1:
        space, boxes, sim = T1, [(0, "1/4")], 2
    else:
        space, boxes, sim = T2, [[(0, "1/2"), ("1/8", "5/8")]], 1
    w = PrototypeSet.from_boxes(space, boxes)
    design = equispaced_design(build_basis(space, 1), w)
    assert design.grid_per_axis == 5
    speed = 1e5
    path = build_continuous(design, (199.0, 1.0), speed, speed)
    assert path.macro_count == math.ceil(speed / path.cycle) - 1 >= 10**4
    basis = build_basis(space, sim)
    gamma0 = gamma_matrix(basis, w, space.identity())
    datum = make_datum(model, mass, basis, seed=29)
    q = path_observation_energy(datum, path, gamma0)
    exact = oracles.mpmath_path_energy(datum, path, gamma0.entries)
    assert q == pytest.approx(exact, rel=1e-13)
