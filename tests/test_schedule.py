"""Switching schedules and speed-bounded continuous observer paths."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from torusobs import (
    ConvexDesign,
    DesignAtom,
    GroupElement,
    OutOfInterval,
    PrototypeSet,
    SpeedTooLow,
    TorusSpace,
    build_basis,
    build_continuous,
    build_switching,
    continuous_loss,
    cycle_length,
    equispaced_design,
    torus_displacement,
    trajectory_lipschitz_bound,
)

T1 = TorusSpace(1)


def quarter_design():
    basis = build_basis(T1, 1)
    w = PrototypeSet.from_boxes(T1, [(0, "1/4")])
    return basis, w, equispaced_design(basis, w)


def dyadic_design():
    atoms = tuple(
        DesignAtom(GroupElement.of(Fraction(j, 5)), 0.25) for j in range(4)
    )
    return ConvexDesign(atoms=atoms, measure=0.5, cutoff=1, residual=0.0)


WAVE_RATE = trajectory_lipschitz_bound(build_basis(T1, 1), "wave", 0.0, 1.0)


# ---------------------------------------------------------------- switching


def test_macro_count_formula():
    basis, w, design = quarter_design()
    schedule = build_switching(design, (0.0, 1.0), WAVE_RATE, 0.01)
    expected = max(1, math.ceil((0.25 + 1.0) * WAVE_RATE * 1.0 / 0.01))
    assert schedule.macro_count == expected
    assert schedule.certified_loss == 0.01
    assert schedule.micro_count == expected * 5


def test_slots_tile_the_interval():
    _, _, design = quarter_design()
    schedule = build_switching(design, (2.0, 1.0), WAVE_RATE, 0.2)
    slots = schedule.micro_intervals()
    lengths = np.array([b - a for a, b, _ in slots])
    assert abs(lengths.sum() - 1.0) <= 1e-12
    assert slots[0][0] == 2.0
    assert abs(slots[-1][1] - 3.0) <= 1e-12
    starts = np.array([a for a, _, _ in slots])
    ends = np.array([b for _, b, _ in slots])
    assert np.max(np.abs(starts[1:] - ends[:-1])) <= 1e-12
    # within each macro interval the slot lengths are the design weights
    tau = schedule.macro_length
    weights = np.array(design.weights)
    per_macro = lengths.reshape(schedule.macro_count, len(design))
    assert np.max(np.abs(per_macro - weights * tau)) <= 1e-12


def test_zero_rate_needs_a_single_slot():
    basis0 = build_basis(T1, 0)
    w = PrototypeSet.from_boxes(T1, [(0, "1/4")])
    design0 = equispaced_design(basis0, w)
    assert len(design0) == 1
    schedule = build_switching(design0, (0.0, 1.0), 0.0, 0.1)
    assert schedule.macro_count == 1
    assert schedule.micro_intervals() == [(0.0, 1.0, 0)]


def test_target_loss_must_sit_below_the_measure():
    _, _, design = quarter_design()
    for bad in (0.0, -0.1, 0.25, 0.3):
        with pytest.raises(ValueError):
            build_switching(design, (0.0, 1.0), WAVE_RATE, bad)
    with pytest.raises(ValueError):
        build_switching(design, (0.0, 0.0), WAVE_RATE, 0.1)
    with pytest.raises(ValueError):
        build_switching(design, (0.0, 1.0), -1.0, 0.1)


def test_observer_lookup_at_exact_breakpoints():
    design = dyadic_design()
    schedule = build_switching(design, (0.0, 1.0), 0.0, 0.25)
    assert schedule.macro_count == 1  # dyadic slot boundaries: 0, 1/4, 1/2, 3/4
    assert schedule.observer_at(0.0) == 0
    assert schedule.observer_at(0.25) == 1
    assert schedule.observer_at(0.5) == 2
    assert schedule.observer_at(0.75) == 3
    assert schedule.observer_at(0.25 - 1e-9) == 0
    assert schedule.observer_at(1.0) == 3  # closing endpoint joins the last slot
    with pytest.raises(OutOfInterval):
        schedule.observer_at(-0.1)
    with pytest.raises(OutOfInterval):
        schedule.observer_at(1.0 + 1e-9)


def test_observer_lookup_matches_a_linear_scan():
    _, _, design = quarter_design()
    schedule = build_switching(design, (2.0, 1.0), WAVE_RATE, 0.24)
    rng = np.random.default_rng(7)
    for t in rng.uniform(2.0, 3.0, size=200):
        assert schedule.observer_at(float(t)) == oracles.scan_observer(
            schedule, float(t)
        )
    assert schedule.observer_at(3.0) == oracles.scan_observer(schedule, 3.0)


# ---------------------------------------------------------------- geometry of tours


def test_torus_displacement_takes_the_short_way():
    assert torus_displacement(np.array([0.1]), np.array([0.9]))[0] == pytest.approx(-0.2)
    assert torus_displacement(np.array([0.9]), np.array([0.1]))[0] == pytest.approx(0.2)
    # a half-torus hop is a tie; the negative representative is chosen
    d2 = torus_displacement(np.array([0.0, 0.75]), np.array([0.5, 0.0]))
    assert d2 == pytest.approx([-0.5, 0.25])


def test_cycle_lengths():
    assert cycle_length([np.array([0.3])]) == 0.0
    assert cycle_length([np.array([0.0]), np.array([0.5])]) == pytest.approx(1.0)
    assert cycle_length([np.array([0.1]), np.array([0.9])]) == pytest.approx(0.4)
    five = [np.array([j / 5]) for j in range(5)]
    assert cycle_length(five) == pytest.approx(1.0)
    square = [np.array([0.0, 0.0]), np.array([0.5, 0.5])]
    assert cycle_length(square) == pytest.approx(math.sqrt(2.0))


# ---------------------------------------------------------------- continuous paths


def test_speed_below_the_cycle_rate_is_rejected():
    _, _, design = quarter_design()
    with pytest.raises(SpeedTooLow):
        build_continuous(design, (0.0, 1.0), 0.9, WAVE_RATE)
    with pytest.raises(SpeedTooLow):
        build_continuous(design, (0.0, 1.0), 0.999, WAVE_RATE)
    with pytest.raises(ValueError):
        build_continuous(design, (0.0, 1.0), -5.0, WAVE_RATE)
    # a hair above an integer multiple of the cycle rate still works
    path = build_continuous(design, (0.0, 1.0), 30.0, WAVE_RATE)
    assert path.macro_count >= 1


def test_template_layout_and_dwell_fractions():
    _, _, design = quarter_design()
    speed = 50.0
    path = build_continuous(design, (0.0, 1.0), speed, WAVE_RATE)
    tau = path.macro_length
    dwell_total = tau - path.cycle / speed
    assert dwell_total > 0
    dwells = [s for s in path.template if s.kind == "dwell"]
    transits = [s for s in path.template if s.kind == "transit"]
    assert len(dwells) == 5
    assert len(transits) == 5
    for seg, weight in zip(dwells, design.weights):
        assert seg.offset_end - seg.offset_start == pytest.approx(
            weight * dwell_total, abs=1e-12
        )
        assert seg.velocity == (0.0,)
    for seg in transits[:-1]:
        assert np.linalg.norm(seg.velocity) == pytest.approx(speed, rel=1e-9)
    assert path.template[-1].offset_end == tau
    # segments abut without gaps
    for left, right in zip(path.template, path.template[1:]):
        assert right.offset_start == pytest.approx(left.offset_end, abs=1e-15)


def test_position_respects_the_speed_bound():
    _, _, design = quarter_design()
    speed = 30.0
    path = build_continuous(design, (0.0, 1.0), speed, WAVE_RATE)
    rng = np.random.default_rng(13)
    h = 1e-7
    for t in rng.uniform(0.0, 1.0 - h, size=400):
        p = path.position_at(float(t))
        q = path.position_at(float(t + h))
        step = np.linalg.norm(torus_displacement(p, q))
        assert step <= speed * h * (1.0 + 1e-6) + 1e-12


def test_position_is_periodic_across_macro_intervals():
    _, _, design = quarter_design()
    path = build_continuous(design, (0.0, 1.0), 40.0, WAVE_RATE)
    tau = path.macro_length
    rng = np.random.default_rng(19)
    for s in rng.uniform(0.0, tau * 0.999, size=50):
        p0 = path.position_at(float(s))
        p1 = path.position_at(float(s + tau))
        assert np.linalg.norm(torus_displacement(p0, p1)) <= 40.0 * 2e-12 + 1e-12
    with pytest.raises(OutOfInterval):
        path.position_at(1.5)


@pytest.mark.parametrize("dim,cutoff", [(1, 0), (1, 1), (1, 3), (2, 1), (2, 2)])
def test_each_tour_leg_is_computed_once(monkeypatch, dim, cutoff):
    # the cycle is bitwise `cycle_length`, and the legs' displacements are
    # formed once, in one call, and shared by the cycle and the transits
    from torusobs import schedule

    space = TorusSpace(dim)
    boxes = [(0, "1/4")] if dim == 1 else [[(0, "1/2"), ("1/8", "5/8")]]
    design = equispaced_design(build_basis(space, cutoff), PrototypeSet.from_boxes(space, boxes))
    calls = []

    def counted(a, b):
        calls.append(1)
        return torus_displacement(a, b)

    monkeypatch.setattr(schedule, "torus_displacement", counted)
    path = build_continuous(design, (0.0, 1.0), 1e4, WAVE_RATE)
    assert len(calls) == 1
    monkeypatch.undo()
    shifts = [a.shift.as_floats() for a in design.atoms]
    assert path.cycle == cycle_length(shifts)
    transits = [seg for seg in path.template if seg.kind == "transit"]
    assert len(transits) == (len(design) if len(design) > 1 else 0)


def test_single_atom_path_never_moves():
    basis0 = build_basis(T1, 0)
    w = PrototypeSet.from_boxes(T1, [(0, "1/4")])
    design0 = equispaced_design(basis0, w)
    path = build_continuous(design0, (0.0, 1.0), 5.0, 1.0)
    assert path.cycle == 0.0
    rng = np.random.default_rng(23)
    for t in rng.uniform(0.0, 1.0, size=20):
        assert path.position_at(float(t)) == pytest.approx([0.0], abs=0)


def test_certified_loss_formula_and_speed_ladder():
    _, _, design = quarter_design()
    losses = []
    for speed in (10.0, 100.0, 1000.0, 10000.0):
        path = build_continuous(design, (0.0, 1.0), speed, WAVE_RATE)
        assert path.certified_loss == continuous_loss(
            design.measure,
            path.cycle,
            path.macro_count,
            speed,
            1.0,
            WAVE_RATE,
        )
        assert path.macro_count < speed * 1.0 / path.cycle
        losses.append(path.certified_loss)
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < losses[0] / 10.0
