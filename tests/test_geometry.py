"""Exact torus geometry: box unions, translation, indicator coefficients."""

import math
from fractions import Fraction

import numpy as np
import pytest

from torusobs import (
    GroupElement,
    PrototypeSet,
    TorusSpace,
)

T1 = TorusSpace(1)
T2 = TorusSpace(2)


def interval(a, b) -> PrototypeSet:
    return PrototypeSet.from_boxes(T1, [(a, b)])


def test_rigid_shift():
    shifted = interval(0, "1/4").translate(GroupElement.of("1/2"))
    assert shifted.pieces == (((Fraction(1, 2), Fraction(3, 4)),),)
    assert shifted.measure_exact == Fraction(1, 4)


def test_wraparound_shift_lands_in_one_box():
    shifted = interval("9/10", 1).translate(GroupElement.of("1/5"))
    assert shifted.pieces == (((Fraction(1, 10), Fraction(1, 5)),),)


def test_zero_shift_is_identity():
    w = PrototypeSet.from_boxes(T1, [(0, "1/10"), ("1/2", "7/10")])
    assert w.translate(GroupElement.of(0)).pieces == w.pieces


def test_translation_preserves_measure_exactly():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lo, hi = np.sort(rng.choice(840, size=2, replace=False))
        w = interval(Fraction(int(lo), 840), Fraction(int(hi), 840))
        g = GroupElement.of(Fraction(int(rng.integers(0, 840)), 840))
        assert w.translate(g).measure_exact == w.measure_exact


def test_coefficient_at_zero_frequency_is_the_measure():
    for length in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 5)):
        w = interval(0, length)
        assert w.fourier_coefficient((0,)) == pytest.approx(
            float(length), abs=1e-15
        )


def test_half_interval_first_coefficient():
    # integral of e^{-2 pi i y} over [0, 1/2) is 1/(pi i) = -i/pi
    val = interval(0, "1/2").fourier_coefficient((1,))
    assert val == pytest.approx(-1j / math.pi, abs=1e-15)


def test_full_torus_coefficients_vanish():
    w = interval(0, 1)
    assert w.fourier_coefficient((0,)) == pytest.approx(1.0, abs=0)
    for n in (1, -3, 7):
        assert w.fourier_coefficient((n,)) == 0


def test_translation_phase_covariance():
    # coefficient of the shifted set = e^{-2 pi i n.g} times the original
    rng = np.random.default_rng(11)
    for _ in range(100):
        lo, hi = np.sort(rng.choice(720, size=2, replace=False))
        w = interval(Fraction(int(lo), 720), Fraction(int(hi), 720))
        g = GroupElement.of(Fraction(int(rng.integers(0, 720)), 720))
        shifted = w.translate(g)
        gf = float(g.shift[0])
        for n in range(-10, 11):
            expected = np.exp(-2j * np.pi * n * gf) * w.fourier_coefficient((n,))
            assert shifted.fourier_coefficient((n,)) == pytest.approx(
                expected, abs=1e-13
            )


def test_2d_phase_covariance():
    rng = np.random.default_rng(5)
    w = PrototypeSet.from_boxes(T2, [[("1/8", "3/8"), ("1/4", "3/4")]])
    for _ in range(20):
        g = GroupElement.of(
            Fraction(int(rng.integers(0, 64)), 64),
            Fraction(int(rng.integers(0, 64)), 64),
        )
        shifted = w.translate(g)
        gf = g.as_floats()
        for n in [(1, 0), (0, 1), (2, -3), (-1, 1)]:
            expected = np.exp(-2j * np.pi * (n @ gf)) * w.fourier_coefficient(n)
            assert shifted.fourier_coefficient(n) == pytest.approx(
                expected, abs=1e-13
            )


def test_coefficients_conjugate_under_frequency_negation():
    w = PrototypeSet.from_boxes(T1, [(0, "1/8"), ("1/3", "2/3")])
    for n in range(-10, 11):
        c = w.fourier_coefficient((n,))
        assert w.fourier_coefficient((-n,)) == pytest.approx(np.conj(c), abs=1e-15)


def test_measures():
    assert interval(0, "3/10").measure == pytest.approx(0.3, abs=0)
    two = PrototypeSet.from_boxes(T1, [(0, "1/10"), ("1/2", "7/10")])
    assert two.measure == pytest.approx(0.3, abs=0)
    assert interval(0, 1).measure == 1.0


def test_2d_box_measure_and_tensor_coefficient():
    w = PrototypeSet.from_boxes(T2, [[(0, "1/2"), (0, "1/2")]])
    assert w.measure == 0.25
    # the coefficient factorizes across axes
    assert w.fourier_coefficient((1, 0)) == pytest.approx(
        (-1j / math.pi) * 0.5, abs=1e-15
    )


def test_wrapping_input_box_is_split():
    w = interval("9/10", "11/10")
    assert len(w.pieces) == 2
    assert w.measure_exact == Fraction(1, 5)


def test_degenerate_boxes_rejected():
    with pytest.raises(ValueError):
        interval("1/2", "1/2")
    with pytest.raises(ValueError):
        interval("1/2", "1/4")
    with pytest.raises(ValueError):
        interval(0, "3/2")


def test_overlapping_pieces_rejected():
    with pytest.raises(ValueError):
        PrototypeSet.from_boxes(T1, [(0, "1/2"), ("1/4", "3/4")])


def test_group_composition_and_inverse_are_exact():
    # shifts are stored mod 1 exactly, so sums and negations of them are the
    # group law with no rounding
    g, h = Fraction(3, 7), Fraction(5, 7)
    assert GroupElement.of(g + h).shift == (Fraction(1, 7),)
    assert GroupElement.of(-g).shift == (Fraction(4, 7),)
    assert GroupElement.of(g - g).shift == (Fraction(0),)
    assert T1.identity().shift == (Fraction(0),)


def test_torus_dimension_guard():
    with pytest.raises(ValueError):
        TorusSpace(3)
    with pytest.raises(ValueError):
        interval(0, "1/4").translate(GroupElement.of("1/2", "1/3"))
