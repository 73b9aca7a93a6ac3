"""High-precision reference for the interval energies Q_m in series.csv.

The protocol observes interval m = 1..N on [t0, t0 + T0), t0 = (m-1) T0,
with the equal-weight grid design of 4K+1 shifts per axis (K = K_m) and R
macro repetitions.  Slot (r, j) is

    [t0 + (r + j/J) T0/R,  t0 + (r + (j+1)/J) T0/R),     J = (4K+1)^d,

with atom j at the grid shift g_j of its lexicographic index.  Every slot
endpoint is kept as an exact rational here, so floating-point wear of slot
widths at late t shows up as error instead of being copied.

The output coefficient of mode n is v_n(t) = sum_p C[n,p] e^{2 pi i nu[n,p] t}
and Gamma(g)[a,b] = e^{-2 pi i (n_a - n_b).g} w(n_a - n_b), with w the exact
Fourier coefficient of the indicator of omega.  The sums over r and over each
grid axis are exact geometric sums, so

    Q = Re sum_{a,p,b,q} conj(C_ap) C_bq w(k) e^{2 pi i D t0} I(D) G_R(D tau)
            prod_axis G_{4K+1}(D tau (4K+1)^(d-1-axis) / J - k_axis / (4K+1)),

with k = n_a - n_b, D = nu_bq - nu_ap, tau = T0/R, I(D) the integral of
e^{2 pi i D s} over one slot width and G_N(x) = sum_{r<N} e^{2 pi i x r}.
Everything is evaluated with mpmath at DIGITS significant digits.

The datum, the macro count R and the omega boxes come from the program's
public functions (they are inputs); no evolve kernel is used.

Run as a script:  oracle.py CONFIG SERIES_CSV OUT_DIR SEED SAMPLE
prints one JSON object {"rel_err": ..., "intervals": [...], ...}.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
from torusobs.config import RunConfig
from torusobs.design import ConvexDesign, DesignAtom
from torusobs.evolve import random_datum
from torusobs.schedule import build_switching
from torusobs.spectral import build_basis, trajectory_lipschitz_bound

DIGITS = 40
# |x - nint(x)| below this counts as an exact integer: the exact-rational
# cases carry rounding of about 10^-DIGITS, every other case stays far above.
_INTEGER_TOL = mp.mpf(10) ** (8 - DIGITS)


def _mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def indicator_coefficient(pieces, k) -> mp.mpc:
    """Exact integral of e^{-2 pi i k.y} over a union of half-open boxes."""
    total = mp.mpc(0)
    for box in pieces:
        factor = mp.mpc(1)
        for (a, b), n in zip(box, k):
            if n == 0:
                factor *= _mpf(Fraction(b) - Fraction(a))
            else:
                factor *= (
                    mp.expjpi(-2 * n * _mpf(Fraction(a)))
                    - mp.expjpi(-2 * n * _mpf(Fraction(b)))
                ) / (2j * mp.pi * n)
        total += factor
    return total


def geometric_sum(x, count: int) -> mp.mpc:
    """sum_{r=0}^{count-1} e^{2 pi i x r}, exact for integer x."""
    t = x - mp.nint(x)
    if abs(t) < _INTEGER_TOL:
        return mp.mpc(count)
    return mp.expjpi((count - 1) * t) * mp.sinpi(count * t) / mp.sinpi(t)


@mp.workdps(DIGITS)
def switching_energy(terms, pieces, t0, duration, macro_count: int, j_axis: int):
    """Observed energy along the equal-weight grid schedule, see module doc.

    terms: list of (mode, C, nu) with mode an integer tuple, C an mpc and nu
    an mpf frequency in cycles per unit time.  t0 and duration are exact
    rationals (Fraction or int).
    """
    dim = len(terms[0][0])
    atoms = j_axis**dim
    tau = Fraction(duration) / macro_count
    width = tau / atoms
    t0_mp, tau_mp, width_mp = _mpf(Fraction(t0)), _mpf(tau), _mpf(width)
    axis_scale = [_mpf(tau * j_axis ** (dim - 1 - ax) / atoms) for ax in range(dim)]

    by_delta: dict = {}
    by_axis: dict = {}
    coefficients: dict = {}
    total = mp.mpc(0)
    for mode_a, c_a, nu_a in terms:
        left = mp.conj(c_a)
        for mode_b, c_b, nu_b in terms:
            delta = nu_b - nu_a
            value = by_delta.get(delta)
            if value is None:
                slot = width_mp * mp.expjpi(delta * width_mp) * mp.sincpi(delta * width_mp)
                value = (
                    mp.expjpi(2 * delta * t0_mp)
                    * slot
                    * geometric_sum(delta * tau_mp, macro_count)
                )
                by_delta[delta] = value
            k = tuple(x - y for x, y in zip(mode_a, mode_b))
            for ax in range(dim):
                key = (delta, ax, k[ax])
                factor = by_axis.get(key)
                if factor is None:
                    theta = delta * axis_scale[ax] - mp.mpf(k[ax]) / j_axis
                    factor = by_axis[key] = geometric_sum(theta, j_axis)
                value = value * factor
            w = coefficients.get(k)
            if w is None:
                w = coefficients[k] = indicator_coefficient(pieces, k)
            total += left * c_b * w * value
    return total.real


@mp.workdps(DIGITS)
def kinetic_terms(modes, a, b, mass: float):
    """(mode, C, nu) for the time-derivative output of a wave/Klein-Gordon
    datum with displacement a and velocity b (complex doubles, taken exactly)."""
    terms = []
    mass_term = (mp.mpf(mass) / (2 * mp.pi)) ** 2
    for mode, a_n, b_n in zip(modes, a, b):
        nu = mp.sqrt(sum(mp.mpf(c) ** 2 for c in mode) + mass_term)
        rho = 2 * mp.pi * nu
        a_mp = mp.mpc(float(a_n.real), float(a_n.imag))
        b_mp = mp.mpc(float(b_n.real), float(b_n.imag))
        terms.append((tuple(mode), (b_mp + 1j * rho * a_mp) / 2, nu))
        terms.append((tuple(mode), (b_mp - 1j * rho * a_mp) / 2, -nu))
    return terms


def read_column(path: Path, name: str) -> list[float]:
    """One column of a torusobs CSV (version comment line, then a header)."""
    lines = [line for line in path.read_text().splitlines() if line]
    rows = [line for line in lines if not line.startswith("#")]
    column = rows[0].split(",").index(name)
    return [float(row.split(",")[column]) for row in rows[1:]]


def sample_intervals(count: int, seed: int, size: int) -> list[int]:
    """A seeded sample of interval indices that always holds the last one."""
    rng = random.Random(seed)
    chosen = rng.sample(range(1, count), min(size, count) - 1) if size > 1 else []
    return sorted(chosen) + [count]


@mp.workdps(DIGITS)
def relative_errors(config_path: Path, series_path: Path, out_dir: Path,
                    seed: int, size: int) -> dict:
    """Compare sampled Q_m of series.csv with the high-precision reference."""
    config = RunConfig.from_file(config_path)
    if config.model not in ("wave", "klein_gordon"):
        raise ValueError(f"oracle covers the kinetic output only, not {config.model!r}")
    space = config.space()
    prototype = config.prototype()
    basis = build_basis(space, config.sim_window)
    datum = random_datum(
        config.model, basis, window=config.datum_window, decay=config.datum_decay,
        decay_power=config.datum_decay_power, seed=config.seed, mass=config.mass,
    )
    terms = kinetic_terms(basis.modes, datum.a, datum.b, config.mass)
    observed = read_column(series_path, "Q_m")
    if len(observed) != config.interval_count:
        raise ValueError("series.csv does not hold one row per interval")

    origin = space.identity()
    duration = Fraction(config.duration)
    rows = []
    for m in sample_intervals(config.interval_count, seed, size):
        window = config.window_at(m)
        bound = trajectory_lipschitz_bound(
            build_basis(space, window), config.model, config.mass, config.duration
        )
        # R depends on the design only through its measure
        stub = ConvexDesign(atoms=(DesignAtom(origin, 1.0),), measure=prototype.measure,
                            cutoff=window, residual=0.0)
        schedule = build_switching(
            stub, ((m - 1) * config.duration, config.duration), bound,
            config.tolerance_at(m),
        )
        sidecar = out_dir / f"schedule_m{m}.json"
        if sidecar.exists():
            recorded = json.loads(sidecar.read_text())["macro_count"]
            if recorded != schedule.macro_count:
                raise ValueError(f"interval {m}: macro count {recorded} recorded, "
                                 f"{schedule.macro_count} rebuilt")
        reference = switching_energy(
            terms, prototype.pieces, (m - 1) * duration, duration,
            schedule.macro_count, 4 * window + 1,
        )
        error = abs(mp.mpf(observed[m - 1]) - reference) / abs(reference)
        rows.append({"interval": m, "window": window, "macro_count": schedule.macro_count,
                     "rel_err": float(error)})
    return {"rel_err": max(r["rel_err"] for r in rows), "intervals": rows,
            "digits": DIGITS}


if __name__ == "__main__":
    config_arg, series_arg, out_arg, seed_arg, size_arg = sys.argv[1:6]
    print(json.dumps(relative_errors(Path(config_arg), Path(series_arg), Path(out_arg),
                                     int(seed_arg), int(size_arg))))
