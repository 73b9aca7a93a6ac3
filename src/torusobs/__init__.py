"""Moving-observer observability experiments on flat tori.

The pipeline: localized observation sets and their exact translation group
(`geometry`), observation matrices on truncated mode spaces (`spectral`),
exact convex designs over translates (`design`), dynamical realizations by
switching and by continuous speed-bounded paths (`schedule`), exact spectral
evolution with closed-form observation energies (`evolve`), and the
interval-by-interval running-average protocol with its verification reports
(`experiment`).  The `cli` module wires everything into a deterministic
batch front-end.

The names in `__all__` are resolved on first access (PEP 562): importing
the package imports no submodule, and `torusobs.gamma_matrix` imports
`spectral` and what it needs, no more.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "config": ("ConfigError", "RunConfig"),
    "design": (
        "ConvexDesign",
        "DesignAtom",
        "DesignError",
        "DesignInfeasible",
        "EmptyCandidates",
        "NumericalRankFailure",
        "caratheodory_reduce",
        "default_candidates",
        "design_gammas",
        "equispaced_design",
        "moment_matrix",
        "moment_points",
        "moment_residual",
        "solve_design",
    ),
    "evolve": (
        "BasisMismatch",
        "EnergyDecomposition",
        "ModalDatum",
        "conserved_energy",
        "interval_output_energy",
        "output_expansion",
        "path_observation_energy",
        "random_datum",
    ),
    "experiment": (
        "CesaroSeries",
        "ContinuousRun",
        "WindowExceedsSimulation",
        "continuous_protocol_delta",
        "run_protocol",
        "tail_reduction_check",
    ),
    "geometry": ("GroupElement", "PrototypeSet", "TorusSpace", "torus_displacement"),
    "schedule": (
        "PathSegment",
        "Realization",
        "SpeedTooLow",
        "build_continuous",
        "build_switching",
        "continuous_loss",
    ),
    "spectral": (
        "CalibrationConstants",
        "ModalBasis",
        "ObservationMatrix",
        "build_basis",
        "calibration",
        "gamma_matrix",
        "trajectory_lipschitz_bound",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # Any other name fails without importing: `from . import design` probes
    # the package with hasattr before it imports the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
