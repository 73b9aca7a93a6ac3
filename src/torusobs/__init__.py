"""Moving-observer observability experiments on flat tori.

The pipeline: localized observation sets and their exact translation group
(`geometry`), observation matrices on truncated mode spaces (`spectral`),
exact convex designs over translates (`design`), dynamical realizations by
switching and by continuous speed-bounded paths (`schedule`), exact spectral
evolution with closed-form observation energies (`evolve`), and the
interval-by-interval running-average protocol with its verification reports
(`experiment`).  The `cli` module wires everything into a deterministic
batch front-end.
"""

from .config import ConfigError, RunConfig
from .design import (
    ConvexDesign,
    DesignAtom,
    DesignError,
    DesignInfeasible,
    EmptyCandidates,
    NumericalRankFailure,
    caratheodory_reduce,
    default_candidates,
    design_gammas,
    equispaced_design,
    moment_matrix,
    moment_points,
    moment_residual,
    solve_design,
    verify_design,
)
from .evolve import (
    BasisMismatch,
    EnergyDecomposition,
    ModalDatum,
    conserved_energy,
    evolve_to,
    interval_output_energy,
    output_expansion,
    output_kind_for,
    path_observation_energy,
    random_datum,
    windowed_observation_energy,
)
from .experiment import (
    CalibrationConstants,
    CesaroSeries,
    ContinuousReport,
    IntervalRecord,
    TailReductionReport,
    WindowExceedsSimulation,
    calibration,
    continuous_protocol_delta,
    run_protocol,
    tail_reduction_check,
    temporal_gram,
)
from .geometry import (
    GroupElement,
    PrototypeSet,
    TorusSpace,
)
from .schedule import (
    ContinuousPath,
    OutOfInterval,
    PathSegment,
    SpeedTooLow,
    SwitchingSchedule,
    build_continuous,
    build_switching,
    continuous_loss,
    cycle_length,
    torus_displacement,
)
from .spectral import (
    ModalBasis,
    ObservationMatrix,
    build_basis,
    gamma_matrix,
    temporal_gram_min_eigenvalue,
    trajectory_lipschitz_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BasisMismatch",
    "CalibrationConstants",
    "CesaroSeries",
    "ConfigError",
    "ContinuousPath",
    "ContinuousReport",
    "ConvexDesign",
    "DesignAtom",
    "DesignError",
    "DesignInfeasible",
    "EmptyCandidates",
    "EnergyDecomposition",
    "GroupElement",
    "IntervalRecord",
    "ModalBasis",
    "ModalDatum",
    "NumericalRankFailure",
    "ObservationMatrix",
    "OutOfInterval",
    "PathSegment",
    "PrototypeSet",
    "RunConfig",
    "SpeedTooLow",
    "SwitchingSchedule",
    "TailReductionReport",
    "TorusSpace",
    "WindowExceedsSimulation",
    "build_basis",
    "build_continuous",
    "build_switching",
    "calibration",
    "caratheodory_reduce",
    "conserved_energy",
    "continuous_loss",
    "continuous_protocol_delta",
    "cycle_length",
    "default_candidates",
    "design_gammas",
    "equispaced_design",
    "evolve_to",
    "gamma_matrix",
    "interval_output_energy",
    "moment_matrix",
    "moment_points",
    "moment_residual",
    "output_expansion",
    "output_kind_for",
    "path_observation_energy",
    "random_datum",
    "run_protocol",
    "solve_design",
    "tail_reduction_check",
    "temporal_gram",
    "temporal_gram_min_eigenvalue",
    "torus_displacement",
    "trajectory_lipschitz_bound",
    "verify_design",
    "windowed_observation_energy",
]
