"""mtmlab: a numerical laboratory for the massive Thirring model."""

from .conserved import (
    ConservedSet,
    balance_residual,
    charge,
    density_flux,
    evaluate_all,
    hamiltonian,
    higher_charge,
    lyapunov,
    momentum,
)
from .evolve import BlowUpError, EvolverConfig, Trajectory, evolve, step
from .grid import (
    FieldState,
    Grid,
    NonUniformGridError,
    differentiate,
    dump_state,
    h1_norm_sq,
    load_state,
    norms,
    quadrature,
    zero_state,
)
from .scattering import (
    HierarchyReport,
    PoleEncounterError,
    ScatteringSample,
    explicit_In,
    hierarchy_relations,
    riccati_solve,
)
from .soliton import (
    SolitonParams,
    eval_profile,
    eval_soliton,
    profile,
    profile_absq,
    residual_first_order,
    residual_second_order,
    zero_mode_fields,
)
from .spectral import (
    DiscreteOperator,
    MappedGrid,
    SchrodingerProblem,
    SectorAnalysis,
    build_hessian,
    build_schrodinger,
    build_sector_operator,
    constrained_min_eig,
    isolated_spectrum,
    sector_analysis,
    sigma_closed_form,
    sigma_index,
    splitting_probe,
    sturm_eigenvalues,
)
from .experiments import (
    RunRecord,
    h1_bound_experiment,
    omega_sweep,
    orbital_distance,
    stability_experiment,
)

__version__ = "0.1.0"
