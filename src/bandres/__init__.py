"""Band structure, tunneling actions, and resonance widths for slowly
modulated one-dimensional periodic Schrodinger operators."""

from .actions import (
    ActionData,
    TunnelingCoefficients,
    actions_pm,
    compute_action_data,
    delta_kappa,
    phase_integral,
    phase_integral_derivative,
    tunneling_coefficients,
    well_phase,
    well_phase_derivative,
)
from .config import RunConfiguration, load_configuration
from .errors import (
    BandresError,
    BoundaryCollisionError,
    ComputationError,
    ConfigurationError,
    CriticalEndpointError,
    DomainError,
    EnergyRangeError,
    IntegrationFailure,
    InternalConsistencyError,
    NearSingularityError,
    OracleError,
    RootCountError,
    UnsupportedConfigurationError,
)
from .hill import (
    BandStructure,
    MonodromyMatrix,
    PeriodicPotential,
    band_edges,
    discriminant,
    edge_band_side,
    edge_reduced_value,
    integrate_monodromy,
    reduced_momentum,
)
from .momentum import (
    BranchPoint,
    BranchPointSet,
    MomentumSample,
    find_branch_points,
    im_kappa_gap,
    isoenergy_portrait,
    kappa_normalized,
)
from .oracle import (
    GridHamiltonian,
    OracleConfig,
    OracleEigenpair,
    build_grid_hamiltonian,
    oracle_spectrum,
)
from .solver import (
    ResonanceEstimate,
    SolverConfig,
    locate_resonances,
)
from .verify import Check, Run
from .window import (
    Bump,
    PerturbationProfile,
    SpectralWindow,
    WindowComponent,
    WindowEndpoint,
    decompose_window,
)

__version__ = "0.1.0"
