"""rcdlab: entropy, optimal transport, Dirichlet forms and heat flows on
finite metric measure spaces, with certified solvers and inequality checks."""

from .mmspace import (
    FiniteMMSpace,
    ValidationReport,
    load_space,
    make_model_space,
    product_space,
    save_space,
    validate_space,
)
from .measures import (
    ProbMeasure,
    TiltedReference,
    bump_measure,
    dirac,
    fisher_information,
    gaussian_measure,
    measure_from_density,
    relative_entropy,
    tilt_reference,
    uniform_measure,
)
from .ot import (
    KantorovichPair,
    TransportPlan,
    c_transform,
    check_slackness,
    kantorovich_potentials,
    w2,
    w2_distance,
)
from .geodesy import (
    GeodesicTrace,
    IntermediateSpec,
    build_good_geodesic,
    cd_convexity_check,
    cd_residual,
    epsilon_min,
    intermediate_entropy_min,
)
from .dirichlet import (
    CarreDuChamp,
    DirichletForm,
    calibrated_segment,
    cheeger_energy,
    dirichlet_form,
    energy,
    gamma,
    intrinsic_metric,
    laplacian,
    mod2,
    path_step_lengths,
    product_form,
    weighted_form,
)
from .heat import (
    FlowTrace,
    HeatKernel,
    bakry_emery_check,
    contraction_check,
    heat_kernel,
    identification_check,
    jko_flow,
    log_sobolev_check,
    semigroup_apply,
    semigroup_flow,
    tensorization_check,
)
from .evi import (
    InequalityReport,
    dw2_derivative_check,
    entropy_inequality_check,
    evi_check,
    rcd_verify,
)
from .solvers import InfeasibleError, SolverError

__version__ = "0.1.0"
