"""Numerical toolkit for constant-coefficient R^2 actions on tori and the
Heisenberg nilmanifold: small-divisor coboundary solvers, splitting of general
cochains, hypoellipticity certificates, constant cohomology, a KAM-type Newton
conjugacy scheme, and the local-rigidity normal-form step.
"""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    ActionParams,
    ConstantCocycle,
    TwoStepAlgebra,
    bracket,
    const_cocycle_check,
    const_cohomology_basis,
    const_delta0,
    heisenberg,
    load_algebra,
)
from .diophantine import (  # noqa: F401
    DiophantineWitness,
    fit_witness,
    min_small_divisor,
    simultaneous_witness,
)
from .errors import (  # noqa: F401
    EmptyCorpus,
    NilflowError,
    NoConvergence,
    NonInvertible,
    NonzeroAverage,
    NotACocycle,
    Resonance,
    ThresholdExceeded,
)
from .torus import (  # noqa: F401
    KamState,
    TorusFunction,
    TorusVectorField,
    birkhoff_average,
    directional_derivative,
    kam_iterate,
    kam_step,
    pullback_field,
    sobolev_norm,
    solve_small_divisor,
    verify_conjugacy,
)
from .nilrep import (  # noqa: F401
    NilFunction,
    RepOperator,
    apply_X1,
    apply_X2,
    cg_decay_report,
    dpi_apply,
    load_nil_function,
    nil_sobolev_norm,
    parse_nil_function,
    pi_norm,
    serialize_nil_function,
)
from .cohomology import (  # noqa: F401
    Cochain1,
    SplittingResult,
    VfCochain,
    VfField,
    delta0,
    delta0_star,
    delta1,
    delta1_star_split,
    gh_certificate,
    joint_kernel_dim,
    laplacian_solve,
    leafwise_laplacian_apply,
    rep_spectrum,
    trusted_count,
    vf_coboundary_solve,
    vf_delta0,
)
from .rigidity import (  # noqa: F401
    FamilyCoordinates,
    delta_op,
    load_vf_cochain,
    newton_step,
    nil_multiply,
    parse_vf_cochain,
    project_P,
    section_s,
    serialize_vf_cochain,
    smoothing_truncate,
    vf_bracket,
)
from .corpus import (  # noqa: F401
    cochain_corpus,
    member_rng,
    nil_corpus,
    nil_function,
    restrict_frequencies,
    toral_function,
    torus_corpus,
    vf_cocycle_member,
)
# perfbench/child.py reads nilflow._parallel as a package attribute, and no
# other module in the package imports it
from . import _parallel  # noqa: F401
from .cli import (  # noqa: F401
    ExperimentConfig,
    parse_config,
    run,
    serialize_config,
)
