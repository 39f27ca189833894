"""Exact Heegaard Floer homology of p/q Dehn surgery on a knot in an
integer homology sphere, via the truncated mapping cone, together with
lens-space correction terms, Dedekind sums, Casson-Walker values and the
surgery obstructions they support."""

from .cone import (
    ConeResult,
    SurgeryResult,
    SurgerySpec,
    build_cone,
    cone_homology,
    d_invariant_bounds,
    default_depth,
    reduced_cone,
    surgery,
)
from .errors import (
    FloerError,
    InfiniteModule,
    InvalidPresentation,
    MissingGradings,
    ModelError,
    NotCoprime,
    TruncationTooSmall,
    V0NonZero,
    V0Zero,
)
from .fmod import (
    FiniteUPresentation,
    GradedModule,
    Tau,
    Tower,
    as_graded_module,
    barcode,
    euler_z2,
    validate,
)
from .knotmodel import (
    AmbientSummary,
    KnotModel,
    TorsionProfile,
    alexander_trivial,
    load_ambient_file,
    load_model,
    torsion_coefficients,
)
from .numth import (
    CassonWalkerInput,
    LensInvariants,
    casson_walker_surgery,
    dedekind,
    lambda_from_hf,
    lens_d,
    lens_invariants,
    lens_lambda,
    lens_tau,
    totient,
)
from .obstruct import (
    ObstructionReport,
    TargetSummary,
    Verdict,
    cosmetic_pair_scan,
    chi_relation,
    d_sandwich,
    dedekind_necessary,
    genus_bound,
    k_special,
    lens_complement,
    n_bound,
    v0_bound,
    z_special,
)

__version__ = "0.1.0"
