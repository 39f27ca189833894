"""Exact Heegaard Floer homology of p/q Dehn surgery on a knot in an
integer homology sphere, via the truncated mapping cone, together with
lens-space correction terms, Dedekind sums, Casson-Walker values and the
surgery obstructions they support."""

from .cone import (
    ConeResult,
    SurgeryResult,
    SurgerySpec,
    default_depth,
    surgery,
)
from .errors import (
    FloerError,
    InvalidPresentation,
    MissingGradings,
    ModelError,
    NotCoprime,
    TooLarge,
    TruncationTooSmall,
    V0Zero,
)
from .fmod import (
    FiniteUPresentation,
    Tau,
    barcode,
    euler_z2,
    validate,
)
from .knotmodel import (
    AmbientSummary,
    KnotModel,
    alexander_trivial,
    load_model,
    load_model_or_ambient,
    torsion_coefficients,
)
from .numth import (
    CassonWalkerInput,
    casson_walker_surgery,
    dedekind,
    lambda_from_hf,
    lens_d,
    lens_invariants,
    lens_lambda,
    totient,
)
from .obstruct import (
    TargetSummary,
    Verdict,
    cosmetic_pair_scan,
    chi_relation,
    d_invariant_bounds,
    d_sandwich,
    dedekind_necessary,
    genus_bound,
    k_special,
    lens_complement,
    n_bound,
    recognise,
    v0_bound,
    z_special,
)

__version__ = "0.1.0"
