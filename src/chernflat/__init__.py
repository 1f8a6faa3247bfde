"""Exact computations for Lie algebras carrying almost complex structures.

Everything runs over the rationals or Gaussian rationals: flatness criteria,
eigenspace splittings, invariant forms and metrics, doubling constructions,
constructive normal forms, and deformation spaces.  See the module docs for
the individual pieces; the curated surface below covers routine use.
"""

from .scalars import GaussianRational, gaussian, parse_scalar, format_scalar
from .linalg import ExactMatrix
from .lie import (
    JacobiError,
    LieAlgebra,
    Subspace,
    center,
    derived_subalgebra,
    is_two_step,
    lower_central_series,
    nilpotency_step,
)
from .acs import (
    AdaptedConstants,
    AlmostComplexStructure,
    ComplexSplitting,
    Verdict,
    check_center_j_invariant,
    is_chern_flat,
    is_qk_chern_flat,
    nijenhuis,
    reframed_constants,
    split,
    two_step_certificate,
)
from .forms import (
    HermitianMetric,
    InvariantForm,
    coframe_element,
    coupled_two_form_solutions,
    exterior_d,
    format_form,
    is_quasi_kaehler,
    kaehler_form,
    parse_form,
    type_components,
)
from .constructions import (
    CatalogEntry,
    catalog,
    catalog_names,
    complexification,
    conjugate_complexification,
    from_holomorphic_constants,
    random_two_step,
    verify_frame_isomorphism,
)
from .classify import (
    Fingerprint,
    NormalFormError,
    NormalFormResult,
    center_one_normal_form,
    complex_center_dimension,
    dim4_normal_form,
    fingerprint,
    normal_form,
    random_frame_scramble,
)
from .deform import (
    DeformationSpace,
    deformation_space,
    lie_derivative_direction,
)
from .fileio import dumps_model, load_model, loads_model, resolve_model

__version__ = "0.1.0"
