"""Exact-arithmetic classification of projectivized rank-two bundles on the plane.

The library decides, from Chern data alone, which projectivizations are
weakly equivalent, which are h-cobordant and which questions remain open,
and exposes the ring, cubic-form and moduli arithmetic behind those
decisions.  Everything is integer-exact; there is no floating point
anywhere.
"""

from .chern import (
    ChernPair,
    MonadSpec,
    char_classes,
    line_total,
    monad_cohomology_chern,
    serre_length,
    total_chern,
    twist,
)
from .chow import (
    P2Class,
    PBClass,
    PBRing,
    p2_mul,
    p2_unit_inverse,
    pb_mul,
    triple_self_product,
)
from .classify import (
    RelationReport,
    Verdict,
    complex_report,
    concordance_to_split,
    deformable_to_split,
    deformation_equivalent_bundles,
    direct_hcob_type_obstruction,
    h_cobordant,
    split_twist,
    weak_equivalent,
)
from .cubic import (
    BinaryCubicForm,
    UnimodularMatrix,
    cubic_discriminant_standard,
    form_eval,
    picard_cubic,
    picard_discriminant,
    transform_form,
)
from .errors import ConsistencyError, DomainError, MixedRingError
from .moduli import (
    EMPTY,
    POINT,
    ModuliDim,
    QValues,
    gamma,
    moduli_dim,
    non_cobordant_types,
    p_poly,
    q1,
    q_values,
    stromme_threshold,
)
from .orbits import NormalForm, discriminant, normalize, orbit_witness, same_orbit
from .oracles import (
    SearchBound,
    gl2z_form_search,
    integer_root_search,
    orbit_oracle,
    ring_iso_search,
)
from .ruled import (
    betti_profile,
    fiber_anticanonical,
    generic_hirzebruch,
    neg_section_anticanonical,
    signed_hirzebruch,
    unique_structure,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCubicForm",
    "ChernPair",
    "ConsistencyError",
    "DomainError",
    "EMPTY",
    "MixedRingError",
    "ModuliDim",
    "MonadSpec",
    "NormalForm",
    "P2Class",
    "PBClass",
    "PBRing",
    "POINT",
    "QValues",
    "RelationReport",
    "SearchBound",
    "UnimodularMatrix",
    "Verdict",
    "betti_profile",
    "char_classes",
    "complex_report",
    "concordance_to_split",
    "cubic_discriminant_standard",
    "deformable_to_split",
    "deformation_equivalent_bundles",
    "direct_hcob_type_obstruction",
    "discriminant",
    "fiber_anticanonical",
    "form_eval",
    "gamma",
    "generic_hirzebruch",
    "gl2z_form_search",
    "h_cobordant",
    "integer_root_search",
    "line_total",
    "moduli_dim",
    "monad_cohomology_chern",
    "non_cobordant_types",
    "normalize",
    "orbit_oracle",
    "orbit_witness",
    "p2_mul",
    "p2_unit_inverse",
    "p_poly",
    "pb_mul",
    "picard_cubic",
    "picard_discriminant",
    "q1",
    "q_values",
    "ring_iso_search",
    "same_orbit",
    "serre_length",
    "signed_hirzebruch",
    "split_twist",
    "stromme_threshold",
    "total_chern",
    "transform_form",
    "triple_self_product",
    "twist",
    "unique_structure",
    "weak_equivalent",
]
