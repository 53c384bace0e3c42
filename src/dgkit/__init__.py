"""dgkit: exact-arithmetic toolkit for small dg-categories.

Ships exact linear algebra over Q and F_p, complexes with smart truncations
and cones, small dg-rings and dg-categories, (co)end calculus for bimodules,
windowed derived tensor/Hom with the natural t-structure, base change along
dg-ring morphisms, and the square-zero deformation pipeline, all backed by
construction-time invariant checks.
"""

__version__ = "0.1.0"

from .fields import QQ, GF, Field, field_from_spec
from .matrix import Mat
from .complexes import (
    ChainMap,
    CohomologyReport,
    Complex,
    GradedSpace,
    direct_sum,
    hom_complex,
    shift_complex,
    truncate_ge,
    truncate_le,
)
from .dgring import (
    DgIdeal,
    DgRing,
    DgRingMorphism,
    check_setup_assumptions,
    ideal_power,
    make_dual_numbers,
    quotient,
)
from .dgcat import (
    DgCategory,
    DgFunctor,
    H0Category,
    h0_category,
    one_object_category,
    opposite,
    tensor_cat,
    truncate_cat,
)
from .bimodules import (
    Bimodule,
    Module,
    ModuleMap,
    coend_of,
    compose_bimodules,
    dual_of,
    end_of,
    find_quasi_representative,
    module_hom_complex,
    restrict_bimodule,
)
from .derived import (
    DegreeWindow,
    WindowedResolution,
    derived_hom,
    derived_tensor,
    tstruct_truncate,
)
from .changeofrings import (
    coextension_adjunction_check,
    extend_scalars_cat,
    extension_adjunction_check,
    heart_coextension_check,
    restrict_category,
    restrict_ring_module,
    s_vs_r_module_comparison,
    transitivity_check,
)
from .deform import (
    DeformationReport,
    FactorizationChain,
    check_hlc,
    deform_category,
    factorize,
    ideal_as_S_module,
)
from .scenario import Scenario, load_scenario
from .verdict import Verdict, passes, render, unchecked

__all__ = [
    "QQ", "GF", "Field", "field_from_spec",
    "Mat",
    "Complex", "ChainMap", "CohomologyReport", "GradedSpace",
    "direct_sum", "hom_complex", "shift_complex",
    "truncate_ge", "truncate_le",
    "DgRing", "DgRingMorphism", "DgIdeal",
    "make_dual_numbers", "ideal_power", "quotient", "check_setup_assumptions",
    "DgCategory", "DgFunctor", "H0Category",
    "truncate_cat", "h0_category", "opposite", "tensor_cat",
    "one_object_category",
    "Module", "ModuleMap", "Bimodule",
    "end_of", "coend_of", "compose_bimodules", "dual_of",
    "find_quasi_representative", "restrict_bimodule", "module_hom_complex",
    "DegreeWindow", "WindowedResolution",
    "derived_tensor", "derived_hom", "tstruct_truncate",
    "restrict_category", "restrict_ring_module", "extend_scalars_cat",
    "extension_adjunction_check", "coextension_adjunction_check",
    "transitivity_check", "s_vs_r_module_comparison", "heart_coextension_check",
    "factorize", "ideal_as_S_module", "deform_category", "check_hlc",
    "FactorizationChain", "DeformationReport",
    "Scenario", "load_scenario",
    "Verdict", "passes", "render", "unchecked",
    "__version__",
]
