"""Exact cochain-model computations for torus bundles with 3-form flux.

The package decides when a bundle-with-flux admits a dual, constructs the
correspondence triple witnessing the duality, classifies the choices, and
verifies the induced isomorphism on rational twisted cohomology -- all by
exact integer linear algebra on finite cochain models.
"""

from .errors import (
    InputError,
    ModelError,
    NotDualizableError,
    SchemaError,
    TdkError,
    TripleMismatchError,
    UnsupportedElementError,
)
from .exact_linalg import (
    FgAbelianGroup,
    GroupHom,
    Kernel,
    SmithForm,
    Subquotient,
    cokernel,
    kernel,
    smith_normal_form,
    solve,
    subquotient,
)
from .space_model import (
    Cocycle,
    DgRingModel,
    SimplicialComplex,
    builtin_space,
    cohomology_ring,
    parse_space,
    product_model,
)
from .torus_bundle import (
    BundleModel,
    ChernVector,
    FiltrationReport,
    SSPage,
    build_bundle,
)
from .tduality_core import (
    ExtensionReport,
    Pair,
    Triple,
    TripleReport,
    dualize,
    extension_report,
    extract_dual_chern,
    gauge_action,
    gauge_shift,
    h3_action,
    is_dualizable,
    torsor_difference,
    validate_triple,
)
from .duality_group import (
    OnnElement,
    act_on_chern,
    act_on_triple,
    flip_element,
    generators,
    gl_element,
    is_onn,
    q_value,
    shear_element,
)
from .twisted_cohomology import (
    IsoReport,
    TMap,
    TwistedComplex,
    t_transform,
    twisted_dims,
    verify_iso,
)

__version__ = "0.1.0"
