"""Exact cochain-model computations for torus bundles with 3-form flux.

The package decides when a bundle-with-flux admits a dual, constructs the
correspondence triple witnessing the duality, classifies the choices, and
verifies the induced isomorphism on rational twisted cohomology -- all by
exact integer linear algebra on finite cochain models.

The names below, and the submodules that define them, are imported on first
access (PEP 562): ``import tdk`` loads no submodule, so a verb pays only for
the modules it uses.
"""

from importlib import import_module as _import_module

# submodule -> the public names it defines
_MODULES = {
    "errors": """InputError ModelError NotDualizableError SchemaError TdkError
        TripleMismatchError UnsupportedElementError""",
    "exact_linalg": """FgAbelianGroup GroupHom SmithForm Subquotient smith_normal_form solve
        subquotient""",
    "space_model": """Cocycle DgRingModel SimplicialComplex builtin_space cohomology_ring
        parse_space product_model""",
    "torus_bundle": "BundleModel FiltrationReport SSPage build_bundle",
    "tduality_core": """ExtensionReport Pair Triple TripleReport dualize extension_report
        extract_dual_chern gauge_action gauge_shift h3_action is_dualizable
        torsor_difference validate_triple""",
    "duality_group": """OnnElement act_on_chern act_on_triple flip_element generators
        gl_element is_onn q_value shear_element""",
    "twisted_cohomology": "IsoReport TMap TwistedComplex t_transform twisted_dims verify_iso",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = [*_EXPORTS, *_MODULES]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here: the name follows its module's binding, as a tracer patches it
    return getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
