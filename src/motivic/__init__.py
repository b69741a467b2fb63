"""Exact calculus of monodromic motive classes and vanishing cycles.

The package computes, with exact arbitrary-precision arithmetic, in a
finitely presented fragment of the ring of monodromic motive classes over
declared base spaces: half-integer powers of the Tate class, opaque cyclic
cover symbols, and the group ring of principal Z2-bundle classes under the
convolution product.  On top of the ring it mechanizes the standard
singularity pipeline: rational zeta functions from resolution data, nearby
and vanishing cycles, exterior-sum products, quadratic-form twists and
stabilization transport, descent-checked gluing over oriented atlases, and
torus localization, together with an independent arc-space oracle and a
file-driven CLI.

Public names resolve on first access (PEP 562): ``import motivic`` loads no
submodule, so a CLI command loads only the modules it runs.  A name is looked
up in its submodule on every access and never cached here, so a name patched
inside a submodule is what the package hands out too.
"""

import sys as _sys

_EXPORTS = {
    "arcs": ("ArcContext", "MonomialFunction", "arc_class", "zeta_truncated"),
    "bundles": ("BundleClass", "bundle_class", "bundle_pullback",
                "bundle_tensor", "from_square_root", "generator",
                "tensor_square_roots", "trivial"),
    "dcrit": ("Atlas", "CriticalChart", "GlobalMotive", "OverlapDatum",
              "ScissorPiece", "check_orientation", "glue",
              "pushforward_to_point", "validate_atlas"),
    "errors": ("DescentFailure", "DotUndefined", "MissingRestriction",
               "MissingScissorTable", "MissingTransport", "MotivicError",
               "NoUnderlyingClass", "OdotUndecidable", "OrientationMissing",
               "RegistryError", "SpaceMismatch", "UnknownDatum",
               "UnregisteredProduct", "UnsupportedShape", "ValidationFailed",
               "ZeroWeight"),
    "halflaurent": ("HalfLaurent",),
    "localize": ("FixedComponentDatum", "localization_check", "localize_sum",
                 "virtual_index"),
    "motive": ("Motive", "mot_add", "mot_boxdot", "mot_dot", "mot_equal",
               "mot_odot", "pi_forget", "pullback", "pushforward",
               "symbol_motive", "upsilon"),
    "registry": ("POINT", "Morphism", "Product", "Registry", "Space",
                 "Symbol"),
    "stabilize": ("EmbeddingDatum", "QuadraticBundleDatum",
                  "compose_embeddings", "quadratic_form_motive",
                  "stabilize_pullback", "thom_sebastiani",
                  "twist_by_quadratic"),
    "zeta": ("Divisor", "PointTable", "RationalMotive", "ResolutionData",
             "RestrictionTable", "Stratum", "expand_series",
             "inverse_series_constant_term", "milnor_fibre_at",
             "nearby_cycle", "validate_resolution", "vanishing_cycle",
             "zeta_function"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which ``-X importtime`` reports
    # (``importlib.import_module`` bypasses it); importing a submodule also
    # binds it on the package, so a submodule name comes here only once
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    submodule = _sys.modules[qualified]
    return submodule if module == name else getattr(submodule, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
