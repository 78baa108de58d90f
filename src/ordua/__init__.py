"""Exact computation with finite ordered structures: filter spectra,
Priestley-style dualities, and free/completion constructions.

The namespace is lazy (PEP 562): ``import ordua`` runs no submodule, and a
public name imports its module on first read, so a command compiles only
the layers it uses."""

# submodule -> the public names read from it
_EXPORTS = {
    "errors": (
        "AntisymmetryViolation", "CarrierMismatch", "CarrierTooLarge",
        "DuplicateLabel", "InputFormatError", "KindHintMismatch", "KindMismatch",
        "NotAFilterImage", "NotInjective", "NotPriestley", "NotT0",
        "OracleBoundExceeded", "OrduaError", "UnknownLabel",
    ),
    "structures": (
        "DEFAULT_ENUMERATION_BOUND", "KIND_RANK", "KINDS", "MORPHISM_KINDS",
        "Poset", "SetFamily", "Structure", "StructureMorphism", "Subset",
        "canonical_form", "chain_structure", "classify", "compose",
        "disjunctive_filters", "disjunctively_compact_elements",
        "enumerate_homomorphisms", "filters", "inclusion_rows",
        "indecomposable_elements", "is_coherent_poset", "is_flat_map",
        "is_homomorphism", "order_isomorphism", "prime_filters",
        "structure_isomorphism", "validate_poset",
    ),
    "setlattices": ("powerset_structure", "structure_from_closed_masks"),
    "spaces": (
        "FiniteSpace", "Preorder", "PreorderedSpace", "PriestleyReport",
        "alexandrov_space", "check_frame_pullback", "check_patch_characterization",
        "generate_topology", "patch_space", "preorder_coreflection",
        "priestley_boolean_algebra", "priestley_check", "specialization_preorder",
        "upper_open_reduct", "weakly_indecomposable_clopen_uppers",
    ),
    "spectra": ("Spectrum", "inverse_image_map", "spectrum"),
    "dualities": (
        "DUALITY_KINDS", "DualityResult", "SpaceMap", "coherent_of_priestley",
        "ddlat_spectrum", "dlat_of_priestley", "dual_morphism",
        "extended_image_check", "msl_spectrum", "poset_spectrum",
        "priestley_of_coherent", "priestley_of_dlat", "roundtrip_check",
        "spectrum_for", "stone_spectrum", "upper_elements",
    ),
    "free": (
        "FREE_KINDS", "FreeResult", "OracleResult", "free_boolean",
        "free_dlat_on_ddlat", "free_dlat_on_msl", "free_frame_on_poset",
        "frame_supercompacts", "induced_boolean_hom", "is_class_morphism",
        "recognize_free_boolean", "supercompact_elements", "thm22_oracle",
        "universal_property_check",
    ),
}

# public name -> the submodule to import for it (a submodule names itself)
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
