"""Effective good divisibility of rational homogeneous varieties.

Exact Weyl group combinatorics for all finite types: Bruhat order,
parabolic quotients, degree sweeps for effective good divisibility,
maximal disjoint Schubert pairs with type-D pullback classification,
and a constancy test for morphisms between marked diagrams.

Every name below is imported from its module on first access (PEP 562),
so ``import egd`` loads no module and ``import egd.cli`` only the ones a
command runs.
"""

_EXPORTS = {
    "bruhat": (
        "bruhat_leq",
        "elements_of_length",
        "quotient_dimension",
        "quotient_elements_of_length",
        "subword_oracle",
    ),
    "dynkin": ("DynkinSpec", "group_order", "is_proper_subdiagram", "parabolic_order"),
    "engine": (
        "EdResult",
        "MarkedDiagram",
        "MdPair",
        "MorphismVerdict",
        "classify_md_pairs",
        "closed_form_ed",
        "effective_divisibility",
        "get_context",
        "has_egd_up_to",
        "md_pairs",
        "morphism_constancy",
    ),
    "errors": (
        "BadLetter",
        "ContextMismatch",
        "DegreeOutOfRange",
        "EgdError",
        "EmptyMarkedSet",
        "Infeasible",
        "InvalidRank",
        "LengthOutOfRange",
        "NonReducedInput",
        "NotClassical",
        "NotTypeD",
    ),
    "parabolic": (
        "CodimData",
        "Decomposition",
        "DnDistinguished",
        "codims",
        "decompose",
        "dn_distinguished",
        "is_opposite_pullback",
        "is_schubert_pullback",
        "longest_in_WJ",
        "longest_in_quotient",
        "spinor_coset_words",
        "stumbo_word",
    ),
    "weyl": (
        "WeylElement",
        "WeylGroupContext",
        "Word",
        "build_group",
        "format_word",
        "parse_word",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

# the modules and their exports
__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__() -> list[str]:
    return __all__
