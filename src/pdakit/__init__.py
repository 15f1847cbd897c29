"""Placement delivery arrays: construction, verification, lifting, simulation.

A placement delivery array encodes a whole coded-caching scheme in one grid:
stars mark cached subfiles, equal integer labels mark subfiles served by one
XOR transmission.  This package generates the standard families, checks the
defining conditions and the Blackburn-compatibility notions between arrays,
composes arrays through uniform and non-uniform lifting, reproduces the
rate-memory-subpacketization tradeoff tables through an exact rational
parameter calculus, and executes any valid array as a byte-level caching
round.
"""

# Each public name's module.  PEP 562's module __getattr__ imports it on
# first use, so ``from pdakit import X`` loads only X's module and a command
# line run loads only what its subcommand needs.
_EXPORTS = {
    "compatibility": """CompatReport CompatWitness GenFamily check_condition_cstar
        is_blackburn_compatible is_generalized_family is_left_compatible is_right_compatible""",
    "constructions": """OddTilingFamily all_star filled g_array h_array identity mn mn_reverse
        odd_tiling shangguan_direct yan_half_memory""",
    "core": """Pda PdaParams ValidationReport Violation canonicalize disjoint_copy hstack params
        relabel validate vstack""",
    "errors": "CompatibilityError DecodeError GridParseError InvalidPdaError LiftError PdaError",
    "gridio": "parse_grid pda_from_json pda_to_json serialize_grid",
    "lifting": """LiftOutcome ParamTuple assemble_identity_lift basic_lift lift_family
        lift_family_params lifted_params measure_family mn_recursive nonuniform_lift
        odd_tiling_lift shangguan_recursive uniform_lift""",
    "simulate": "Library RunReport Transmission decode deliver make_library place run",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or one of the submodules above, imported on first use."""
    if name not in _MODULE_OF and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_MODULE_OF.get(name, name)}")
    return module if name in _EXPORTS else getattr(module, name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
