"""Character varieties of the groups <x, y | x^m = y^n>.

Exact component enumeration, incidence graph with exact attachment points,
explicit SU(2) representative matrices, and a randomized sampling oracle
that checks the closed-form structure numerically.

The public names below are loaded from their submodules on first access
(PEP 562), so that `import tkchar.cli` loads only what a subcommand uses.
"""

import importlib

# Public names by submodule, as "name name ..." strings.
_EXPORTS = {
    "components": (
        "ComponentId ComponentInfo GroupParams Irr Red attachment count_irr enumerate_irr "
        "enumerate_red joining_component self_loops"
    ),
    "graph": "IncidenceGraph build_graph is_connected json_chunks to_dot to_json to_svg_schematic",
    "reps": (
        "DEFAULT_WORDS Word build_irr build_red_noncoprime character cross_ratio_of_pair "
        "evaluate_word"
    ),
    "roots": "MINUS_ONE ONE RootOfUnity root",
    "su2": (
        "DEFAULT_TOL DegenerateError ProjectivePoint UnitaryMatrix conjugate_by cross_ratio "
        "eigen_decompose from_quaternion is_reducible_pair mat_pow polar trace"
    ),
    "verify": (
        "AmbiguousDecodeError ClassifiedPoint SampleConfig Summary canonical_red_angle classify "
        "empirical_structure find_conjugator sample_pair summary_chunks summary_to_json"
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
