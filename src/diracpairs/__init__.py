"""diracpairs: exact and numeric calculus for bracket geometry.

Two tiers share one vocabulary.  The exact tier (`exact_linear`,
`quadratic_lie`, `splitting`, `morphism`, `dictionary`) does rational linear
algebra on subspaces, pairings, and relation fibers.  The numeric tier
(`numeric_manifold`, `reduction`, with the rotation chart of `so3`) samples
charts and verifies the bracket axioms and compatibility identities by
finite differences.  Every check in either tier returns a `report.Report`.
`scene_dsl` and `cli` wrap both in a text format and a command line.
"""

__version__ = "0.1.0"

__all__ = [
    "rational",
    "exact_linear",
    "quadratic_lie",
    "splitting",
    "morphism",
    "dictionary",
    "numeric_manifold",
    "reduction",
    "so3",
    "report",
    "scene_dsl",
    "cli",
    "verify",
]


def __getattr__(name):  # pragma: no cover - thin lazy import shim
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
