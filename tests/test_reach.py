"""Reach guard: every top-level definition in the package is used by other
package code, or is named in ``ALLOWED`` with the reason it stays.

A definition that only tests call belongs in ``tests/helpers.py``.  Uses are
found by identifier (a name or an attribute), so a definition whose name
some other code also uses can hide from the scan; an unused one cannot.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracpairs"

# Paper constructions that no command reaches yet; they stay in the package
# so that a scene kind or example can wire them in.
ALLOWED = {
    # composition of Courant morphisms, with its identity and graph morphisms
    "morphism.compose_morphisms",
    "morphism.graph_morphism",
    "morphism.identity_morphism",
    # the reduction procedure: orbit description, reduction, canonical
    # fibers and the admissibility check
    "reduction.OrbitDescription",
    "reduction.admissibility_matches_invariance",
    "reduction.canonical_fibers",
    "reduction.reduce_to_orbit",
    # the dictionary's second routes between the two pictures, and its
    # predicates on a fiber
    "dictionary.backward_dirac",
    "dictionary.dirac_is_form_graph",
    "dictionary.k_spans_tangents",
    "dictionary.l_from_quasi",
    "dictionary.pi_from_dirac",
    "dictionary.quasi_spans_tangents",
    # the inverse of parse_scene
    "scene_dsl.print_scene",
}


def unreached(sources):
    """Top-level definitions of ``sources`` (module name -> source text) that
    no code outside their own body uses, as sorted ``module.name`` strings.
    Dunder definitions are used by the interpreter and are skipped."""
    defined, users = [], defaultdict(set)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{module}.{node.name}"
                if not node.name.startswith("__"):
                    defined.append((node.name, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    users[sub.id].add(owner)
                elif isinstance(sub, ast.Attribute):
                    users[sub.attr].add(owner)
    return sorted(owner for name, owner in defined if not users[name] - {owner})


def package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_package_definition_is_reached_or_allowed():
    assert sorted(set(unreached(package_sources())) - ALLOWED) == []


def test_the_allowlist_names_only_unreached_definitions():
    # a construction that gets wired in leaves the list
    assert sorted(ALLOWED - set(unreached(package_sources()))) == []


def test_the_scan_finds_an_unused_definition():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from .a import used\n\n\nclass Orphan:\n    pass\n\n\ndef run():\n    return used()\n",
    }
    assert unreached(sources) == ["a.recursive", "b.Orphan", "b.run"]
