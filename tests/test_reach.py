"""Reach guards.

Only what a command reaches stays in the package.  A definition is a
function or method of a package module, nested ones included, a class, or a
name that a module assigns at its top level.  Reach is read from a trace:
one fresh interpreter runs a fixed corpus of command lines through
``cli.run`` under ``sys.setprofile`` (``tests/reach_trace.py``) and records
what ran.  The corpus is every invocation of the benchmark's workloads, read
from ``perfbench/workloads.py`` at the benchmark's default 20 samples and
seed 0, and the failing, bad-input and option-passing invocations that
``tests/test_cli.py`` makes; each must exit as there.  The process is fresh
because a warm ``lru_cache`` answers without calling what it caches.

- A function or method is reached when its code runs.
- A class is reached when it is instantiated (a constructor named
  ``__init__``, generated for a dataclass or written out, runs on an
  instance of it or of a subclass), when one of its methods runs, or when a
  function that ran reads its name, as for any module-level name.
- A module-level name is reached when a function that ran reads it: as a
  global of its module, imported from the module that assigns it, or as an
  attribute of that module (``rat.rref``).  Module and class bodies run at
  every import, so what only they read is not reached.
- Dunder definitions are not reported: the interpreter calls them, so those
  of a reached class are reached with it, and those of an unreached one go
  with their class.

A name that reached code uses for another object, as a local variable or an
attribute, reaches nothing.  Every definition the trace does not reach is
named in ``ALLOWED`` with the reason it stays, and what an allowed
definition encloses (a class's members, a function's inner functions) is
allowed with it.  An allowed definition is no root: what only it calls is
not reached either, and stays only if it is allowed too.  Test code is no
caller: a definition that only tests call belongs in ``tests/helpers.py``.

Every optional parameter of a package function, method or class constructor
is passed by some call in the package or in ``perfbench/``, or is named in
``UNPASSED_ALLOWED`` with the reason it stays: an option that no command
sets is a constant, or a seam that only tests use.  The other way round, an
optional parameter that every call in the package and the tests passes is a
required one written as an option, unless ``ALWAYS_PASSED_ALLOWED`` names
it.  Calls are matched by the callee's name.

Every top-level import of a package module is used by that module's code,
or listed in its ``__all__``: a name that only a docstring or comment
mentions is no use.
"""

import ast
import json
import os
import runpy
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import test_cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diracpairs"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"

# The benchmark's default round (perfbench/run.py): 20 samples, seed 0.
SAMPLES, SEED = 20, 0

_COMPOSITION = "composition of Courant morphisms, with its identity morphism"
_REDUCTION = "the reduction procedure: orbit description and reduction"
_DICTIONARY = "the dictionary's backward transport and its predicates on a fiber"

# Definitions that no command reaches, each with the reason it stays: paper
# constructions that a scene kind or example can wire in, Fraction forms
# that tests and the benchmark read, and entry and failure paths that the
# corpus does not run.
ALLOWED = {
    "morphism.compose_morphisms": _COMPOSITION,
    "morphism.identity_morphism": _COMPOSITION,
    "morphism.graph_morphism": _COMPOSITION,
    "exact_linear.LinearRelation.from_matrix": _COMPOSITION,
    "exact_linear.compose": _COMPOSITION,
    "reduction.OrbitDescription": _REDUCTION,
    "reduction.reduce_to_orbit": _REDUCTION,
    "dictionary.backward_dirac": _DICTIONARY,
    "dictionary.dirac_is_form_graph": _DICTIONARY,
    "dictionary.k_spans_tangents": _DICTIONARY,
    "dictionary.quasi_spans_tangents": _DICTIONARY,
    "rational.rref": (
        "the Fraction boundary of the integer row reduction, which the tests compare with "
        "their references and the benchmark traces"
    ),
    "rational.mat_vec": (
        "the Fraction boundary of one matrix-vector product, which the tests read and the "
        "benchmark traces"
    ),
    "rational.rationalize": (
        "the Fraction form of the float gate, which shares its rounding with the integer form, "
        "and which the tests read and the benchmark traces"
    ),
    "exact_linear.SplitForm.pairing": (
        "bound only by the benchmark's TARGETS; it goes with that list's next change"
    ),
    "cli.main": "the console entry point, which runs cli.run on the process arguments",
}

# Optional parameters that no command passes but that stay, each with the
# reason it stays.
UNPASSED_ALLOWED = {
    "numeric_manifold.make_standard_twisted.check_closed": (
        "negative controls build a bundle with a non-closed or NaN twist on purpose"
    ),
    "numeric_manifold.check_quasi_poisson.funcs": (
        "tests probe the identities with other observables, such as the group trace"
    ),
    "reduction.PointFiber.dj": (
        "the base differential that conservation reads; its negative control sets it"
    ),
    "reduction.reduce_to_orbit.action_field": (
        "the tangency probe of the allowlisted reduction"
    ),
}

# Optional parameters that every call passes but that stay optional, each
# with the reason it stays.
ALWAYS_PASSED_ALLOWED = {}


def _is_dunder(key):
    name = key.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def definitions(package):
    """``{key: (kind, file name, first line)}`` over the modules of the
    package directory ``package``.  ``key`` is ``module.name``,
    ``module.Class.member`` or ``module.function.inner``; ``kind`` is
    ``function``, ``class`` or ``name``; the first line, that of a
    function's first decorator if it has one, is None but for functions."""
    found = {}

    def visit(prefix, nodes, file):
        for node in nodes:
            if isinstance(node, ast.FunctionDef):
                key = f"{prefix}.{node.name}"
                found[key] = ("function", file, min(n.lineno for n in [node, *node.decorator_list]))
                visit(key, node.body, file)
            elif isinstance(node, ast.ClassDef):
                found[f"{prefix}.{node.name}"] = ("class", file, None)
                visit(f"{prefix}.{node.name}", node.body, file)
            elif isinstance(node, ast.Assign):
                if "." in prefix:
                    continue
                for target in node.targets:
                    for name in getattr(target, "elts", [target]):
                        if isinstance(name, ast.Name):
                            found[f"{prefix}.{name.id}"] = ("name", file, None)
            else:
                children = ast.iter_child_nodes(node)
                visit(prefix, [c for c in children if isinstance(c, (ast.stmt, ast.excepthandler))], file)

    for path in sorted(package.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()).body, path.name)
    return found


def trace(package, corpus, tmp, cwd):
    """Run ``corpus``, a list of ``(argv, exit code)``, through the ``cli.run``
    of the package directory ``package`` in one fresh traced interpreter
    started in ``cwd``, check each exit code, and return what ran (the
    object ``tests/reach_trace.py`` writes)."""
    result = tmp / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    proc = subprocess.run(
        [sys.executable, str(TESTS / "reach_trace.py"), package.name, str(result)],
        input=json.dumps([argv for argv, _ in corpus]),
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ran = json.loads(result.read_text())
    wrong = [(argv, code, got) for (argv, code), got in zip(corpus, ran["codes"]) if got != code]
    assert wrong == []
    return ran


def untraced(package, ran):
    """Definitions of the package directory ``package`` that the trace
    ``ran`` did not reach, as sorted keys; dunder definitions are left
    out."""
    found = definitions(package)
    calls = {tuple(c) for c in ran["calls"]}
    reached = {
        key for key, (_, file, line) in found.items() if (file, line, key.rsplit(".", 1)[-1]) in calls
    }
    reached |= {key.rsplit(".", 1)[0] for key in reached}  # a class whose method ran
    reached |= set(ran["instances"])
    # a read reaches a class or a name; a function must run
    reached |= {key for key in ran["reads"] if key in found and found[key][0] != "function"}
    return sorted(key for key in found if key not in reached and not _is_dunder(key))


def unexplained(keys, allowed):
    """``keys`` that ``allowed`` names neither directly nor through a
    definition that encloses them."""
    return [k for k in keys if not any(k == a or k.startswith(f"{a}.") for a in allowed)]


def command_corpus(tmp):
    """``(argv, exit code)`` of each invocation of the corpus; the inputs
    that ``tests/test_cli.py`` writes to a file are written under ``tmp``."""
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    corpus = [
        (argv, code)
        for workload in workloads["WHY"]
        for _, argv, code in workloads["invocations"](workload, SAMPLES, SEED)
    ]

    def written(name, text):
        (tmp / name).write_text(text, encoding="utf-8")
        return str(tmp / name)

    fixtures = test_cli.FIXTURES
    scene = written("tilted.mp", test_cli.TILTED_SCENE)
    corpus += [(["check", scene], 1), (["check", "--json", scene], 1)]
    corpus += [(["check", str(tmp / "missing.mp")], 2)]
    corpus += [(["check", written("bent.mp", test_cli.NOT_AD_INVARIANT)], 1)]
    corpus += [(["check", written("bent-pair.mp", test_cli.PAIR_ON_BENT)], 2)]
    for i, (text, _) in enumerate(test_cli.NON_ASCII_DIGITS + test_cli.LONG_INTEGERS):
        corpus.append((["check", written(f"bad-{i}.mp", text)], 2))
    corpus.append((["check", "--json", written("tiny-step.mp", test_cli.TINY_STEP_SCENE)], 2))
    corpus.append((["check", "--json", written("overflow.mp", test_cli.OVERFLOW_STEP_SCENE)], 1))
    corpus.append((["check", "--quiet", str(fixtures / "minimal-abelian.mp")], 0))

    def dict_call(mode, path, code, *flags):
        corpus.append((["dict", "--mode", mode, *flags, "--fiber", str(path)], code))

    for i, text in enumerate(test_cli.LONG_NUMBERS):
        dict_call("qp-to-dirac", written(f"long-{i}.json", text), 2)
    for i, (mode, record, _) in enumerate(test_cli.MALFORMED_RECORDS):
        dict_call(mode, written(f"malformed-{i}.json", json.dumps(record)), 2, "--json")
    point = written("point.json", json.dumps(test_cli.ACTION_ON_A_POINT))
    dict_call("qp-to-dirac", point, 1)
    dict_call("roundtrip", point, 1)
    dict_call("qp-to-dirac", written("not-antisymmetric.json", json.dumps(test_cli.NOT_ANTISYMMETRIC)), 1)
    # text output, where the workloads ask for JSON
    dict_call("qp-to-dirac", fixtures / "planar-quasi.json", 0)
    dict_call("dirac-to-qp", fixtures / "covector-dirac.json", 0)
    dict_call("roundtrip", fixtures / "planar-quasi.json", 0)
    dict_call("qp-to-dirac", fixtures / "action-quasi.json", 1)
    dict_call("dirac-to-qp", fixtures / "tangent-dirac.json", 1)
    dict_call("roundtrip", fixtures / "bad-kind.json", 2)
    dict_call("roundtrip", fixtures / "garbage.json", 2)

    example = ["verify-example"]
    corpus += [
        (example + ["planar_symplectic_reduction", "--samples", "4", "--seed", "1"], 0),
        (example + ["rotation_quasi_poisson", "--json", "--samples", "2", "--seed", "3", "--tol", "1e-4"], 0),
        (example + ["flat_twisted_axioms", "--samples", "2", "--fd-step", "1e200", "--json"], 1),
        (example + ["no_such_example"], 2),
    ]
    corpus += [(example + [name, flag, value], 2) for name, flag, value, _ in test_cli.BAD_ARGUMENTS]
    corpus += list(zip(test_cli.REUSE_SEQUENCE, test_cli.REUSE_EXITS))
    return corpus


@pytest.fixture(scope="module")
def package_untraced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    return untraced(PACKAGE, trace(PACKAGE, command_corpus(tmp), tmp, ROOT))


def package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def command_callers():
    """Source texts of the code outside the package that runs commands."""
    return [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]


def test_every_package_definition_is_reached_or_allowed(package_untraced):
    assert unexplained(package_untraced, ALLOWED) == []


def test_the_allowlist_names_only_unreached_definitions(package_untraced):
    # a construction that gets wired in leaves the list
    assert sorted(ALLOWED.keys() - set(package_untraced)) == []


def test_every_allowlist_entry_states_its_reason():
    for allowlist in (ALLOWED, UNPASSED_ALLOWED, ALWAYS_PASSED_ALLOWED):
        assert all(isinstance(r, str) and r.strip() for r in allowlist.values())


def test_the_package_exports_every_module_lazily():
    # a fresh interpreter has imported no submodule, so each attribute goes
    # through the package's lazy ``__getattr__``, which reads ``__all__``
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    code = (
        "import diracpairs\n"
        "print(sorted(diracpairs.__all__))\n"
        "print([getattr(diracpairs, m).__name__ for m in sorted(diracpairs.__all__)])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [repr(modules), repr([f"diracpairs.{m}" for m in modules])]


def _untraced(tmp_path, modules):
    """What a trace of one empty command line leaves unreached in a package
    ``pkg`` of ``modules`` (module name -> source text) written under
    ``tmp_path``; its ``cli.run`` must return 0."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name, text in modules.items():
        (package / f"{name}.py").write_text(text)
    return untraced(package, trace(package, [([], 0)], tmp_path, tmp_path))


def test_the_trace_finds_an_unused_definition(tmp_path):
    modules = {
        "cli": (
            "from . import b\nfrom .a import used\n\n\n"
            "def run(argv, out, err):\n    used()\n    b.SCALE\n    return 0\n"
        ),
        "a": (
            "LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
            "SPARE = LIMIT + 1\n"
        ),
        "b": "SCALE = 2\n\n\nclass Orphan:\n    pass\n",
    }
    # SPARE is read only by the module body, at import
    assert _untraced(tmp_path, modules) == ["a.SPARE", "a.recursive", "b.Orphan"]


def test_the_trace_finds_an_unused_method(tmp_path):
    modules = {
        "cli": (
            "from .a import MAKERS, Box\n\n\n"
            "def run(argv, out, err):\n    return Box(1).size - MAKERS['point'](1).x\n"
        ),
        "a": (
            "from dataclasses import dataclass\n\n\n"
            "class Box:\n"
            "    def __init__(self, n):\n        self.n = self._checked(n)\n\n"
            "    def _checked(self, n):\n        return n\n\n"
            "    @property\n    def size(self):\n        return self.n\n\n"
            "    def unused(self):\n        return self.helper()\n\n"
            "    def helper(self):\n        return 0\n\n\n"
            "@dataclass(frozen=True)\nclass Point:\n    x: int\n\n\n"
            "MAKERS = {'point': Point}\n\n\n"
            "@dataclass(frozen=True)\nclass Idle:\n    x: int\n\n\n"
            "class Unreached:\n"
            "    def __call__(self):\n        return self.n\n"
        ),
    }
    # Box's __init__ runs and calls _checked; only the module body reads
    # Point, which its generated constructor reaches
    assert _untraced(tmp_path, modules) == [
        "a.Box.helper", "a.Box.unused", "a.Idle", "a.Unreached",
    ]


def test_what_only_an_allowed_definition_uses_is_not_allowed(tmp_path):
    modules = {
        "cli": "def run(argv, out, err):\n    return 0\n",
        "a": (
            "def construction():\n    return Step().apply()\n\n\n"
            "class Step:\n    def apply(self):\n        return 1\n\n\n"
            "class Kept:\n    def member(self):\n        return 2\n"
        ),
    }
    found = _untraced(tmp_path, modules)
    assert found == ["a.Kept", "a.Kept.member", "a.Step", "a.Step.apply", "a.construction"]
    allowed = {"a.construction": "a construction", "a.Kept": "a construction"}
    assert unexplained(found, allowed) == ["a.Step", "a.Step.apply"]


def test_a_definition_only_a_test_calls_is_unreached(tmp_path):
    modules = {
        "cli": "from .a import used\n\n\ndef run(argv, out, err):\n    return used()\n",
        "a": "def used():\n    return 0\n\n\ndef for_tests():\n    return 1\n",
    }
    # a test calls it, but the trace runs commands only
    (tmp_path / "test_a.py").write_text("from pkg.a import for_tests\n\n\nassert for_tests() == 1\n")
    assert _untraced(tmp_path, modules) == ["a.for_tests"]


def test_a_name_reached_code_uses_for_another_object_is_unreached(tmp_path):
    # the reached constructor binds a local and an attribute named like two
    # definitions that nothing calls; a scan of identifiers counts both used
    modules = {
        "cli": "from .a import Ident\n\n\ndef run(argv, out, err):\n    return Ident([1, 2]).rank - 2\n",
        "a": (
            "def rank(rows):\n    return len(rows)\n\n\n"
            "class Ident:\n"
            "    def __init__(self, rho):\n"
            "        s_star = [-x for x in rho]\n        self.rank = len(s_star)\n\n"
            "    @property\n    def s_star(self):\n        return [-x for x in self.rho]\n"
        ),
    }
    assert _untraced(tmp_path, modules) == ["a.Ident.s_star", "a.rank"]


def _exported(tree):
    """The names a module's top-level ``__all__`` lists."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return names


def unused_imports(sources):
    """Names that a top-level import of ``sources`` (module name -> source
    text) binds and that the module neither uses nor lists in ``__all__``,
    as sorted ``module.name`` strings.  ``from __future__`` imports bind
    no name."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{module}.{name}")
    return sorted(found)


def test_every_package_import_is_used():
    assert unused_imports(package_sources()) == []


def test_the_scan_finds_an_unused_import():
    sources = {
        "a": (
            "from __future__ import annotations\n\n"
            "import math\nimport os\nimport xml.dom\n"
            "from functools import partial, reduce\n"
            "from .b import Error, helper\n"
            "from .c import tool as kit\n\n"
            "__all__ = ['helper']\n\n\n"
            "def f(x):\n"
            "    \"\"\"Raises `Error` through `reduce`.\"\"\"\n"
            "    return partial(math.floor, x), xml.dom, x.kit\n"
        ),
    }
    # a docstring mention or an attribute of the same name is no use
    assert unused_imports(sources) == ["a.Error", "a.kit", "a.os", "a.reduce"]


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _parameters(args, skip_first):
    """Positional parameter names and the optional parameter names of a
    signature; ``skip_first`` drops ``self`` or ``cls``."""
    positional = [a.arg for a in args.posonlyargs + args.args][1 if skip_first else 0 :]
    optional = positional[len(positional) - len(args.defaults) :] if args.defaults else []
    optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, optional


def _is_dataclass(node, classes):
    decorated = any(_callee(getattr(d, "func", d)) == "dataclass" for d in node.decorator_list)
    bases = [classes[b.id] for b in node.bases if isinstance(b, ast.Name) and b.id in classes]
    return decorated or any(_is_dataclass(b, classes) for b in bases)


def _fields(node, classes):
    """(name, optional) for each constructor field of a dataclass,
    inherited fields of classes in the same module first."""
    fields = []
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            fields += _fields(classes[base.id], classes)
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        optional = stmt.value is not None
        if isinstance(stmt.value, ast.Call) and _callee(stmt.value.func) == "field":
            keywords = {k.arg: k.value for k in stmt.value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            optional = "default" in keywords or "default_factory" in keywords
        fields.append((stmt.target.id, optional))
    return fields


def _signatures(module, tree):
    """(name calls use, owner, positional parameters, optional parameters)
    for each function, method and class constructor of a module."""
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, f"{module}.{node.name}", *_parameters(node.args, False)))
            continue
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_dataclass(node, classes):
            fields = _fields(node, classes)
            optional = [name for name, opt in fields if opt]
            out.append((node.name, f"{module}.{node.name}", [name for name, _ in fields], optional))
        for sub in node.body:
            if not isinstance(sub, ast.FunctionDef):
                continue
            static = any(_callee(d) == "staticmethod" for d in sub.decorator_list)
            positional, optional = _parameters(sub.args, not static)
            if sub.name == "__init__":
                out.append((node.name, f"{module}.{node.name}", positional, optional))
            else:
                out.append((sub.name, f"{module}.{node.name}.{sub.name}", positional, optional))
    return out


def _calls(trees, callers):
    """Calls in ``trees`` and in ``callers`` (source texts), by callee name."""
    calls = defaultdict(list)
    for tree in [*trees, *(ast.parse(text) for text in callers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node.func):
                calls[_callee(node.func)].append(node)
    return calls


def _passes(call, positional, name):
    """Whether ``call`` passes the parameter ``name``: by keyword, by
    position, or by ``*``/``**`` unpacking."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return name in positional and len(call.args) > positional.index(name)


def _options(sources, callers):
    """``(module.callable.parameter, parameter, calls that pass it, calls)``
    for each optional parameter of the package ``sources`` (module name ->
    source text), over the calls in the package and in ``callers``; calling
    a class calls its constructor."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = _calls(trees.values(), callers)
    for module, tree in trees.items():
        for name, owner, positional, optional in _signatures(module, tree):
            for param in optional:
                passing = [c for c in calls[name] if _passes(c, positional, param)]
                yield f"{owner}.{param}", param, len(passing), len(calls[name])


def unpassed_options(sources, callers):
    """Optional parameters that no call passes, as sorted
    ``module.callable.parameter`` strings."""
    return sorted(full for full, _, passing, _ in _options(sources, callers) if not passing)


def always_passed_options(sources, callers):
    """Optional parameters that some call passes and every call passes, as
    sorted ``module.callable.parameter`` strings: required arguments
    written as options."""
    return sorted(
        full for full, _, passing, total in _options(sources, callers) if passing == total > 0
    )


def test_every_optional_parameter_is_passed_or_allowed():
    # an allowed option that a command starts to pass leaves the list
    found = unpassed_options(package_sources(), command_callers())
    assert set(found) == UNPASSED_ALLOWED.keys()


def test_an_option_only_a_test_passes_is_unpassed():
    sources = {
        "a": "def f(x, seam=None, used=1):\n    return x\n",
        "cli": "from .a import f\n\n\ndef run():\n    return f(0, used=2)\n",
    }
    test_text = "f(1, seam=lambda y: y)\n"
    assert unpassed_options(sources, [test_text]) == []
    # the package test reads only perfbench/ besides the package
    assert unpassed_options(sources, []) == ["a.f.seam"]


def test_every_always_passed_parameter_is_required_or_allowed():
    # an allowed option that a call starts to leave at its default leaves the list
    callers = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    found = always_passed_options(package_sources(), callers)
    assert set(found) == ALWAYS_PASSED_ALLOWED.keys()


def test_the_scan_finds_an_unpassed_option():
    sources = {
        "a": (
            "def f(x, used=1, unused=2, h=3):\n    return x\n\n\n"
            "def g(x, y=0, *, z=1):\n    return x\n\n\n"
            "@dataclass\nclass C:\n    x: int\n    y: int = 0\n"
            "    z: int = field(default=1)\n    w: int = field(init=False, default=0)\n\n\n"
            "@dataclass\nclass D(C):\n    v: int = 0\n\n\n"
            "class K:\n    def __init__(self, a, b=1):\n        self.a = a\n\n"
            "    def m(self, c=0):\n        return c\n"
        ),
        "b": "from .a import C, D, K, f, g\n\n\ndef run(args, kw):\n    return g(*args), D(1, **kw)\n",
    }
    callers = ["f(1, 2)\nC(1, y=2)\nK(1, 2)\nK(1).m()\n"]
    assert unpassed_options(sources, callers) == ["a.C.z", "a.K.m.c", "a.f.h", "a.f.unused"]
    assert unpassed_options(sources, []) == [
        "a.C.y", "a.C.z", "a.K.b", "a.K.m.c", "a.f.h", "a.f.unused", "a.f.used",
    ]


def test_a_tolerance_left_at_its_default_is_unpassed():
    # a check whose gate no call sets runs at a tolerance nobody asked for
    sources = {
        "a": "def f(x, tol=1e-6):\n    return x < tol\n",
        "cli": "from .a import f\n\n\ndef run():\n    return f(1)\n",
    }
    assert unpassed_options(sources, []) == ["a.f.tol"]


def test_the_scan_finds_an_always_passed_option():
    sources = {
        "a": (
            "def f(x, always=1, sometimes=2, h=3):\n    return x\n\n\n"
            "def never_called(x, y=0):\n    return x\n\n\n"
            "@dataclass\nclass C:\n    x: int\n    y: int = 0\n    z: int = 1\n\n\n"
            "class K:\n    def __init__(self, a, b=1):\n        self.a = a\n\n"
            "    def m(self, c=0):\n        return c\n"
        ),
        "b": "from .a import C, K, f\n\n\ndef run(args):\n    return f(1, 2, h=4), K(*args)\n",
    }
    callers = ["f(1, always=2, sometimes=3, h=4)\nC(1, y=2)\nC(1, 2, z=3)\nK(1).m(5)\n"]
    assert always_passed_options(sources, callers) == ["a.C.y", "a.K.m.c", "a.f.always", "a.f.h"]
    assert always_passed_options(sources, []) == ["a.K.b", "a.f.always", "a.f.h"]
