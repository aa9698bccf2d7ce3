"""Reach guards.

Every top-level definition in the package is used by other package code, or
is named in ``ALLOWED`` with the reason it stays.  A definition that only
tests call belongs in ``tests/helpers.py``.  Uses are found by identifier (a
name or an attribute), so a definition whose name some other code also uses
can hide from the scan; an unused one cannot.

Every optional parameter of a package function, method or class constructor
is passed by some call in the package or the tests, or is named in
``UNPASSED_ALLOWED``: an option that every caller leaves at its default is a
constant.  The other way round, an optional parameter that every call passes
is a required one written as an option, unless ``ALWAYS_PASSED_ALLOWED``
names it.  Calls are matched by the callee's name, in the same way.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracpairs"
TESTS = Path(__file__).resolve().parent

# Paper constructions that no command reaches yet; they stay in the package
# so that a scene kind or example can wire them in.
ALLOWED = {
    # composition of Courant morphisms, with its identity morphism
    "morphism.compose_morphisms",
    "morphism.identity_morphism",
    # the reduction procedure: orbit description and reduction
    "reduction.OrbitDescription",
    "reduction.reduce_to_orbit",
    # the dictionary's bivector of a Lagrangian that names the broken
    # transversality condition, its backward transport and its predicates
    # on a fiber
    "dictionary.backward_dirac",
    "dictionary.dirac_is_form_graph",
    "dictionary.k_spans_tangents",
    "dictionary.pi_from_dirac",
    "dictionary.quasi_spans_tangents",
}


# Every check takes the finite-difference step ``h`` and the gate ``tol``,
# passed or not, so those two names are not scanned.
EXEMPT_PARAMETERS = {"h", "tol"}

# Optional parameters that no call passes but that stay, each with the
# reason it stays.
UNPASSED_ALLOWED = set()

# Optional parameters that every call passes but that stay optional, each
# with the reason it stays.
ALWAYS_PASSED_ALLOWED = set()


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
    ``module.callable.parameter`` strings.  ``EXEMPT_PARAMETERS`` are not
    scanned."""
    return sorted(
        full
        for full, param, passing, _ in _options(sources, callers)
        if not passing and param not in EXEMPT_PARAMETERS
    )


def always_passed_options(sources, callers):
    """Optional parameters that some call passes and every call passes, as
    sorted ``module.callable.parameter`` strings: required arguments
    written as options."""
    return sorted(
        full for full, _, passing, total in _options(sources, callers) if passing == total > 0
    )


def test_every_optional_parameter_is_passed_or_allowed():
    # an allowed option that a call starts to pass leaves the list
    callers = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    assert set(unpassed_options(package_sources(), callers)) == UNPASSED_ALLOWED


def test_every_always_passed_parameter_is_required_or_allowed():
    # an allowed option that a call starts to leave at its default leaves the list
    callers = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    assert set(always_passed_options(package_sources(), callers)) == ALWAYS_PASSED_ALLOWED


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
    assert unpassed_options(sources, callers) == ["a.C.z", "a.K.m.c", "a.f.unused"]
    assert unpassed_options(sources, []) == [
        "a.C.y", "a.C.z", "a.K.b", "a.K.m.c", "a.f.unused", "a.f.used",
    ]


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
