"""Reach guards.

Only what a command reaches stays in the package.  A definition is a
top-level function, class or assigned name of a package module, or a method
or property of a package class.  It is reached when code reached from
``cli.run`` or ``cli.main`` uses its name, as a name or an attribute, so
reach is transitive; the dunder methods of a reached class are reached with
it, because the interpreter calls them.  Every other definition is named in
``ALLOWED`` with the reason it stays, and the members of an allowed class
are allowed with it.  An allowed definition is no root: what only it uses
is unreached, and stays only if it is allowed too.  Test code is no caller:
a definition that only tests use belongs in ``tests/helpers.py``.  Uses are
found by identifier, so a definition whose name reached code also uses for
another object can hide from the scan; an unused one cannot.

Every optional parameter of a package function, method or class constructor
is passed by some call in the package or in ``perfbench/``, or is named in
``UNPASSED_ALLOWED`` with the reason it stays: an option that no command
sets is a constant, or a seam that only tests use.  The other way round, an
optional parameter that every call in the package and the tests passes is a
required one written as an option, unless ``ALWAYS_PASSED_ALLOWED`` names
it.  Calls are matched by the callee's name, in the same way.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diracpairs"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"

# The command line's entry points.
ROOTS = ("cli.run", "cli.main")

_COMPOSITION = "composition of Courant morphisms, with its identity morphism"
_REDUCTION = "the reduction procedure: orbit description and reduction"
_DICTIONARY = (
    "the dictionary's bivector of a Lagrangian that names the broken "
    "transversality condition, its backward transport and its predicates on a fiber"
)

# Paper constructions that no command reaches yet, each with the reason it
# stays: a scene kind or example can wire it in.
ALLOWED = {
    "morphism.compose_morphisms": _COMPOSITION,
    "morphism.identity_morphism": _COMPOSITION,
    "morphism.graph_morphism": _COMPOSITION,
    "exact_linear.LinearRelation.from_matrix": _COMPOSITION,
    "reduction.OrbitDescription": _REDUCTION,
    "reduction.reduce_to_orbit": _REDUCTION,
    "dictionary.backward_dirac": _DICTIONARY,
    "dictionary.dirac_is_form_graph": _DICTIONARY,
    "dictionary.k_spans_tangents": _DICTIONARY,
    "dictionary.pi_from_dirac": _DICTIONARY,
    "dictionary.quasi_spans_tangents": _DICTIONARY,
}


# Every check takes the finite-difference step ``h`` and the gate ``tol``,
# passed or not, so those two names are not scanned.
EXEMPT_PARAMETERS = {"h", "tol"}

# Optional parameters that no command passes but that stay, each with the
# reason it stays.
UNPASSED_ALLOWED = {
    "dictionary.ExactIdentification.s": (
        "a given splitting of the anchor: tests feed the right-inverse and "
        "isotropy gates one that fails each"
    ),
    "numeric_manifold.make_standard_twisted.check_closed": (
        "negative controls build a bundle with a non-closed or NaN twist on purpose"
    ),
    "numeric_manifold.check_quasi_poisson.funcs": (
        "tests probe the identities with other observables, such as the group trace"
    ),
    "rational.rationalize.max_denominator": (
        "the property test checks the continued fraction at m = 1 and 7"
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


def _uses(nodes):
    """Identifiers used anywhere in ``nodes``: names and attribute names."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _is_dunder(key):
    name = key.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def _definitions(sources):
    """``(uses, named, dunders)`` over the package ``sources`` (module name
    -> source text).  ``uses`` maps each definition, ``module.name`` or
    ``module.Class.member``, to the identifiers its code uses; a class's own
    code is its bases, decorators and the statements of its body that are
    not methods.  ``named`` maps an identifier to the definitions it names,
    and ``dunders`` a class to its dunder methods."""
    uses, named, dunders = {}, defaultdict(set), defaultdict(set)

    def define(key, name, code):
        uses[key] = _uses(code)
        named[name].add(key)

    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                define(f"{module}.{node.name}", node.name, [node])
            elif isinstance(node, ast.ClassDef):
                cls = f"{module}.{node.name}"
                body = []
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        define(f"{cls}.{sub.name}", sub.name, [sub])
                        if _is_dunder(sub.name):
                            dunders[cls].add(f"{cls}.{sub.name}")
                    else:
                        body.append(sub)
                define(cls, node.name, node.bases + node.decorator_list + body)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = [node.value] if node.value else []
                for target in targets:
                    if isinstance(target, ast.Name):
                        define(f"{module}.{target.id}", target.id, value)
    return uses, named, dunders


def unreached(sources, roots=ROOTS):
    """Definitions of ``sources`` (module name -> source text) that no code
    reached from ``roots`` uses, as sorted ``module.name`` or
    ``module.Class.member`` strings.  Dunder definitions are skipped: the
    interpreter uses them, and those of a reached class are reached."""
    uses, named, dunders = _definitions(sources)
    reached, todo = set(roots), list(roots)
    while todo:
        key = todo.pop()
        for nxt in set().union(dunders[key], *(named[name] for name in uses[key])) - reached:
            reached.add(nxt)
            todo.append(nxt)
    return sorted(key for key in uses if key not in reached and not _is_dunder(key))


def not_allowed(names, allowed):
    """``names`` that ``allowed`` does not name, directly or through the
    class they are a member of."""
    return [n for n in names if n not in allowed and n.rsplit(".", 1)[0] not in allowed]


def package_sources():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def command_callers():
    """Source texts of the code outside the package that runs commands."""
    return [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]


def test_every_package_definition_is_reached_or_allowed():
    assert not_allowed(unreached(package_sources()), ALLOWED) == []


def test_the_allowlist_names_only_unreached_definitions():
    # a construction that gets wired in leaves the list
    assert sorted(ALLOWED.keys() - set(unreached(package_sources()))) == []


def test_every_allowlist_entry_states_its_reason():
    for allowlist in (ALLOWED, UNPASSED_ALLOWED, ALWAYS_PASSED_ALLOWED):
        assert all(isinstance(r, str) and r.strip() for r in allowlist.values())


CLI = "def main():\n    run()\n\n\n"


def test_the_scan_finds_an_unused_definition():
    sources = {
        "cli": CLI + "def run():\n    return used()\n",
        "a": (
            "LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n\n"
            "SPARE = recursive(LIMIT)\n"
        ),
        "b": "class Orphan:\n    pass\n",
    }
    assert unreached(sources) == ["a.SPARE", "a.recursive", "b.Orphan"]


def test_the_scan_finds_an_unused_method():
    sources = {
        "cli": CLI + "def run():\n    return Box(1).size\n",
        "a": (
            "class Box:\n"
            "    def __init__(self, n):\n        self.n = self._checked(n)\n\n"
            "    def _checked(self, n):\n        return n\n\n"
            "    @property\n    def size(self):\n        return self.n\n\n"
            "    def unused(self):\n        return self.helper()\n\n"
            "    def helper(self):\n        return 0\n\n\n"
            "class Unreached:\n"
            "    def __call__(self):\n        return self.n\n"
        ),
    }
    # __init__ is reached with Box, and reaches _checked in turn
    assert unreached(sources) == ["a.Box.helper", "a.Box.unused", "a.Unreached"]


def test_what_only_an_allowed_definition_uses_is_not_allowed():
    sources = {
        "cli": CLI + "def run():\n    return 0\n",
        "a": (
            "def construction():\n    return Step().apply()\n\n\n"
            "class Step:\n    def apply(self):\n        return 1\n\n\n"
            "class Kept:\n    def member(self):\n        return 2\n"
        ),
    }
    found = unreached(sources)
    assert found == ["a.Kept", "a.Kept.member", "a.Step", "a.Step.apply", "a.construction"]
    allowed = {"a.construction": "a construction", "a.Kept": "a construction"}
    assert not_allowed(found, allowed) == ["a.Step", "a.Step.apply"]


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
