"""Run command lines through a package's ``cli.run`` under ``sys.setprofile``
and write down what ran, for the reach guard of ``test_reach.py``.

    python tests/reach_trace.py PACKAGE RESULT < CORPUS

CORPUS is a JSON list of argument lists.  The package is imported only once
the profiler is on, so its import is traced too, and the process must be
fresh: a warm ``lru_cache`` answers without calling what it caches.  RESULT
receives one JSON object:

- ``codes``: the exit code of each invocation, in order;
- ``calls``: ``[file name, first line, name]`` of each package code object
  that ran; the first line of a decorated function is its first
  decorator's, on every Python from 3.10 on, and the name tells a function
  from a module body, which also starts on line 1;
- ``instances``: ``module.Class`` for each package class, and its package
  bases, of which a constructor named ``__init__`` saw an instance: the
  generated constructor of a dataclass, or a constructor the class or a
  base defines;
- ``reads``: ``module.name`` for each module-level name that a package
  function which ran reads as a global of its module (under the name of
  every package module that binds the same object, so an imported name
  reaches the module that assigns it) or as an attribute of a package
  module (``rat.rref``).  Module and class bodies run at every import, so
  their reads are left out.
"""

import dis
import importlib
import inspect
import io
import json
import sys
import types
from pathlib import Path

_UNBOUND = object()


def _stem(module):
    """``pkg.name`` -> ``name``; the package itself is ``__init__``."""
    return module.__name__.partition(".")[2] or "__init__"


def _reads(code, module, modules):
    """``module.name`` of each package module-level name that ``code``, of
    the package module ``module``, reads as a global or as an attribute of
    a package module; ``modules`` is the set of package modules."""
    found, namespace, prev = set(), vars(module), None
    for ins in dis.get_instructions(code):
        if ins.opname == "LOAD_GLOBAL" and ins.argval in namespace:
            value = namespace[ins.argval]
            found |= {
                f"{_stem(m)}.{ins.argval}"
                for m in modules
                if vars(m).get(ins.argval, _UNBOUND) is value
            }
            prev = value
            continue
        if ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and isinstance(prev, types.ModuleType):
            if prev in modules:
                found.add(f"{_stem(prev)}.{ins.argval}")
        prev = None
    return found


def record(package, corpus):
    """Run ``corpus`` through ``package.cli.run`` under the profiler and
    return the result object described in the module docstring."""
    calls, instances = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.add(code)
            if code.co_name == "__init__" and code.co_argcount:
                instances.add(type(frame.f_locals[code.co_varnames[0]]))

    sys.setprofile(profile)
    try:
        cli = importlib.import_module(f"{package}.cli")
        codes = [cli.run(argv, out=io.StringIO(), err=io.StringIO()) for argv in corpus]
    finally:
        sys.setprofile(None)

    root = Path(importlib.import_module(package).__file__).resolve().parent
    by_file = {
        Path(m.__file__).resolve(): m
        for name, m in list(sys.modules.items())
        if name == package or name.startswith(f"{package}.")
    }
    modules = set(by_file.values())
    ran = [c for c in calls if Path(c.co_filename).resolve().parent == root]
    reads = set()
    for code in ran:
        if code.co_flags & inspect.CO_OPTIMIZED:
            reads |= _reads(code, by_file[Path(code.co_filename).resolve()], modules)
    classes = {
        f"{_stem(sys.modules[base.__module__])}.{base.__qualname__}"
        for cls in instances
        for base in cls.__mro__
        if base.__module__ == package or base.__module__.startswith(f"{package}.")
    }
    return {
        "codes": codes,
        "calls": sorted([Path(c.co_filename).name, c.co_firstlineno, c.co_name] for c in ran),
        "instances": sorted(classes),
        "reads": sorted(reads),
    }


if __name__ == "__main__":
    package, result = sys.argv[1:]
    Path(result).write_text(json.dumps(record(package, json.load(sys.stdin))))
