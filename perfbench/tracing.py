"""Per-layer tracing for the benchmark's traced rounds.

The tracer wraps public functions of ``diracpairs`` from outside the
package.  A wrapped boundary either records a span (name, invocation id,
parent span, start, end) or, for the hottest boundaries, only counts calls:
spans there would swamp the numeric workloads.  Spans stay in memory and
are written once, when the round ends.

A function imported by name into other modules is bound in each of them,
so the tracer rebinds every module global that holds the original.
`stale_sites` finds bindings a wrapper missed; `Tracer.install` refuses to
trace while any remain, because a missed site undercounts silently.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction

PACKAGE = "diracpairs"

SPAN = "span"
COUNT = "count"
PLAN_STEP = "plan-step"

# (module, attribute, how).  A dotted attribute is a method on a class;
# ``__init__`` stands for constructing the class.
TARGETS = (
    ("rational", "rref", SPAN),
    ("rational", "mat_mul", SPAN),
    ("rational", "mat_vec", COUNT),
    ("rational", "invert", SPAN),
    ("rational", "rationalize", SPAN),
    ("exact_linear", "canonicalize", SPAN),
    ("exact_linear", "SplitForm.pairing", COUNT),
    ("quadratic_lie", "check_quadratic_lie", SPAN),
    ("quadratic_lie", "ManinPairPoint.__init__", SPAN),
    ("quadratic_lie", "catalog", SPAN),
    ("quadratic_lie", "is_manin_pair", SPAN),
    ("splitting", "make_isotropic_splitting", SPAN),
    ("splitting", "derive_quasi_data", SPAN),
    ("splitting", "check_quasi_jacobi", SPAN),
    ("morphism", "HamiltonianFiber.__init__", SPAN),
    ("dictionary", "identification_from_anchor", SPAN),
    ("dictionary", "k_from_quasi", SPAN),
    ("dictionary", "pi_from_k", SPAN),
    ("dictionary", "dirac_from_k", SPAN),
    ("numeric_manifold", "SectionField.__call__", COUNT),
    ("numeric_manifold", "directional_derivative", COUNT),
    ("numeric_manifold", "partial_table", SPAN),
    ("numeric_manifold", "make_standard_twisted", SPAN),
    ("numeric_manifold", "make_dressing_courant", SPAN),
    ("numeric_manifold", "check_axioms_numeric", SPAN),
    ("numeric_manifold", "CanonicalSpace.frozen_fiber", SPAN),
    ("numeric_manifold", "check_strong_dirac", SPAN),
    ("numeric_manifold", "check_quasi_poisson", SPAN),
    ("so3", "exp_rotation", SPAN),
    ("so3", "rationalize_rotation", SPAN),
    ("reduction", "check_bracket_laws", SPAN),
    ("reduction", "jacobi_residual", SPAN),
    ("scene_dsl", "parse_scene", SPAN),
    ("scene_dsl", "validate_scene", SPAN),
    ("scene_dsl", "PlanStep.run", PLAN_STEP),
    ("verify", "run_example", SPAN),
    ("cli", "run", SPAN),
)

# Rational kernels whose returned Fractions feed ``rational.max_bits``.
BIT_SOURCES = {"rref", "mat_mul", "mat_vec", "invert", "rationalize"}


def metric_name(module, attr):
    return f"{module}.{attr.removesuffix('.__init__')}"


def package_modules():
    """Every loaded module of the package, the package itself included."""
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def stale_sites(originals):
    """Module globals that still hold an unwrapped original.

    ``originals`` maps a metric name to the function that was wrapped.
    Returns ``module.global`` strings, empty when every site is wrapped.
    """
    by_id = {id(fn): name for name, fn in originals.items()}
    found = []
    for module in package_modules():
        for key, value in vars(module).items():
            if id(value) in by_id and value is originals[by_id[id(value)]]:
                found.append(f"{module.__name__}.{key}")
    return sorted(found)


def _max_bits(value):
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max((_max_bits(v) for v in value), default=0)
    return 0


class Tracer:
    """Spans and counts for one round; install before the first invocation."""

    def __init__(self):
        self.spans = []  # [name, invocation, parent index, start, end]
        self.counts = Counter()
        self.invocation = 0
        self.max_bits = 0
        self.algebras = []
        self._stack = [-1]
        self._restore = []
        self._originals = {}

    def spanning(self, name, fn, after=None):
        """``fn`` wrapped to record a span; ``after(args, result)`` runs
        once the span has closed."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, tracer.invocation, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counting(self, name, fn, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _note_bits(self, args, result):
        bits = _max_bits(result)
        if bits > self.max_bits:
            self.max_bits = bits

    def _note_algebra(self, args, result):
        self.algebras.append(args[0])

    def _plan_step_init(self, name, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(step, *args, **kwargs):
            init(step, *args, **kwargs)
            object.__setattr__(step, "run", tracer.spanning(name, step.run))

        return wrapper

    def _set(self, owner, key, value):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def install(self):
        """Wrap every target at every site that binds it."""
        for module_name, _, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        for module_name, attr, how in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = metric_name(module_name, attr)
            after = None
            if attr in BIT_SOURCES:
                after = self._note_bits
            elif attr == "check_quadratic_lie":
                after = self._note_algebra
            owner_name, _, member = attr.rpartition(".")
            if how == PLAN_STEP:
                cls = getattr(module, owner_name)
                self._set(cls, "__init__", self._plan_step_init(name, cls.__init__))
                continue
            wrap = self.spanning if how == SPAN else self.counting
            if owner_name:
                cls = getattr(module, owner_name)
                self._set(cls, member, wrap(name, vars(cls)[member], after))
                continue
            original = getattr(module, attr)
            wrapper = wrap(name, original, after)
            self._originals[name] = original
            for site in package_modules():
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._set(site, key, wrapper)
        missed = stale_sites(self._originals)
        if missed:
            self.uninstall()
            raise RuntimeError(f"unwrapped import sites: {missed}")

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def summary(self):
        """Per-layer metrics of the round: calls and self time per target,
        plus the derived ratios."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, _, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = Counter(self.counts)
        self_s = Counter()
        for i, (name, _, _, start, end) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
        metrics = {}
        for module_name, attr, how in TARGETS:
            name = metric_name(module_name, attr)
            metrics[f"{name}.calls"] = (calls[name], "count")
            if how != COUNT:
                metrics[f"{name}.self_s"] = (self_s[name], "s")
        checks = calls["quadratic_lie.check_quadratic_lie"]
        distinct = len(set(self.algebras))
        metrics["quadratic_lie.distinct_per_check"] = (
            distinct / checks if checks else 0.0,
            "ratio",
        )
        evals = calls["numeric_manifold.SectionField.__call__"]
        derivs = calls["numeric_manifold.directional_derivative"]
        metrics["numeric_manifold.derivs_per_section_eval"] = (
            derivs / evals if evals else 0.0,
            "ratio",
        )
        metrics["rational.max_bits"] = (self.max_bits, "bits")
        metrics["trace.spans"] = (len(spans), "count")
        return metrics

    def write(self, path):
        """Write the round's spans as JSON, one list per span."""
        with open(path, "w") as f:
            json.dump(
                {"fields": ["name", "invocation", "parent", "start", "end"], "spans": self.spans},
                f,
            )
