"""The benchmark's workloads: which CLI invocations make up one round, and
what each must answer.

Every invocation is ``(id, argv, expected_exit)``.  The expected exit code
is the verdict the tool gives at the commit the benchmark was defined on:
0 pass, 1 fail, 2 bad input.  The lists are fixed rather than globbed so a
fixture added later does not silently change a workload.
"""

from __future__ import annotations

FIXTURES = "tests/fixtures"

SCENES = {
    "broken.mp": 2,
    "cotangent-solvable.mp": 0,
    "duality-plane.mp": 0,
    "fraction-spans.mp": 0,
    "graph-fibers.mp": 0,
    "minimal-abelian.mp": 0,
    "quadratic-rotations.mp": 0,
    "registry-example.mp": 0,
    "rotation-double.mp": 0,
    "rotation-images.mp": 0,
    "split-traceless.mp": 0,
}

DICT_MODES = ("qp-to-dirac", "dirac-to-qp", "roundtrip")

# Exit code per fiber file, in DICT_MODES order.
FIBERS = {
    "action-quasi.json": (1, 1, 1),
    "bad-kind.json": (2, 2, 2),
    "covector-dirac.json": (1, 0, 0),
    "garbage.json": (2, 2, 2),
    "planar-quasi.json": (0, 1, 0),
    "tangent-dirac.json": (1, 1, 1),
}

FLAT_EXAMPLES = ("flat_twisted_axioms", "planar_symplectic_reduction")

ROTATION_EXAMPLES = (
    "rotation_dressing_axioms",
    "rotation_strong_section",
    "rotation_quasi_poisson",
    "rotation_canonical_fibers",
)

WHY = {
    "exact-scenes": "exact tier: scene parsing, rational linear algebra, Manin "
    "pairs, splittings and the dictionary on small user algebras; finite "
    "differences only in one 4-sample scene",
    "flat-numeric": "numeric tier only: nested finite differences on flat "
    "charts with no rational or quadratic_lie calls, so exact-tier changes "
    "must leave it unchanged",
    "rotation-fibers": "both tiers: finite differences on the rotation chart "
    "plus per-point rebuilt Manin pairs and Fraction arithmetic on "
    "rationalized anchors",
}

# Rounds a run makes at least, whatever --seconds says.  The tail is the
# slowest call with ten calls beyond it; these minimums keep that rank among
# the workload's slowest kind of invocation, so the tail does not jump to a
# faster kind when a slow machine completes fewer rounds.
MIN_ROUNDS = {"exact-scenes": 4, "flat-numeric": 12, "rotation-fibers": 6}


def _example(name, samples, seed, extra=()):
    argv = ["verify-example", name, "--samples", str(samples), "--seed", str(seed)]
    return (f"verify-example:{name}", argv + list(extra) + ["--json"], 0)


def invocations(workload, samples, seed):
    """The invocations of one round of ``workload``, in the order they run."""
    if workload == "exact-scenes":
        calls = [
            (f"check:{name}", ["check", f"{FIXTURES}/{name}", "--json"], code)
            for name, code in SCENES.items()
        ]
        for name, codes in FIBERS.items():
            for mode, code in zip(DICT_MODES, codes):
                argv = ["dict", "--mode", mode, "--fiber", f"{FIXTURES}/{name}", "--json"]
                calls.append((f"dict:{mode}:{name}", argv, code))
        return calls
    if workload == "flat-numeric":
        return [_example(name, samples, seed) for name in FLAT_EXAMPLES]
    if workload == "rotation-fibers":
        return [_example(name, samples, seed) for name in ROTATION_EXAMPLES]
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WHY)}")


def seed_dependent(call_id):
    """Whether an invocation's report depends on the seed."""
    return call_id.startswith("verify-example:")
