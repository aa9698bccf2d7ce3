import helpers
import pytest

from diracpairs import verify

EXPECTED = {
    "flat_twisted_axioms",
    "rotation_dressing_axioms",
    "rotation_strong_section",
    "rotation_quasi_poisson",
    "rotation_canonical_fibers",
    "planar_symplectic_reduction",
}


def test_registry_names_are_stable():
    assert set(verify.EXAMPLES) == EXPECTED


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_each_example_passes_at_small_samples(name):
    result = verify.run_example(name, samples=3, seed=1, tol=helpers.TOL, step=helpers.STEP)
    assert result.passed, result
    assert result.residual < 1e-4
    assert result.quantities and result.describe() == ""


def test_examples_are_seed_reproducible():
    a = verify.run_example(
        "rotation_dressing_axioms", samples=3, seed=9, tol=helpers.TOL, step=helpers.STEP
    )
    b = verify.run_example(
        "rotation_dressing_axioms", samples=3, seed=9, tol=helpers.TOL, step=helpers.STEP
    )
    assert a == b


def test_unknown_example_raises():
    with pytest.raises(KeyError, match="unknown example"):
        verify.run_example("missing_example", **verify.DEFAULTS)
