import math
from itertools import islice

import helpers
import numpy as np
import pytest

from diracpairs import so3, verify

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


STREAM_SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 7, 10**30, 2**200 + 3]


@pytest.mark.parametrize("high", [1.0, math.pi - 0.2])
def test_the_uniform_stream_is_numpys_default_rng_bit_for_bit(high):
    # 2**200 + 3 has more 32-bit words than SeedSequence's pool of four
    for seed in STREAM_SEEDS:
        want = np.random.default_rng(seed).uniform(-high, high, 96)
        got = np.array(list(islice(so3.uniform_stream(seed, -high, high), 96)))
        assert got.tobytes() == want.tobytes(), seed


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("samples", [1, 20, 50, 74])
def test_the_samplers_draw_the_reference_points(samples, seed):
    pts = so3.sample_chart_points(samples, seed)
    want = helpers.reference_sample_chart_points(samples, seed)
    assert type(pts) is list and len(pts) == samples
    assert [p.tobytes() for p in pts] == [p.tobytes() for p in want]
    assert all(p.shape == (3,) and p.base is None for p in pts)
    for dim in (2, 3):
        rows = verify._flat_points(samples, seed, dim)
        want = helpers.reference_flat_points(samples, seed, dim)
        assert type(rows) is tuple and len(rows) == samples
        assert [r.tobytes() for r in rows] == [r.tobytes() for r in want]
        assert all(r.shape == (dim,) and r.base is rows[0].base for r in rows)
        assert rows[0].base.size == samples * dim


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    for draw in (
        lambda: so3.uniform_stream(-1, -1.0, 1.0),
        lambda: so3.sample_chart_points(3, -1),
        lambda: verify._flat_points(3, -5),
        lambda: verify.run_example("flat_twisted_axioms", 3, -1, helpers.TOL, helpers.STEP),
    ):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            draw()
