import helpers
import numpy as np
import pytest

from diracpairs import numeric_manifold as nm
from diracpairs import so3
from diracpairs.quadratic_lie import catalog
from diracpairs.splitting import derive_quasi_data, make_isotropic_splitting


@pytest.fixture(scope="session")
def so3_pair():
    return catalog()["so3-double"]


@pytest.fixture(scope="session")
def so3_points():
    return so3.sample_chart_points(12, seed=7)


@pytest.fixture(scope="session")
def dressing(so3_pair, so3_points):
    chart = nm.Chart(3, tuple(so3_points))
    return nm.make_dressing_courant(chart, h=helpers.STEP)


@pytest.fixture(scope="session")
def so3_splitting(so3_pair):
    return make_isotropic_splitting(so3_pair)


@pytest.fixture(scope="session")
def so3_quasi_data(so3_pair, so3_splitting):
    return derive_quasi_data(so3_pair, so3_splitting)


@pytest.fixture(scope="session")
def canonical_space(dressing):
    return nm.canonical_hamiltonian(dressing)


@pytest.fixture(scope="session")
def flat3():
    rng = np.random.default_rng(3)
    pts = tuple(rng.uniform(-1.0, 1.0, size=3) for _ in range(6))
    chart = nm.Chart(3, pts)
    return chart, pts
