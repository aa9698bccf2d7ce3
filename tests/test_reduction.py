from fractions import Fraction
from types import SimpleNamespace

import helpers
import numpy as np
import pytest

from diracpairs import numeric_manifold as nm
from diracpairs import reduction as red
from diracpairs import so3, verify
from diracpairs.dictionary import QuasiPoissonPointData, k_from_quasi

PLANAR = np.array([[0.0, 1.0], [-1.0, 0.0]])
PLANE_POINTS = (
    np.array([0.3, -0.2]),
    np.array([1.1, 0.7]),
    np.array([-0.4, 0.9]),
)


@pytest.fixture(scope="module")
def planar_fibers():
    return red.bivector_fibers(lambda x: PLANAR, 2)


@pytest.fixture(scope="module")
def coord_x():
    return red.observable(lambda p: p[0], grad=lambda p: np.array([1.0, 0.0]))


@pytest.fixture(scope="module")
def coord_y():
    return red.observable(lambda p: p[1], grad=lambda p: np.array([0.0, 1.0]))


@pytest.fixture(scope="module")
def trace_observable():
    def grad(p):
        r = float(np.linalg.norm(p))
        return -2.0 * np.sin(r) * p / r

    return red.observable(helpers.group_trace_function, grad=grad)


@pytest.fixture(scope="module")
def canonical_fiber_map(canonical_space):
    return helpers.canonical_fibers(canonical_space)


@pytest.fixture(scope="module")
def dressing_action(dressing, so3_splitting):
    _, rho_x = nm.make_quasi_pi_field(dressing, so3_splitting.j)
    return rho_x


def test_observable_coercion_and_fallback_gradient():
    def height(p):
        return p[0] ** 2

    obs = red.observable(height)
    assert red.observable(obs) is obs
    assert np.allclose(obs.gradient(np.array([1.5, -2.0]), h=helpers.STEP), [3.0, 0.0], atol=1e-6)
    with_grad = red.observable(height, grad=lambda p: np.array([2 * p[0], 0.0]))
    assert np.allclose(with_grad.gradient(np.array([1.5, -2.0]), h=helpers.STEP), [3.0, 0.0])


def test_point_fiber_validates_block_widths():
    with pytest.raises(ValueError, match="block widths"):
        red.PointFiber(2, 1, np.zeros((2, 4)))
    fiber = red.PointFiber(2, 0, np.hstack([PLANAR, np.eye(2)]))
    assert fiber.rows.shape == (2, 4)


def test_planar_coordinates_bracket_to_one(planar_fibers, coord_x, coord_y):
    br = red.poisson_bracket(coord_x, coord_y, planar_fibers, h=helpers.STEP, tol=helpers.TOL)
    for p in PLANE_POINTS:
        assert abs(br.value(p) - 1.0) < 1e-8
    same = red.poisson_bracket(coord_x, coord_x, planar_fibers, h=helpers.STEP, tol=helpers.TOL)
    constant = red.observable(lambda p: 4.0, grad=lambda p: np.zeros(2))
    with_constant = red.poisson_bracket(
        constant, coord_y, planar_fibers, h=helpers.STEP, tol=helpers.TOL
    )
    for p in PLANE_POINTS:
        assert abs(same.value(p)) < 1e-10
        assert abs(with_constant.value(p)) < 1e-12


def test_planar_flow_matches_the_exact_graph_fiber(planar_fibers, coord_x):
    samples = red.hamiltonian_vector(
        coord_x, planar_fibers, PLANE_POINTS, h=helpers.STEP, tol=helpers.TOL
    )
    for s in samples:
        assert s.vector is not None
        assert np.allclose(s.vector, [0.0, 1.0], atol=1e-9)
        assert s.conservation < 1e-9

    quasi = QuasiPoissonPointData(
        t_dim=2,
        a_dim=0,
        Pi=((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))),
        rho_X=((), ()),
    )
    fiber = k_from_quasi(quasi)
    e_dim = fiber.K.ambient_dim - 4
    assert helpers.exact_flow_vector(2, e_dim, fiber.K.basis, (Fraction(1), Fraction(0))) == (
        Fraction(0),
        Fraction(1),
    )
    assert helpers.exact_flow_vector(2, e_dim, fiber.K.basis, (Fraction(0), Fraction(1))) == (
        Fraction(-1),
        Fraction(0),
    )


def test_bracket_laws_hold_for_quadratics(planar_fibers):
    f2 = red.observable(lambda p: 0.5 * p[0] ** 2, grad=lambda p: np.array([p[0], 0.0]))
    g2 = red.observable(lambda p: 0.5 * p[1] ** 2, grad=lambda p: np.array([0.0, p[1]]))
    rep = red.check_bracket_laws(f2, g2, planar_fibers, PLANE_POINTS, h=helpers.STEP, tol=1e-4)
    assert rep.passed
    assert set(rep.quantities) == {"skew", "flow_match", "conservation"}
    assert rep.tol == 1e-4
    assert red.jacobi_residual(
        f2,
        g2,
        red.observable(lambda p: p[0]),
        planar_fibers,
        PLANE_POINTS,
        h=helpers.STEP,
        tol=helpers.TOL,
    ) < 1e-4


def _doubled(fibers):
    return lambda pi, dim: fibers(lambda x: 2.0 * pi(x), dim)


def _symmetric(fibers):
    return lambda pi, dim: fibers(lambda x: np.array([[0.0, 1.0], [1.0, 0.0]]), dim)


def _with_base_differential(fibers):
    def mutated(pi, dim):
        def fiber_at(x):
            fb = fibers(pi, dim)(x)
            return red.PointFiber(fb.t_dim, fb.e_dim, fb.rows, dj=np.array([[1.0, 0.0]]))

        return fiber_at

    return mutated


# (mutation of the planar example's graph fibers, quantity it must fail,
# the value it reads), at 6 samples of seed 0; every other quantity stays 0
PLANAR_CONTROLS = [
    (_doubled, "coordinate_bracket", 1.0),
    (_symmetric, "skew", 2.0),
    (_with_base_differential, "conservation", 1.0),
]


@pytest.mark.parametrize(
    "mutation, quantity, value", PLANAR_CONTROLS, ids=[q for _, q, _ in PLANAR_CONTROLS]
)
def test_a_mutated_planar_fiber_fails_its_control(monkeypatch, mutation, quantity, value):
    base = verify.run_example(
        "planar_symplectic_reduction", samples=6, seed=0, tol=helpers.TOL, step=helpers.STEP
    )
    assert base.passed
    monkeypatch.setattr(red, "bivector_fibers", mutation(red.bivector_fibers))
    rep = verify.run_example(
        "planar_symplectic_reduction", samples=6, seed=0, tol=helpers.TOL, step=helpers.STEP
    )
    assert rep.quantities[quantity] == pytest.approx(value, abs=1e-9)
    assert not rep.holds(quantity)
    assert all(rep.holds(q) for q in rep.quantities if q != quantity)


@pytest.mark.parametrize("tol", [1e-6, 1e-3])
def test_the_planar_example_passes_its_tol_to_every_check(monkeypatch, tol):
    seen = []

    def recording(check):
        def wrapped(*args, **kwargs):
            seen.append((check.__name__, kwargs.get("tol")))
            return check(*args, **kwargs)

        return wrapped

    # only the example's own calls are recorded, not those the checks make
    names = ("poisson_bracket", "check_bracket_laws", "jacobi_residual")
    recorded = {name: recording(getattr(red, name)) for name in names}
    monkeypatch.setattr(verify, "red", SimpleNamespace(**{**vars(red), **recorded}))
    example = verify.run_example(
        "planar_symplectic_reduction", samples=4, seed=0, tol=tol, step=helpers.STEP
    )
    assert example.passed
    assert seen == [(name, tol) for name in names]


def test_the_planar_bracket_laws_solve_each_flow_once_per_point(monkeypatch):
    # the planar example's own inputs: 4 points of seed 0
    calls, laws = [], red.check_bracket_laws
    recording = lambda *args, **kwargs: calls.append((args, kwargs)) or laws(*args, **kwargs)
    monkeypatch.setattr(verify, "red", SimpleNamespace(**{**vars(red), "check_bracket_laws": recording}))
    example = verify.run_example(
        "planar_symplectic_reduction", samples=4, seed=0, tol=helpers.TOL, step=helpers.STEP
    )
    [(args, kwargs)] = calls
    solves, solve = [], red.hamiltonian_vector

    def counted(f, fiber_at, points, h, tol):
        solves.extend((id(f), y.tobytes(), h, tol) for y in np.asarray(points, float))
        return solve(f, fiber_at, points, h=h, tol=tol)

    monkeypatch.setattr(red, "hamiltonian_vector", counted)
    assert laws(*args, **kwargs).quantities.items() <= example.quantities.items()
    # per point: f and g at the point, read by the skew values, the
    # commutator of flows and conservation; f and g at the commutator's four
    # stencil points each, whose f solves also serve the bracket's
    # finite-difference gradient; and the bracket's own flow at the point
    assert len(solves) == len(set(solves)) == 4 * (2 + 8 + 1)


@pytest.mark.parametrize(
    "pi, poisson",
    [(helpers.so3_linear_poisson, True), (helpers.not_poisson_bivector, False)],
    ids=["so3", "not-poisson"],
)
def test_a_non_poisson_bivector_fails_flow_match_and_jacobi(pi, poisson):
    # the planar chart cannot fail these: every bivector on a plane is Poisson
    pts = verify._flat_points(6, 0)
    x0, x1 = (
        red.observable(lambda p, i=i: float(p[i]), grad=lambda p, i=i: np.eye(3)[i])
        for i in range(2)
    )
    half_norm = red.observable(lambda p: 0.5 * float(p @ p), grad=lambda p: np.asarray(p, float))
    fibers = red.bivector_fibers(pi, 3)
    laws = red.check_bracket_laws(x0, x1, fibers, pts[:4], h=helpers.STEP, tol=1e-4)
    jacobi = red.jacobi_residual(
        x0, x1, half_norm, fibers, pts[:3], h=helpers.STEP, tol=helpers.TOL
    )
    assert laws.holds("flow_match") is poisson
    assert (jacobi < helpers.TOL) is poisson
    if not poisson:
        assert laws.quantities["flow_match"] > 0.9 and jacobi > 0.5


def test_central_function_has_a_silent_flow(
    canonical_fiber_map, trace_observable, so3_points
):
    pts = [np.asarray(x, float) for x in so3_points[:5]]
    samples = red.hamiltonian_vector(
        trace_observable, canonical_fiber_map, pts, h=helpers.STEP, tol=helpers.TOL
    )
    assert all(s.vector is not None for s in samples)
    assert max(float(np.linalg.norm(s.vector)) for s in samples) < 1e-6
    assert max(s.conservation for s in samples) < 1e-6


def test_admissibility_matches_invariance(
    canonical_fiber_map, dressing_action, trace_observable, so3_points
):
    pts = [np.asarray(x, float) for x in so3_points[:5]]
    coord = red.observable(lambda p: p[1], grad=lambda p: np.array([0.0, 1.0, 0.0]))
    pairs = helpers.admissibility_matches_invariance(
        coord, dressing_action, canonical_fiber_map, pts, h=helpers.STEP, tol=helpers.TOL
    )
    assert all(inv == adm for inv, adm in pairs)
    assert not any(adm for _, adm in pairs)
    assert not any(helpers.invariant_check(
        coord, dressing_action, pts, h=helpers.STEP, tol=helpers.TOL
    ))

    pairs_trace = helpers.admissibility_matches_invariance(
        trace_observable, dressing_action, canonical_fiber_map, pts, h=helpers.STEP, tol=helpers.TOL
    )
    assert all(inv and adm for inv, adm in pairs_trace)
    assert all(helpers.invariant_check(
        trace_observable, dressing_action, pts, h=helpers.STEP, tol=helpers.TOL
    ))


def test_orbit_description_validates_its_data():
    shell = red.observable(lambda p: float(p @ p) - 1.0, grad=lambda p: 2.0 * p)
    on_locus = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0]))
    orbit = red.OrbitDescription((shell,), on_locus)
    assert len(orbit.samples) == 2
    with pytest.raises(ValueError, match="off the constraint locus"):
        red.OrbitDescription((shell,), (np.array([2.0, 0.0, 0.0]),))
    with pytest.raises(ValueError, match="at least one sample"):
        red.OrbitDescription((shell,), ())
    centered = red.observable(lambda p: float(p @ p), grad=lambda p: 2.0 * p)
    with pytest.raises(ValueError, match="drop rank"):
        red.OrbitDescription((centered,), (np.zeros(3),))


def test_projection_builds_locus_samples(so3_points):
    radius = float(np.linalg.norm(so3_points[0]))
    shell = red.observable(lambda p: float(p @ p) - radius**2, grad=lambda p: 2.0 * p)
    seeds = so3.sample_chart_points(4, seed=23)
    orbit = red.OrbitDescription.from_projection([shell], seeds)
    assert len(orbit.samples) == 4
    for p in orbit.samples:
        assert abs(float(np.linalg.norm(p)) - radius) < 1e-6


def test_restricted_bracket_on_a_conjugacy_sphere(
    canonical_fiber_map, dressing_action, trace_observable, so3_points
):
    radius = float(np.linalg.norm(so3_points[0]))
    shell = red.observable(lambda p: float(p @ p) - radius**2, grad=lambda p: 2.0 * p)
    seeds = so3.sample_chart_points(3, seed=23)
    orbit = red.OrbitDescription.from_projection([shell], seeds)
    norm2 = red.observable(lambda p: float(p @ p), grad=lambda p: 2.0 * p)
    rep = red.reduce_to_orbit(
        orbit,
        trace_observable,
        norm2,
        canonical_fiber_map,
        action_field=dressing_action,
        h=helpers.STEP,
        tol=1e-4,
    )
    assert rep.passed
    assert max(abs(v) for v in rep.data["values"]) < 1e-6
    assert rep.quantities["tangency"] < 1e-6
    assert set(rep.quantities) == {"extension", "tangency"}
    assert rep.tol == 1e-4


def test_no_constraints_collapse_to_the_plain_bracket(planar_fibers, coord_x, coord_y):
    whole = red.OrbitDescription((), PLANE_POINTS)
    rep = red.reduce_to_orbit(whole, coord_x, coord_y, planar_fibers, h=helpers.STEP, tol=1e-4)
    assert all(abs(v - 1.0) < 1e-8 for v in rep.data["values"])
    assert rep.quantities["extension"] == 0.0
    assert rep.quantities["tangency"] == 0.0
    assert rep.passed
