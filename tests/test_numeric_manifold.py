import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import helpers
import numpy as np
import pytest

from diracpairs import numeric_manifold as nm
from diracpairs import rational as rat
from diracpairs import so3, verify
from diracpairs.dictionary import (
    DiracPointData,
    dirac_from_k,
    forward_dirac,
    identification_from_anchor,
)
from diracpairs.exact_linear import SplitForm, canonicalize
from diracpairs.morphism import HamiltonianFiber, check_hamiltonian_fiber, integer_legs
from diracpairs.quadratic_lie import catalog
from diracpairs.splitting import derive_quasi_data, make_isotropic_splitting


@pytest.fixture(scope="module")
def standard3(flat3):
    chart, _ = flat3
    return nm.make_standard_twisted(chart, h=helpers.STEP)


@pytest.fixture(scope="module")
def twisted3(flat3):
    chart, _ = flat3
    return nm.make_standard_twisted(chart, nm.volume_form(3), h=helpers.STEP)


def on_points(c, points):
    """The bundle ``c`` on a chart of the given probe points."""
    return dataclasses.replace(c, chart=nm.Chart(c.chart.dim, tuple(points)))


def test_default_constants_are_pinned():
    assert verify.DEFAULTS == {"samples": 50, "seed": 0, "tol": 1e-6, "step": 1e-4}
    assert nm.JACOBIATOR_SIGN == 1.0


def test_volume_form_is_the_alternating_tensor():
    vol = nm.volume_form(3)
    assert vol.shape == (3, 3, 3)
    assert vol[0, 1, 2] == 1.0
    assert vol[1, 2, 0] == 1.0
    assert vol[1, 0, 2] == -1.0
    assert vol[0, 0, 2] == 0.0
    assert np.allclose(vol, -np.swapaxes(vol, 0, 1))
    assert np.allclose(vol, -np.swapaxes(vol, 1, 2))


def test_untwisted_constant_sections_commute(standard3, flat3):
    _, pts = flat3
    basis = [nm.SectionField.constant(np.eye(6)[i]) for i in range(6)]
    for x in pts[:3]:
        for i in range(6):
            for j in range(6):
                out = standard3.bracket_at(basis[i], basis[j], x)
                assert np.allclose(out, 0.0, atol=1e-12)


def test_pairing_couples_vectors_with_covectors(standard3, flat3):
    _, pts = flat3
    tangent = nm.SectionField.constant(np.eye(6)[0])
    dual = nm.SectionField.constant(np.eye(6)[3])
    other = nm.SectionField.constant(np.eye(6)[4])
    assert float(tangent(pts[0]) @ standard3.gram @ dual(pts[0])) == pytest.approx(1.0)
    assert float(tangent(pts[0]) @ standard3.gram @ other(pts[0])) == pytest.approx(0.0)
    assert standard3.anchor_coisotropy_residual(pts[:4]) == 0.0
    assert np.allclose(
        standard3.rho_star(pts[0]), np.vstack([np.zeros((3, 3)), np.eye(3)])
    )


def test_volume_twist_feeds_the_covector_leg(twisted3, flat3):
    _, pts = flat3
    ex = nm.SectionField.constant(np.eye(6)[0])
    ey = nm.SectionField.constant(np.eye(6)[1])
    for x in pts[:3]:
        assert np.allclose(twisted3.bracket_at(ex, ey, x), np.eye(6)[5], atol=1e-9)
        assert np.allclose(twisted3.bracket_at(ey, ex, x), -np.eye(6)[5], atol=1e-9)
    alpha = nm.SectionField.constant(np.eye(6)[3])
    beta = nm.SectionField.constant(np.eye(6)[4])
    assert np.allclose(twisted3.bracket_at(alpha, beta, pts[0]), 0.0, atol=1e-12)


def test_standard_bracket_of_varying_sections(standard3, twisted3, flat3):
    # X + a = x1 d0 + x2 dx0 and Y + b = x0 d2 + x2 dx0 + x0 dx1 give
    # [X, Y] = x1 d2, L_X b = (x1 + x2) dx1, i_Y da = x0 dx0, and the volume
    # twist phi(X, Y, .) = -x0 x1 dx1
    _, pts = flat3
    e1 = nm.SectionField(6, helpers.per_point(lambda y: np.array([y[1], 0, 0, y[2], 0, 0])))
    e2 = nm.SectionField(6, helpers.per_point(lambda y: np.array([0, 0, y[0], y[2], y[0], 0])))
    for x in pts:
        want = np.array([0.0, 0.0, x[1], -x[0], x[1] + x[2], 0.0])
        assert np.allclose(standard3.bracket_at(e1, e2, x), want, rtol=0, atol=1e-8)
        want[4] -= x[0] * x[1]
        assert np.allclose(twisted3.bracket_at(e1, e2, x), want, rtol=0, atol=1e-8)


def test_axiom_report_passes_for_standard_bundles(standard3, twisted3, flat3):
    _, pts = flat3
    for c in (standard3, twisted3):
        rep = nm.check_axioms_numeric(on_points(c, pts[:2]), tol=helpers.TOL)
        assert rep.passed
        assert rep.quantities["anchor_coisotropy"] == 0.0
        assert rep.residual < 1e-6


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_exterior_derivative_matches_the_alternating_sum(degree):
    # reference loop: (d w)[idx] = sum_r (-1)^r d_{idx[r]} w[idx without idx[r]]
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(4,) * (degree + 1))
    form = helpers.per_point(lambda z: coeffs @ np.sin(z))
    xs = rng.uniform(-1.0, 1.0, size=(3, 4))
    stacked = nm.exterior_derivative(form, degree, xs, h=helpers.STEP)
    for x, row in zip(xs, stacked):
        got = nm.exterior_derivative(form, degree, x, h=helpers.STEP)
        assert got.tobytes() == row.tobytes()
        p = helpers.reference_partial_table(form, x, 4, helpers.STEP)
        for idx in itertools.product(range(4), repeat=degree + 1):
            total = 0.0
            for r in range(degree + 1):
                total += (-1.0) ** r * p[idx[:r] + idx[r + 1 :] + (idx[r],)]
            assert got[idx] == total


def linear_volume_twist():
    base = np.zeros((4, 4, 4))
    for (i, j, k), sign in (
        ((1, 2, 3), 1.0),
        ((2, 3, 1), 1.0),
        ((3, 1, 2), 1.0),
        ((1, 3, 2), -1.0),
        ((3, 2, 1), -1.0),
        ((2, 1, 3), -1.0),
    ):
        base[i, j, k] = sign
    return helpers.per_point(lambda x: float(x[0]) * base)


def test_nonclosed_twist_is_rejected_then_breaks_jacobi():
    rng = np.random.default_rng(11)
    pts = tuple(rng.uniform(-0.5, 0.5, size=4) for _ in range(2))
    chart = nm.Chart(4, pts)
    twist = linear_volume_twist()
    with pytest.raises(ValueError, match="not closed"):
        nm.make_standard_twisted(chart, twist, h=helpers.STEP)
    broken = nm.make_standard_twisted(chart, twist, check_closed=False, h=helpers.STEP)
    e = [nm.SectionField.constant(np.eye(8)[i]) for i in range(3)]
    x = pts[0]
    lhs = broken.bracket_at(e[0], broken.bracket(e[1], e[2]), x)
    rhs = broken.bracket_at(broken.bracket(e[0], e[1]), e[2], x)
    rhs = rhs + broken.bracket_at(e[1], broken.bracket(e[0], e[2]), x)
    assert float(np.max(np.abs(lhs - rhs))) > 1e-3
    rep = nm.check_axioms_numeric(on_points(broken, pts[:1]), tol=helpers.TOL)
    assert rep.quantities["c1_jacobi"] > 1e-3
    assert not rep.passed


def test_nan_twist_fails_the_closedness_gate_and_the_axioms():
    # four dimensions, so the gate differentiates the three-form at all
    rng = np.random.default_rng(11)
    pts = tuple(rng.uniform(-0.5, 0.5, size=4) for _ in range(2))
    chart = nm.Chart(4, pts)
    nan_twist = np.full((4, 4, 4), np.nan)
    with pytest.raises(ValueError, match="not closed"):
        nm.make_standard_twisted(chart, nan_twist, h=helpers.STEP)
    broken = nm.make_standard_twisted(chart, nan_twist, check_closed=False, h=helpers.STEP)
    rep = nm.check_axioms_numeric(on_points(broken, pts[:1]), tol=helpers.TOL)
    assert not rep.passed
    assert math.isnan(rep.quantities["c1_jacobi"])


def test_nan_twist_on_a_three_dim_chart_is_rejected(flat3):
    # d phi of a three-form on a 3-dim chart is zero without evaluating phi
    chart, _ = flat3
    with pytest.raises(ValueError, match="not finite"):
        nm.make_standard_twisted(chart, np.full((3, 3, 3), np.nan), h=helpers.STEP)


def doubled(c):
    return dataclasses.replace(c, bracket_at=lambda e1, e2, x: 2.0 * c.bracket_at(e1, e2, x))


def test_a_doubled_bracket_fails_the_metric_axiom(standard3, dressing, flat3, so3_points):
    _, pts = flat3
    for c, probe in ((standard3, pts[:2]), (dressing, so3_points[:2])):
        probe = [np.asarray(x, float) for x in probe]
        assert nm.check_axioms_numeric(on_points(c, probe), tol=helpers.TOL).holds("c3_metric")
        rep = nm.check_axioms_numeric(on_points(doubled(c), probe), tol=helpers.TOL)
        assert rep.quantities["c3_metric"] > 1e-2
        assert not rep.holds("c3_metric")


def scaled_anchor(c):
    return dataclasses.replace(c, anchor=lambda x: 1.01 * np.asarray(c.anchor(x)))


def without_dual_anchor_correction(c):
    """The dressing bracket rebuilt from its jets without its last term, the
    dual-anchor correction rho*<de1, e2>."""
    structure = np.array(c.pair.d.structure, dtype=float)

    def bracket_at(e1, e2, x):
        x = np.asarray(x, dtype=float)
        rho = c.anchor(x)
        e1x, p1 = e1.jet(x, c.step)
        e2x, p2 = e2.jet(x, c.step)
        val = np.einsum("ijk,...i,...j->...k", structure, e1x, e2x)
        return val + nm._mv(p2, nm._mv(rho, e1x)) - nm._mv(p1, nm._mv(rho, e2x))

    return dataclasses.replace(c, bracket_at=bracket_at)


# column scales of the anchor [-J^-1, J^-1 R] that double its rotation block
DOUBLE_ROTATION = np.repeat([1.0, 2.0], 3)


def doubled_rotation_block(c):
    return dataclasses.replace(c, anchor=lambda x: np.asarray(c.anchor(x)) * DOUBLE_ROTATION)


# (mutation of the dressing bundle, report, quantity of that report the
# mutation must fail).  Every mutation replaces the anchor field only; the
# bracket keeps the anchor bound at construction.
#
# "axioms" is `check_axioms_numeric`.  Scaling the anchor moves c2 to c5
# together; c1_jacobi does not see it.  Doubling the rotation block moves
# anchor_coisotropy 7.2e-16 -> 6.29 on the control bundle, and with it c2,
# c4 and c5; c1_jacobi and c3_metric stay put.
#
# "generators" is the worst `generator_residuals` family of the canonical
# fibers.  Doubling the bracket reads 1.26 and 0.90 on the two families,
# scaling the anchor 0.0126 and 0.0090 (base: 6.8e-11, 4.2e-10).  Dropping
# the dual-anchor correction reads 0.895 on covector_covector (base: 3.0e-10)
# and leaves the other two families below 1e-9: on two rho* sections the
# anchored derivative terms vanish, as rho rho* = 0, and the correction
# nearly cancels the structure term.
CONTROLS = [
    (scaled_anchor, "axioms", "c2_selfpairing"),
    (scaled_anchor, "axioms", "c3_metric"),
    (scaled_anchor, "axioms", "c4_anchor"),
    (scaled_anchor, "axioms", "c5_leibniz"),
    (doubled_rotation_block, "axioms", "anchor_coisotropy"),
    (doubled, "generators", "half_half"),
    (doubled, "generators", "half_covector"),
    (scaled_anchor, "generators", "half_half"),
    (scaled_anchor, "generators", "half_covector"),
    (without_dual_anchor_correction, "generators", "covector_covector"),
]
AXIOM_CONTROLS = [(m, q) for m, report, q in CONTROLS if report == "axioms"]
GENERATOR_CONTROLS = [(m, q) for m, report, q in CONTROLS if report == "generators"]

# Reported quantities whose negative control is a test of its own, by
# quantity: (test module, test name).
CONTROL_TESTS = {
    "c1_jacobi": ("test_numeric_manifold", "test_nonclosed_twist_is_rejected_then_breaks_jacobi"),
    "frozen_fiber": ("test_cli", "test_a_broken_frozen_fiber_fails_its_check"),
    "inclusion": ("test_numeric_manifold", "test_strong_map_fails_for_a_target_outside_the_image"),
    "transversality": ("test_numeric_manifold", "test_strong_map_fails_for_a_collapsing_target"),
    "integrability": ("test_numeric_manifold", "test_integrability_sees_the_twist_and_its_sign"),
    "jacobiator": ("test_numeric_manifold", "test_a_non_poisson_term_fails_the_jacobiator"),
    "lie_compat": ("test_numeric_manifold", "test_lie_compat_pins_the_cobracket_sign"),
    "sharp_compat": ("test_numeric_manifold", "test_a_shifted_complement_anchor_fails_the_sharp_identity"),
    "coordinate_bracket": ("test_reduction", "test_a_mutated_planar_fiber_fails_its_control"),
    "skew": ("test_reduction", "test_a_mutated_planar_fiber_fails_its_control"),
    "conservation": ("test_reduction", "test_a_mutated_planar_fiber_fails_its_control"),
    "flow_match": ("test_reduction", "test_a_non_poisson_bivector_fails_flow_match_and_jacobi"),
    "jacobi": ("test_reduction", "test_a_non_poisson_bivector_fails_flow_match_and_jacobi"),
}

def test_every_reported_quantity_has_a_negative_control():
    for module, name in CONTROL_TESTS.values():
        text = (Path(__file__).parent / f"{module}.py").read_text()
        assert re.search(rf"^def {name}\(", text, re.M), f"{module}::{name} is missing"
    covered = {q for _, _, q in CONTROLS} | CONTROL_TESTS.keys()
    for name in verify.EXAMPLES:
        rep = verify.run_example(name, samples=2, seed=0, tol=helpers.TOL, step=helpers.STEP)
        assert set(rep.quantities) <= covered, (name, set(rep.quantities) - covered)


ANCHOR = nm.rotation_double_anchor


def _transposed_jacobian_anchor(x):
    jinv_t = so3.left_jacobian_inv(x).swapaxes(-1, -2)
    return np.concatenate([-jinv_t, jinv_t @ so3.exp_rotation(x)], axis=-1)


# (replacement for the dressing anchor, construction gate it must trip), at
# 5 points of seed 0.  The bundle binds its anchor when it is built.
GATE_CONTROLS = [
    (lambda x: ANCHOR(x) * DOUBLE_ROTATION, "anchor fails coisotropy"),
    (lambda x: 1.01 * ANCHOR(x), "not bracket-compatible"),
    (lambda x: -ANCHOR(x), "not bracket-compatible"),
    (_transposed_jacobian_anchor, "not bracket-compatible"),
]


@pytest.mark.parametrize(
    "anchor, message",
    GATE_CONTROLS,
    ids=["doubled-rotation", "scaled", "negated", "transposed-jacobian"],
)
def test_a_wrong_dressing_anchor_trips_a_construction_gate(monkeypatch, anchor, message):
    chart = nm.Chart(3, tuple(so3.sample_chart_points(5, 0)))
    monkeypatch.setattr(nm, "rotation_double_anchor", anchor)
    with pytest.raises(ValueError, match=message):
        nm.make_dressing_courant(chart, h=helpers.STEP)


@pytest.fixture(scope="module")
def control_dressing():
    chart = nm.Chart(3, tuple(so3.sample_chart_points(6, 0)))
    cd = nm.make_dressing_courant(chart, h=helpers.STEP)
    return cd, nm.check_axioms_numeric(cd, tol=helpers.TOL)


@pytest.mark.parametrize(
    "mutation, quantity",
    AXIOM_CONTROLS,
    ids=[f"{m.__name__}-{q}" for m, q in AXIOM_CONTROLS],
)
def test_a_mutated_dressing_bundle_fails_its_control(control_dressing, mutation, quantity):
    cd, base = control_dressing
    assert base.holds(quantity)
    rep = nm.check_axioms_numeric(mutation(cd), tol=helpers.TOL)
    assert not rep.holds(quantity)


def worst_generator_residuals(c):
    can = nm.canonical_hamiltonian(c)
    out = {}
    for x in c.chart.sample_points:
        for family, value in can.generator_residuals(x).items():
            out[family] = max(out.get(family, 0.0), value)
    return out


@pytest.mark.parametrize(
    "mutation, family",
    GENERATOR_CONTROLS,
    ids=[f"{m.__name__}-{q}" for m, q in GENERATOR_CONTROLS],
)
def test_a_mutated_dressing_bundle_moves_its_generator_family(control_dressing, mutation, family):
    cd, _ = control_dressing
    assert worst_generator_residuals(cd)[family] < helpers.TOL
    assert worst_generator_residuals(mutation(cd))[family] > 1e-3


def test_a_scaled_anchor_leaves_the_jacobi_axiom_alone(control_dressing):
    cd, base = control_dressing
    rep = nm.check_axioms_numeric(scaled_anchor(cd), tol=helpers.TOL)
    assert rep.quantities["c1_jacobi"] == base.quantities["c1_jacobi"]
    assert rep.holds("c1_jacobi")


def test_bracket_error_shrinks_with_the_step(flat3):
    chart, pts = flat3
    factory = lambda step: nm.make_standard_twisted(chart, nm.volume_form(3), h=step)
    coarse = helpers.fd_convergence_probe(factory, pts[0], 1e-2)
    fine = helpers.fd_convergence_probe(factory, pts[0], 1e-3)
    assert fine < coarse / 10.0
    assert fine < 1e-5


def test_dressing_bracket_extends_the_algebra_bracket(dressing, so3_pair, so3_points):
    def basis_vec(i):
        return tuple(Fraction(1 if k == i else 0) for k in range(6))

    basis = [nm.SectionField.constant(np.eye(6)[i]) for i in range(6)]
    x = np.asarray(so3_points[0], float)
    for i in range(6):
        for j in range(6):
            got = dressing.bracket_at(basis[i], basis[j], x)
            want = np.array(
                [float(v) for v in so3_pair.d.bracket(basis_vec(i), basis_vec(j))]
            )
            assert np.allclose(got, want, atol=1e-9)


def test_dressing_axiom_report(dressing, so3_points):
    pts = [np.asarray(x, float) for x in so3_points[:2]]
    rep = nm.check_axioms_numeric(on_points(dressing, pts), tol=helpers.TOL)
    assert rep.passed
    assert dressing.anchor_coisotropy_residual(so3_points[:6]) < 1e-10


def test_a_chart_refuses_duplicate_points():
    x = np.array([0.25, -0.5, 1.0])
    with pytest.raises(ValueError, match="duplicate sample point"):
        nm.Chart(3, (x, np.zeros(3), x.copy()))
    # signed zeros are the same point
    with pytest.raises(ValueError, match="duplicate sample point"):
        nm.Chart(3, (np.array([0.0, -0.0, 1.0]), np.array([-0.0, 0.0, 1.0])))
    assert len(nm.Chart(3, (x, -x)).sample_points) == 2


def test_dressing_chart_requires_the_rotation_double():
    chart = nm.Chart(2, (np.zeros(2),))
    with pytest.raises(ValueError, match="six-dimensional"):
        nm.make_dressing_courant(chart, h=helpers.STEP)


def _entrywise_floats(m):
    return [_entrywise_floats(v) for v in m] if isinstance(m, (tuple, list)) else float(m)


def test_a_float_array_of_fractions_converts_each_entry_as_float_does():
    # the float tier reads exact matrices by np.array(m, dtype=float)
    exact = []
    for pair in catalog().values():
        splitting = make_isotropic_splitting(pair)
        exact += [pair.d.form.gram, pair.d.structure, pair.g.basis, splitting.j]
    rng, big = random.Random(0), 10**40
    fraction = lambda: Fraction(rng.randrange(-big, big), rng.randrange(1, big))
    exact.append([[fraction() for _ in range(100)] for _ in range(200)])
    for m in exact:
        got, want = np.array(m, dtype=float), np.array(_entrywise_floats(m), dtype=float)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def splitting_defects(c, s, points):
    # worst |rho s - 1| and |s^T g s|: s is a right inverse with isotropic image
    comp = max(float(np.max(np.abs(c.anchor_matrix(x) @ s(x) - np.eye(c.chart.dim)))) for x in points)
    iso = max(float(np.max(np.abs(s(x).T @ c.gram @ s(x)))) for x in points)
    return comp, iso


def test_exact_splitting_of_the_standard_bundle(standard3, flat3):
    _, pts = flat3
    s, phi = nm.make_exact_splitting(standard3)
    assert np.allclose(
        s(pts[0]), np.vstack([np.eye(3), np.zeros((3, 3))]), atol=1e-12
    )
    assert np.allclose(phi(pts[0]), 0.0, atol=1e-10)
    comp, iso = splitting_defects(standard3, s, pts[:3])
    assert comp < 1e-12
    assert iso < 1e-12


def test_exact_splitting_of_the_dressing_bundle(dressing, so3_points):
    s, phi = nm.make_exact_splitting(dressing)
    comp, iso = splitting_defects(dressing, s, so3_points[:4])
    assert comp < 1e-9
    assert iso < 1e-9
    p = phi(np.asarray(so3_points[0], float))
    assert p.shape == (3, 3, 3)
    assert np.allclose(p, -np.swapaxes(p, 1, 2), atol=1e-12)


def test_splitting_requires_an_exact_onto_anchor(flat3):
    chart, _ = flat3
    thin = nm.CourantNumeric(
        chart=chart,
        rank=4,
        gram=np.eye(4),
        anchor=helpers.per_point(lambda x: np.zeros((3, 4))),
        bracket_at=lambda e1, e2, x: np.zeros(4),
        step=1e-4,
    )
    with pytest.raises(ValueError, match="twice the chart dimension"):
        nm.make_exact_splitting(thin)
    flat_anchor = nm.CourantNumeric(
        chart=chart,
        rank=6,
        gram=np.eye(6),
        anchor=helpers.per_point(lambda x: np.zeros((3, 6))),
        bracket_at=lambda e1, e2, x: np.zeros(6),
        step=1e-4,
    )
    with pytest.raises(ValueError, match="not onto"):
        nm.make_exact_splitting(flat_anchor)


def untwisted_closure(frame, x):
    rep = nm.check_strong_dirac(
        frame, [x], phi=np.zeros((3, 3, 3)), h=helpers.STEP, tol=helpers.TOL
    )
    return rep.quantities["integrability"]


def test_tangent_half_gives_the_plain_tangent_dirac_field(standard3, flat3):
    _, pts = flat3
    s, _ = nm.make_exact_splitting(standard3)
    half = canonicalize(rat.hstack(rat.identity(3), rat.zeros(3, 3)), 6)
    field = nm.dirac_of_pair(standard3, half, s)
    assert np.allclose(
        field(pts[0]), np.hstack([np.eye(3), np.zeros((3, 3))]), atol=1e-12
    )
    assert untwisted_closure(field, pts[0]) < 1e-10


def test_dressing_half_field_is_lagrangian_and_integrable(dressing, so3_pair, so3_points):
    s, phi = nm.make_exact_splitting(dressing)
    field = nm.dirac_of_pair(dressing, so3_pair.g, s)
    x = np.asarray(so3_points[0], float)
    b = field(x)
    pairing = np.block([[np.zeros((3, 3)), np.eye(3)], [np.eye(3), np.zeros((3, 3))]])
    assert float(np.max(np.abs(b @ pairing @ b.T))) < 1e-8
    sv = np.linalg.svd(b, compute_uv=False)
    assert int(np.sum(sv < 1e-8 * max(1.0, sv[0]))) == 0
    rep = nm.check_strong_dirac(field, [x], phi=phi, h=helpers.STEP, tol=helpers.TOL)
    assert rep.quantities["integrability"] < 1e-6


def test_half_must_close_under_the_algebra_bracket(dressing):
    s, _ = nm.make_exact_splitting(dressing)
    mixed = canonicalize(
        [
            (1, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 0, 0),
        ],
        6,
    )
    with pytest.raises(ValueError, match="closed under"):
        nm.dirac_of_pair(dressing, mixed, s)


def test_canonical_fibers_freeze_to_exact_hamiltonian_data(canonical_space, so3_points):
    x = np.asarray(so3_points[0], float)
    rows = canonical_space.fiber_rows(x)
    assert rows.shape == (6, 12)
    frozen = canonical_space.frozen_fiber(x)
    assert frozen.pair is canonical_space.courant.pair
    assert frozen.dJ == rat.identity(3)
    rep = check_hamiltonian_fiber(frozen)
    assert rep.quantities == {"definition": 0, "equivalent": 0}


def test_a_nudged_frozen_anchor_is_not_lagrangian(canonical_space, so3_points):
    # rebuild the fiber rows as frozen_fiber does, from the exact anchor and
    # from the same anchor with one entry moved by 1/10^8: only the exact
    # one is Lagrangian.  The entry's denominator, the Jacobian's 2^52 grid
    # times the Cayley denominator, has over 150 bits.
    frozen = canonical_space.frozen_fiber(np.asarray(so3_points[0], float))
    pair, n = frozen.pair, frozen.t_dim
    den = frozen.rho[0][3].denominator
    assert den % 2**52 == 0 and den.bit_length() > 150

    def fiber(rho):
        rho_star = rat.mat_mul(pair.d.form.gram_inv, rat.transpose(rho))
        zero_t = (Fraction(0),) * n
        rows = [tuple(rat.mat_vec(rho, a)) + zero_t + tuple(a) for a in pair.g.basis]
        for k in range(n):
            eps = tuple(Fraction(-1 if i == k else 0) for i in range(n))
            rows.append(zero_t + eps + tuple(r[k] for r in rho_star))
        k_space = canonicalize(rows, 2 * n + pair.d.dim)
        legs = integer_legs(rat.identity(n), rho)
        return HamiltonianFiber(t_dim=n, pair=pair, K=k_space, legs=legs)

    assert fiber(frozen.rho).K == frozen.K
    nudged = [list(r) for r in frozen.rho]
    nudged[0][3] += Fraction(1, 10**8)
    with pytest.raises(ValueError, match="not Lagrangian"):
        fiber(nudged)


def test_canonical_generator_families_stay_in_the_fiber(canonical_space, so3_points):
    res = canonical_space.generator_residuals(np.asarray(so3_points[0], float))
    assert set(res) == {"half_half", "half_covector", "covector_covector"}
    assert max(res.values()) < 1e-6


def _at_each_point(field, ys):
    """``field`` taken at each point of the stack ``ys`` on its own."""
    values = [field(y) for y in ys.reshape(-1, ys.shape[-1])]
    return np.array(values).reshape(ys.shape[:-1] + np.shape(values[0]))


@pytest.mark.parametrize("kind", ["standard", "dressing"])
def test_every_built_field_at_a_stencil_stack_is_its_point_by_point_value(
    kind, standard3, so3_splitting
):
    # the splitting, its twist, the Dirac frame, and on the dressing bundle
    # the canonical fiber rows, the bivector, the action and the
    # complement's anchor of the shipped complement and of the
    # COBRACKET_TWIST one, each at the stencil stack
    # (P, 2n + 1, n) of 20 points, bit for bit
    if kind == "standard":
        c, pts = standard3, verify._flat_points(20, seed=0)
        half = canonicalize(rat.hstack(rat.identity(3), rat.zeros(3, 3)), 6)
    else:
        pair, pts, c = verify._dressing(20, 0, helpers.STEP)
        half = pair.g
    s, phi = nm.make_exact_splitting(c)
    fields = {"s": s, "phi": phi, "frame": nm.dirac_of_pair(c, half, s)}
    if kind == "dressing":
        fields["fiber_rows"] = nm.CanonicalSpace(courant=c, s=s, phi=phi).fiber_rows
        twisted = helpers.twist(so3_splitting, rat.matrix(COBRACKET_TWIST))
        for name, sp in (("shipped", so3_splitting), ("twisted", twisted)):
            fields[f"pi {name}"], fields[f"rho_x {name}"], fields[f"rho_astar {name}"] = (
                nm.make_quasi_pi_field(c, sp.j)
            )
    ys = nm._stencil_points(np.array(pts), helpers.STEP)
    assert ys.shape == (20, 7, 3)
    for name, field in fields.items():
        stacked, want = field(ys), _at_each_point(field, ys)
        assert stacked.shape == want.shape and stacked.tobytes() == want.tobytes(), name


def test_stacked_generator_residuals_are_the_worst_per_point_reading(
    canonical_space, so3_points
):
    pts = np.array(so3_points[:4])
    per_point = {}
    for x in pts:
        for family, value in canonical_space.generator_residuals(x).items():
            per_point[family] = max(per_point.get(family, 0.0), value)
    assert canonical_space.generator_residuals(pts) == per_point


def test_stacked_integrability_is_the_worst_per_point_reading(
    dressing, so3_pair, canonical_space, so3_points
):
    frame = nm.dirac_of_pair(dressing, so3_pair.g, canonical_space.s)
    pts = np.array(so3_points[:4])
    per_point = max(
        nm.check_strong_dirac(
            frame, [x], phi=canonical_space.phi, h=helpers.STEP, tol=helpers.TOL
        ).quantities["integrability"]
        for x in pts
    )
    stacked = nm.check_strong_dirac(
        frame, pts, phi=canonical_space.phi, h=helpers.STEP, tol=helpers.TOL
    )
    assert stacked.quantities["integrability"] == per_point
    assert 0.0 < per_point < helpers.TOL


def cayley_probe_points():
    """Chart points for the frozen rotation: 40 samples at each of three
    seeds, points within 1e-6 of the origin, and points just inside the
    pi - 0.2 radius that ``sample_chart_points`` keeps."""
    pts = [x for seed in (0, 1, 2) for x in so3.sample_chart_points(40, seed)]
    rng = np.random.default_rng(11)
    for scale in (1e-7, 3e-7, 9e-7):
        pts += list(scale * rng.uniform(-1.0, 1.0, size=(3, 3)))
    for axis in rng.normal(size=(6, 3)):
        pts.append(axis / np.linalg.norm(axis) * (np.pi - 0.2 - 1e-9))
    return pts


def test_the_closed_form_cayley_freeze_is_the_inverse_form():
    pts = cayley_probe_points()
    assert len(pts) >= 100
    for x in pts:
        r = so3.exp_rotation(x)
        frozen = rat.fractions(*so3.rationalize_rotation(r))
        assert frozen == helpers.reference_rationalize_rotation(r)
        assert rat.mat_mul(frozen, rat.transpose(frozen)) == rat.identity(3)


REFERENCE_ANCHOR = helpers.per_point(helpers.reference_rotation_double_anchor)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("samples", [1, 3, 20, 74])
def test_the_stacked_rotation_anchor_is_the_one_point_anchor_bit_for_bit(samples, seed):
    xs = np.array(so3.sample_chart_points(samples, seed))
    ys = nm._stencil_points(xs, helpers.STEP)
    for stack in (xs, ys):
        assert nm.rotation_double_anchor(stack).tobytes() == REFERENCE_ANCHOR(stack).tobytes()


def test_the_stacked_rotation_anchor_takes_each_small_angle_branch_per_point():
    # theta = 0 (both series), theta in (0, 1e-8) (both series), theta in
    # [1e-8, 1e-6) (the closed rotation and the series Jacobian), among
    # points with both closed forms
    rng = np.random.default_rng(0)
    unit = rng.normal(size=(12, 3))
    unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
    # the last point's angle underflows to 0
    zero = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], 1e-300 * unit[0]])
    tiny = unit[:4] * np.array([[1e-150], [1e-12], [3e-9], [9.9e-9]])
    # angles whose squares are subnormal, so the closed forms overflow
    tiny = np.vstack([tiny, [[1e-158, 0.0, 0.0]], 3e-156 * unit[1:2]])
    small = np.vstack([[1e-8, 0.0, 0.0], unit[4:8] * np.array([[2e-8], [1e-7], [5e-7], [9.9e-7]])])
    wide = unit[8:] * np.array([[1e-6], [0.1], [1.0], [np.pi - 0.2]])
    theta = lambda x: np.linalg.norm(x, axis=-1)
    assert np.all(theta(zero) == 0.0)
    assert np.all(theta(tiny) < 1e-8) and np.all(theta(tiny) > 0.0)
    assert np.all((1e-8 <= theta(small)) & (theta(small) < 1e-6))
    stack = np.vstack([wide[:2], zero, tiny, wide[2:], small])
    assert nm.rotation_double_anchor(stack).tobytes() == REFERENCE_ANCHOR(stack).tobytes()
    for x in stack:
        assert nm.rotation_double_anchor(x).tobytes() == REFERENCE_ANCHOR(x).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("samples", [1, 20, 74])
def test_the_stacked_exact_anchor_is_the_one_point_reference(samples, seed):
    # one stacked pass, straight to integers, against the anchor frozen one
    # point at a time through Fractions: the same rationals at every point
    pts = so3.sample_chart_points(samples, seed)
    anchors = nm.rotation_double_integer_anchor(np.array(pts))
    assert len(anchors) == samples
    for x, anchor in zip(pts, anchors):
        want = helpers.reference_rotation_double_integer_anchor(x)
        assert rat.fractions(*anchor) == rat.fractions(*want)
        assert nm.rotation_double_integer_anchor(x) == anchor


@pytest.mark.parametrize("name", ["rotation_strong_section", "rotation_canonical_fibers"])
def test_each_freezing_example_calls_the_exact_anchor_once(monkeypatch, name):
    # one call on the stack of all 20 points, not one call per point
    calls = []
    exact = nm.rotation_double_integer_anchor

    def counted(x):
        calls.append(np.shape(x))
        return exact(x)

    monkeypatch.setattr(nm, "rotation_double_integer_anchor", counted)
    report = verify.run_example(name, samples=20, seed=0, tol=helpers.TOL, step=helpers.STEP)
    assert report.passed
    assert calls == [(20, 3)]


def test_the_frozen_rotation_anchor_is_the_one_point_anchor_frozen():
    for seed in (0, 1, 2):
        for x in so3.sample_chart_points(50, seed):
            jinv = helpers.rationalize_matrix(helpers.reference_left_jacobian_inv(x))
            rotation = rat.fractions(*so3.rationalize_rotation(helpers.reference_exp_rotation(x)))
            want = rat.mat_mul(jinv, rat.hstack(rat.mat_neg(rat.identity(3)), rotation))
            assert nm.rotation_double_exact_anchor(x) == want


def test_the_frozen_rotation_anchor_is_near_the_float_one_over_a_short_denominator():
    # each rounded entry moves by at most 2^-53 on the 2^-52 grid; the
    # frozen anchor's common denominator is the Jacobian's 2^52 times the
    # Cayley denominator
    for seed in (0, 1, 2):
        for x in so3.sample_chart_points(50, seed):
            exact = nm.rotation_double_exact_anchor(x)
            gap = np.array(exact, dtype=float) - nm.rotation_double_anchor(x)
            assert np.max(np.abs(gap)) < 2e-15
            assert math.lcm(*(v.denominator for row in exact for v in row)).bit_length() <= 170


def points_in(x):
    """The number of points of a point ``(n,)`` or a stack ``(..., n)``."""
    return int(np.prod(np.shape(x)[:-1]))


def test_quasi_poisson_evaluates_its_fields_once_per_stencil_point(
    dressing, so3_splitting, so3_quasi_data, so3_points
):
    pi, rho_x, rho_astar = nm.make_quasi_pi_field(dressing, so3_splitting.j)
    seen = {"pi": 0, "rho_x": 0, "rho_astar": 0}

    def counted(name, fn):
        def at(x):
            seen[name] += points_in(x)
            return fn(x)

        return at

    pts = [np.asarray(x, float) for x in so3_points[:3]]
    rep = nm.check_quasi_poisson(
        counted("pi", pi),
        counted("rho_x", rho_x),
        so3_quasi_data.chi,
        so3_quasi_data.F,
        pts,
        rho_astar=counted("rho_astar", rho_astar),
        h=helpers.STEP,
        tol=1e-4,
    )
    assert rep.passed
    # each point and its six central-difference neighbours once; 291 and
    # 66 when every inner bracket and partial table evaluated them afresh.
    # The sharp identity takes no derivative: the points only.
    assert seen == {"pi": 7 * len(pts), "rho_x": 7 * len(pts), "rho_astar": len(pts)}


def test_strong_map_report_on_frozen_exact_fibers(
    dressing, so3_pair, canonical_space, so3_points
):
    s, phi = nm.make_exact_splitting(dressing)
    field = nm.dirac_of_pair(dressing, so3_pair.g, s)

    def exact_fibers(x):
        rho_q = nm.rotation_double_exact_anchor(x)
        ident = identification_from_anchor(so3_pair, rho_q)
        lx = dirac_from_k(canonical_space.frozen_fiber(x), ident).L
        ls_rows = [
            tuple(rat.mat_vec(rho_q, a)) + tuple(rat.mat_vec(ident.s_star, a))
            for a in so3_pair.g.basis
        ]
        return lx, canonicalize(ls_rows, 6), rat.identity(3)

    pts = [np.asarray(x, float) for x in so3_points[:2]]
    rep = nm.check_strong_dirac(
        field, pts, phi=phi, exact_fibers=exact_fibers, h=helpers.STEP, tol=helpers.TOL
    )
    assert rep.exact == {"inclusion", "transversality"} and rep.passed
    assert rep.quantities["inclusion"] == 0.0
    assert rep.quantities["integrability"] < 1e-6


OMEGA = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
GRAPH_OF_OMEGA = rat.hstack(rat.identity(3), rat.matrix(OMEGA))
TANGENT = rat.hstack(rat.identity(3), rat.zeros(3, 3))


def exact_strong_map(source, target, dj, x):
    # exact fibers only: no frame, so no finite-difference integrability;
    # the supplier validates the source fiber as Lagrangian
    fibers = (DiracPointData(canonicalize(source, 6)).L, canonicalize(target, 6), dj)
    return nm.check_strong_dirac(
        None, [x], exact_fibers=lambda y: fibers, h=helpers.STEP, tol=helpers.TOL
    )


def test_strong_map_fails_for_a_collapsing_target(flat3):
    # dJ = 0 kills the tangent part of the graph of omega (its kernel e_3)
    _, pts = flat3
    rep = exact_strong_map(GRAPH_OF_OMEGA, TANGENT, rat.zeros(3, 3), pts[0])
    assert rep.quantities["transversality"] == 1
    assert "integrability" not in rep.quantities
    assert rep.passed is False
    # the condition is ker dJ n ker L = 0, with ker L = L n T = span e_3,
    # not dJ injective on T: onto its own forward image, diag(0, 1, 1)
    # keeps e_3 and passes, and diag(1, 1, 0) collapses just e_3 and fails
    source = DiracPointData(canonicalize(GRAPH_OF_OMEGA, 6)).L
    for diagonal, reading in (((0, 1, 1), 0), ((1, 1, 0), 1)):
        dj = rat.matrix([[d if i == j else 0 for j in range(3)] for i, d in enumerate(diagonal)])
        rep = exact_strong_map(GRAPH_OF_OMEGA, forward_dirac(source, dj).basis, dj, pts[0])
        assert rep.quantities == {"inclusion": 0.0, "transversality": reading}


def test_strong_map_fails_for_a_target_outside_the_image(flat3):
    # the identity pushes the graph of omega to itself, which is not T
    _, pts = flat3
    rep = exact_strong_map(GRAPH_OF_OMEGA, TANGENT, rat.identity(3), pts[0])
    assert rep.quantities == {"inclusion": 1.0, "transversality": 0}
    assert rep.exact == {"inclusion", "transversality"}
    assert not rep.holds("inclusion") and rep.holds("transversality")
    same = exact_strong_map(GRAPH_OF_OMEGA, GRAPH_OF_OMEGA, rat.identity(3), pts[0])
    assert same.quantities == {"inclusion": 0.0, "transversality": 0}
    assert same.passed


def test_a_strong_map_check_that_measures_nothing_is_refused(flat3):
    _, pts = flat3
    with pytest.raises(ValueError, match="measure"):
        nm.check_strong_dirac(_graph_of_x0_dx1_dx2, pts, h=helpers.STEP, tol=helpers.TOL)


@helpers.per_point
def _graph_of_x0_dx1_dx2(x):
    # rows (e_i, omega[i, :]) of the graph of omega = x0 dx1 ^ dx2, d omega = vol
    omega = np.zeros((3, 3))
    omega[1, 2], omega[2, 1] = x[0], -x[0]
    return np.hstack([np.eye(3), omega])


@pytest.mark.parametrize("scale, want", [(-1.0, 0.0), (0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
def test_integrability_sees_the_twist_and_its_sign(scale, want):
    # a graph of omega is phi-integrable exactly when d omega = -phi, so only
    # phi = -vol passes; the defect grows by one per unit of vol in phi
    pts = verify._flat_points(6, seed=0)
    rep = nm.check_strong_dirac(
        _graph_of_x0_dx1_dx2,
        pts,
        phi=scale * nm.volume_form(3),
        h=helpers.STEP,
        tol=helpers.TOL,
    )
    assert rep.quantities["integrability"] == pytest.approx(want, abs=1e-9)
    assert rep.passed is (scale == -1.0)


def test_the_pulled_twist_is_evaluated_once_per_point():
    pair, pts, cd = verify._dressing(20, 0, 1e-4)
    can = nm.canonical_hamiltonian(cd)
    frame = nm.dirac_of_pair(cd, pair.g, can.s)
    calls = []

    def phi(y):
        calls.append(y)
        return can.phi(y)

    rep = nm.check_strong_dirac(frame, pts, phi=phi, h=helpers.STEP, tol=helpers.TOL)
    assert rep.passed
    # one call on the stack of the 20 points; 60 points when each of the
    # three frame pairs pulled the twist back again
    assert [points_in(y) for y in calls] == [20]


def test_the_strong_section_takes_the_anchor_adjoint_once_per_point(monkeypatch, so3_pair):
    form = so3_pair.d.form
    adjoints = []
    adjoint = SplitForm.adjoint

    def counted(self, anchor):
        if self is form:
            adjoints.append(anchor)
        return adjoint(self, anchor)

    monkeypatch.setattr(SplitForm, "adjoint", counted)
    assert verify.run_example(
        "rotation_strong_section", samples=3, seed=0, tol=helpers.TOL, step=helpers.STEP
    ).passed
    # 9 when the frozen fiber, the splitting's correction and the
    # identification's check each took G^-1 rho^T
    assert len(adjoints) == 3


def test_quasi_poisson_takes_each_gradient_once_per_point(monkeypatch):
    calls = []
    partial_table = nm.partial_table

    def counted(*args):
        calls.append(args[1])
        return partial_table(*args)

    monkeypatch.setattr(nm, "partial_table", counted)
    assert verify.run_example(
        "rotation_quasi_poisson", samples=3, seed=0, tol=helpers.TOL, step=helpers.STEP
    ).passed
    # one call per probe function over the stack of three points, and two
    # for the construction gate's commutator; 168 while the check
    # differentiated one point at a time, 630 when each inner bracket
    # retook both library gradients at every central-difference point
    assert len(calls) == 7


def test_the_strong_map_frame_is_read_once_per_point():
    calls = []

    def frame(x):
        calls.append(x)
        return _graph_of_x0_dx1_dx2(x)

    pts = verify._flat_points(6, seed=0)
    nm.check_strong_dirac(frame, pts, phi=-nm.volume_form(3), h=helpers.STEP, tol=helpers.TOL)
    # each point and its six central-difference neighbours, in one call
    # shared by all three bracket pairs and the frames at the points
    assert [points_in(y) for y in calls] == [7 * len(pts)]


def test_quasi_bivector_field_is_antisymmetric_and_sharp_compatible(
    dressing, so3_splitting, so3_points
):
    pi, rho_x, rho_astar = nm.make_quasi_pi_field(dressing, so3_splitting.j)
    j = np.array([[float(v) for v in row] for row in so3_splitting.j])
    for x in so3_points[:4]:
        x = np.asarray(x, float)
        p = pi(x)
        assert p.shape == (3, 3)
        assert np.allclose(p, -p.T, atol=1e-10)
        # the returned field is the complement's anchor rho j
        assert np.array_equal(rho_astar(x), dressing.anchor_matrix(x) @ j)
        assert np.allclose(p.T, rho_x(x) @ rho_astar(x).T, atol=1e-14)


def test_quasi_poisson_identities_hold_along_the_dressing_chart(
    dressing, so3_splitting, so3_quasi_data, so3_points
):
    pi, rho_x, rho_astar = nm.make_quasi_pi_field(dressing, so3_splitting.j)
    funcs = list(nm.scalar_library(3)[:4]) + [helpers.group_trace_function]
    rep = nm.check_quasi_poisson(
        pi,
        rho_x,
        so3_quasi_data.chi,
        so3_quasi_data.F,
        [np.asarray(x, float) for x in so3_points[:2]],
        rho_astar=rho_astar,
        funcs=funcs,
        h=helpers.STEP,
        tol=1e-4,
    )
    assert rep.passed
    assert rep.exact == frozenset()
    # algebraic, so roundoff only
    assert rep.quantities["sharp_compat"] < 1e-14
    assert rep.quantities["jacobiator"] < 1e-6
    assert rep.quantities["lie_compat"] < 1e-4


# A skew shift of the so3-double complement, j'(xi) = j(xi) + i_xi w: the
# shipped complement has F = 0, this one does not, so lie_compat on it
# tells the two signs of the pushed cobracket apart.
COBRACKET_TWIST = ((0, 1, 0), (-1, 0, 2), (0, -2, 0))


def test_lie_compat_pins_the_cobracket_sign(dressing, so3_pair, so3_splitting):
    twisted = helpers.twist(so3_splitting, rat.matrix(COBRACKET_TWIST))
    qd = derive_quasi_data(so3_pair, twisted)
    assert any(v for f in qd.F for row in f for v in row)
    pi, rho_x, _ = nm.make_quasi_pi_field(dressing, twisted.j)
    pts = so3.sample_chart_points(6, seed=0)
    right = nm.check_quasi_poisson(pi, rho_x, qd.chi, qd.F, pts, h=helpers.STEP, tol=1e-4)
    flipped = tuple(rat.mat_neg(f) for f in qd.F)
    wrong = nm.check_quasi_poisson(pi, rho_x, qd.chi, flipped, pts, h=helpers.STEP, tol=1e-4)
    assert right.passed
    assert right.quantities["lie_compat"] < 1e-6
    assert not wrong.holds("lie_compat")
    assert wrong.quantities["lie_compat"] > 1.0
    # the Jacobiator identity does not read F
    assert wrong.quantities["jacobiator"] == right.quantities["jacobiator"]


def _quasi_poisson_case(case, so3_pair, so3_splitting, cd):
    """The arguments of one quasi-Poisson check on the dressing bundle
    ``cd``: the shipped complement with the default probes and the
    complement's anchor, with the group-trace probe, or with its cobracket
    left out (no ``lie_compat``), or the ``COBRACKET_TWIST`` complement,
    whose cobracket is not zero, without the complement's anchor (no
    ``sharp_compat``)."""
    sp = helpers.twist(so3_splitting, rat.matrix(COBRACKET_TWIST)) if case == "twist" else so3_splitting
    qd = derive_quasi_data(so3_pair, sp)
    pi, rho_x, rho_astar = nm.make_quasi_pi_field(cd, sp.j)
    args = (pi, rho_x, qd.chi, () if case == "no_cobracket" else qd.F)
    kwargs = {"h": helpers.STEP, "tol": 1e-4}
    if case != "twist":
        kwargs["rho_astar"] = rho_astar
    if case == "group_trace":
        kwargs["funcs"] = list(nm.scalar_library(3)[:4]) + [helpers.group_trace_function]
    return args, kwargs


@pytest.mark.parametrize("case", ["default", "group_trace", "no_cobracket", "twist"])
def test_the_stacked_quasi_poisson_check_is_the_reference_repr_for_repr(case, so3_pair, so3_splitting):
    # on a 3-dim chart the stencil stack of 73 points fits the point memo
    # and that of 74 points outgrows it
    _, pts, cd = verify._dressing(74, 0, helpers.STEP)
    args, kwargs = _quasi_poisson_case(case, so3_pair, so3_splitting, cd)
    assert nm._PER_POINT_MEMO // 7 == 73
    for count in (1, 3, 20, 73, 74):
        got = nm.check_quasi_poisson(*args, pts[:count], **kwargs)
        want = helpers.reference_check_quasi_poisson(*args, pts[:count], **kwargs)
        assert repr(got) == repr(want)
        assert ("lie_compat" in got.quantities) is (case != "no_cobracket")
        assert ("sharp_compat" in got.quantities) is (case != "twist")


def test_a_non_poisson_term_fails_the_jacobiator():
    # rotation_quasi_poisson's own setup, with the non-Poisson planar control
    # added to the bivector: jacobiator reads 2.2e-9 -> 1.40.  The mutation
    # also moves lie_compat (3.3e-9 -> 3.21), as P is not invariant; no
    # mutation tried moves the jacobiator alone.
    pair, pts, cd = verify._dressing(6, 0, helpers.STEP)
    sp = make_isotropic_splitting(pair)
    qd = derive_quasi_data(pair, sp)
    pi, rho_x, _ = nm.make_quasi_pi_field(cd, sp.j)
    base = nm.check_quasi_poisson(pi, rho_x, qd.chi, qd.F, pts, h=helpers.STEP, tol=1e-4)
    mutated = helpers.per_point(lambda x: pi(x) + helpers.not_poisson_bivector(x))
    rep = nm.check_quasi_poisson(mutated, rho_x, qd.chi, qd.F, pts, h=helpers.STEP, tol=1e-4)
    assert base.passed
    assert rep.quantities["jacobiator"] == pytest.approx(1.40, abs=0.01)
    assert rep.quantities["lie_compat"] == pytest.approx(3.21, abs=0.01)
    assert not rep.holds("jacobiator")


def test_a_shifted_complement_anchor_fails_the_sharp_identity(
    dressing, so3_splitting, so3_quasi_data, so3_points
):
    pi, rho_x, rho_astar = nm.make_quasi_pi_field(dressing, so3_splitting.j)
    rep = nm.check_quasi_poisson(
        pi,
        rho_x,
        so3_quasi_data.chi,
        so3_quasi_data.F,
        [np.asarray(so3_points[0], float)],
        rho_astar=lambda x: rho_astar(x) + 1.0,
        funcs=nm.scalar_library(3)[:3],
        h=helpers.STEP,
        tol=1e-4,
    )
    assert not rep.passed
    assert rep.quantities["sharp_compat"] > 1e-4
    assert not rep.holds("sharp_compat")
    # the other two identities do not read rho_astar
    assert rep.holds("jacobiator") and rep.holds("lie_compat")


def test_a_perturbed_bivector_fails_the_sharp_identity():
    # rotation_quasi_poisson's own setup at the command line's tolerance,
    # with eps * B added to pi: the sharp identity reads the perturbed
    # bivector itself, whose largest entry of B is 2, so it reads 2 eps
    pair, pts, cd = verify._dressing(6, 0, helpers.STEP)
    sp = make_isotropic_splitting(pair)
    qd = derive_quasi_data(pair, sp)
    pi, rho_x, rho_astar = nm.make_quasi_pi_field(cd, sp.j)
    b = np.array(COBRACKET_TWIST, dtype=float)
    eps, tol = 1e-5, verify.DEFAULTS["tol"]
    kwargs = {"rho_astar": rho_astar, "h": helpers.STEP, "tol": tol}
    clean = nm.check_quasi_poisson(pi, rho_x, qd.chi, qd.F, pts, **kwargs)
    perturbed = nm.check_quasi_poisson(lambda x: pi(x) + eps * b, rho_x, qd.chi, qd.F, pts, **kwargs)
    assert clean.passed
    assert clean.quantities["sharp_compat"] < 1e-14
    assert perturbed.quantities["sharp_compat"] == pytest.approx(2 * eps, rel=1e-6)
    assert not perturbed.holds("sharp_compat")


def test_a_quasi_poisson_check_without_points_is_refused():
    with pytest.raises(ValueError, match="at least one point"):
        nm.check_quasi_poisson(
            helpers.so3_linear_poisson,
            lambda x: np.zeros((3, 0)),
            (),
            (),
            [],
            h=helpers.STEP,
            tol=1e-4,
        )


def test_linear_rotation_poisson_satisfies_jacobi(flat3):
    _, pts = flat3
    no_action = helpers.per_point(lambda x: np.zeros((3, 0)))
    rep = nm.check_quasi_poisson(
        helpers.per_point(helpers.so3_linear_poisson),
        no_action,
        (),
        (),
        pts[:3],
        funcs=nm.scalar_library(3)[:4],
        h=helpers.STEP,
        tol=1e-4,
    )
    assert rep.passed
    assert rep.quantities["jacobiator"] < 1e-6
    assert "lie_compat" not in rep.quantities
    assert "sharp_compat" not in rep.quantities


def test_group_trace_probe_matches_rotation_angles():
    assert helpers.group_trace_function(np.zeros(3)) == pytest.approx(3.0)
    assert helpers.group_trace_function(np.array([math.pi, 0.0, 0.0])) == pytest.approx(-1.0)
    stack = np.array([[0.0, 0.0, 0.0], [0.0, math.pi, 0.0]])
    assert helpers.group_trace_function(stack) == pytest.approx([3.0, -1.0])


def test_section_library_starts_with_the_constant_frame(flat3):
    lib = nm.section_library(6, 3)
    assert len(lib) > 6
    x = np.zeros(3)
    for i in range(6):
        assert np.allclose(lib[i](x), np.eye(6)[i])
    scaled = lib[0].scaled_by(lambda y: 2.0)
    assert np.allclose(scaled(x), 2.0 * np.eye(6)[0])


def test_per_point_values_are_read_only(dressing, so3_points):
    x = np.asarray(so3_points[0], float)
    rho = dressing.anchor_matrix(x)
    with pytest.raises(ValueError):
        rho[0, 0] = 1.0
    s, _ = nm.make_exact_splitting(dressing)
    sx = s(x)
    with pytest.raises(ValueError):
        sx[0, 0] = 1.0
    assert np.array_equal(dressing.anchor_matrix(x), nm.rotation_double_anchor(x))


def test_a_warm_memo_gives_the_cold_report_bit_for_bit(dressing, so3_points):
    pts = [np.asarray(x, float) for x in so3_points[:2]]
    probed = on_points(dressing, pts)
    nm.check_axioms_numeric(probed, tol=helpers.TOL)
    nm.canonical_hamiltonian(dressing).generator_residuals(pts[0])
    warm = nm.check_axioms_numeric(probed, tol=helpers.TOL)
    cold = nm.check_axioms_numeric(
        nm.make_dressing_courant(nm.Chart(3, tuple(pts)), h=helpers.STEP), tol=helpers.TOL
    )
    assert cold.quantities == warm.quantities


def test_per_point_wrappers_keep_their_own_values():
    calls = []

    def double(x):
        calls.append("double")
        return 2.0 * x

    def negate(x):
        calls.append("negate")
        return -x

    f, g = helpers.per_point(double), helpers.per_point(negate)
    x = np.array([0.5, -1.0, 2.0])
    assert np.array_equal(f(x), 2.0 * x)
    assert np.array_equal(g(x), -x)
    assert np.array_equal(f(x.copy()), 2.0 * x)
    assert calls == ["double", "negate"]


def test_the_dressing_anchor_is_computed_once_per_point(monkeypatch):
    calls = []
    exp_rotation = so3.exp_rotation

    def counted(x):
        calls.append(x)
        return exp_rotation(x)

    monkeypatch.setattr(so3, "exp_rotation", counted)
    # 150 points' stencil stack, 1,050 points, outgrows the point memo's
    # _PER_POINT_MEMO: the check reads it whole, so no point is evicted
    # before its last reading
    for samples in (3, 150):
        calls.clear()
        assert verify.run_example(
            "rotation_dressing_axioms", samples=samples, seed=0, tol=helpers.TOL, step=helpers.STEP
        ).passed
        # each sample point and its six central-difference neighbours, once:
        # every stack the bundle reads calls so3 on just its points not seen
        assert sum(points_in(x) for x in calls) == 7 * samples
        assert len({p.tobytes() for x in calls for p in np.reshape(x, (-1, 3))}) == 7 * samples


def test_a_field_shared_by_point_is_called_once_per_point_within_its_bound():
    calls = []

    def field(x):
        calls.append(len(x))
        return np.stack([x, -x], axis=-2)

    f = nm._shared_by_point(field)
    xs = np.arange(12.0).reshape(4, 3)
    stencils = nm._stencil_points(xs, 0.5)
    assert np.array_equal(f(xs), np.stack([xs, -xs], axis=-2))
    assert np.array_equal(f(stencils), np.stack([stencils, -stencils], axis=-2))
    assert np.array_equal(f(xs[1]), [xs[1], -xs[1]])
    # the stencil stack's new points are the 24 neighbours; the single
    # point is known
    assert calls == [4, 24]
    # the point memo keeps the latest _PER_POINT_MEMO points
    many = 100.0 + np.arange(3.0 * nm._PER_POINT_MEMO).reshape(-1, 3)
    f(many)
    calls.clear()
    f(many[::-1])
    f(xs[::-1])
    assert calls == [4]


def test_shared_constant_values_are_read_only():
    x = np.zeros(3)
    with pytest.raises(ValueError):
        nm.SectionField.constant(np.ones(3))(x)[0] = 1.0
    for phi in (None, nm.volume_form(3)):
        with pytest.raises(ValueError):
            nm._phi_as_field(phi, 3)(x)[0, 1, 2] = 5.0


def _wavy_section():
    wavy = lambda y: np.array([math.sin(y[0]), y[1] * y[2], 0.0, math.cos(y[2]), y[0] ** 3, 1.0])
    return nm.SectionField(6, helpers.per_point(wavy))


def test_a_section_jet_is_its_value_and_partial_table_bit_for_bit(twisted3, flat3, dressing, so3_points):
    _, pts = flat3
    for c, points in ((twisted3, pts), (dressing, so3_points[:5])):
        _check_stacked_jets(c, [np.asarray(x, float) for x in points])


def _check_stacked_jets(c, points):
    """The jet of every probe section, over each stack of ``_stacks`` and
    at its single points, is the section's value at each point and the
    reference partial table, bit for bit."""
    n = c.chart.dim
    for e in _probe_sections(c):
        for xs in _stacks(points[0], points):
            for h in (1e-4, 1e-3):
                value, table = e.jet(xs, h)
                assert value.shape == (len(xs), e.rank) and table.shape == (len(xs), e.rank, n)
                # memoized by the stack, bar the exact jets of constants
                assert isinstance(e, nm.ConstantSection) or e.jet(xs.copy(), h)[1] is table
                for y, v, t in zip(xs, value, table):
                    assert v.tobytes() == e(y).tobytes()
                    want = helpers.directional_derivative_partial_table(e, y, n, h)
                    assert t.tobytes() == want.tobytes()
                    assert [a.tobytes() for a in e.jet(y, h)] == [v.tobytes(), want.tobytes()]


def test_section_jets_are_read_only(flat3):
    _, pts = flat3
    value, table = _wavy_section().jet(pts[0], 1e-4)
    with pytest.raises(ValueError):
        value[0] = 1.0
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_two_steps_at_one_point_give_two_tables(flat3):
    # negative control for the memo key: a memo keyed by the point alone
    # would hand the first step's table to the second
    _, pts = flat3
    e = _wavy_section()
    coarse = e.jet(pts[0], 1e-2)[1]
    fine = e.jet(pts[0], 1e-4)[1]
    assert not np.array_equal(coarse, fine)
    assert np.array_equal(fine, nm.partial_table(e, pts[0], 1e-4))


def test_the_jet_memo_is_bounded():
    calls = []

    def square(y):
        calls.append(y)
        return y**2

    e = nm.SectionField(1, square)
    pts = [np.array([float(k)]) for k in range(nm._PER_POINT_MEMO + 1)]
    for x in pts:
        e.jet(x, 1e-4)
    # one call per point, on its value and two neighbours
    assert [points_in(y) for y in calls] == [3] * len(pts)
    e.jet(pts[-1], 1e-4)
    assert len(calls) == len(pts)
    # the oldest point was evicted to keep the bound
    e.jet(pts[0], 1e-4)
    assert len(calls) == len(pts) + 1

    # the memo is keyed by the stack and keeps the same bound
    calls.clear()
    e = nm.SectionField(1, square)
    stacks = [np.array([x, -x - 0.5]) for x in pts]
    for xs in stacks:
        e.jet(xs, 1e-4)
    # one call per stack, whatever its length
    assert len(calls) == len(stacks)
    e.jet(stacks[-1], 1e-4)
    e.jet(stacks[-1][:1], 1e-4)
    assert len(calls) == len(stacks) + 1
    e.jet(stacks[0], 1e-4)
    assert len(calls) == len(stacks) + 2


def test_flat_axioms_evaluate_each_section_once_per_point_and_step(monkeypatch):
    calls = []
    call = nm.SectionField.__call__

    def counted(self, x):
        calls.append(x)
        return call(self, x)

    monkeypatch.setattr(nm.SectionField, "__call__", counted)
    assert verify.run_example(
        "flat_twisted_axioms", samples=3, seed=0, tol=helpers.TOL, step=helpers.STEP
    ).passed
    # 7,245 when every bracket recomputed its sections' tables, 2,520 while
    # constant sections were differentiated and each bracket section was
    # evaluated one stencil point at a time, 1,380 while jets and probes
    # evaluated each section one point at a time; now one call per stack
    assert len(calls) == 73


def test_flat_axioms_call_the_bracket_kernel_once_per_stack(monkeypatch):
    calls = []
    kernel = nm.twisted_bracket

    def counted(e1, e2, x, *args):
        calls.append(np.shape(x))
        return kernel(e1, e2, x, *args)

    monkeypatch.setattr(nm, "twisted_bracket", counted)
    assert verify.run_example(
        "flat_twisted_axioms", samples=3, seed=0, tol=helpers.TOL, step=helpers.STEP
    ).passed
    # one call for each of the 12 library bracket sections' jets (the three
    # points and their six stencil neighbours each), one per probe bracket
    # over the stack of three points, and one for each of the 5 metric
    # probes against its stack of metric duals; 462 (154 per point) when
    # every bracket section was rebuilt per point and evaluated point by
    # point, 12 * 3 + 39 + 5 * 3 while jets were taken point by point
    assert len(calls) == 12 + 39 + 5
    assert calls.count((3, 7, 3)) == 12
    assert calls.count((3, 3)) == 39 + 5


def test_the_dirac_frame_is_read_once_per_point(standard3, flat3):
    _, pts = flat3
    s, _ = nm.make_exact_splitting(standard3)
    half = canonicalize(rat.hstack(rat.identity(3), rat.zeros(3, 3)), 6)
    field = nm.dirac_of_pair(standard3, half, s)
    calls = []

    def counted(x):
        calls.append(x)
        return field(x)

    assert untwisted_closure(counted, pts[0]) < 1e-10
    assert [points_in(y) for y in calls] == [7]


def _probe_sections(c):
    """Library sections, one scaled by the sine probe, a dense
    non-polynomial one, and brackets of both, so the references see
    constant, varying, one-point and stacked sections, and sums of several
    nonzero products whose rounding depends on their order."""
    lib = nm.section_library(c.rank, c.chart.dim)
    scaled = lib[-1].scaled_by(nm.scalar_library(c.chart.dim)[-1])
    rng = np.random.default_rng(5)
    w, b = rng.normal(size=(c.rank, c.chart.dim)), rng.normal(size=c.rank)
    dense = nm.SectionField(c.rank, helpers.per_point(lambda y: np.sin(w @ y + b)))
    inner = c.bracket(dense, lib[c.rank])
    return lib + [scaled, dense, inner, c.bracket(lib[-1], dense), c.bracket(inner, lib[1])]


def _stacks(x, points):
    """Stacks of 1, 2n and P points: ``x`` alone, its stencil, and all; on a
    three-dimensional chart also the ``SIGNED_ZEROS`` point alone."""
    n = x.shape[0]
    steps = 1e-4 * np.eye(n)
    signed = (SIGNED_ZEROS[None],) if n == 3 else ()
    return (x[None], np.concatenate([x + steps, x - steps]), np.array(points)) + signed


def _check_stacked_kernel(c, reference, points):
    pairs = list(itertools.product(_probe_sections(c), repeat=2))
    for xs in _stacks(points[0], points):
        for e1, e2 in pairs:
            got = c.bracket_at(e1, e2, xs)
            assert got.shape == (len(xs), c.rank)
            want = np.array([reference(e1, e2, y) for y in xs])
            assert got.tobytes() == want.tobytes()
            assert c.bracket_at(e1, e2, xs[0]).tobytes() == want[0].tobytes()


@pytest.mark.parametrize("phi", [None, "volume"])
def test_stacked_twisted_bracket_is_the_per_point_reference_bit_for_bit(phi, flat3):
    chart, pts = flat3
    form = None if phi is None else nm.volume_form(3)
    c = nm.make_standard_twisted(chart, form, h=helpers.STEP)
    field = nm._phi_as_field(form, 3)
    reference = lambda e1, e2, y: helpers.twisted_bracket_at_point(e1, e2, y, field, c.step)
    _check_stacked_kernel(c, reference, [np.asarray(x, float) for x in pts])


def test_stacked_bracket_with_a_varying_twist_is_the_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    pts = tuple(rng.uniform(-0.5, 0.5, size=4) for _ in range(3))
    twist = linear_volume_twist()
    c = nm.make_standard_twisted(nm.Chart(4, pts), twist, check_closed=False, h=helpers.STEP)
    reference = lambda e1, e2, y: helpers.twisted_bracket_at_point(e1, e2, y, twist, c.step)
    _check_stacked_kernel(c, reference, list(pts))


def test_stacked_dressing_bracket_is_the_per_point_reference_bit_for_bit(dressing, so3_points):
    reference = lambda e1, e2, y: helpers.dressing_bracket_at_point(dressing, e1, e2, y)
    _check_stacked_kernel(dressing, reference, [np.asarray(x, float) for x in so3_points[:5]])


def test_stacked_products_are_the_single_point_products_bit_for_bit(dressing, twisted3):
    # einsum and norm(axis=-1) sum in another order and differ in the last bit
    rng = np.random.default_rng(2)
    a, u, w = rng.normal(size=(500, 3, 6)), rng.normal(size=(500, 6)), rng.normal(size=(500, 6))
    assert nm._mv(a, u).tobytes() == np.array([m @ v for m, v in zip(a, u)]).tobytes()
    assert nm._dot(u, w).tobytes() == np.array([p @ q for p, q in zip(u, w)]).tobytes()
    for g in (dressing.gram, twisted3.gram):
        want = np.array([p @ g @ q for p, q in zip(u, w)])
        assert nm._quad(u, g, w).tobytes() == want.tobytes()


def _axiom_bundle(kind, samples):
    if kind == "flat":
        chart = nm.Chart(3, verify._flat_points(samples, seed=0))
        return nm.make_standard_twisted(chart, nm.volume_form(3), h=helpers.STEP)
    if kind == "varying":
        pts = tuple(np.random.default_rng(11).uniform(-0.5, 0.5, size=(samples, 4)))
        chart = nm.Chart(4, pts)
        return nm.make_standard_twisted(chart, linear_volume_twist(), check_closed=False, h=helpers.STEP)
    return nm.make_dressing_courant(nm.Chart(3, tuple(so3.sample_chart_points(samples, seed=0))), h=helpers.STEP)


# on a three-dimensional chart the stencil stack of 73 points, 7 each,
# fits the _PER_POINT_MEMO points of a memo by the point, and that of 74
# points outgrows it
@pytest.mark.parametrize("samples", [1, 3, 20, 73, 74])
@pytest.mark.parametrize("kind", ["flat", "varying", "dressing"])
def test_stacked_axiom_probes_give_the_per_point_report(kind, samples):
    c = _axiom_bundle(kind, samples)
    got = nm.check_axioms_numeric(c, tol=helpers.TOL)
    assert repr(got) == repr(helpers.reference_check_axioms_numeric(c, tol=helpers.TOL))


SIGNED_ZEROS = np.array([-0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "f",
    [
        lambda y: math.sin(y[0]) * y[1] + y[2] ** 3,
        lambda y: np.array([y[0] * y[1], math.cos(y[2]), -0.0, 1.0]),
        lambda y: np.outer(np.sin(y), y)[:, :2],
        nm.SectionField(3, helpers.per_point(lambda y: y * y[::-1])),
    ],
    ids=["scalar", "vector", "matrix", "section"],
)
def test_partial_table_is_the_per_column_reference_bit_for_bit(f, flat3):
    # at each point and at every point of a stack
    _, pts = flat3
    points = list(pts[:3]) + [SIGNED_ZEROS]
    stacked = helpers.per_point(f)
    for h in (1e-4, 1e-2):
        table = nm.partial_table(stacked, np.array(points), h)
        assert table.flags.c_contiguous
        for x, row in zip(points, table):
            got = nm.partial_table(stacked, x, h)
            want = helpers.directional_derivative_partial_table(f, x, 3, h)
            assert got.tobytes() == want.tobytes() == row.tobytes()
            assert got.shape == want.shape == row.shape and got.flags.c_contiguous


def _stencil(x, h):
    # x + h e_0, x - h e_0, x + h e_1, ... as directional_derivative forms them
    rows = []
    for m in range(x.shape[0]):
        step = h * np.eye(x.shape[0])[m]
        rows += [x + step, x - step]
    return np.array(rows)


def test_partial_table_takes_the_reference_stencil_signed_zeros_included():
    # one call, on the whole stencil
    seen = []
    nm.partial_table(lambda y: seen.append(np.array(y)) or np.zeros(len(y)), SIGNED_ZEROS, 1e-4)
    assert len(seen) == 1
    assert seen[0].tobytes() == _stencil(SIGNED_ZEROS, 1e-4).tobytes()


def test_a_bracket_section_jet_takes_its_stencil_in_one_call(twisted3, flat3):
    _, pts = flat3
    lib = nm.section_library(6, 3)
    calls = []

    def kernel(e1, e2, x):
        calls.append(np.array(x))
        return twisted3.bracket_at(e1, e2, x)

    section = dataclasses.replace(twisted3, bracket_at=kernel).bracket(lib[6], lib[-1])
    assert isinstance(section, nm.SectionField)
    for x in (pts[0], SIGNED_ZEROS):
        for h in (1e-4, 1e-2):
            value, table = section.jet(x, h)
            # one call: the point itself, then its stencil
            assert len(calls) == 1
            assert calls[0].tobytes() == np.vstack([x, _stencil(x, h)]).tobytes()
            calls.clear()
            # the point-by-point jet: one kernel call per stencil point
            assert value.tobytes() == section(x).tobytes()
            want = helpers.directional_derivative_partial_table(section, x, 3, h)
            assert table.tobytes() == want.tobytes()
            assert table.flags.c_contiguous and not table.flags.writeable
            calls.clear()


def test_a_constant_jet_is_exact_and_never_calls_its_function(flat3):
    _, pts = flat3
    v = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -0.25])
    e = nm.SectionField.constant(v)
    e = dataclasses.replace(e, fn=lambda y: pytest.fail("constant jet called fn"))
    for h in (1e-4, 1e-2):
        value, table = e.jet(pts[0], h)
        assert value.tobytes() == v.tobytes()
        want = helpers.directional_derivative_partial_table(nm.SectionField.constant(v), pts[0], 3, h)
        assert table.tobytes() == want.tobytes()
        assert table.shape == (6, 3) and table.flags.c_contiguous
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        with pytest.raises(ValueError):
            value[0] = 1.0


def test_a_constant_section_must_be_finite():
    with pytest.raises(ValueError, match="not finite"):
        nm.SectionField.constant(np.array([1.0, np.nan]))
