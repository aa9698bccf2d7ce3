import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import pi_from_dirac
from diracpairs import numeric_manifold as nm
from diracpairs import rational as rat
from diracpairs import so3
from diracpairs.dictionary import (
    DiracPointData,
    QuasiPoissonPointData,
    abstract_double,
    backward_dirac,
    dirac_from_dict,
    dirac_from_k,
    dirac_is_form_graph,
    dirac_to_dict,
    forward_dirac,
    identification_from_anchor,
    k_from_dirac,
    k_from_quasi,
    k_spans_tangents,
    l_from_quasi,
    pi_from_k,
    quasi_from_dict,
    quasi_spans_tangents,
    quasi_to_dict,
)
from diracpairs.exact_linear import Subspace, canonicalize
from diracpairs.morphism import HamiltonianFiber, check_hamiltonian_fiber
from diracpairs.quadratic_lie import catalog
from diracpairs.splitting import make_isotropic_splitting

FIXTURES = Path(__file__).parent / "fixtures"


def test_point_data_validation():
    with pytest.raises(ValueError):
        QuasiPoissonPointData(t_dim=2, a_dim=0, Pi=((0, 1), (1, 0)), rho_X=())
    with pytest.raises(TypeError):
        QuasiPoissonPointData(t_dim=1, a_dim=0, Pi=((0.5,),), rho_X=())
    q = QuasiPoissonPointData(t_dim=2, a_dim=0, Pi=rat.zeros(2, 2), rho_X=())
    assert q.rho_X == ((), ())
    with pytest.raises(ValueError):
        DiracPointData(canonicalize([[1, 0, 1, 0]], 4))


def test_interior_product_convention():
    # i_alpha(u ^ v) = alpha(u) v - alpha(v) u with u = e1, v = e2: the
    # fiber pairs each covector alpha with (i_alpha Pi, alpha)
    pi = QuasiPoissonPointData(
        t_dim=2, a_dim=0, Pi=((0, 1), (-1, 0)), rho_X=()
    )
    fiber = k_from_quasi(pi).K
    assert fiber.contains_vector((0, 1, 1, 0))
    assert fiber.contains_vector((-1, 0, 0, 1))
    assert not fiber.contains_vector((0, -1, 1, 0))


def test_zero_data_fiber_is_the_split_sum():
    q = QuasiPoissonPointData(t_dim=2, a_dim=1, Pi=rat.zeros(2, 2), rho_X=((0,), (0,)))
    h = k_from_quasi(q)
    expect = canonicalize(
        [
            [0, 0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
        ],
        6,
    )
    assert h.K == expect


def test_invertible_bivector_fiber_is_a_form_graph():
    pi = ((0, 1), (-1, 0))
    q = QuasiPoissonPointData(t_dim=2, a_dim=0, Pi=pi, rho_X=())
    h = k_from_quasi(q)
    d = DiracPointData(h.K)
    assert dirac_is_form_graph(d)
    assert h.K == canonicalize([[0, 1, 1, 0], [-1, 0, 0, 1]], 4)


def test_round_trip_quasi_fiber_quasi_without_base():
    rng = helpers.rng_for(23)
    for _ in range(20):
        t = int(rng.integers(1, 5))
        r = int(rng.integers(0, 3))
        q = helpers.random_quasi(rng, t, r)
        h = k_from_quasi(q)
        sp = make_isotropic_splitting(h.pair)
        assert pi_from_k(h, sp) == q


def test_pi_from_k_reads_no_fraction_basis(monkeypatch, so3_splitting):
    # the bivector and the action are solved on the integer rows of K and of
    # the half: neither K's nor the half's Fraction basis is built or read,
    # for the planar fixture over a point and for a fiber with an action leg
    planar = quasi_from_dict(json.loads((FIXTURES / "planar-quasi.json").read_text()))
    over_point = make_isotropic_splitting(abstract_double(0))
    acting = helpers.random_quasi(helpers.rng_for(5), 3, 3)
    cases = [
        (planar, k_from_quasi(planar, realization=over_point), over_point),
        (acting, k_from_quasi(acting, realization=so3_splitting), so3_splitting),
    ]

    def refuse(self):
        raise AssertionError("pi_from_k read a Fraction basis")

    monkeypatch.setattr(Subspace, "basis", property(refuse))
    for q, h, splitting in cases:
        assert pi_from_k(h, splitting) == q


def test_identification_validation():
    pair = abstract_double(2)
    rho = rat.hstack(rat.zeros(2, 2), rat.identity(2))
    ident = identification_from_anchor(pair, rho)
    assert ident.base_dim == 2
    assert rat.mat_mul(ident.rho, ident.s) == rat.identity(2)
    # [I | I] has an isotropic right inverse, but its adjoint pairs to 2 I:
    # the fiber cannot be exact
    with pytest.raises(ValueError, match="not exact"):
        identification_from_anchor(pair, rat.hstack(rat.identity(2), rat.identity(2)))


def test_the_canonical_splitting_is_an_isotropic_right_inverse():
    # rho s = I - 1/2 (rho rho_star) B and s^T G s = 1/4 B (rho rho_star) B
    # reduce to identities once rho rho_star = 0, which the constructor checks
    pair = catalog()["so3-double"]
    idents = [helpers.abstract_ident(r) for r in range(3)]
    for seed in range(3):
        for x in so3.sample_chart_points(50, seed):
            idents.append(identification_from_anchor(pair, nm.rotation_double_exact_anchor(x)))
    assert len(idents) == 153
    for ident in idents:
        assert rat.mat_mul(ident.rho, ident.s) == rat.identity(ident.base_dim)
        assert helpers.is_zero_matrix(rat.mat_mul(ident.s_star, ident.s))


def test_an_empty_anchor_identifies_a_point():
    # the base of a fiber over a point has no directions: s, s_star and
    # rho_star are empty, which is what file conversion runs on
    ident = identification_from_anchor(abstract_double(0), ())
    assert ident.base_dim == 0
    assert ident.s == ident.s_star == ident.rho_star == ()
    # a nonzero fiber over a point is not exact
    with pytest.raises(ValueError, match="anchor has wrong shape"):
        identification_from_anchor(abstract_double(1), ())


def test_an_anchor_that_is_not_onto_is_named_with_its_rank():
    # exact, but rho has rank below the base dimension: no right inverse
    with pytest.raises(ValueError, match="anchor is not onto: rank 0 below the base dimension 1"):
        identification_from_anchor(abstract_double(1), ((0, 0),))
    dependent = ((1, 0, 0, 0), (2, 0, 0, 0))
    with pytest.raises(ValueError, match="rank 1 below the base dimension 2"):
        identification_from_anchor(abstract_double(2), dependent)


def outcome(build):
    """What ``build()`` returns, or the text of the ValueError it raises."""
    try:
        return build()
    except ValueError as e:
        return str(e)


def test_block_builders_match_their_row_by_row_references():
    # random rational fibers, degenerate shapes included: t_dim 0, a_dim 0,
    # and no moment map (an empty dJ over the point identification)
    rng = helpers.rng_for(53)
    so3_splitting = make_isotropic_splitting(catalog()["so3-double"])
    point = identification_from_anchor(abstract_double(0), ())
    idents = [point, helpers.abstract_ident(1), helpers.abstract_ident(2)]
    idents.append(helpers.rotation_cayley_ident(rng))
    pulled_back = (dirac_from_k, helpers.reference_dirac_from_k)
    for ident in idents + [helpers.abstract_ident(0)]:
        got = nm.canonical_fiber(ident.pair, ident.integer_rho, ident.integer_rho_star)
        assert got.K == helpers.reference_canonical_fiber(ident.pair, ident.rho, ident.rho_star).K
    for _ in range(6):
        for t in range(4):
            for a_dim in range(4):
                q = helpers.random_quasi(rng, t, a_dim)
                h = k_from_quasi(q)
                assert h.K == helpers.reference_k_from_quasi(q).K
                # with an action leg the projection may fail to be Lagrangian:
                # then both refuse alike
                got, want = (outcome(lambda f=f: f(h, point).L) for f in pulled_back)
                assert got == want
                if a_dim == 3:
                    want = helpers.reference_k_from_quasi(q, realization=so3_splitting).K
                    assert k_from_quasi(q, realization=so3_splitting).K == want
            for r in range(1, min(t, 2) + 1):
                q, dj = helpers.moment_compatible_quasi(rng, t, r)
                ident = helpers.abstract_ident(r)
                h = k_from_quasi(q, dJ=dj, rho=ident.rho, realization=make_isotropic_splitting(ident.pair))
                assert dirac_from_k(h, ident).L == helpers.reference_dirac_from_k(h, ident).L
            d = DiracPointData(helpers.random_lagrangian(rng, t))
            for ident in idents:
                dj = helpers.random_matrix(rng, ident.base_dim, t) if ident.base_dim else ()
                h = k_from_dirac(d, dj, ident)
                assert h.K == helpers.reference_k_from_dirac(d, dj, ident).K
                assert dirac_from_k(h, ident).L == helpers.reference_dirac_from_k(h, ident).L


def random_splitting(rng, pair):
    """The pair's splitting, twisted by a random 2-vector half the time."""
    sp = make_isotropic_splitting(pair)
    if rng.random() < 0.5:
        return helpers.twist(sp, helpers.random_antisymmetric(rng, pair.g.dim))
    return sp


def random_fiber(rng, kind):
    """A Hamiltonian fiber over 0 to 3 tangent directions: of a random
    bivector with action (kind 0), of a random Lagrangian over an abelian
    identification (kind 1), or a random Lagrangian of the sum pairing with
    no moment map (kind 2), which mostly has no bivector picture."""
    pairs = [abstract_double(r) for r in range(3)]
    pairs += [catalog()["so3-double"], catalog()["bialgebra-double"]]
    t = int(rng.integers(0, 4))
    pair = pairs[int(rng.integers(len(pairs)))]
    if kind == 0:
        q = helpers.random_quasi(rng, t, pair.g.dim)
        return k_from_quasi(q, realization=random_splitting(rng, pair))
    if kind == 1:
        ident = helpers.abstract_ident(int(rng.integers(0, 3)))
        dj = helpers.random_matrix(rng, ident.base_dim, t) if ident.base_dim else ()
        return k_from_dirac(DiracPointData(helpers.random_lagrangian(rng, t)), dj, ident)
    # the difference convention of the underlying morphism, covectors flipped back
    rel = helpers.random_relation_lagrangian(rng, abstract_double(t), pair)
    rows = [row[:t] + tuple(-x for x in row[t : 2 * t]) + row[2 * t :] for row in rel.basis]
    return HamiltonianFiber(t_dim=t, pair=pair, K=canonicalize(rows, 2 * t + pair.d.dim))


def bivector_graph_agrees(h, splitting):
    """Whether ``pi_from_k`` agrees with the relation composition of the
    fiber with the dual image: the graph of its bivector when it reads one
    out, and a relation that is no graph over the covectors when its
    bivector lift refuses.  Returns whether it read a bivector out."""
    t = h.t_dim
    want = helpers.reference_bivector_graph(h, splitting)
    try:
        q = pi_from_k(h, splitting)
    except ValueError as e:
        if "covector" in str(e) or "bivector" in str(e):
            assert want.dim != t or want.project(range(t, 2 * t)).dim != t
        return False
    assert canonicalize(rat.hstack(q.Pi, rat.identity(t)) if t else (), 2 * t) == want
    return True


def test_bivector_read_out_equals_the_composition_reference():
    # the per-covector lift finds exactly the fiber elements over the dual
    # image, so by linearity it spans their composite
    rng = helpers.rng_for(97)
    read = sum(
        bivector_graph_agrees(h, random_splitting(rng, h.pair))
        for h in (random_fiber(rng, i % 3) for i in range(330))
    )
    assert 150 <= read < 330


def test_bivector_read_out_equals_the_composition_reference_on_fixtures():
    point = identification_from_anchor(abstract_double(0), ())
    fibers = []
    for path in sorted(FIXTURES.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except ValueError:
            continue
        if record.get("kind") == "quasi":
            fibers.append(k_from_quasi(quasi_from_dict(record)))
        elif record.get("kind") == "dirac":
            fibers.append(k_from_dirac(dirac_from_dict(record), (), point))
    for scene in helpers.golden_scenes().values():
        fibers += [h for h in scene.objects.values() if isinstance(h, HamiltonianFiber)]
    assert len(fibers) >= 6
    for h in fibers:
        bivector_graph_agrees(h, make_isotropic_splitting(h.pair))


def test_rotation_anchor_identification():
    rng = helpers.rng_for(31)
    ident = helpers.rotation_cayley_ident(rng)
    gram = ident.pair.d.form.gram
    sg = rat.mat_mul(rat.transpose(ident.s), gram)
    assert helpers.is_zero_matrix(rat.mat_mul(sg, ident.s))
    # the legs (v, beta) -> s v + rho_star beta and e -> (rho e, s_star e)
    # invert each other
    eye = rat.identity(3)
    assert rat.mat_mul(ident.rho, ident.s) == eye
    assert rat.mat_mul(ident.s_star, ident.rho_star) == eye
    assert helpers.is_zero_matrix(rat.mat_mul(ident.rho, ident.rho_star))
    assert helpers.is_zero_matrix(rat.mat_mul(ident.s_star, ident.s))


def test_dirac_fiber_round_trips_on_both_identifications():
    rng = helpers.rng_for(41)
    idents = [helpers.abstract_ident(2), helpers.rotation_cayley_ident(rng)]
    for ident in idents:
        s_dim = ident.base_dim
        for _ in range(10):
            t = int(rng.integers(1, 4))
            d = DiracPointData(helpers.random_lagrangian(rng, t))
            dj = helpers.random_matrix(rng, s_dim, t)
            h = k_from_dirac(d, dj, ident)
            assert dirac_from_k(h, ident).L == d.L


def test_form_graph_fiber_validity_tracks_invertibility():
    ident = helpers.abstract_ident(1)
    dj = rat.zeros(1, 2)
    omega = rat.matrix([[0, 2], [-2, 0]])
    rows = [tuple(e) + tuple(col) for e, col in zip(rat.identity(2), omega)]
    good = k_from_dirac(DiracPointData(canonicalize(rows, 4)), dj, ident)
    rep = check_hamiltonian_fiber(good)
    assert rep.quantities == {"definition": 0, "equivalent": 0}
    degenerate = DiracPointData(canonicalize([[1, 0, 0, 0], [0, 1, 0, 0]], 4))
    bad = k_from_dirac(degenerate, dj, ident)
    rep = check_hamiltonian_fiber(bad)
    assert rep.quantities["definition"] == 1
    assert rep.quantities["equivalent"] == rep.quantities["definition"]


def test_direct_lagrangian_formula_matches_the_fiber_route():
    rng = helpers.rng_for(53)
    for _ in range(15):
        r = int(rng.integers(1, 3))
        t = int(rng.integers(r, r + 3))
        q, dj = helpers.moment_compatible_quasi(rng, t, r)
        ident = helpers.abstract_ident(r)
        sp = make_isotropic_splitting(ident.pair)
        out = l_from_quasi(q, sp, ident, dj)
        assert out.t_dim == t
        assert out == helpers.direct_lagrangian(q, sp, ident, dj)


def test_zero_data_direct_lagrangian_is_the_covector_space():
    ident = helpers.abstract_ident(1)
    sp = make_isotropic_splitting(ident.pair)
    q = QuasiPoissonPointData(t_dim=2, a_dim=1, Pi=rat.zeros(2, 2), rho_X=((0,), (0,)))
    out = l_from_quasi(q, sp, ident, rat.zeros(1, 2))
    assert out.L == canonicalize([[0, 0, 1, 0], [0, 0, 0, 1]], 4)
    assert helpers.direct_lagrangian(q, sp, ident, rat.zeros(1, 2)) == out


def test_bivector_from_lagrangian_round_trip():
    rng = helpers.rng_for(67)
    for _ in range(15):
        r = int(rng.integers(1, 3))
        t = int(rng.integers(r, r + 3))
        q, dj = helpers.moment_compatible_quasi(rng, t, r)
        ident = helpers.abstract_ident(r)
        sp = make_isotropic_splitting(ident.pair)
        l = l_from_quasi(q, sp, ident, dj)
        assert pi_from_dirac(l, dj, ident, sp) == q


def test_bivector_from_covector_space_is_zero():
    ident = helpers.abstract_ident(1)
    sp = make_isotropic_splitting(ident.pair)
    covectors = DiracPointData(canonicalize([[0, 0, 1, 0], [0, 0, 0, 1]], 4))
    q = pi_from_dirac(covectors, rat.zeros(1, 2), ident, sp)
    assert q.Pi == rat.zeros(2, 2)
    assert q.rho_X == ((0,), (0,))


def test_bivector_extraction_failure_names_the_condition():
    ident = helpers.abstract_ident(1)
    sp = make_isotropic_splitting(ident.pair)
    tangents = DiracPointData(canonicalize([[1, 0, 0, 0], [0, 1, 0, 0]], 4))
    with pytest.raises(ValueError, match="transversality|bivector graph"):
        pi_from_dirac(tangents, rat.zeros(1, 2), ident, sp)


def test_forward_backward_inverse_for_injective_maps():
    rng = helpers.rng_for(71)
    for _ in range(20):
        qd = int(rng.integers(1, 4))
        m = int(rng.integers(qd, 5))
        f = helpers.random_injective(rng, m, qd)
        lag = helpers.random_lagrangian(rng, qd)
        pushed = forward_dirac(lag, f)
        assert pushed.dim == m
        assert backward_dirac(pushed, f) == lag


def test_forward_images_respect_the_support_condition():
    rng = helpers.rng_for(73)
    f = helpers.random_injective(rng, 4, 2)
    lag = helpers.random_lagrangian(rng, 2)
    pushed = forward_dirac(lag, f)
    # tangent part of the image never leaves the map's image
    img = canonicalize([tuple(col) for col in rat.transpose(f)], 4)
    assert img.contains(pushed.project(tuple(range(4))))
    assert forward_dirac(backward_dirac(pushed, f), f) == pushed


def test_backward_then_forward_moves_unsupported_lagrangians():
    rng = helpers.rng_for(79)
    moved = 0
    for _ in range(10):
        qd = int(rng.integers(1, 3))
        m = qd + int(rng.integers(1, 3))
        f = helpers.random_injective(rng, m, qd)
        omega = helpers.random_antisymmetric(rng, m)
        rows = [tuple(e) + tuple(col) for e, col in zip(rat.identity(m), omega)]
        lag = canonicalize(rows, 2 * m)
        round_ = forward_dirac(backward_dirac(lag, f), f)
        assert round_ != lag
        moved += 1
    assert moved == 10


def test_identity_map_fixes_fibers():
    rng = helpers.rng_for(89)
    lag = helpers.random_lagrangian(rng, 3)
    ident = rat.identity(3)
    assert forward_dirac(lag, ident) == lag
    assert backward_dirac(lag, ident) == lag


def test_nondegeneracy_predicates_on_model_fibers():
    # invertible bivector: every predicate answers yes
    pi = ((0, 1), (-1, 0))
    q = QuasiPoissonPointData(t_dim=2, a_dim=0, Pi=pi, rho_X=())
    assert quasi_spans_tangents(q)
    h = k_from_quasi(q)
    assert k_spans_tangents(h)
    assert dirac_is_form_graph(DiracPointData(h.K))
    # zero bivector: every predicate answers no
    q0 = QuasiPoissonPointData(t_dim=2, a_dim=0, Pi=rat.zeros(2, 2), rho_X=())
    assert not quasi_spans_tangents(q0)
    h0 = k_from_quasi(q0)
    assert not k_spans_tangents(h0)
    assert not dirac_is_form_graph(DiracPointData(h0.K))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_nondegeneracy_predicates_agree_on_random_fibers(seed):
    rng = helpers.rng_for(seed)
    t = int(rng.integers(1, 4))
    r = int(rng.integers(0, 3))
    q = helpers.random_quasi(rng, t, r)
    h = k_from_quasi(q)
    expected = quasi_spans_tangents(q)
    assert k_spans_tangents(h) == expected


def test_json_round_trip_is_exact():
    rng = helpers.rng_for(97)
    q = helpers.random_quasi(rng, 3, 2)
    assert quasi_from_dict(quasi_to_dict(q)) == q
    d = DiracPointData(helpers.random_lagrangian(rng, 3))
    assert dirac_from_dict(dirac_to_dict(d)).L == d.L
    with pytest.raises(ValueError):
        quasi_from_dict({"kind": "dirac"})
    with pytest.raises(ValueError):
        dirac_from_dict({"kind": "quasi"})


def test_json_encoding_is_string_exact():
    q = QuasiPoissonPointData(
        t_dim=2, a_dim=0, Pi=(("0", "-1/3"), ("1/3", "0")), rho_X=()
    )
    obj = quasi_to_dict(q)
    assert obj["pi"][0][1] == "-1/3"
    assert quasi_from_dict(obj) == q


def frozen_rotation_lagrangians(count=20, seed=0):
    """The exact Lagrangians ``rotation_strong_section`` freezes at its
    sample points: the canonical fiber of each frozen anchor, read back
    through the anchor's identification."""
    pair = catalog()["so3-double"]
    out = []
    for x in so3.sample_chart_points(count, seed):
        ident = identification_from_anchor(pair, nm.rotation_double_exact_anchor(x))
        hf = nm.canonical_fiber(pair, ident.integer_rho, ident.integer_rho_star)
        out.append(dirac_from_k(hf, ident).L)
    return out


def integer_maps(rng, m, q):
    """Random integer m x q maps of each kind: general, rank deficient
    (one row repeated or zeroed) and zero."""
    general = rat.matrix(rng.integers(-3, 4, size=(m, q)).tolist())
    deficient = general[:-1] + (general[0],) if m > 1 else rat.zeros(m, q)
    return [general, deficient, rat.zeros(m, q)]


def test_transport_equals_the_annihilator_reference_on_frozen_rotation_fibers():
    rng = np.random.default_rng(5)
    lags = frozen_rotation_lagrangians()
    assert len(lags) == 20
    for k, lag in enumerate(lags):
        # forward takes m x 3 maps, backward 3 x q: square, wide and tall
        other = (3, 2, 4)[k % 3]
        maps = [rat.identity(3)] + integer_maps(rng, other, 3)
        for f in maps:
            assert forward_dirac(lag, f) == helpers.reference_transport(lag, f, True)
        for f in [rat.identity(3)] + integer_maps(rng, 3, other):
            assert backward_dirac(lag, f) == helpers.reference_transport(lag, f, False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_transport_equals_the_annihilator_reference_on_integer_maps(m, q, seed):
    rng = helpers.rng_for(seed)
    source, target = helpers.random_lagrangian(rng, q), helpers.random_lagrangian(rng, m)
    for f in integer_maps(rng, m, q):
        assert forward_dirac(source, f) == helpers.reference_transport(source, f, True)
        assert backward_dirac(target, f) == helpers.reference_transport(target, f, False)
