from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from diracpairs import rational as rat
from diracpairs.dictionary import abstract_double, k_from_quasi
from diracpairs.exact_linear import Subspace, canonicalize
from diracpairs.morphism import (
    HamiltonianFiber,
    MorphismFiber,
    check_hamiltonian_fiber,
    check_morphism_def,
    check_morphism_equiv,
    compose_morphisms,
    extract_action,
    graph_morphism,
    identity_morphism,
    integer_legs,
    product_algebra,
)
from diracpairs.quadratic_lie import catalog


def test_identity_morphism_passes_both_criteria():
    for name in ("abelian-r2", "so3-double", "bialgebra-double"):
        m = identity_morphism(catalog()[name])
        assert check_morphism_def(m)
        assert check_morphism_equiv(m)


def test_half_sum_relation_fails_both_criteria():
    pair = catalog()["abelian-r4"]
    n = pair.d.dim
    k = pair.g.embed(tuple(range(n)), 2 * n) + pair.g.embed(
        tuple(range(n, 2 * n)), 2 * n
    )
    m = MorphismFiber(source=pair, target=pair, K=k)
    assert not check_morphism_def(m)
    assert not check_morphism_equiv(m)


def test_product_algebra_negates_the_second_pairing():
    d1 = catalog()["so3-double"].d
    prod = product_algebra(d1, d1)
    assert prod.dim == 12
    assert prod.form.gram == rat.block_diag(d1.form.gram, rat.mat_neg(d1.form.gram))
    u = (1, 0, 0, 0, 0, 0) + (0,) * 6
    v = (0, 1, 0, 0, 0, 0) + (0,) * 6
    assert prod.bracket(u, v)[:6] == d1.bracket(u[:6], v[:6])


def test_graph_morphism_of_a_bracket_isometry():
    pair = catalog()["so3-double"]
    rng = helpers.rng_for(5)
    r = helpers.cayley_rotation(rng)
    phi = rat.block_diag(r, r)
    m = graph_morphism(pair, pair, phi)
    assert check_morphism_def(m)
    assert check_morphism_equiv(m)


def test_graph_morphism_rejects_non_isometries():
    pair = catalog()["abelian-r2"]
    with pytest.raises(ValueError):
        graph_morphism(pair, pair, rat.matrix([[2, 0], [0, 1]]))


def test_composition_identities():
    pair = catalog()["so3-double"]
    ident = identity_morphism(pair)
    assert compose_morphisms(ident, ident).K == ident.K
    rng = helpers.rng_for(11)
    r = helpers.cayley_rotation(rng)
    m = graph_morphism(pair, pair, rat.block_diag(r, r))
    assert compose_morphisms(m, ident).K == m.K
    assert compose_morphisms(ident, m).K == m.K


def test_the_identity_over_a_point_composes_with_itself_to_itself():
    # over the zero-dimensional pair the graph has no rows and no columns:
    # the zero relation, which is Lagrangian in the zero space
    ident = identity_morphism(abstract_double(0))
    assert ident.K == Subspace.zero(0)
    assert compose_morphisms(ident, ident) == ident


def test_composition_of_two_graphs_is_the_graph_of_the_composite():
    pair = catalog()["so3-double"]
    rng = helpers.rng_for(17)
    r1 = helpers.cayley_rotation(rng)
    r2 = helpers.cayley_rotation(rng)
    p1 = rat.block_diag(r1, r1)
    p2 = rat.block_diag(r2, r2)
    m1 = graph_morphism(pair, pair, p1)
    m2 = graph_morphism(pair, pair, p2)
    comp = compose_morphisms(m1, m2)
    expect = graph_morphism(pair, pair, rat.mat_mul(p2, p1))
    assert comp.K == expect.K
    assert check_morphism_def(comp)


def test_hamiltonian_fiber_zero_data():
    rng = helpers.rng_for(2)
    q = helpers.random_quasi(rng, 3, 0)
    h = k_from_quasi(q)
    rep = check_hamiltonian_fiber(h)
    assert rep.quantities == {"definition": 0, "equivalent": 0}
    # the underlying morphism starts at the cached abelian double of T
    tp = abstract_double(3)
    assert tp.d.dim == 6
    assert tp.g.dim == 3
    assert abstract_double(3) is tp
    assert h.morphism_fiber().source is tp


def test_hamiltonian_fiber_validation_errors():
    pair = abstract_double(1)
    # not Lagrangian: the tangent line pairs with itself through the sum form
    bad = canonicalize([[1, 0, 1, 0, 0, 0]], 6)
    with pytest.raises(ValueError):
        HamiltonianFiber(t_dim=2, pair=pair, K=bad)
    # support condition: a nonzero moment differential must see the flow
    q = helpers.random_quasi(helpers.rng_for(3), 2, 1)
    h = k_from_quasi(q)
    with pytest.raises(ValueError):
        HamiltonianFiber(
            t_dim=2,
            pair=h.pair,
            K=h.K,
            legs=integer_legs([[1, 0], [0, 1]], rat.zeros(2, 2)),
        )
    # a readout [dJ | -rho] that kills the (u, e) part of every K row but
    # the last, so the condition must be checked on all rows
    ue = [row[:2] + row[4:] for row in h.K.basis]
    w = next(v for v in rat.kernel(ue[:-1]) if any(rat.mat_vec((v,), ue[-1])))
    dj, rho = (w[:2],), rat.mat_neg((w[2:],))
    with pytest.raises(ValueError, match="support condition"):
        HamiltonianFiber(t_dim=2, pair=h.pair, K=h.K, legs=integer_legs(dj, rho))
    # legs that disagree on the base, or an integer pair one column short
    with pytest.raises(ValueError, match="disagree on the base"):
        integer_legs([[1, 0]], ())
    with pytest.raises(ValueError, match="wrong width"):
        HamiltonianFiber(t_dim=2, pair=h.pair, K=h.K, legs=([[1, 0, 0]], 1))


def test_extract_action_returns_the_action_matrix():
    rng = helpers.rng_for(9)
    for t, r in ((2, 1), (3, 2), (4, 3)):
        q = helpers.random_quasi(rng, t, r)
        h = k_from_quasi(q)
        assert extract_action(h) == q.rho_X


def test_extract_action_zero_fiber():
    q = helpers.random_quasi(helpers.rng_for(1), 3, 0)
    h = k_from_quasi(q)
    assert rat.matrix(extract_action(h)) == ()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_fiber_criteria_agree_on_random_bivector_fibers(seed):
    rng = helpers.rng_for(seed)
    t = int(rng.integers(1, 4))
    r = int(rng.integers(0, 3))
    q = helpers.random_quasi(rng, t, r)
    h = k_from_quasi(q)
    rep = check_hamiltonian_fiber(h)
    assert rep.quantities["definition"] == rep.quantities["equivalent"]
    assert rep.quantities == {"definition": 0, "equivalent": 0}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_morphism_criteria_agree_on_random_relations(seed):
    rng = helpers.rng_for(seed)
    names = ["abelian-r2", "abelian-r4", "so3-double"]
    p1 = catalog()[names[int(rng.integers(0, 3))]]
    p2 = catalog()[names[int(rng.integers(0, 2))]]
    k = helpers.random_relation_lagrangian(rng, p1, p2)
    m = MorphismFiber(source=p1, target=p2, K=k, check_bracket=False)
    assert check_morphism_def(m) == check_morphism_equiv(m)


def test_tangent_lifts_reduce_the_fiber_constraint_once(monkeypatch, canonical_space, so3_points):
    h = canonical_space.frozen_fiber(np.asarray(so3_points[0], float))
    calls = []
    int_rref = rat.int_rref

    def counted(rows):
        calls.append(len(rows))
        return int_rref(rows)

    monkeypatch.setattr(rat, "int_rref", counted)
    action = extract_action(h)
    # 9 when each of the three basis vectors of the half reduced the
    # constraint with its right-hand side and recomputed its kernel twice
    assert len(calls) == 1
    assert action == rat.transpose([rat.mat_vec(h.rho, a) for a in h.pair.g.basis])


def test_a_missing_lift_is_reported_before_an_ambiguous_one():
    # K = span((1, 0 | 0, 0), (0, 0 | 1, 0)) over the abelian double of a
    # line: the constraint leaves the first coordinate free, and that
    # coordinate moves the tangent part, so every solvable lift is ambiguous
    h = HamiltonianFiber(
        t_dim=1, pair=abstract_double(1), K=canonicalize([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
    )
    constraint = h.coordinates[1:]
    solvable, unsolvable = (0, 1, 0), (1, 0, 0)
    with pytest.raises(ValueError, match="^missing$"):
        h.tangent_lift(constraint, [unsolvable, solvable], "missing", "ambiguous")
    with pytest.raises(ValueError, match="^ambiguous$"):
        h.tangent_lift(constraint, [solvable, unsolvable], "missing", "ambiguous")
    assert h.tangent_lift(constraint, [], "missing", "ambiguous") == []
