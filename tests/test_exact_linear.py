from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import orthogonal_complement
from diracpairs import rational as rat
from diracpairs.exact_linear import (
    LinearRelation,
    SplitForm,
    SplitSignatureError,
    Subspace,
    canonicalize,
    compose,
    is_graph_over_factor,
    is_isotropic,
    is_lagrangian,
)

ints = st.integers(min_value=-6, max_value=6)


def test_canonicalize_known_bases():
    assert canonicalize([[2, 0], [0, 3]], 2).basis == rat.identity(2)
    assert canonicalize([[1, 1], [2, 2]], 2).basis == ((Fraction(1), Fraction(1)),)
    z = canonicalize([], 4)
    assert z.dim == 0 and z.ambient_dim == 4


def test_subspace_equality_is_basis_independent():
    a = canonicalize([[1, 2, 0], [0, 0, 1]], 3)
    b = canonicalize([[2, 4, 6], [0, 0, -5]], 3)
    assert a == b
    assert hash(a) == hash(b)


def test_membership_sum_intersection():
    u = canonicalize([[1, 0, 0], [0, 1, 0]], 3)
    w = canonicalize([[0, 1, 0], [0, 0, 1]], 3)
    assert u.contains_vector((3, -2, 0))
    assert not u.contains_vector((0, 0, 1))
    assert (u + w) == Subspace.full(3)
    assert u.intersection(w).basis == ((Fraction(0), Fraction(1), Fraction(0)),)
    assert u.contains(u.intersection(w))


def test_project_and_embed():
    u = canonicalize([[1, 2, 3]], 3)
    assert u.project((0, 2)).basis == ((Fraction(1), Fraction(3)),)
    e = u.embed((1, 2, 4), 5)
    assert e.ambient_dim == 5
    assert e.contains_vector((0, 1, 2, 0, 3))


def test_orthogonal_complement_examples():
    form = SplitForm.diagonal((1, -1))
    line = canonicalize([[1, 1]], 2)
    assert orthogonal_complement(form, line) == line
    axis = canonicalize([[1, 0]], 2)
    assert orthogonal_complement(form, axis) == canonicalize([[0, 1]], 2)
    assert orthogonal_complement(form, Subspace.zero(2)) == Subspace.full(2)


def test_split_form_signatures():
    assert SplitForm.diagonal((1, -1)).signature() == (1, 1, 0)
    assert SplitForm.standard_double(3).signature() == (3, 3, 0)
    assert SplitForm.standard_double(2).signature() == (2, 2, 0)
    definite = SplitForm.diagonal((1, 1))
    assert definite.signature() == (2, 0, 0)
    with pytest.raises(SplitSignatureError):
        is_lagrangian(definite, canonicalize([[1, 0]], 2))


def test_lagrangian_examples_in_the_double():
    form = SplitForm.standard_double(2)
    skew = canonicalize([[1, 0, 0, 2], [0, 1, -2, 0]], 4)
    assert is_lagrangian(form, skew)
    ident_graph = canonicalize([[1, 0, 1, 0], [0, 1, 0, 1]], 4)
    assert is_isotropic(form, canonicalize([[1, 0, 0, -1]], 4))
    assert not is_lagrangian(form, ident_graph)
    tangent = canonicalize([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    assert is_lagrangian(form, tangent)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["split-first", "tiny-first"])
def test_each_form_decides_isotropy_on_its_own_gram(order):
    # two forms of one dimension whose Grams differ by an entry of 1/10^80:
    # e1 is isotropic for the split form only, whichever is asked first
    tiny = Fraction(1, 10**80)
    split = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    shifted = ((tiny, 0, 1), (0, 1, 0), (1, 0, 0))
    forms = [SplitForm(3, split), SplitForm(3, shifted)]
    line = canonicalize([[1, 0, 0]], 3)
    verdicts = {i: is_isotropic(forms[i], line) for i in order}
    assert verdicts == {0: True, 1: False}
    pairings = {i: forms[i].pairing((1, 0, 0), (1, 0, 0)) for i in order}
    assert pairings == {0: 0, 1: tiny}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_pairing_is_the_fraction_sum(n, seed):
    rng = helpers.rng_for(seed)
    g = helpers.random_matrix(rng, n, n)
    form = SplitForm(n, helpers.add_tensors(g, rat.transpose(g)))
    u, v = (helpers.random_matrix(rng, 1, n)[0] for _ in range(2))
    want = sum(u[i] * form.gram[i][j] * v[j] for i in range(n) for j in range(n))
    assert form.pairing(u, v) == want


def test_relation_composition_of_graphs():
    m = rat.matrix([[1, 2], [0, 1]])
    n = rat.matrix([[2, 0], [1, 1]])
    rm = LinearRelation.from_matrix(m)
    rn = LinearRelation.from_matrix(n)
    comp = compose(rm, rn)
    assert is_graph_over_factor(comp) == rat.mat_mul(n, m)
    ident = LinearRelation.from_matrix(rat.identity(2))
    assert compose(rm, ident).graph == rm.graph
    assert compose(ident, rm).graph == rm.graph


def test_composition_with_a_coisotropic_middle():
    # relation through a line: only multiples of the line's image survive
    line = canonicalize([[1, 1, 2, 2]], 4)
    r = LinearRelation(2, 2, line)
    s = LinearRelation.from_matrix(rat.identity(2))
    comp = compose(r, s)
    assert comp.graph == line


def test_graph_detection_negatives():
    v_only = canonicalize([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    w_only = canonicalize([[0, 0, 1, 0], [0, 0, 0, 1]], 4)
    # the right dimension, but the source projection is zero
    assert is_graph_over_factor(LinearRelation(2, 2, w_only)) is None
    # full dimension, but the source projection has rank 1
    sheared = canonicalize([[1, 0, 1, 0], [2, 0, 0, 1]], 4)
    assert is_graph_over_factor(LinearRelation(2, 2, sheared)) is None
    partial = canonicalize([[1, 0, 1, 0]], 4)
    assert is_graph_over_factor(LinearRelation(2, 2, partial)) is None
    assert is_graph_over_factor(LinearRelation(2, 2, v_only)) == rat.zeros(2, 2)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.lists(ints, min_size=4, max_size=4), min_size=1, max_size=4),
)
def test_double_complement_is_identity(n, rows):
    rows = [r[:n] for r in rows]
    u = canonicalize(rows, n)
    form = SplitForm.diagonal(tuple(1 if i % 2 else -1 for i in range(n)))
    again = orthogonal_complement(form, orthogonal_complement(form, u))
    assert again == u


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=2, max_value=4))
def test_complement_dimension_count(seed, n):
    rng = helpers.rng_for(seed)
    u = canonicalize(
        [[helpers.random_fraction(rng) for _ in range(n)] for _ in range(2)], n
    )
    form = SplitForm.diagonal(tuple(1 if i % 2 else -1 for i in range(n)))
    perp = orthogonal_complement(form, u)
    assert u.dim + perp.dim == n


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**20), st.integers(min_value=1, max_value=3))
def test_random_lagrangians_have_half_dimension(seed, t):
    rng = helpers.rng_for(seed)
    lag = helpers.random_lagrangian(rng, t)
    assert lag.dim == t
    assert is_lagrangian(SplitForm.standard_double(t), lag)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_sum_intersection_dimension_formula(seed):
    rng = helpers.rng_for(seed)
    n = int(rng.integers(2, 6))
    u = canonicalize(
        [[helpers.random_fraction(rng) for _ in range(n)] for _ in range(2)], n
    )
    w = canonicalize(
        [[helpers.random_fraction(rng) for _ in range(n)] for _ in range(2)], n
    )
    assert (u + w).dim + u.intersection(w).dim == u.dim + w.dim


def test_direct_sum_and_negate():
    f = SplitForm.diagonal((1, -1))
    g = f.direct_sum(f.negate())
    assert g.signature() == (2, 2, 0)
    assert g.gram == rat.block_diag(f.gram, rat.mat_neg(f.gram))
