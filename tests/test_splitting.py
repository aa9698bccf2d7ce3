from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import catalog
from diracpairs import rational as rat
from diracpairs import splitting as sp
from diracpairs.dictionary import ExactIdentification
from diracpairs.exact_linear import SplitForm
from diracpairs.quadratic_lie import ManinPairPoint


def unit(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def test_splitting_of_the_abelian_plane():
    pair = catalog()["abelian-r2"]
    s = sp.make_isotropic_splitting(pair)
    # the only isotropic complement of span(e1+e2) is span(e1-e2)
    col = tuple(row[0] for row in s.j)
    assert col[0] == -col[1] and col[0] != 0


def test_splitting_of_a_group_double_is_antidiagonal():
    pair = catalog()["so3-double"]
    s = sp.make_isotropic_splitting(pair)
    for k in range(3):
        col = tuple(row[k] for row in s.j)
        assert col[:3] == tuple(-x for x in col[3:])


@pytest.mark.parametrize("name", sorted(catalog()))
def test_splitting_axioms_on_every_catalog_pair(name):
    pair = catalog()[name]
    s = sp.make_isotropic_splitting(pair)
    gram = pair.d.form.gram
    jg = rat.mat_mul(rat.transpose(s.j), gram)
    # isotropic image
    assert helpers.is_zero_matrix(rat.mat_mul(jg, s.j))
    # dual to the half basis: projection after j is the identity
    a_cols = rat.transpose(pair.g.basis)
    assert rat.mat_mul(jg, a_cols) == rat.identity(pair.g.dim)


def test_the_split_frame_carries_the_pairing_to_the_standard_double():
    # half basis, then the complement dual to it: the frame is invertible
    for name, pair in catalog().items():
        frame = sp.make_isotropic_splitting(pair).frame()
        gram = rat.mat_mul(rat.mat_mul(rat.transpose(frame), pair.d.form.gram), frame)
        assert gram == SplitForm.standard_double(pair.g.dim).gram, name


def golden_pairs():
    return {
        f"{stem}:{name}": obj
        for stem, scene in helpers.golden_scenes().items()
        for name, obj in scene.objects.items()
        if isinstance(obj, ManinPairPoint)
    }


def test_the_gram_splitting_is_the_coordinate_complement_one_on_named_pairs():
    pairs = {**catalog(), **golden_pairs()}
    assert len(pairs) == 13
    for name, pair in pairs.items():
        assert sp.make_isotropic_splitting(pair).j == helpers.reference_isotropic_splitting(pair).j, name


def test_off_the_named_pairs_the_two_splittings_differ_by_a_skew_form():
    # both are isotropic right inverses of p = A G, whose kernel is the
    # Lagrangian half, so j - j_ref = A^T K with K skew; K = D[pivots] as A
    # is the identity at its pivot columns.  K is 0 on every named pair, but
    # not on a random change of basis or a random half of rank 2 or more
    moved = 0
    for pair in helpers.random_splitting_pairs(helpers.rng_for(0), 18):
        j, ref = sp.make_isotropic_splitting(pair).j, helpers.reference_isotropic_splitting(pair).j
        diff = [[x - y for x, y in zip(row, ref_row)] for row, ref_row in zip(j, ref)]
        k = [diff[c] for c in pair.g.pivots]
        assert rat.mat_mul(rat.transpose(pair.g.basis), k) == rat.matrix(diff)
        assert rat.matrix(k) == rat.mat_neg(rat.transpose(k))
        moved += any(map(any, k))
    assert moved > 0


def test_the_one_routine_gives_isotropic_right_inverses():
    # p = A G through A^T for random pairs, and p = rho through rho_star for
    # random exact anchors rho = M L G, L a random Lagrangian, M invertible
    rng = helpers.rng_for(1)
    cases = []
    for pair in helpers.random_splitting_pairs(rng, 6):
        form, r = pair.d.form, pair.g.dim
        (a, da), (h, dg) = rat.over_one_denominator(pair.g.basis), form.integer_gram
        cases.append((form, (rat.int_mat_mul(a, h), da * dg), (rat.transpose(a), da)))
        lag = helpers.random_lagrangian_for_pair(rng, pair)
        m = helpers.random_invertible(rng, r)
        rho = rat.over_one_denominator(rat.mat_mul(rat.mat_mul(m, lag.basis), form.gram))
        cases.append((form, rho, form.adjoint(rho)))
    for form, p, adjoint in cases:
        s = rat.fractions(*sp.isotropic_right_inverse(form, p, adjoint))
        assert rat.mat_mul(rat.fractions(*p), s) == rat.identity(len(p[0]))
        assert helpers.is_zero_matrix(rat.mat_mul(rat.mat_mul(rat.transpose(s), form.gram), s))


def test_an_adjoint_with_isotropic_image_is_what_makes_the_inverse_isotropic():
    # negative control: rho = [I | 0] on the rotation double is onto, but
    # rho G^-1 rho^T = I, so s misses isotropy; the identification refuses it
    pair = catalog()["so3-double"]
    form = pair.d.form
    rho = ([[1 if c == r else 0 for c in range(6)] for r in range(3)], 1)
    rho_star = form.adjoint(rho)
    assert rat.mat_mul(rat.fractions(*rho), rat.fractions(*rho_star)) == rat.identity(3)
    s = rat.fractions(*sp.isotropic_right_inverse(form, rho, rho_star))
    assert not helpers.is_zero_matrix(rat.mat_mul(rat.mat_mul(rat.transpose(s), form.gram), s))
    with pytest.raises(ValueError, match="fiber is not exact: anchor adjoint is not isotropic"):
        ExactIdentification(pair, rho)


def test_quasi_data_of_abelian_pairs_vanishes():
    # the cotangent double's complement is the abelian dual, so its data
    # vanishes too although its half is not abelian
    for name in ("abelian-r2", "abelian-r4", "solvable-cotangent"):
        pair = catalog()[name]
        s = sp.make_isotropic_splitting(pair)
        data = sp.derive_quasi_data(pair, s)
        assert helpers.tensor_is_zero(data.chi)
        assert all(helpers.tensor_is_zero(f) for f in data.F)


def test_quasi_data_of_the_rotation_double():
    pair = catalog()["so3-double"]
    s = sp.make_isotropic_splitting(pair)
    data = sp.derive_quasi_data(pair, s)
    assert all(helpers.tensor_is_zero(f) for f in data.F)
    # trivector equals a quarter of the permutation symbol
    assert sp.tensor_get(data.chi, (0, 1, 2)) == Fraction(1, 4)
    assert sp.tensor_get(data.chi, (1, 0, 2)) == Fraction(-1, 4)
    assert sp.tensor_get(data.chi, (0, 0, 2)) == 0
    assert helpers.is_antisymmetric(data.chi, 3, 3)


def test_quasi_data_of_the_special_linear_double():
    pair = catalog()["sl2-double"]
    s = sp.make_isotropic_splitting(pair)
    data = sp.derive_quasi_data(pair, s)
    assert all(helpers.tensor_is_zero(f) for f in data.F)
    assert sp.tensor_get(data.chi, (0, 1, 2)) == Fraction(-1, 4)


def test_quasi_data_of_a_bialgebra_double_has_cobracket_only():
    pair = catalog()["bialgebra-double"]
    s = sp.make_isotropic_splitting(pair)
    data = sp.derive_quasi_data(pair, s)
    assert helpers.tensor_is_zero(data.chi)
    assert helpers.tensor_is_zero(data.F[0])
    assert sp.tensor_get(data.F[1], (0, 1)) == 1


def test_derived_quasi_data_is_antisymmetric():
    # F[i][k][l] = <[c_k, c_l], a_i> and chi[k][l][m] = <[c_k, c_l], c_m>:
    # the bracket is antisymmetric and the pairing ad-invariant
    cases = [(name, sp.make_isotropic_splitting(pair)) for name, pair in catalog().items()]
    scenes = [
        (f"{stem}:{name}", s)
        for stem, scene in helpers.golden_scenes().items()
        for name, s in scene.objects.items()
        if isinstance(s, sp.IsotropicSplitting)
    ]
    assert len(scenes) >= 3
    for name, s in cases + scenes:
        data = sp.derive_quasi_data(s.pair, s)
        r = data.a_dim
        assert all(helpers.is_antisymmetric(f, r, 2) for f in data.F), name
        assert helpers.is_antisymmetric(data.chi, r, 3), name


@pytest.mark.parametrize("name", sorted(catalog()))
def test_quasi_jacobi_holds_on_catalog_pairs(name):
    pair = catalog()[name]
    s = sp.make_isotropic_splitting(pair)
    data = sp.derive_quasi_data(pair, s)
    rep = sp.check_quasi_jacobi(sp.subalgebra_structure(pair), data)
    assert rep.passed, rep


def test_twisted_splitting_keeps_coherence():
    pair = catalog()["so3-double"]
    s = sp.make_isotropic_splitting(pair)
    w = sp.tensor_from_function(
        3, 2, lambda kl: {(0, 1): Fraction(1), (1, 0): Fraction(-1)}.get(kl, Fraction(0))
    )
    st_ = helpers.twist(s, w)
    data = sp.derive_quasi_data(pair, st_)
    rep = sp.check_quasi_jacobi(sp.subalgebra_structure(pair), data)
    assert rep.passed, rep
    assert any(not helpers.tensor_is_zero(f) for f in data.F)


def test_wedge_of_coordinate_vectors():
    e0, e1 = unit(3, 0), unit(3, 1)
    w = helpers.wedge(e0, 1, e1, 1, 3)
    assert sp.tensor_get(w, (0, 1)) == 1
    assert sp.tensor_get(w, (1, 0)) == -1
    assert sp.tensor_get(w, (0, 0)) == 0
    assert helpers.is_antisymmetric(w, 3, 2)


def test_wedge_evaluation_pairs_with_covectors():
    e0, e1 = unit(3, 0), unit(3, 1)
    w = helpers.wedge(e0, 1, e1, 1, 3)
    assert helpers.eval_tensor(w, 2, (unit(3, 0), unit(3, 1))) == 1
    assert helpers.eval_tensor(w, 2, (unit(3, 1), unit(3, 0))) == -1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_wedge_is_graded_commutative_for_vectors(seed):
    rng = helpers.rng_for(seed)
    dim = 3
    a = tuple(helpers.random_fraction(rng) for _ in range(dim))
    b = tuple(helpers.random_fraction(rng) for _ in range(dim))
    left = helpers.wedge(a, 1, b, 1, dim)
    right = helpers.scale_tensor(Fraction(-1), helpers.wedge(b, 1, a, 1, dim))
    assert left == right


def test_tensor_utilities():
    z = helpers.zero_tensor(3, 2)
    assert helpers.tensor_is_zero(z)
    t = sp.tensor_from_function(2, 1, lambda idx: Fraction(idx[0]))
    assert sp.tensor_get(t, (1,)) == 1
    s2 = helpers.add_tensors(t, t)
    assert sp.tensor_get(s2, (1,)) == 2
    assert sp.tensor_get(helpers.scale_tensor(Fraction(1, 2), s2), (1,)) == 1


def e01(dim):
    """The 2-vector e_0 ^ e_1 on a half of dimension ``dim``, dense."""
    entries = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    return sp.tensor_from_function(dim, 2, lambda kl: entries.get(kl, Fraction(0)))


def quasi_case(name, twisted=False, mutation=None):
    """Structure constants and quasi data of a catalog pair's splitting,
    optionally twisted by e_0 ^ e_1 and then mutated."""
    pair = catalog()[name]
    s = sp.make_isotropic_splitting(pair)
    if twisted:
        s = helpers.twist(s, e01(pair.g.dim))
    data = sp.derive_quasi_data(pair, s)
    r = data.a_dim
    if mutation == "2chi":
        data = sp.QuasiBialgebraData(r, data.F, helpers.scale_tensor(2, data.chi))
    elif mutation == "-chi":
        data = sp.QuasiBialgebraData(r, data.F, helpers.scale_tensor(-1, data.chi))
    elif mutation == "F0+e01":
        f0 = helpers.add_tensors(data.F[0], e01(r))
        data = sp.QuasiBialgebraData(r, (f0,) + data.F[1:], data.chi)
    return sp.subalgebra_structure(pair), data


def test_top_bracket_sign_is_pinned_by_a_non_unimodular_half(monkeypatch):
    # on so3/sl2, ad_a(chi) = tr(ad_a) chi = 0, so only a half with traces
    # (the solvable one) sees the sign of [chi, .]
    structure, data = quasi_case("solvable-cotangent", twisted=True)
    assert sp.check_quasi_jacobi(structure, data).quantities["coherence"] == 0
    monkeypatch.setattr(sp, "TOP_BRACKET_SIGN", Fraction(1))
    rep = sp.check_quasi_jacobi(structure, data)
    assert rep.quantities["coherence"] == 1
    assert rep.witness["coherence"] == (0,)


def test_a_non_closed_defect_fails_only_defect():
    # half of dim 4, zero bracket, d e_2 = e_2 ^ e_3: d^2 = 0 = [chi, .],
    # while d(e_0 ^ e_1 ^ e_2) = e_0 ^ e_1 ^ e_2 ^ e_3
    def basis(*key):
        return sp.tensor_from_function(
            4, len(key), lambda i: helpers._basis_component(key, i)
        )

    zero2 = helpers.zero_tensor(4, 2)
    f = (zero2, zero2, basis(2, 3), zero2)
    data = sp.QuasiBialgebraData(4, f, basis(0, 1, 2))
    structure = helpers.zero_tensor(4, 3)
    rep = sp.check_quasi_jacobi(structure, data)
    assert rep.quantities == {"coherence": 0, "defect": 1}
    assert rep.witness == {"defect": "d(chi) != 0"}


REFERENCE_CASES = [
    *[(name, False, None, 0) for name in sorted(catalog())],
    ("so3-double", True, None, 0),
    ("solvable-cotangent", True, None, 0),
    ("so3-double", True, "2chi", 0),
    ("so3-double", True, "-chi", 0),
    ("so3-double", True, "F0+e01", 1),
    ("solvable-cotangent", True, "2chi", 1),
    ("solvable-cotangent", True, "-chi", 1),
    ("solvable-cotangent", True, "F0+e01", 1),
]


@pytest.mark.parametrize(
    "name,twisted,mutation,coherence",
    REFERENCE_CASES,
    ids=[
        f"{n}{'-twisted' if t else ''}{'-' + m if m else ''}"
        for n, t, m, _ in REFERENCE_CASES
    ],
)
def test_quasi_jacobi_matches_the_dense_reference(name, twisted, mutation, coherence):
    structure, data = quasi_case(name, twisted, mutation)
    got = sp.check_quasi_jacobi(structure, data)
    want = helpers.dense_quasi_jacobi(structure, data)
    assert (got.quantities, got.witness, got.exact) == (
        want.quantities,
        want.witness,
        want.exact,
    )
    assert want.quantities == {"coherence": coherence, "defect": 0}
    assert want.witness == ({"coherence": (0,)} if coherence else {})
