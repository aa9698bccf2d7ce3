from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from diracpairs import rational as rat
from diracpairs.exact_linear import SplitForm, SplitSignatureError, canonicalize
from diracpairs.quadratic_lie import (
    ManinPairPoint,
    QuadraticLieAlgebra,
    abelian_pair,
    catalog,
    check_quadratic_lie,
    is_manin_pair,
    make_cotangent_double,
    make_group_pair_double,
    sl2_constants,
    sl2_trace_form,
    so3_constants,
    structure_from_table,
)


def test_structure_table_fills_antisymmetry():
    c = structure_from_table(3, {(0, 1): (0, 0, 1)})
    assert c[0][1] == (0, 0, 1)
    assert c[1][0] == (0, 0, -1)
    assert c[0][2] == (0, 0, 0)


def test_abelian_plane_passes_with_split_signature():
    d = QuadraticLieAlgebra(
        2, structure_from_table(2, {}), SplitForm.diagonal((1, -1))
    )
    rep = check_quadratic_lie(d)
    assert rep.passed
    assert rep.data["signature"] == (1, 1)


def test_rotation_algebra_with_dot_product():
    d = QuadraticLieAlgebra(3, so3_constants(), SplitForm.diagonal((1, 1, 1)))
    rep = check_quadratic_lie(d)
    assert rep.passed
    assert rep.data["signature"] == (3, 0)
    # definite pairing: no Lagrangian halves exist, so the split-only
    # operations must refuse it rather than answer
    with pytest.raises(SplitSignatureError):
        is_manin_pair(d, canonicalize([[1, 0, 0]], 3))


def test_rotation_algebra_with_indefinite_form_loses_invariance():
    d = QuadraticLieAlgebra(3, so3_constants(), SplitForm.diagonal((1, 1, -1)))
    rep = check_quadratic_lie(d)
    assert rep.quantities["jacobi"] == 0
    assert rep.quantities["ad_invariance"] > 0
    assert "ad_invariance" in rep.witness
    # the defect by hand: <[e0,e1],e2> + <e1,[e0,e2]> = -1 + -1
    lhs = d.pairing(d.bracket((1, 0, 0), (0, 1, 0)), (0, 0, 1))
    rhs = d.pairing((0, 1, 0), d.bracket((1, 0, 0), (0, 0, 1)))
    assert lhs + rhs == Fraction(-2)


def test_invariant_but_non_jacobi_bracket_is_caught():
    # six dimensions, bracket from the 3-form e123 + e345 and the
    # pairing diag(1,1,1,-1,-1,-1): totally antisymmetric lowered
    # constants give invariance for free, while mixing the two triples
    # breaks the Jacobi identity
    table = {
        (0, 1): (0, 0, 1, 0, 0, 0),
        (1, 2): (1, 0, 0, 0, 0, 0),
        (2, 0): (0, 1, 0, 0, 0, 0),
        (2, 3): (0, 0, 0, 0, 1, 0),
        (2, 4): (0, 0, 0, -1, 0, 0),
        (3, 4): (0, 0, -1, 0, 0, 0),
    }
    fixed = {}
    for (i, j), v in table.items():
        fixed[(i, j) if i < j else (j, i)] = (
            v if i < j else tuple(-x for x in v)
        )
    d = QuadraticLieAlgebra(
        6,
        structure_from_table(6, fixed),
        SplitForm.diagonal((1, 1, 1, -1, -1, -1)),
    )
    rep = check_quadratic_lie(d)
    assert rep.quantities["ad_invariance"] == 0
    assert rep.quantities["jacobi"] > 0
    assert rep.witness["jacobi"] == (0, 1, 3)


def test_manin_pair_predicate_examples():
    pair = catalog()["so3-double"]
    assert is_manin_pair(pair.d, pair.g)
    ab = abelian_pair(1)
    assert is_manin_pair(ab.d, ab.g)
    line = canonicalize([[1, 0]], 2)
    assert not is_manin_pair(ab.d, line)


def test_group_pair_double_of_rotations():
    pair = make_group_pair_double(so3_constants(), rat.identity(3))
    assert pair.d.dim == 6
    assert check_quadratic_lie(pair.d).data["signature"] == (3, 3)
    # the half is the diagonal copy
    for i in range(3):
        v = [Fraction(0)] * 6
        v[i] = v[3 + i] = Fraction(1)
        assert pair.g.contains_vector(v)
    assert pair == catalog()["so3-double"]


def test_group_pair_double_rejects_non_invariant_form():
    indefinite = rat.matrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    # the zero form is invariant, so only the degeneracy check rejects it
    for kappa, reason in (
        (indefinite, r"checks: ad_invariance = \d+, witness \(\d, \d, \d\)$"),
        (rat.zeros(3, 3), "checks: degeneracy = 6$"),
    ):
        with pytest.raises(ValueError, match=reason):
            make_group_pair_double(so3_constants(), kappa)


def test_special_linear_double():
    pair = make_group_pair_double(sl2_constants(), sl2_trace_form())
    assert pair.d.dim == 6
    assert is_manin_pair(pair.d, pair.g)


def test_catalog_is_stable():
    cat = catalog()
    assert set(cat) == {
        "abelian-r2",
        "abelian-r4",
        "so3-double",
        "sl2-double",
        "bialgebra-double",
        "solvable-cotangent",
    }
    for name, pair in cat.items():
        rep = check_quadratic_lie(pair.d)
        assert rep.passed, name
        assert is_manin_pair(pair.d, pair.g), name


def test_cotangent_double_of_a_solvable_algebra():
    pair = catalog()["solvable-cotangent"]
    assert pair.d.dim == 6
    assert pair.g.dim == 3
    cot = make_cotangent_double(so3_constants())
    assert cot.d.dim == 6
    assert is_manin_pair(cot.d, cot.g)


def test_bracket_is_bilinear():
    pair = catalog()["so3-double"]
    u = tuple(Fraction(k + 1) for k in range(6))
    v = tuple(Fraction(2 - k, 3) for k in range(6))
    w = tuple(Fraction((-1) ** k) for k in range(6))
    left = pair.d.bracket(u, tuple(a + b for a, b in zip(v, w)))
    split = tuple(
        a + b for a, b in zip(pair.d.bracket(u, v), pair.d.bracket(u, w))
    )
    assert left == split


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_catalog_brackets_are_ad_invariant_on_random_vectors(seed):
    rng = helpers.rng_for(seed)
    pair = catalog()["sl2-double"]
    n = pair.d.dim
    u = tuple(helpers.random_fraction(rng) for _ in range(n))
    v = tuple(helpers.random_fraction(rng) for _ in range(n))
    w = tuple(helpers.random_fraction(rng) for _ in range(n))
    d = pair.d
    assert d.pairing(d.bracket(u, v), w) + d.pairing(v, d.bracket(u, w)) == 0


def test_manin_pair_point_rejects_bad_halves():
    cat = catalog()
    d = cat["abelian-r2"].d
    with pytest.raises(ValueError):
        ManinPairPoint(d, canonicalize([[1, 0]], 2))


@pytest.mark.parametrize(
    "name,entries,count,witness",
    [
        ("so3-double", (1, 1, 2, -1, -1, -1), 4, (0, 1, 2)),
        ("sl2-double", (1, 2, 3, -1, -1, -1), 20, (0, 1, 1)),
    ],
)
def test_ad_invariance_counts_and_witness_under_a_foreign_pairing(
    name, entries, count, witness
):
    # a catalog double's bracket under a diagonal pairing it does not
    # preserve; counts and first witnesses pinned from the scalar loop
    structure = catalog()[name].d.structure
    d = QuadraticLieAlgebra(6, structure, SplitForm.diagonal(entries))
    rep = check_quadratic_lie(d)
    assert rep.quantities["ad_invariance"] == count
    assert rep.witness["ad_invariance"] == witness


def test_validation_is_shared_and_the_catalog_is_read_only():
    cat = catalog()
    assert catalog() is cat
    with pytest.raises(TypeError):
        cat["abelian-r2"] = abelian_pair(2)
    d = cat["so3-double"].d
    assert check_quadratic_lie(d) is check_quadratic_lie(d)
