import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from diracpairs import rational as rat
from diracpairs.exact_linear import SplitForm, SplitSignatureError, canonicalize
from diracpairs.quadratic_lie import (
    ManinPairPoint,
    QuadraticLieAlgebra,
    catalog,
    check_quadratic_lie,
    is_manin_pair,
    make_cotangent_double,
    make_group_pair_double,
    product_algebra,
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
    lhs = d.form.pairing(d.bracket((1, 0, 0), (0, 1, 0)), (0, 0, 1))
    rhs = d.form.pairing((0, 1, 0), d.bracket((1, 0, 0), (0, 0, 1)))
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
    assert rep.quantities["jacobi"] == 24
    assert rep.witness["jacobi"] == (0, 1, 3)


@pytest.mark.parametrize(
    "name,doubled,quantities,witness",
    [
        (
            "sl2-double",
            ((0, 1), (1, 0)),
            {"antisymmetry": 0, "jacobi": 6, "ad_invariance": 4, "degeneracy": 0},
            {"jacobi": (0, 1, 2), "ad_invariance": (0, 1, 2)},
        ),
        (
            "so3-double",
            ((0, 1),),
            {"antisymmetry": 2, "jacobi": 6, "ad_invariance": 2, "degeneracy": 0},
            {"antisymmetry": (0, 1), "jacobi": (0, 1, 0), "ad_invariance": (0, 1, 2)},
        ),
    ],
)
def test_doubled_brackets_break_jacobi_with_pinned_counts(
    name, doubled, quantities, witness
):
    # doubling [e_0, e_1] (and, for sl2, [e_1, e_0] too) in a catalog
    # double; counts and first witnesses pinned from the triple loop of
    # bracket calls, the second table being non-antisymmetric
    d = helpers.catalog()[name].d
    c = [[list(row) for row in plane] for plane in d.structure]
    for i, j in doubled:
        c[i][j] = [2 * x for x in c[i][j]]
    rep = check_quadratic_lie(QuadraticLieAlgebra(d.dim, c, d.form))
    assert rep.quantities == quantities
    assert rep.witness == witness


def test_manin_pair_predicate_examples():
    pair = catalog()["so3-double"]
    assert is_manin_pair(pair.d, pair.g)
    ab = helpers.catalog()["abelian-r2"]
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
    # the sl2 double that split-traceless.mp declares is the group-pair
    # double of its first factor under that factor's trace form
    pair = helpers.catalog()["sl2-double"]
    sl2 = [[row[:3] for row in plane[:3]] for plane in pair.d.structure[:3]]
    trace_form = [row[:3] for row in pair.d.form.gram[:3]]
    assert make_group_pair_double(sl2, trace_form) == pair
    assert pair.d.dim == 6
    assert is_manin_pair(pair.d, pair.g)


def test_catalog_is_stable():
    # commands read the rotation double alone; the tests add five pairs
    assert list(catalog()) == ["so3-double"]
    cat = helpers.catalog()
    assert cat["so3-double"] is catalog()["so3-double"]
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
    pair = helpers.catalog()["solvable-cotangent"]
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
    pair = helpers.catalog()["sl2-double"]
    n = pair.d.dim
    u = tuple(helpers.random_fraction(rng) for _ in range(n))
    v = tuple(helpers.random_fraction(rng) for _ in range(n))
    w = tuple(helpers.random_fraction(rng) for _ in range(n))
    d = pair.d
    assert d.form.pairing(d.bracket(u, v), w) + d.form.pairing(v, d.bracket(u, w)) == 0


def test_manin_pair_point_rejects_bad_halves():
    d = helpers.catalog()["abelian-r2"].d
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
    structure = helpers.catalog()[name].d.structure
    d = QuadraticLieAlgebra(6, structure, SplitForm.diagonal(entries))
    rep = check_quadratic_lie(d)
    assert rep.quantities["ad_invariance"] == count
    assert rep.witness["ad_invariance"] == witness


def _fresh_stdout(code, hash_seed=None):
    """What ``code`` prints in a fresh interpreter, optionally with the given
    string hash seed."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_fresh_process_asking_for_one_pair_validates_one_algebra():
    code = (
        "from diracpairs.quadratic_lie import catalog, check_quadratic_lie\n"
        "cat = catalog()\n"
        "assert list(cat) == ['so3-double'] and cat['so3-double'] is catalog()['so3-double']\n"
        "print(check_quadratic_lie.cache_info().currsize)\n"
    )
    assert _fresh_stdout(code).split() == ["1"]


def test_a_report_prints_the_same_under_every_hash_seed():
    # its exact names are a set, which Python iterates in string-hash order
    code = (
        "from diracpairs.quadratic_lie import catalog, check_quadratic_lie\n"
        "print(repr(check_quadratic_lie(catalog()['so3-double'].d)))\n"
    )
    reprs = {_fresh_stdout(code, hash_seed) for hash_seed in ("1", "2", "3")}
    assert len(reprs) == 1
    names = "'ad_invariance', 'antisymmetry', 'degeneracy', 'jacobi'"
    assert f"exact=frozenset({{{names}}})" in reprs.pop()


def test_validation_is_shared_and_the_catalog_is_read_only():
    cat = catalog()
    assert catalog() is cat
    with pytest.raises(TypeError):
        cat["abelian-r2"] = helpers.catalog()["abelian-r2"]
    d = cat["so3-double"].d
    assert check_quadratic_lie(d) is check_quadratic_lie(d)


VALUES = tuple(Fraction(x) for x in (0, 1, -1, 2, -2, "1/2", "-3/7"))


def _draw(rng, zero_share=0.6):
    """An entry of ``VALUES``, zero with probability about ``zero_share``."""
    if rng.random() < zero_share:
        return Fraction(0)
    return VALUES[int(rng.integers(1, len(VALUES)))]


def _random_gram(rng, n):
    """A symmetric Gram: diagonal with some zeros (often degenerate), or
    dense with entries from ``VALUES`` (often indefinite)."""
    if rng.random() < 0.4:
        return SplitForm.diagonal([_draw(rng, 0.2) for _ in range(n)])
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = _draw(rng, 0.3)
    return SplitForm(n, g)


def _random_algebra(rng, n):
    """A quadratic Lie algebra candidate of dimension ``n``: independent
    constants (breaks antisymmetry), an antisymmetric table (usually breaks
    Jacobi), a scaled catalog double under its own or a random Gram, or the
    abelian bracket under a random Gram."""
    kind = int(rng.integers(4))
    same = [pair.d for pair in helpers.catalog().values() if pair.d.dim == n]
    if kind == 3 and same:
        d = same[int(rng.integers(len(same)))]
        t = VALUES[int(rng.integers(1, len(VALUES)))]
        c = [[[t * x for x in row] for row in plane] for plane in d.structure]
        form = d.form if rng.random() < 0.5 else _random_gram(rng, n)
        return QuadraticLieAlgebra(n, c, form)
    if kind == 0:
        c = [[[_draw(rng, 0.8) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    elif kind == 1:
        table = {
            (i, j): [_draw(rng, 0.7) for _ in range(n)]
            for i in range(n)
            for j in range(i + 1, n)
        }
        c = structure_from_table(n, table)
    else:
        c = structure_from_table(n, {})
    return QuadraticLieAlgebra(n, c, _random_gram(rng, n))


def test_integer_check_matches_the_fraction_product_check():
    check = check_quadratic_lie.__wrapped__
    for name, pair in helpers.catalog().items():
        assert check(pair.d) == helpers.reference_check_quadratic_lie(pair.d), name
    rng = helpers.rng_for(19)
    seen = {q: set() for q in ("antisymmetry", "jacobi", "ad_invariance", "degeneracy")}
    signatures, denominators = set(), set()
    for trial in range(320):
        d = _random_algebra(rng, trial % 7)
        got, want = check(d), helpers.reference_check_quadratic_lie(d)
        assert repr(got) == repr(want), (trial, d)
        for q, seen_q in seen.items():
            seen_q.add(got.quantities[q] > 0)
        signatures.add(got.data["signature"])
        denominators.add(d.integer_structure[1])
    # the tables both pass and break every axiom, the Grams include
    # degenerate and indefinite ones, and some denominator exceeds 1
    assert all(s == {False, True} for s in seen.values()), seen
    assert any(p and m for p, m in signatures)
    assert max(denominators) > 1


def test_the_inverse_gram_is_one_integer_solve():
    # the integer pair from one solve on [G' | I] is the Fraction inverse in
    # lowest terms; a degenerate Gram raises where the adjoint reads it
    rng = helpers.rng_for(43)
    seen = {"nondegenerate": 0, "degenerate": 0}
    for trial in range(300):
        form = _random_gram(rng, 1 + trial % 5)
        try:
            want = rat.invert(form.gram)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                form.adjoint(([[1] * form.dim], 1))
            seen["degenerate"] += 1
            continue
        inv = form.integer_gram_inv
        assert rat.fractions(*inv) == want
        assert rat.lowest_terms(*inv) == inv
        seen["nondegenerate"] += 1
    assert all(seen.values()), seen


def test_integer_structure_is_one_denominator_over_the_nonzero_constants():
    d = QuadraticLieAlgebra(
        2, structure_from_table(2, {(0, 1): ("1/2", "-3/7")}), SplitForm.diagonal((1, -1))
    )
    sparse, den = d.integer_structure
    assert den == 14
    assert sparse == (((), ((0, 7), (1, -6))), (((0, -7), (1, 6)), ()))
    assert d.integer_structure is d.integer_structure


def test_bracket_equals_the_dense_fraction_loop():
    rng = helpers.rng_for(23)
    for name, pair in helpers.catalog().items():
        d = pair.d
        for _ in range(200):
            u = tuple(helpers.random_fraction(rng) for _ in range(d.dim))
            v = tuple(helpers.random_fraction(rng) for _ in range(d.dim))
            assert d.bracket(u, v) == helpers.reference_bracket(d, u, v), name
    with pytest.raises(ValueError, match="wrong length"):
        catalog()["so3-double"].d.bracket((1, 0, 0), (0, 1, 0))


def test_validation_makes_no_fraction_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("validation went through a Fraction product")

    check_quadratic_lie.cache_clear()
    product_algebra.cache_clear()
    monkeypatch.setattr(rat, "mat_mul", refuse)
    pair = make_group_pair_double(so3_constants(), rat.identity(3))
    assert check_quadratic_lie(pair.d).passed
    assert check_quadratic_lie.cache_info().currsize == 1
