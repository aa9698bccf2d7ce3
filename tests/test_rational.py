import math
import random
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from diracpairs import rational as rat

ints = st.integers(min_value=-9, max_value=9)


def int_matrix(max_dim=5):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda m: st.lists(
                st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


# Entries over mixed denominators: small ones, 10^8-sized ones, and plain
# ints; some rows are zeroed.
fraction_entries = st.one_of(
    ints,
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(
        Fraction, st.integers(-(10**9), 10**9), st.integers(10**8 - 99, 10**8)
    ),
)


@st.composite
def fraction_matrix(draw, m=None, n=None):
    m = m or draw(st.integers(min_value=1, max_value=4))
    n = n or draw(st.integers(min_value=1, max_value=4))
    rows = [
        tuple(draw(fraction_entries) for _ in range(n)) for _ in range(m)
    ]
    for i in draw(st.sets(st.integers(min_value=0, max_value=m - 1))):
        rows[i] = (0,) * n
    return tuple(rows)


def naive_mat_mul(a, b):
    return tuple(
        tuple(sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0))
              for col in zip(*b))
        for row in a
    )


def naive_rref(rows):
    """Gauss-Jordan over Fraction: (nonzero RREF rows, pivot columns)."""
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def assert_normalized(values):
    for x in values:
        assert type(x) is Fraction
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def test_scalar_accepts_exact_inputs_only():
    assert rat.scalar(3) == Fraction(3)
    assert rat.scalar(Fraction(2, 7)) == Fraction(2, 7)
    assert rat.scalar("-3/4") == Fraction(-3, 4)
    with pytest.raises(TypeError):
        rat.scalar(0.5)
    with pytest.raises(TypeError):
        rat.scalar(None)


def test_rationalize_is_the_float_gateway():
    assert rat.rationalize(0.5) == Fraction(1, 2)
    assert rat.rationalize(7) == Fraction(7)


# finite floats of every kind: general, signed zeros, subnormals, huge,
# and exact dyadics (the case whose denominator is a power of two)
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.integers(1, 2**52 - 1).map(lambda k: k * 5e-324),
    st.builds(lambda k, e: k * 2.0**e, st.integers(-(2**30), 2**30), st.integers(-80, 20)),
)


@settings(max_examples=400, deadline=None)
@given(finite_floats)
def test_rationalize_rounds_to_the_nearest_multiple_of_2_to_the_minus_52(x):
    got = rat.rationalize(x)
    assert type(got) is Fraction
    # Fraction's round breaks ties to even, as rationalize must
    assert got == Fraction(round(Fraction(x) * 2**52), 2**52)
    den = got.denominator
    assert den & (den - 1) == 0 and den <= 2**52


@pytest.mark.parametrize(
    "x, multiple",
    [(2**-53, 0), (3 * 2**-53, 2), (5 * 2**-53, 2), (-3 * 2**-53, -2),
     (0.5 + 2**-53, 2**51), (0.5 + 3 * 2**-53, 2**51 + 2)],
)
def test_rationalize_breaks_a_tie_to_the_even_multiple(x, multiple):
    # x lies halfway between two multiples of 2^-52, a case random floats
    # seldom hit
    assert rat.rationalize(x) == Fraction(multiple, 2**52)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_rationalize_refuses_what_fraction_refuses(bad):
    with pytest.raises(Exception) as want:
        Fraction(bad).limit_denominator(10**8)
    with pytest.raises(want.type):
        rat.rationalize(bad)
    with pytest.raises(want.type):
        rat.rationalize(np.float64(bad))


def test_matrix_building_and_arithmetic():
    a = rat.matrix([[1, 2], [3, 4]])
    b = rat.matrix([["1/2", 0], [0, "1/3"]])
    assert rat.mat_mul(a, b) == rat.matrix([["1/2", "2/3"], ["3/2", "4/3"]])
    assert rat.mat_neg(rat.mat_neg(a)) == a
    assert rat.mat_vec(a, (1, 0)) == (Fraction(1), Fraction(3))
    assert rat.transpose(rat.transpose(a)) == a
    assert rat.is_zero_product(rat.zeros(3, 2), a)
    assert not rat.is_zero_product(a, rat.identity(2))


def test_stacking_shapes():
    a = rat.identity(2)
    b = rat.zeros(2, 3)
    h = rat.hstack(a, b)
    assert len(h) == 2 and len(h[0]) == 5
    v = rat.vstack(a, rat.zeros(1, 2))
    assert len(v) == 3 and len(v[0]) == 2
    d = rat.block_diag(a, rat.identity(3))
    assert d == rat.identity(5)


def test_vstack_and_block_diag_reject_ragged_rows():
    # vstack returned ((1, 2), (3,)), and block_diag ragged rows
    with pytest.raises(ValueError, match="ragged rows"):
        rat.vstack(((1, 2),), ((3,),))
    with pytest.raises(ValueError, match="ragged rows"):
        rat.vstack(((1, 2), (3,)), ())
    with pytest.raises(ValueError, match="ragged rows"):
        rat.block_diag(((1,),), ((2, 3), (4,)))
    # lengths only: no entry is read
    bad = (Unreadable(), Unreadable())
    with pytest.raises(ValueError, match="ragged rows"):
        rat.vstack((bad,), ((bad[0],),))
    with pytest.raises(ValueError, match="ragged rows"):
        rat.block_diag((bad, bad[:1]))
    assert rat.vstack((), ROW_12) == ROW_12 == rat.vstack(ROW_12, ())
    assert rat.block_diag(((),), ROW_12, ()) == ROW_12


def test_hstack_takes_any_number_of_blocks():
    a, b, c = rat.identity(2), rat.zeros(2, 1), rat.matrix([[1, 2], [3, 4]])
    three = rat.hstack(a, b, c)
    assert three == rat.matrix([[1, 0, 0, 1, 2], [0, 1, 0, 3, 4]])
    assert rat.hstack(a, rat.hstack(b, c)) == three == rat.hstack(rat.hstack(a, b), c)
    # () has no columns, wherever it stands
    assert rat.hstack((), a, b, c) == three == rat.hstack(a, b, c, ())
    assert rat.hstack((), a) == a == rat.hstack(a, ())
    assert rat.hstack() == () == rat.hstack((), ())
    # t x 0 blocks add no columns and keep the t rows
    for t in (1, 3):
        empty = ((),) * t
        assert rat.hstack(empty, rat.identity(t), empty) == rat.identity(t)
        assert rat.hstack(empty, empty) == empty
        assert rat.hstack(empty, ()) == empty
    with pytest.raises(ValueError, match="numbers of rows"):
        rat.hstack(a, rat.identity(3))


ROW_12 = ((1, 2),)
COLUMN_3 = ((3,),)


class Unreadable:
    """An entry whose arithmetic fails, to show a shape error comes first."""

    def __add__(self, other):
        raise AssertionError("entry read before the shape check")

    __sub__ = __radd__ = __rsub__ = __add__


INNER = "different inner dimensions"


def test_mat_mul_rejects_mismatched_inner_dimensions():
    # zip would cut the longer operand: ((1, 2),) @ ((3,),) read as ((3,),)
    with pytest.raises(ValueError, match=INNER):
        rat.mat_mul(ROW_12, COLUMN_3)
    with pytest.raises(ValueError, match=INNER):
        rat.mat_mul(COLUMN_3, rat.identity(2))
    assert rat.mat_mul(ROW_12, ((3,), (4,))) == ((11,),)
    # an empty operand still gives the empty product
    assert rat.mat_mul((), COLUMN_3) == () == rat.mat_mul(ROW_12, ())


def test_mat_vec_rejects_mismatched_inner_dimensions():
    with pytest.raises(ValueError, match=INNER):
        rat.mat_vec(ROW_12, (3,))
    with pytest.raises(ValueError, match=INNER):
        rat.mat_vec(ROW_12, (3, 4, 5))
    assert rat.mat_vec(ROW_12, (3, 4)) == (11,)


def test_zero_product_rejects_mismatched_inner_dimensions():
    with pytest.raises(ValueError, match=INNER):
        rat.is_zero_product(ROW_12, COLUMN_3)
    with pytest.raises(ValueError, match=INNER):
        rat.is_zero_product(rat.identity(2), COLUMN_3)
    assert rat.is_zero_product(ROW_12, ((2,), (-1,)))
    # an empty factor gives the empty product
    assert rat.is_zero_product((), COLUMN_3) and rat.is_zero_product(ROW_12, ())


def test_rref_known_values():
    red, piv = rat.rref([[2, 0], [0, 3]])
    assert red == rat.identity(2)
    assert piv == (0, 1)
    red, piv = rat.rref([[1, 1], [2, 2]])
    assert red == (tuple(rat.vec((1, 1))),)
    assert piv == (0,)
    assert rat.rref([]) == ((), ())


def test_solve_right_and_invert():
    a = rat.matrix([[1, 2], [3, 5]])
    inv = rat.invert(a)
    assert rat.mat_mul(a, inv) == rat.identity(2)
    assert rat.mat_mul(inv, a) == rat.identity(2)
    b = rat.matrix([[1], [0]])
    x = rat.solve_right(a, b)
    assert rat.mat_mul(a, x) == b
    with pytest.raises(ValueError):
        rat.invert(rat.matrix([[1, 2], [2, 4]]))


def test_solve_linear_inconsistent_and_underdetermined():
    (part,), _ = helpers.solve_linear([[1, 1], [1, 1]], [(0, 1)])
    assert part is None
    (part,), null = helpers.solve_linear([[1, 1]], [(2,)])
    assert sum(part) == Fraction(2)
    assert len(null) == 1
    (part,), null = helpers.solve_linear((), [()], ncols=3)
    assert part == (Fraction(0),) * 3
    assert null == rat.identity(3)


@settings(max_examples=60, deadline=None)
@given(int_matrix(), st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5), max_size=4))
def test_solve_linear_solves_every_right_hand_side_from_one_reduction(rows, columns):
    # each right-hand side is a combination of a's columns, or a column that
    # may be inconsistent; every verdict matches that right-hand side alone
    a = rat.matrix(rows)
    rhs = [tuple(Fraction(c) for c in col[: len(a)]) for col in columns]
    rhs += [rat.mat_vec(a, tuple(Fraction(v) for v in col[: len(a[0])])) for col in columns]
    parts, null = helpers.solve_linear(a, rhs)
    assert rat.rref(null)[0] == helpers.kernel(a)
    for b, part in zip(rhs, parts):
        alone, _ = rat.rref(tuple(row + (v,) for row, v in zip(a, b)))
        consistent = all(any(row[: len(a[0])]) for row in alone)
        assert (part is not None) == consistent
        if part is not None:
            assert rat.mat_vec(a, part) == b


@settings(max_examples=60, deadline=None)
@given(int_matrix())
def test_rref_idempotent(rows):
    red, piv = rat.rref(rows)
    again, piv2 = rat.rref(red)
    assert again == red
    assert piv2 == piv


@settings(max_examples=60, deadline=None)
@given(int_matrix())
def test_rank_transpose_invariant(rows):
    assert helpers.rank(rows) == helpers.rank(rat.transpose(rat.matrix(rows)))


@settings(max_examples=60, deadline=None)
@given(int_matrix())
def test_kernel_dimension_and_orthogonality(rows):
    a = rat.matrix(rows)
    n = len(a[0])
    k = helpers.kernel(a, ncols=n)
    assert len(k) == n - helpers.rank(a)
    for v in k:
        assert all(x == 0 for x in rat.mat_vec(a, v))


@settings(max_examples=40, deadline=None)
@given(int_matrix(max_dim=3), int_matrix(max_dim=3))
def test_mat_mul_respects_transpose(a_rows, b_rows):
    a = rat.matrix(a_rows)
    b = rat.matrix(b_rows)
    if len(a[0]) != len(b):
        b = rat.transpose(b)
    if len(a[0]) != len(b):
        return
    left = rat.transpose(rat.mat_mul(a, b))
    right = rat.mat_mul(rat.transpose(b), rat.transpose(a))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_mat_mul_and_mat_vec_match_fraction_loops(m, k, n, data):
    a = data.draw(fraction_matrix(m, k))
    b = data.draw(fraction_matrix(k, n))
    v = data.draw(fraction_matrix(1, k))[0]
    prod = rat.mat_mul(a, b)
    assert prod == naive_mat_mul(a, b)
    assert_normalized(x for row in prod for x in row)
    image = rat.mat_vec(a, v)
    assert image == tuple(row[0] for row in naive_mat_mul(a, tuple((x,) for x in v)))
    assert_normalized(image)


@settings(max_examples=60, deadline=None)
@given(fraction_matrix())
def test_rref_matches_gauss_jordan(rows):
    red, piv = rat.rref(rows)
    assert (red, piv) == naive_rref(rows)
    assert (red, piv) == helpers.reference_rref(rows)
    assert_normalized(x for row in red for x in row)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: fraction_matrix(n, n)))
def test_invert_matches_gauss_jordan(a):
    n = len(a)
    red, piv = naive_rref(tuple(row + e for row, e in zip(a, rat.identity(n))))
    if piv[:n] != tuple(range(n)):
        with pytest.raises(ValueError, match="singular"):
            rat.invert(a)
        return
    inv = rat.invert(a)
    assert inv == tuple(row[n:] for row in red)
    assert_normalized(x for row in inv for x in row)


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5)], ids=["float", "float64"])
def test_products_reject_floats(bad):
    named = re.escape(repr(bad))
    one = ((Fraction(1),),)
    with pytest.raises(TypeError, match=named):
        rat.mat_mul(one, ((bad,),))
    with pytest.raises(TypeError, match=named):
        rat.mat_mul(((bad,),), one)
    with pytest.raises(TypeError, match=named):
        rat.mat_vec(((Fraction(1), Fraction(2)),), (bad, 1))
    with pytest.raises(TypeError, match=named):
        rat.mat_vec(((Fraction(1), bad),), (1, 1))


# Large, pairwise coprime denominators (primes below 10^9), so Gauss-Jordan
# over Fraction meets several-hundred-bit intermediates.
big_primes = (999999937, 999999929, 999999893, 999999883, 999999797, 999999761)
coprime_entries = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.sampled_from(big_primes)
)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(6, 9), st.integers(0, 3), st.data())
def test_rref_matches_gauss_jordan_on_wide_rank_deficient_rows(r, n, extra, data):
    # r independent-ish rows, then `extra` rational combinations of them
    base = data.draw(
        st.lists(st.tuples(*[coprime_entries] * n), min_size=r, max_size=r)
    )
    coefs = data.draw(
        st.lists(st.tuples(*[coprime_entries] * r), min_size=extra, max_size=extra)
    )
    rows = tuple(base) + tuple(
        tuple(sum((c * row[j] for c, row in zip(cs, base)), Fraction(0)) for j in range(n))
        for cs in coefs
    )
    red, piv = rat.rref(rows)
    assert (red, piv) == naive_rref(rows)
    assert (red, piv) == helpers.reference_rref(rows)
    assert len(red) <= r
    assert_normalized(x for row in red for x in row)


def test_rref_matches_gauss_jordan_on_frozen_fiber_rows(monkeypatch):
    from diracpairs import numeric_manifold as nm
    from diracpairs import verify

    captured = []
    canonicalize = nm.canonicalize

    def capture(rows, ambient_dim=None):
        captured.append(rat.matrix(rows))
        return canonicalize(rows, ambient_dim)

    monkeypatch.setattr(nm, "canonicalize", capture)
    _, pts, cd = verify._dressing(3, 0, 1e-4)
    can = nm.canonical_hamiltonian(cd)
    for x in pts:
        can.frozen_fiber(x)
    assert len(captured) == 3
    for rows in captured:
        # the freeze hands over integer rows scaled from the frozen anchor
        assert {x.denominator for row in rows for x in row} == {1}
        assert max(abs(x.numerator) for row in rows for x in row).bit_length() > 100
        red, piv = rat.rref(rows)
        assert (red, piv) == naive_rref(rows)
        assert_normalized(x for row in red for x in row)


@st.composite
def negative_pivot_rows(draw):
    """Rows whose first nonzero entry is negative, so the first pivot is."""
    rows = draw(fraction_matrix())
    return tuple(
        tuple(-x for x in row) if next((x for x in row if x), 0) > 0 else row
        for row in rows
    )


@settings(max_examples=60, deadline=None)
@given(negative_pivot_rows())
@example(((-2, 4, 1), (-3, -1, 0)))
def test_rref_matches_the_bareiss_reference_on_negative_pivots(rows):
    assert rat.rref(rows) == helpers.reference_rref(rows)


def test_rref_matches_the_bareiss_reference_on_the_strong_section_rows(monkeypatch):
    from diracpairs import verify

    captured = []
    int_rref = rat.int_rref

    def capture(rows):
        captured.append(tuple(map(tuple, rows)))
        return int_rref(rows)

    monkeypatch.setattr(rat, "int_rref", capture)
    assert verify.run_example(
        "rotation_strong_section", samples=3, seed=0, tol=helpers.TOL, step=helpers.STEP
    ).passed
    monkeypatch.undo()
    shapes = {(len(rows), len(rows[0])) for rows in captured if rows}
    assert {(3, 6), (3, 9), (6, 6), (6, 12)} <= shapes
    for rows in captured:
        assert rat.rref(rows) == helpers.reference_rref(rows)


@settings(max_examples=60, deadline=None)
@given(fraction_matrix(), st.data())
def test_zero_product_matches_the_fraction_product(a, data):
    k = len(a[0])
    b = data.draw(fraction_matrix(k, None))
    c = data.draw(fraction_matrix(len(b[0]), None))
    ab = naive_mat_mul(a, b)
    assert rat.is_zero_product(a, b) == all(x == 0 for row in ab for x in row)
    abc = naive_mat_mul(ab, c)
    assert rat.is_zero_product(ab, c) == all(x == 0 for row in abc for x in row)
    # kernel bases give products that must read zero
    null = helpers.kernel(a)
    if null:
        assert rat.is_zero_product(a, rat.transpose(null))
        ba = naive_mat_mul(rat.transpose(b), rat.transpose(a))
        assert rat.is_zero_product(ba, naive_mat_mul(a, rat.transpose(null)))
    left = helpers.kernel(rat.transpose(a))
    if left:
        assert rat.is_zero_product(left, a)


def test_zero_product_sees_a_tiny_entry():
    tiny = Fraction(1, 10**80)
    a = ((Fraction(1, 3), Fraction(-1, 3)),)
    b = ((Fraction(1),), (Fraction(1),))
    assert rat.is_zero_product(a, b)
    assert not rat.is_zero_product(a, ((Fraction(1),), (1 - tiny,)))
    assert not rat.is_zero_product(((tiny,),), ((Fraction(1),),))
    assert not rat.is_zero_product(a, ((Fraction(1),), (1 + tiny,)))
    # (2, 1) cancels the rows of the second factor only in their ratio 1 : -2
    rows = rat.matrix([[1, 2], [-2, -4]])
    assert rat.is_zero_product(((2, 1),), rows)
    assert not rat.is_zero_product(((2, 1 + tiny),), rows)


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5)], ids=["float", "float64"])
def test_zero_product_rejects_floats(bad):
    named = re.escape(repr(bad))
    one, odd = ((Fraction(1),),), ((bad,),)
    for factors in [(odd, one), (one, odd)]:
        with pytest.raises(TypeError, match=named):
            rat.is_zero_product(*factors)


def sparse_rows(g):
    """``g``'s nonzero entries by row, as `SplitForm.sparse_gram` lists them."""
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in g)


@st.composite
def integer_gram(draw):
    """An integer Gram matrix: dense, sparse (mostly zeros), or degenerate
    (``C^T D C`` with fewer rows in ``C`` than columns and signs in ``D``)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["dense", "sparse", "degenerate"]))
    if kind == "degenerate":
        k = draw(st.integers(0, n - 1))
        c = [[draw(ints) for _ in range(n)] for _ in range(k)]
        d = [draw(st.sampled_from([-1, 1])) for _ in range(k)]
        return tuple(
            tuple(sum(d[r] * c[r][i] * c[r][j] for r in range(k)) for j in range(n))
            for i in range(n)
        )
    entries = ints if kind == "dense" else st.sampled_from([0, 0, 0, 0, 0, -3, -1, 1, 2])
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


def zero_congruence(rows, gram):
    """`rational.int_zero_congruence` of rational ``rows``, each scaled to
    primitive integers, as `exact_linear.Subspace` stores its rows."""
    return rat.int_zero_congruence(rat._primitive_rows(rows), sparse_rows(gram))


def triple_product_vanishes(rows, g):
    return all(x == 0 for row in naive_mat_mul(naive_mat_mul(rows, g), rat.transpose(rows)) for x in row)


@settings(max_examples=80, deadline=None)
@given(integer_gram(), st.data())
def test_zero_congruence_matches_the_fraction_triple_product(g, data):
    # fraction_matrix zeroes some rows and draws negative entries
    rows = data.draw(fraction_matrix(None, len(g)))
    assert zero_congruence(rows, g) == triple_product_vanishes(rows, g)


@settings(max_examples=80, deadline=None)
@given(integer_gram(), st.data())
def test_a_non_isotropic_row_flips_the_zero_congruence(g, data):
    n = len(g)
    # the kernel of G and zero rows are isotropic for G
    rows = helpers.kernel(g) + ((Fraction(0),) * n,) * data.draw(st.integers(0, 2))
    assert zero_congruence(rows, g)
    assert triple_product_vanishes(rows, g)
    units = rat.identity(n)
    candidates = list(units) + [
        tuple(a + b for a, b in zip(units[i], units[j])) for i in range(n) for j in range(i)
    ]
    bad = [v for v in candidates if not triple_product_vanishes((v,), g)]
    assume(bad)
    v = data.draw(st.sampled_from(bad))
    grown = rows + (v,)
    assert not triple_product_vanishes(grown, g)
    assert not zero_congruence(grown, g)


# Denominators of the seeded matrices: small ones and ones near 10^9,
# where a product of two already passes 60 bits.
SEEDED_DENOMINATORS = (1, 2, 3, 12, 10**9 - 63, 10**9 + 7, 999999937)


def seeded_entry(rng):
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-(10**9), 10**9), rng.choice(SEEDED_DENOMINATORS))


def seeded_rational_matrices(rng, count=60):
    """``()`` and ``count`` random rational matrices: plain ones, ones with
    a zero row, ones whose every row leads with a negative entry, and wide
    rank-deficient ones (rows past the first one or two are combinations)."""
    out = [()]
    kinds = ("plain", "zero row", "negative leads", "wide rank-deficient")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        if kind == "wide rank-deficient":
            n = rng.randint(6, 9)
            base = [[seeded_entry(rng) for _ in range(n)] for _ in range(rng.randint(1, 2))]
            combos = [[seeded_entry(rng) for _ in base] for _ in range(rng.randint(1, 3))]
            rows = base + [[sum(c * row[j] for c, row in zip(cs, base)) for j in range(n)] for cs in combos]
        else:
            rows = [[seeded_entry(rng) for _ in range(n)] for _ in range(m)]
        if kind == "zero row":
            rows[rng.randrange(len(rows))] = [Fraction(0)] * n
        if kind == "negative leads":
            rows = [[-x for x in row] if next((x for x in row if x), 0) > 0 else row for row in rows]
        out.append(tuple(map(tuple, rows)))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_integer_kernel_matches_the_references(seed):
    rng = random.Random(seed)
    for a in seeded_rational_matrices(rng):
        red, piv = rat.rref(a)
        assert (red, piv) == helpers.reference_rref(a)
        # the kernel's own form: primitive rows with positive pivots
        ired, ipiv = rat.int_rref(rat.over_one_denominator(a)[0])
        assert ipiv == piv and rat.over_pivots(ired) == red
        for row, p in zip(ired, ipiv):
            assert row[p] > 0 and math.gcd(*row) == 1
        assert helpers.rank(a) == len(red)
        if not a:
            assert red == rat.mat_mul(a, ((1,),)) == ()
            continue
        n = len(a[0])
        null = helpers.kernel(a)
        assert len(null) == n - len(red) and null == helpers.reference_rref(null)[0]
        assert all(x == 0 for row in naive_mat_mul(a, rat.transpose(null)) for x in row)
        b = tuple(tuple(seeded_entry(rng) for _ in range(3)) for _ in range(n))
        assert rat.mat_mul(a, b) == naive_mat_mul(a, b)
        assert rat.mat_vec(a, rat.transpose(b)[0]) == rat.transpose(naive_mat_mul(a, b))[0]
        if len(red) == n == len(a):
            eye = rat.identity(n)
            assert rat.invert(a) == tuple(row[n:] for row in naive_rref(rat.hstack(a, eye))[0])


def test_the_freeze_builds_no_fraction_product(monkeypatch):
    # the anchor, its identification, the canonical fiber and both strong
    # section Lagrangians, and the exact part of the strong-map check, run
    # on integer rows: no Fraction product, row reduction or negation
    from diracpairs import numeric_manifold as nm
    from diracpairs import verify

    _, pts, cd = verify._dressing(3, 0, helpers.STEP)
    can = nm.canonical_hamiltonian(cd)
    check_strong_dirac = nm.check_strong_dirac

    def exact_part(l_x, points, phi=None, *, h, tol, exact_fibers=None):
        return check_strong_dirac(l_x, points, h=h, tol=tol, exact_fibers=exact_fibers)

    def refuse(*args, **kwargs):
        raise AssertionError("the freeze built a Fraction matrix")

    for name in ("mat_mul", "rref", "mat_neg"):
        monkeypatch.setattr(rat, name, refuse)
    monkeypatch.setattr(nm, "check_strong_dirac", exact_part)
    for x in pts:
        assert can.frozen_fiber(x).K.dim == 6
    report = verify.run_example(
        "rotation_strong_section", samples=3, seed=0, tol=helpers.TOL, step=helpers.STEP
    )
    assert report.passed and set(report.quantities) == {"inclusion", "transversality", "frozen_fiber"}
