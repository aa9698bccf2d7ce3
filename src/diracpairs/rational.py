"""Exact rational scalars and dense matrix helpers.

Scalars are `fractions.Fraction` throughout the public matrix functions.
Matrices are immutable tuples of row tuples, so they hash and compare
structurally.  Floats are rejected unless they go through the float gate,
the only code here that rounds: `rationalize` for one float as a Fraction,
and `rationalize_rows` for float rows as an integer pair (below), both
rounding by one body, `_on_grid`.  It rounds onto the grid of multiples of
2^-52, each entry within 2^-53, so rounded entries share one power-of-two
denominator and their products stop multiplying coprime denominators.

The arithmetic itself runs on one integer kernel.  A matrix there is a pair
``(rows, d)``: integer rows over one positive denominator, standing for
``rows / d``, as `over_one_denominator` gives it; row reduction needs no
denominator, as scaling a row keeps its span.  The kernel's functions are
``int_*``: `int_mat_mul`, `int_rref` (the primitive integer rows of the
reduced echelon form, each scaled to make its pivot positive, which is
canonical), `int_kernel`, `int_solve`, `int_solve_linear`, and the zero
tests `int_zero_pairing` and `int_zero_congruence`; `lowest_terms` keeps a
pair short.  No Fraction is built in them.

Fractions are built only at the boundary, by the Fraction-tuple functions
that scenes, JSON, printing and tests read: `mat_mul`, `mat_vec`, `rref`,
`kernel`, `solve_right`, `invert`, `rank` and `solve_linear` convert their
arguments with `over_one_denominator`, run the kernel, and build one
normalized Fraction per nonzero output entry (`fractions`).  The per-point
freeze of the numeric tier stays in the kernel end to end, from
`rationalize_rows` on, and its objects (`exact_linear.Subspace`,
`dictionary.ExactIdentification`, `morphism.HamiltonianFiber`) build their
Fraction views on first read.  `is_zero_product` decides on the same
integer rows and builds no Fraction at all.  An entry that is not an int or
a Fraction (a float, a numpy scalar) raises `TypeError` at the boundary,
and factors whose inner dimensions disagree raise `ValueError` before any
entry is read, as `vstack` and `block_diag` do when their rows would be
ragged.

A map ``A`` applies to a whole block of vectors, stacked as the rows of
``V``, through one `mat_mul` (``V @ A^T``), so ``A`` goes over one
denominator once; `mat_vec` is for a single vector.  Blocks are assembled
from `identity`, `zeros` and products with `vstack` and `hstack`, which
takes any number of blocks and skips an empty one, ``()``.

Row reduction is one integer Gauss-Jordan pass: rows are scaled to
primitive integers, and at each pivot every other row with a nonzero entry
in its column is cleared with gcd-reduced multipliers and made primitive
again; rows with a zero there are skipped.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul


_ZERO = Fraction(0)
_ONE = Fraction(1)
_GRID = 1 << 52


def scalar(x):
    """Coerce ``x`` (int, Fraction, or a string like '3/4') to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot make an exact rational from {x!r}")


def _on_grid(x):
    """The integer ``n`` of the multiple ``n / 2^52`` of 2^-52 nearest the
    float ``x``, ties to the even multiple: the one rounding body.

    It runs on the integers of ``x.as_integer_ratio()``, whose denominator
    is a power of two, so no float is multiplied and 1e300 does not
    overflow.  NaN raises ValueError and an infinity OverflowError."""
    num, den = x.as_integer_ratio()
    if den <= _GRID:
        return num * (_GRID // den)
    # den = 2^(52 + s): num / 2^s rounded half to even
    s = den.bit_length() - _GRID.bit_length()
    q, r = divmod(num, 1 << s)
    half = 1 << (s - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return q


def rationalize(x):
    """Round a float to the nearest multiple of 2^-52, as a Fraction.

    Ties go to the even multiple, and the error is at most 2^-53; a float
    already on the grid comes back exact.  Ints and Fractions pass through.
    NaN raises ValueError and an infinity OverflowError.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return Fraction(_on_grid(float(x)), _GRID)


def rationalize_rows(rows):
    """Float ``rows`` rounded entry by entry as `rationalize` rounds them,
    as the integer pair ``(rows, d)`` in lowest terms: the way floats enter
    the integer kernel, with no Fraction built.  ``d`` is the lcm of the
    rounded entries' denominators, a power of two up to 2^52."""
    return lowest_terms([[_on_grid(float(v)) for v in row] for row in rows], _GRID)


def vec(values):
    return tuple(scalar(v) for v in values)


def _check_rectangular(rows):
    """Raise unless every row of ``rows`` has one length; lengths only."""
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")


def matrix(rows):
    """Normalize a nested sequence to an immutable Fraction matrix."""
    out = tuple(vec(r) for r in rows)
    _check_rectangular(out)
    return out


def zeros(m, n):
    return ((_ZERO,) * n,) * m


def identity(n):
    return tuple((_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - 1 - i) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def over_one_denominator(a):
    """``(rows, d)`` with integer ``rows`` and positive ``d`` such that
    ``a == rows / d`` entrywise, ``d`` being the lcm of the denominators:
    the way into the integer kernel.  Raises `TypeError` on an entry that
    is not an int or a Fraction."""
    rows = [tuple(row) for row in a]
    if all(type(x) is int for row in rows for x in row):
        return [list(row) for row in rows], 1
    pairs = []
    for row in rows:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"exact kernel got a non-rational entry {x!r}")
        pairs.append([x.as_integer_ratio() for x in row])
    d = lcm(*{q for row in pairs for _, q in row})
    return [[p * (d // q) for p, q in row] for row in pairs], d


def fractions(rows, d):
    """The Fraction matrix ``rows / d`` of integer ``rows``: the way out of
    the integer kernel, one normalized Fraction per nonzero entry."""
    return tuple(tuple(Fraction(v, d) if v else _ZERO for v in row) for row in rows)


def lowest_terms(rows, d):
    """``(rows, d)`` divided by the gcd of ``d`` and every entry, so that
    the pair is the unique one of its matrix with coprime entries."""
    g = gcd(d, *chain.from_iterable(rows))
    if g == 1:
        return rows, d
    return [[v // g for v in row] for row in rows], d // g


def unit_rows(n, scale=1):
    """The integer rows of ``scale`` times the n x n identity."""
    return [[scale if i == j else 0 for j in range(n)] for i in range(n)]


def int_mat_mul(a, b):
    """The product of integer matrices ``a`` and ``b``; a pair's product
    lies over the product of the two denominators."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _check_inner(a, b):
    """Raise unless ``a``'s rows are as long as ``b`` is; lengths only."""
    if len(a[0]) != len(b):
        raise ValueError("factors have different inner dimensions")


def mat_mul(a, b):
    if not a or not b:
        return ()
    _check_inner(a, b)
    ia, da = over_one_denominator(a)
    ib, db = over_one_denominator(b)
    return fractions(int_mat_mul(ia, ib), da * db)


def mat_vec(a, v):
    """Apply matrix ``a`` to a column vector (returned as a flat tuple)."""
    if a:
        _check_inner(a, v)
    ia, da = over_one_denominator(a)
    (iv,), dv = over_one_denominator((v,))
    return fractions(([sum(map(mul, row, iv)) for row in ia],), da * dv)[0]


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def int_zero_pairing(rows, cols):
    """Whether each integer row of ``rows`` has a zero dot product with each
    of ``cols``, i.e. whether ``rows @ cols^T`` is the zero matrix."""
    return not any(sum(map(mul, row, col)) for row in rows for col in cols)


def is_zero_product(a, b):
    """Whether ``a @ b`` is the zero matrix.

    Decided over the integers, with no Fraction built: scaling a row of
    ``a`` or a column of ``b`` by a nonzero rational leaves every entry of
    the product zero or nonzero as it was, so both are scaled to primitive
    integers.  Raises `TypeError` on an entry that is not an int or a
    Fraction, and `ValueError` when two nonempty factors do not chain.
    """
    if a and b:
        _check_inner(a, b)
    return int_zero_pairing(_primitive_rows(a), _primitive_rows(transpose(b)))


def int_zero_congruence(rows, gram):
    """Whether ``rows @ G @ rows^T`` is the zero matrix, for integer
    ``rows`` and an integer ``G`` given by its nonzero entries (a Gram
    matrix over one denominator, which the verdict does not see):
    ``gram[i]`` lists the pairs ``(j, G[i][j])`` of row ``i``.  Each row
    ``u`` meets only the entries of ``G`` in the rows where ``u`` is
    nonzero, so ``u G`` costs 12 products on the sum pairing of T + T* + E,
    whose Gram has 12 nonzero entries out of 144."""
    n = len(gram)
    for u in rows:
        left = [0] * n
        for x, entries in zip(u, gram):
            if x:
                for j, g in entries:
                    left[j] += x * g
        if any(left) and any(sum(map(mul, left, w)) for w in rows):
            return False
    return True


def hstack(*blocks):
    """The blocks side by side, row by row.  An empty block ``()`` has no
    columns and is skipped; a block of empty rows, ``((),) * m``, adds none."""
    blocks = [b for b in blocks if b]
    if len({len(b) for b in blocks}) > 1:
        raise ValueError("blocks have different numbers of rows")
    return tuple(tuple(chain.from_iterable(rows)) for rows in zip(*blocks))


def vstack(a, b):
    """The rows of ``a``, then those of ``b``; all must have one length."""
    rows = tuple(a) + tuple(b)
    _check_rectangular(rows)
    return rows


def block_diag(*blocks):
    """The blocks along the diagonal, zeros elsewhere; each block's rows
    must have one length.  A block of no rows or columns adds none."""
    for b in blocks:
        _check_rectangular(b)
    blocks = [b for b in blocks if b and len(b[0])]
    total = sum(len(b[0]) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        w = len(b[0])
        for r in b:
            rows.append(
                (Fraction(0),) * offset + tuple(r) + (Fraction(0),) * (total - offset - w)
            )
        offset += w
    return tuple(rows)


def _primitive(ints):
    """An integer row divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _primitive_rows(rows):
    """Each row scaled to coprime integers; zero rows stay.  Row scaling by
    a nonzero rational leaves the row span unchanged."""
    out = []
    for r in rows:
        (ints,), _ = over_one_denominator((r,))
        out.append(_primitive(ints))
    return out


def int_rref(rows):
    """Reduced row echelon form of the span of integer ``rows``.

    Returns ``(rows, pivots)``: the nonzero RREF rows, each as the
    primitive integer row with a positive pivot, and the pivot column
    indices.  One Gauss-Jordan pass on primitive integer rows: at each
    pivot every other row whose entry in the pivot column is nonzero
    becomes ``a * row - b * pivot_row``, with ``b / a`` that entry over the
    pivot in lowest terms, and is divided by the gcd of its entries again.
    RREF is unique, and so is its primitive integer form with positive
    pivots, hence canonical.
    """
    work = [r for r in map(_primitive, rows) if any(r)]
    if not work:
        return (), ()
    m, n = len(work), len(work[0])

    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        top = work[r]
        piv = top[c]
        for i in range(m):
            t = work[i][c]
            if not t or i == r:
                continue
            g = gcd(piv, t)
            a, b = piv // g, t // g
            work[i] = _primitive([a * x - b * y for x, y in zip(work[i], top)])
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    return (
        tuple(
            tuple(row) if row[c] > 0 else tuple(-v for v in row)
            for row, c in zip(work, piv_cols)
        ),
        tuple(piv_cols),
    )


def rref(rows):
    """Reduced row echelon form of the row span: `int_rref` of the rows
    over one denominator, each row divided by its pivot.

    Returns ``(rows, pivots)``: the nonzero RREF rows as Fraction tuples and
    the pivot column indices; RREF is unique, hence canonical.
    """
    red, pivots = int_rref(over_one_denominator(rows)[0])
    return over_pivots(red), pivots


def over_pivots(red):
    """Integer RREF rows as Fraction rows, each divided by its pivot, its
    first nonzero entry."""
    return tuple(fractions((row,), next(filter(None, row)))[0] for row in red)


def _int_null_rows(red, pivots, n):
    """One integer vector of ``{x : a @ x = 0}`` per free column ``f`` of
    ``a``'s integer RREF ``red`` (pivot columns ``pivots``, ``n``
    columns): ``L`` at ``f`` and ``-L`` times that column of the reduced
    rows at the pivots, ``L`` the lcm of the pivots it meets."""
    pivot_set = set(pivots)
    rows = []
    for f in range(n):
        if f in pivot_set:
            continue
        hits = [(row, p) for row, p in zip(red, pivots) if row[f]]
        scale = lcm(*(row[p] for row, p in hits))
        v = [0] * n
        v[f] = scale
        for row, p in hits:
            v[p] = -row[f] * (scale // row[p])
        rows.append(v)
    return rows


def int_kernel(rows, ncols):
    """Canonical rows of ``{x : rows @ x = 0}`` (as `int_rref` gives them)
    for integer ``rows`` of ``ncols`` columns."""
    red, pivots = int_rref(rows)
    null = _int_null_rows(red, pivots, ncols)
    return int_rref(null)[0] if null else ()


def kernel(a, ncols=None):
    """Canonical basis rows of ``{x : a @ x = 0}``.

    ``ncols`` is required when ``a`` has no rows (kernel of a zero map).
    """
    if not a:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs ncols")
        return identity(ncols)
    return over_pivots(int_kernel(over_one_denominator(a)[0], len(a[0])))


def int_solve(aug, n):
    """``(x, d)`` with ``a @ (x / d) = b``, from the integer rows of the
    augmented matrix ``[a | b]`` of a square invertible ``a`` of ``n``
    rows; raises `ValueError` when ``a`` is singular."""
    red, pivots = int_rref(aug)
    if pivots[:n] != tuple(range(n)) or len(red) != n:
        raise ValueError("matrix is singular")
    d = lcm(*(row[i] for i, row in enumerate(red)))
    return [[v * (d // row[i]) for v in row[n:]] for i, row in enumerate(red)], d


def solve_right(a, b):
    """Solve ``a @ x = b`` for square invertible ``a`` (``b`` a matrix)."""
    return fractions(*int_solve(over_one_denominator(hstack(a, b))[0], len(a)))


def invert(a):
    return solve_right(a, identity(len(a)))


def rank(a):
    if not a:
        return 0
    return len(int_rref(over_one_denominator(a)[0])[0])


def int_solve_linear(aug, n, m):
    """Exact solves of ``a @ x = b`` for the ``m`` right-hand sides ``b``
    beside the ``n`` columns of ``a`` in the integer rows ``aug = [a | b_1
    ... b_m]``, from one row reduction (`int_rref`) of them all.

    Returns ``(particulars, null)``: ``particulars[j]`` is ``(x, d)``, the
    integer solution ``x / d`` of the system of ``b_j`` with every free
    coordinate zero, or None when that system is inconsistent; ``null``
    holds one integer row per free column, spanning the solutions of
    ``a @ x = 0``.  With no rows, every ``b`` is empty and solved by 0."""
    red, pivots = int_rref(aug)
    # rows past the pivots of ``a`` read 0 = b': nonzero means inconsistent
    k = sum(1 for p in pivots if p < n)
    parts = []
    for j in range(n, n + m):
        if any(row[j] for row in red[k:]):
            parts.append(None)
            continue
        hits = [(row, p) for row, p in zip(red[:k], pivots) if row[j]]
        d = lcm(*(row[p] for row, p in hits))
        x = [0] * n
        for row, p in hits:
            x[p] = row[j] * (d // row[p])
        parts.append((x, d))
    return parts, _int_null_rows(red, pivots[:k], n)


def solve_linear(a, rhs, ncols=None):
    """Exact solves of ``a @ x = b`` for every vector ``b`` of ``rhs``, from
    one row reduction of ``a`` beside all of them: `int_solve_linear` of
    the augmented rows over one denominator.

    Returns ``(particulars, nullspace_rows)``: ``particulars[j]`` solves the
    system of ``rhs[j]`` with every free coordinate zero, or is None when
    that system is inconsistent; the solutions of a consistent one are
    ``particulars[j] + span(nullspace_rows)``, one null row per free
    column.  ``ncols`` is required when ``a`` has no rows (no constraints).
    """
    a = matrix(a)
    rhs = [vec(b) for b in rhs]
    if not a:
        if ncols is None:
            raise ValueError("solve with no equations needs ncols")
        return [(_ZERO,) * ncols for _ in rhs], identity(ncols)
    n = len(a[0])
    aug, _ = over_one_denominator(tuple(row + tuple(bs) for row, *bs in zip(a, *rhs)))
    parts, null = int_solve_linear(aug, n, len(rhs))
    parts = [None if part is None else fractions((part[0],), part[1])[0] for part in parts]
    # each null row is scaled to 1 at its free column, its last nonzero entry
    return parts, tuple(fractions((v,), next(filter(None, reversed(v))))[0] for v in null)
