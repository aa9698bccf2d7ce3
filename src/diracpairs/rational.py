"""Exact rational scalars and dense matrix helpers.

Scalars are `fractions.Fraction` throughout.  Matrices are immutable tuples
of row tuples, so they hash and compare structurally.  Nothing in this
module rounds; floats are rejected unless they go through `rationalize`,
which is the single explicit float -> rational gate.  It returns what
``Fraction(float(x)).limit_denominator(m)`` returns, but runs the continued
fraction on the integer ratio of the float and builds a single Fraction.

Products are integer products: `mat_mul` and `mat_vec` scale each operand
to integer rows over one common denominator (`over_one_denominator`),
multiply and sum Python ints, and build one normalized Fraction per output
entry.  `is_zero_product` decides whether a product of two factors
vanishes on the same integer rows and builds no Fraction at all, and
`is_zero_congruence` does so for ``B G B^T`` with ``G`` already integer
rows (a form's cached Gram).  An entry that is not an int or a Fraction (a
float, a numpy scalar) raises `TypeError` in all of them, and factors whose
inner dimensions disagree raise `ValueError` before any entry is read.
`mat_sub` likewise raises `ValueError` before reading an entry when the two
operands differ in their number of rows or in the length of a row, and
`vstack` and `block_diag` do when their rows would be ragged.

A map ``A`` applies to a whole block of vectors, stacked as the rows of
``V``, through one `mat_mul` (``V @ A^T``), so ``A`` goes over one
denominator once; `mat_vec` is for a single vector.  Blocks are assembled
from `identity`, `zeros` and products with `vstack` and `hstack`, which
takes any number of blocks and skips an empty one, ``()``.

Row reduction is integer through back-substitution: rows are scaled to
primitive integers, eliminated with Bareiss one-step updates (exact integer
divisions), and cleared above each pivot on integer rows kept primitive;
only the output entries become Fractions, one ``Fraction(v, pivot)`` per
nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul


_ZERO = Fraction(0)
_ONE = Fraction(1)


def scalar(x):
    """Coerce ``x`` (int, Fraction, or a string like '3/4') to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot make an exact rational from {x!r}")


def rationalize(x, max_denominator=10**8):
    """Round a float to a nearby rational.  The only float entry point.

    The value is ``Fraction(float(x)).limit_denominator(max_denominator)``,
    computed on the integers of ``float(x).as_integer_ratio()``: the
    continued-fraction convergents of the float, then the closer of the two
    best bounds with denominator at most ``max_denominator`` (the convergent
    on a tie) by integer cross-multiplication, and one Fraction for the
    result.  NaN raises ValueError and an infinity OverflowError.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    num, den = float(x).as_integer_ratio()
    if max_denominator < 1:
        raise ValueError("max_denominator should be at least 1")
    if den <= max_denominator:
        return Fraction(num, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    p_bound, q_bound = p0 + k * p1, q0 + k * q1
    # |p1/q1 - num/den| <= |p_bound/q_bound - num/den|, over the integers
    if abs(p1 * den - num * q1) * q_bound <= abs(p_bound * den - num * q_bound) * q1:
        return Fraction(p1, q1)
    return Fraction(p_bound, q_bound)


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
    ``a == rows / d`` entrywise, ``d`` being the lcm of the denominators.
    Raises `TypeError` on an entry that is not an int or a Fraction."""
    a = [tuple(row) for row in a]
    for row in a:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"exact kernel got a non-rational entry {x!r}")
    d = lcm(*{x.denominator for row in a for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def _int_mat_mul(a, b):
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
    d = da * db
    return tuple(
        tuple(Fraction(v, d) if v else _ZERO for v in row) for row in _int_mat_mul(ia, ib)
    )


def mat_vec(a, v):
    """Apply matrix ``a`` to a column vector (returned as a flat tuple)."""
    if a:
        _check_inner(a, v)
    ia, da = over_one_denominator(a)
    (iv,), dv = over_one_denominator((v,))
    d = da * dv
    sums = (sum(map(mul, row, iv)) for row in ia)
    return tuple(Fraction(s, d) if s else _ZERO for s in sums)


def mat_sub(a, b):
    """``a - b``; raises `ValueError` before reading an entry unless the two
    have the same rows of the same lengths."""
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise ValueError("matrices have different shapes")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = scalar(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


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
    rows = _primitive_rows(a)
    cols = _primitive_rows(transpose(b))
    return not any(sum(map(mul, row, col)) for row in rows for col in cols)


def is_zero_congruence(rows, gram):
    """Whether ``rows @ G @ rows^T`` is the zero matrix, for ``G`` given as
    integer rows (a Gram matrix over one denominator, which the verdict
    does not see).  ``rows`` are scaled to primitive integers once and
    serve as both outer factors.  Raises `TypeError` on an entry of
    ``rows`` that is not an int or a Fraction."""
    prim = _primitive_rows(rows)
    left = _int_mat_mul(prim, gram)
    return not any(sum(map(mul, row, col)) for row in left for col in prim)


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


def rref(rows):
    """Reduced row echelon form of the row span.

    Returns ``(rows, pivots)``: the nonzero RREF rows as Fraction tuples and
    the pivot column indices.  The forward elimination is Bareiss and the
    back-substitution clears on primitive integer rows; each nonzero output
    entry is then one ``Fraction(v, pivot)``.
    """
    work = [r for r in _primitive_rows(rows) if any(r)]
    if not work:
        return (), ()
    m, n = len(work), len(work[0])

    piv_cols = []
    r = 0
    prev = 1
    for c in range(n):
        p = next((i for i in range(r, m) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        piv = work[r][c]
        top = work[r]
        for i in range(r + 1, m):
            cur = work[i]
            t = cur[c]
            for j in range(c + 1, n):
                cur[j] = (piv * cur[j] - t * top[j]) // prev
            cur[c] = 0
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == m:
            break

    # Clear above each pivot on the r echelon rows, kept primitive; RREF is
    # unique, hence canonical.
    work = [_primitive(work[i]) for i in range(r)]
    for i in reversed(range(r)):
        top = work[i]
        piv = top[piv_cols[i]]
        for k in range(i):
            f = work[k][piv_cols[i]]
            if f:
                work[k] = _primitive([piv * a - f * b for a, b in zip(work[k], top)])
    return (
        tuple(
            tuple(Fraction(v, row[c]) if v else _ZERO for v in row)
            for row, c in zip(work, piv_cols)
        ),
        tuple(piv_cols),
    )


def _null_rows(red, pivots, n):
    """One vector of ``{x : a @ x = 0}`` per free column of ``a``'s RREF
    ``red`` (pivot columns ``pivots``, ``n`` columns): 1 at the free
    column, minus that column of ``red`` at the pivots."""
    pivot_set = set(pivots)
    rows = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [_ZERO] * n
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        rows.append(tuple(v))
    return tuple(rows)


def kernel(a, ncols=None):
    """Canonical basis rows of ``{x : a @ x = 0}``.

    ``ncols`` is required when ``a`` has no rows (kernel of a zero map).
    """
    if not a:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs ncols")
        return identity(ncols)
    red, pivots = rref(a)
    rows, _ = rref(_null_rows(red, pivots, len(a[0])))
    return rows


def solve_right(a, b):
    """Solve ``a @ x = b`` for square invertible ``a`` (``b`` a matrix)."""
    n = len(a)
    aug = hstack(a, b)
    red, pivots = rref(aug)
    if tuple(pivots[:n]) != tuple(range(n)) or len(red) != n:
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)


def invert(a):
    return solve_right(a, identity(len(a)))


def rank(a):
    if not a:
        return 0
    return len(rref(a)[0])


def solve_linear(a, rhs, ncols=None):
    """Exact solves of ``a @ x = b`` for every vector ``b`` of ``rhs``, from
    one row reduction of ``a`` beside all of them.

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
    red, pivots = rref(tuple(row + tuple(bs) for row, *bs in zip(a, *rhs)))
    # rows past the pivots of ``a`` read 0 = b': nonzero means inconsistent
    k = sum(1 for p in pivots if p < n)
    parts = []
    for j in range(n, n + len(rhs)):
        if any(row[j] for row in red[k:]):
            parts.append(None)
            continue
        x = [_ZERO] * n
        for i in range(k):
            x[pivots[i]] = red[i][j]
        parts.append(tuple(x))
    return parts, _null_rows(red, pivots[:k], n)
