"""Exact rational scalars and dense matrix helpers.

Scalars are `fractions.Fraction` throughout.  Matrices are immutable tuples
of row tuples, so they hash and compare structurally.  Floats are
rejected unless they go through `rationalize`, the single explicit float
-> rational gate and the only code here that rounds.  It rounds onto the
grid of multiples of 2^-52, each entry within 2^-53, so rounded entries
share one power-of-two denominator and their products stop multiplying
coprime denominators.

Products are integer products: `mat_mul` and `mat_vec` scale each operand
to integer rows over one common denominator (`over_one_denominator`),
multiply and sum Python ints, and build one normalized Fraction per output
entry.  `is_zero_product` decides whether a product of two factors
vanishes on the same integer rows and builds no Fraction at all, and
`is_zero_congruence` does so for ``B G B^T`` over the nonzero entries of
``G`` (a form's cached sparse Gram).  An entry that is not an int or a
Fraction (a float, a numpy scalar) raises `TypeError` in all of them, and
factors whose inner dimensions disagree raise `ValueError` before any entry
is read.  `mat_sub` likewise raises `ValueError` before reading an entry
when the two operands differ in their number of rows or in the length of a
row, and `vstack` and `block_diag` do when their rows would be ragged.

A map ``A`` applies to a whole block of vectors, stacked as the rows of
``V``, through one `mat_mul` (``V @ A^T``), so ``A`` goes over one
denominator once; `mat_vec` is for a single vector.  Blocks are assembled
from `identity`, `zeros` and products with `vstack` and `hstack`, which
takes any number of blocks and skips an empty one, ``()``.

Row reduction is one integer Gauss-Jordan pass: rows are scaled to
primitive integers, and at each pivot every other row with a nonzero entry
in its column is cleared with gcd-reduced multipliers and made primitive
again; rows with a zero there are skipped.  Only the output entries become
Fractions, one ``Fraction(v, pivot)`` per nonzero entry.
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


def rationalize(x):
    """Round a float to the nearest multiple of 2^-52.  The only float entry
    point.

    Ties go to the even multiple, and the error is at most 2^-53; a float
    already on the grid comes back exact.  The rounding runs on the integers
    of ``float(x).as_integer_ratio()``, whose denominator is a power of two,
    so no float is multiplied and 1e300 does not overflow.  Ints and
    Fractions pass through.  NaN raises ValueError and an infinity
    OverflowError.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    num, den = float(x).as_integer_ratio()
    if den <= _GRID:
        return Fraction(num, den)
    # den = 2^(52 + s): num / 2^s rounded half to even, over 2^52
    s = den.bit_length() - _GRID.bit_length()
    q, r = divmod(num, 1 << s)
    half = 1 << (s - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return Fraction(q, _GRID)


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
    pairs = []
    for row in map(tuple, a):
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"exact kernel got a non-rational entry {x!r}")
        pairs.append([x.as_integer_ratio() for x in row])
    d = lcm(*{q for row in pairs for _, q in row})
    return [[p * (d // q) for p, q in row] for row in pairs], d


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
    """Whether ``rows @ G @ rows^T`` is the zero matrix, for an integer
    ``G`` given by its nonzero entries (a Gram matrix over one denominator,
    which the verdict does not see): ``gram[i]`` lists the pairs ``(j,
    G[i][j])`` of row ``i``.  ``rows`` are scaled to primitive integers
    once and serve as both outer factors.  Each row ``u`` meets only the
    entries of ``G`` in the rows where ``u`` is nonzero, so ``u G`` costs
    12 products on the sum pairing of T + T* + E, whose Gram has 12
    nonzero entries out of 144.  Raises `TypeError` on an entry of ``rows``
    that is not an int or a Fraction."""
    prim = _primitive_rows(rows)
    n = len(gram)
    for u in prim:
        left = [0] * n
        for x, entries in zip(u, gram):
            if x:
                for j, g in entries:
                    left[j] += x * g
        if any(left) and any(sum(map(mul, left, w)) for w in prim):
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


def rref(rows):
    """Reduced row echelon form of the row span.

    Returns ``(rows, pivots)``: the nonzero RREF rows as Fraction tuples and
    the pivot column indices.  One Gauss-Jordan pass on primitive integer
    rows: at each pivot every other row whose entry in the pivot column is
    nonzero becomes ``a * row - b * pivot_row``, with ``b / a`` that entry
    over the pivot in lowest terms, and is divided by the gcd of its
    entries again.  Rows stay integer throughout, and each nonzero output
    entry is then one ``Fraction(v, pivot)``; RREF is unique, hence
    canonical.
    """
    work = [r for r in _primitive_rows(rows) if any(r)]
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
