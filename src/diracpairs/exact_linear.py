"""Exact subspace calculus: split pairings, Lagrangian predicates, relations.

`Subspace` stores the primitive integer rows of the reduced-echelon basis
of a rational subspace, each with a positive pivot (`rational.int_rref`).
They are unique, so equality of subspaces is equality of tuples, and every
operation on subspaces (membership, intersection, sum, projection,
embedding, isotropy) runs on them in the integer kernel.  The Fraction
basis, the rows divided by their pivots, is built on first read of
``Subspace.basis``, for the readers that want rationals: scenes, JSON,
printing and the Fraction-matrix algebra.  Everything downstream
(quadratic Lie algebras, morphism fibers, the fiberwise dictionary) trades
in these values.

Conventions used package-wide:

* linear maps act on column vectors; the matrix of ``f: V -> W`` has shape
  ``(dim W, dim V)``,
* the graph of ``f`` is ``{(v, f v)}`` inside ``V (+) W``,
* a relation is any subspace of ``V (+) W``; composition glues along the
  shared middle factor and projects it away.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from . import rational as rat


class SplitSignatureError(ValueError):
    """Raised when a Lagrangian predicate meets a non-split pairing."""


def canonicalize(rows, ambient_dim):
    """Span of ``rows``, each of length ``ambient_dim``, as a canonical
    `Subspace`; no rows give the zero subspace of that space.  The rows are
    rational; integer rows go to the kernel as they are."""
    rows, _ = rat.over_one_denominator(rows)
    if not rows:
        return Subspace(ambient_dim, (), ())
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError(f"rows have width {len(r)}, ambient is {ambient_dim}")
    return Subspace(ambient_dim, *rat.int_rref(rows))


@dataclass(frozen=True)
class Subspace:
    """Canonical basis of a rational subspace: the primitive integer rows of
    its reduced echelon form, each with a positive pivot, and the pivot
    columns.

    Do not build directly; go through `canonicalize` (or the helpers below),
    which guarantee the canonical-form invariant that makes ``==`` decide
    subspace equality.
    """

    ambient_dim: int
    rows: tuple
    pivots: tuple

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim):
        return canonicalize(rat.unit_rows(ambient_dim), ambient_dim)

    @property
    def dim(self):
        return len(self.rows)

    @cached_property
    def basis(self):
        """The reduced-echelon basis as Fraction rows, built on first read."""
        return rat.over_pivots(self.rows)

    def _holds(self, v):
        """Whether the integer vector ``v`` lies in the span: each row
        clears ``v``'s entry at its pivot, which no other row touches."""
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                g = gcd(row[p], c)
                a, b = row[p] // g, c // g
                v = [a * x - b * y for x, y in zip(v, row)]
        return not any(v)

    def contains_vector(self, v):
        v = rat.vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong length")
        return self._holds(rat.over_one_denominator((v,))[0][0])

    def contains(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return all(map(self._holds, other.rows))

    def intersection(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if not self.rows or not other.rows:
            return Subspace.zero(self.ambient_dim)
        # Solve c . A - d . B = 0 over stacked coefficients (c, d); each
        # solution row recombines A into a vector of the intersection.
        stacked = [a + tuple(-x for x in b) for a, b in zip(zip(*self.rows), zip(*other.rows))]
        coeffs = rat.int_kernel(stacked, self.dim + other.dim)
        rows = rat.int_mat_mul([c[: self.dim] for c in coeffs], self.rows)
        return canonicalize(rows, self.ambient_dim)

    def __add__(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return canonicalize(self.rows + other.rows, self.ambient_dim)

    def project(self, cols):
        """Image under the coordinate projection keeping ``cols`` (in order)."""
        rows = [[r[c] for c in cols] for r in self.rows]
        return canonicalize(rows, len(cols))

    def embed(self, positions, ambient_dim):
        """Image under the coordinate inclusion sending axis i to
        ``positions[i]`` of a larger space."""
        rows = []
        for r in self.rows:
            v = [0] * ambient_dim
            for x, p in zip(r, positions):
                v[p] = x
            rows.append(v)
        return canonicalize(rows, ambient_dim)


@lru_cache(maxsize=None)
def _signature_of(gram):
    """Signature (n_plus, n_minus, n_zero) by symmetric congruence
    diagonalization over the rationals (exact)."""
    n = len(gram)
    m = [list(row) for row in gram]

    def swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_to(i, j, c):
        # row/col op keeping symmetry: e_i <- e_i + c e_j
        for k in range(n):
            m[i][k] += c * m[j][k]
        for k in range(n):
            m[k][i] += c * m[k][j]

    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                # all remaining diagonal entries vanish; pull in an
                # off-diagonal one (char 0: e_i + e_j has square 2 m[i][j])
                found = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if m[i][j] != 0
                    ),
                    None,
                )
                if found is None:
                    break  # zero block; the rest contributes to n_zero
                i, j = found
                add_to(i, j, Fraction(1))
                swap(k, i)
        d = m[k][k]
        if d == 0:
            continue
        for i in range(k + 1, n):
            c = -m[i][k] / d
            if c:
                add_to(i, k, c)
    plus = sum(1 for k in range(n) if m[k][k] > 0)
    minus = sum(1 for k in range(n) if m[k][k] < 0)
    return plus, minus, n - plus - minus


@dataclass(frozen=True)
class SplitForm:
    """Symmetric bilinear pairing given by its Gram matrix."""

    dim: int
    gram: tuple

    def __post_init__(self):
        g = rat.matrix(self.gram)
        object.__setattr__(self, "gram", g)
        if len(g) != self.dim or (g and len(g[0]) != self.dim):
            raise ValueError("gram has wrong shape")
        if g != rat.transpose(g):
            raise ValueError("gram is not symmetric")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        """The dataclass hash, taken once: the per-point freeze looks a
        form up in caches once per fiber, and the Gram's Fractions would
        hash every time."""
        return hash((self.dim, self.gram))

    @staticmethod
    @lru_cache(maxsize=32)
    def standard_double(n):
        """Pairing of a space with its dual: <(v, a), (v', a')> = a'(v) + a(v').
        Built once per dimension."""
        zero, eye = rat.zeros(n, n), rat.identity(n)
        top = rat.hstack(zero, eye)
        bottom = rat.hstack(eye, zero)
        return SplitForm(2 * n, rat.vstack(top, bottom))

    @staticmethod
    def diagonal(entries):
        entries = rat.vec(entries)
        n = len(entries)
        return SplitForm(
            n,
            tuple(
                tuple(entries[i] if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            ),
        )

    @cached_property
    def integer_gram(self):
        """``(rows, d)``: the Gram matrix as integer rows over one positive
        denominator, computed on first use and read by ``pairing``,
        ``sparse_gram`` and `check_quadratic_lie`."""
        return rat.over_one_denominator(self.gram)

    @cached_property
    def integer_gram_inv(self):
        """The inverse Gram matrix as ``(rows, d)`` in lowest terms, computed
        on first use and read by ``adjoint``: for G = G' / d, G^{-1} is d
        times the solve of one `rational.int_solve` on [G' | I].  A
        degenerate form is legal (`check_quadratic_lie` reports it) and
        raises ValueError only here."""
        g, d = self.integer_gram
        aug = [list(row) + unit for row, unit in zip(g, rat.unit_rows(self.dim))]
        inv, e = rat.int_solve(aug, self.dim)
        return rat.lowest_terms([[d * v for v in row] for row in inv], e)

    def adjoint(self, anchor):
        """``G^{-1} rho^T`` of an anchor ``rho`` given as integer rows over
        one denominator, ``(rows, d)``, in the same form: the anchor's
        adjoint through the pairing."""
        (rows, d), (inv, dinv) = anchor, self.integer_gram_inv
        return rat.lowest_terms(rat.int_mat_mul(inv, rat.transpose(rows)), dinv * d)

    @cached_property
    def sparse_gram(self):
        """``sparse[i]`` lists the pairs ``(j, v)`` of the nonzero entries of
        row ``i`` of `integer_gram`, j increasing; computed on first use and
        read by ``is_isotropic``."""
        g, _ = self.integer_gram
        return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in g)

    def pairing(self, u, v):
        g, d = self.integer_gram
        (iu, iv), duv = rat.over_one_denominator((rat.vec(u), rat.vec(v)))
        total = sum(x * sum(map(mul, row, iv)) for x, row in zip(iu, g))
        return Fraction(total, d * duv * duv)

    @cached_property
    def _signature(self):
        return _signature_of(self.gram)

    def signature(self):
        """``(n_plus, n_minus, n_zero)``, computed once per form."""
        return self._signature

    def negate(self):
        return SplitForm(self.dim, rat.mat_neg(self.gram))

    def direct_sum(self, other, negate_second=False):
        second = other.negate() if negate_second else other
        return SplitForm(
            self.dim + other.dim, rat.block_diag(self.gram, second.gram)
        )


def _require_split(form):
    p, m, z = form.signature()
    if z or p != m:
        raise SplitSignatureError(
            f"pairing has signature ({p}, {m}"
            + (f", {z} null" if z else "")
            + "); Lagrangian subspaces need split signature (n, n)"
        )


def is_isotropic(form, u):
    """Whether the form vanishes on ``u``, decided on ``u``'s integer rows
    and the nonzero entries of the form's integer Gram."""
    return rat.int_zero_congruence(u.rows, form.sparse_gram)


def is_lagrangian(form, u):
    """Maximal isotropic test; requires (and enforces) split signature."""
    if u.ambient_dim != form.dim:
        raise ValueError("subspace does not live in the form's space")
    _require_split(form)
    return 2 * u.dim == form.dim and is_isotropic(form, u)


@dataclass(frozen=True)
class LinearRelation:
    """A subspace of ``source (+) target`` viewed as a multivalued map."""

    source_dim: int
    target_dim: int
    graph: Subspace

    def __post_init__(self):
        if self.graph.ambient_dim != self.source_dim + self.target_dim:
            raise ValueError("graph lives in the wrong ambient space")

    @staticmethod
    def from_matrix(m, source_dim):
        """Graph of the linear map with matrix ``m`` (columns = inputs) on a
        ``source_dim``-dimensional space.  The source dimension is given, as
        a matrix with no rows cannot show it: the graph of the map from a
        point to a point is the zero relation."""
        m = rat.matrix(m)
        rows = rat.hstack(rat.identity(source_dim), rat.transpose(m))
        return LinearRelation(source_dim, len(m), canonicalize(rows, source_dim + len(m)))


def compose(r, s):
    """Relation composition ``{(v, z) : exists w, (v,w) in r, (w,z) in s}``.

    Computed exactly: both graphs are embedded in ``V (+) W (+) Z``, glued by
    intersecting along the shared middle factor, and the middle coordinates
    are projected away.
    """
    if r.target_dim != s.source_dim:
        raise ValueError(
            f"cannot compose: middle dimensions differ "
            f"({r.target_dim} vs {s.source_dim})"
        )
    v, w, z = r.source_dim, r.target_dim, s.target_dim
    n = v + w + z
    left = r.graph.embed(tuple(range(v + w)), n) + Subspace.full(z).embed(
        tuple(range(v + w, n)), n
    )
    right = s.graph.embed(tuple(range(v, n)), n) + Subspace.full(v).embed(
        tuple(range(v)), n
    )
    glued = left.intersection(right)
    out = glued.project(tuple(range(v)) + tuple(range(v + w, n)))
    return LinearRelation(v, z, out)


def is_graph_over_factor(r):
    """Matrix of the map source -> target whose graph is ``r``, if the
    projection onto the source factor is an isomorphism; else None."""
    v = r.source_dim
    if r.graph.dim != v:
        return None
    dom_part = tuple(row[:v] for row in r.graph.basis)
    cod_part = tuple(row[v:] for row in r.graph.basis)
    # rows satisfy  x = dom_part^T c,  y = cod_part^T c  =>  y = M x
    try:
        m = rat.mat_mul(
            rat.transpose(cod_part), rat.invert(rat.transpose(dom_part))
        )
    except ValueError:
        return None
    return m
