"""Quadratic Lie algebras and Manin pairs over a point.

A quadratic Lie algebra is the point case of the package's ambient bracket
geometry: bracket structure constants plus an invariant split pairing.  A
Manin pair adds a Lagrangian subalgebra.  The catalog at the bottom collects
the small instances the rest of the package (and its tests) lean on.

Validation runs once per distinct algebra per process: `check_quadratic_lie`
is memoized on the frozen algebra, and each catalog entry is built once, on
its first lookup.

Each algebra keeps one integer form of its structure constants
(`QuadraticLieAlgebra.integer_structure`): the constants over one common
denominator D, and for each basis pair (i, j) only the nonzero entries.
`check_quadratic_lie` decides the axioms on these integers and builds no
Fraction.  Jacobi at (i, j, k) reads the vector ``C[j][k] C[i] - C[i][k]
C[j] - sum_l C[i][j][l] C[l][k]``, which is D**2 times the rational one.
Ad-invariance at (i, j, k) reads ``P[j][k] + P[k][j]`` for ``P = C_i G'``,
with ``G' = d_G G`` the form's integer Gram; that is D d_G times the
rational entry.  A positive scale does not change whether an entry is
zero, so every count and witness is that of the rational criterion.
``bracket`` sums over the same sparse integers and builds one Fraction per
output entry.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import rational as rat
from .exact_linear import (
    SplitForm,
    Subspace,
    canonicalize,
    is_lagrangian,
)
from .report import Report


def structure_from_table(dim, table):
    """Structure constants from a sparse ``{(i, j): vector}`` table of
    brackets of basis elements with i < j; antisymmetry fills the rest."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in table.items():
        v = rat.vec(v)
        for k in range(dim):
            c[i][j][k] = v[k]
            c[j][i][k] = -v[k]
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


@dataclass(frozen=True)
class QuadraticLieAlgebra:
    """Bracket structure constants ``c[i][j][k]`` with an invariant pairing."""

    dim: int
    structure: tuple
    form: SplitForm

    def __post_init__(self):
        c = tuple(
            tuple(tuple(rat.scalar(x) for x in row) for row in plane)
            for plane in self.structure
        )
        object.__setattr__(self, "structure", c)
        if len(c) != self.dim or any(
            len(p) != self.dim or any(len(r) != self.dim for r in p) for p in c
        ):
            raise ValueError("structure constants have wrong shape")
        if self.form.dim != self.dim:
            raise ValueError("form dimension mismatch")

    @cached_property
    def integer_structure(self):
        """``(sparse, d)``: the structure constants over one common positive
        denominator ``d``, computed on first use.  ``sparse[i][j]`` lists
        the pairs ``(k, d * c[i][j][k])`` of the nonzero constants, k
        increasing; read by ``bracket`` and `check_quadratic_lie`."""
        n = self.dim
        rows, d = rat.over_one_denominator(r for plane in self.structure for r in plane)
        sparse = [tuple((k, v) for k, v in enumerate(r) if v) for r in rows]
        return tuple(tuple(sparse[i * n : (i + 1) * n]) for i in range(n)), d

    def bracket(self, u, v):
        """``[u, v]`` summed on integers over the sparse constants, with
        one Fraction per output entry."""
        s, d = self.integer_structure
        (iu, iv), duv = rat.over_one_denominator((rat.vec(u), rat.vec(v)))
        if len(iu) != self.dim or len(iv) != self.dim:
            raise ValueError("vector has wrong length")
        out = [0] * self.dim
        for x, si in zip(iu, s):
            if not x:
                continue
            for y, sij in zip(iv, si):
                if y:
                    xy = x * y
                    for k, c in sij:
                        out[k] += xy * c
        den = d * duv * duv
        return tuple(Fraction(t, den) for t in out)


@lru_cache(maxsize=None)
def check_quadratic_lie(d):
    """Exact report on the point-case bracket axioms: each quantity counts
    the basis pairs or triples violating its axiom, and ``degeneracy`` is
    the nullity of the pairing.  Memoized: callers share one report.

    Decided on integers, with no Fraction built.  With ``c = C / D`` over
    the algebra's `integer_structure` and ``G = G' / d_G`` over the form's
    `integer_gram`, the Jacobi and ad-invariance entries below are the
    rational ones times ``D**2`` and ``D * d_G``.  Scaling by a positive
    integer leaves every entry zero or nonzero as it was, so each count,
    witness and the signature are those of the rational criteria."""
    n = d.dim
    s, _ = d.integer_structure
    bad = {"antisymmetry": 0, "jacobi": 0, "ad_invariance": 0}
    witness = {}

    def violated(name, idx):
        bad[name] += 1
        witness.setdefault(name, idx)

    for i in range(n):
        for j in range(n):
            if s[i][j] != tuple((k, -v) for k, v in s[j][i]):
                violated("antisymmetry", (i, j))

    # [e_i, w] = ad_i w with ad_i = c[i]^T, and the bracket is bilinear in
    # its left slot, so Jacobi fails at (i, j, k) exactly when column k of
    # ad_i ad_j - ad_j ad_i - sum_l c[i][j][l] ad_l, that is row k of
    # c[j] c[i] - c[i] c[j] - sum_l c[i][j][l] c[l], is nonzero: the
    # vector C[j][k] C[i] - C[i][k] C[j] - sum_l C[i][j][l] C[l][k].
    for i, si in enumerate(s):
        for j, sj in enumerate(s):
            sij = si[j]
            for k in range(n):
                acc = [0] * n
                for a, x in sj[k]:
                    for m, y in si[a]:
                        acc[m] += x * y
                for a, x in si[k]:
                    for m, y in sj[a]:
                        acc[m] -= x * y
                for l, x in sij:
                    for m, y in s[l][k]:
                        acc[m] -= x * y
                if any(acc):
                    violated("jacobi", (i, j, k))

    # <[e_i, e_j], e_k> + <e_j, [e_i, e_k]> is entry (j, k) of c_i G + G c_i^T,
    # which is P[j][k] + P[k][j] for P = c_i G, G being symmetric.
    g, _ = d.form.integer_gram
    for i, si in enumerate(s):
        p = []
        for sij in si:
            row = [0] * n
            for a, x in sij:
                for k, y in enumerate(g[a]):
                    row[k] += x * y
            p.append(row)
        for j in range(n):
            for k in range(n):
                if p[j][k] + p[k][j]:
                    violated("ad_invariance", (i, j, k))

    plus, minus, null = d.form.signature()
    return Report(
        {**bad, "degeneracy": null},
        exact=(*bad, "degeneracy"),
        witness=witness,
        data={"signature": (plus, minus)},
    )


def first_unclosed_pair(bracket, space):
    """Indices ``(i, j)``, i < j, of the first basis pair of ``space`` whose
    bracket leaves it, or None when the subspace is closed."""
    basis = space.basis
    for i, u in enumerate(basis):
        for j in range(i + 1, len(basis)):
            if not space.contains_vector(bracket(u, basis[j])):
                return i, j
    return None


def is_manin_pair(d, g):
    """True iff ``g`` is Lagrangian for the pairing and closed under the
    bracket.  Raises `exact_linear.SplitSignatureError` when the pairing is
    not split."""
    return is_lagrangian(d.form, g) and first_unclosed_pair(d.bracket, g) is None


@dataclass(frozen=True)
class ManinPairPoint:
    """A quadratic Lie algebra with a chosen Lagrangian subalgebra.  Each
    distinct algebra is validated once per process; the half every time."""

    d: QuadraticLieAlgebra
    g: Subspace

    def __post_init__(self):
        report = check_quadratic_lie(self.d)
        if not report.passed:
            raise ValueError(f"ambient algebra fails checks: {report.describe()}")
        if not is_manin_pair(self.d, self.g):
            raise ValueError("subspace is not a Lagrangian subalgebra")


@lru_cache(maxsize=64)
def product_algebra(d1, d2):
    """Componentwise bracket on the direct sum; the pairing on the second
    factor is negated (the morphism convention)."""
    n1 = d1.dim
    dim = n1 + d2.dim
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for off, d in ((0, d1), (n1, d2)):
        for i, plane in enumerate(d.structure):
            for j, row in enumerate(plane):
                for k, v in enumerate(row):
                    if v:
                        c[off + i][off + j][off + k] = v
    form = d1.form.direct_sum(d2.form, negate_second=True)
    structure = tuple(tuple(tuple(r) for r in p) for p in c)
    return QuadraticLieAlgebra(dim, structure, form)


def make_group_pair_double(g_constants, kappa):
    """Double a Lie algebra with invariant pairing ``kappa`` into the sum of
    two copies carrying the difference pairing, with the diagonal subalgebra.

    The pair's own validation rejects a degenerate or non-invariant
    ``kappa``: the difference pairing is degenerate exactly when ``kappa``
    is, and its ad-invariance on the first copy is ``kappa``'s.
    """
    kappa = rat.matrix(kappa)
    n = len(kappa)
    g = QuadraticLieAlgebra(n, g_constants, SplitForm(n, kappa))
    diag = canonicalize(rat.hstack(rat.identity(n), rat.identity(n)), 2 * n)
    return ManinPairPoint(product_algebra(g, g), diag)


def so3_constants():
    """Cross-product structure constants in an orthonormal basis."""
    return structure_from_table(
        3, {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)}
    )


def sl2_constants():
    """Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return structure_from_table(
        3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}
    )


def sl2_trace_form():
    return rat.matrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]])


def abelian_pair(n):
    """Sum of two abelian copies with the difference of dot pairings and the
    diagonal line family as the Lagrangian half: the group-pair double of
    the n-dimensional abelian algebra."""
    return make_group_pair_double((rat.zeros(n, n),) * n, rat.identity(n))


def make_cotangent_double(constants):
    """Semidirect sum of a Lie algebra with its coadjoint dual, carrying the
    canonical duality pairing; the base algebra is the Lagrangian half.

    Works for any Lie algebra, so it doubles things the two-copy construction
    cannot touch (no invariant pairing required)."""
    constants = tuple(
        tuple(tuple(rat.scalar(x) for x in r) for r in p) for p in constants
    )
    n = len(constants)
    dim = 2 * n
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = constants[i][j][k]
                if not v:
                    continue
                c[i][j][k] = v
                # [a_i, eps_k] pairs against a_j as -eps_k([a_i, a_j])
                c[i][n + k][n + j] += -v
                c[n + k][i][n + j] += v
    structure = tuple(tuple(tuple(r) for r in p) for p in c)
    d = QuadraticLieAlgebra(dim, structure, SplitForm.standard_double(n))
    return ManinPairPoint(d, canonicalize(rat.identity(dim)[:n], dim))


@lru_cache(maxsize=32)
def abstract_double(n):
    """Abelian pair on A plus its dual with the duality pairing and A as the
    half: the cotangent double of the n-dimensional abelian algebra."""
    return make_cotangent_double((rat.zeros(n, n),) * n)


def solvable_constants():
    """Line acting on a plane by rotation plus dilation: [a0, a1] = a1 + a2,
    [a0, a2] = -a1 + a2, [a1, a2] = 0.  Not unimodular."""
    return structure_from_table(
        3, {(0, 1): (0, 1, 1), (0, 2): (0, -1, 1)}
    )


def bialgebra_double_pair():
    """Double of the 2-dim nonabelian Lie bialgebra.

    Base algebra: [x, y] = y with cobracket sending y to x^y; the dual
    algebra is again 2-dim nonabelian, and the mixed brackets are the
    coadjoint ones.  Pairing is the canonical duality pairing.
    """
    table = {
        (0, 1): (0, 1, 0, 0),  # [x, y] = y
        (2, 3): (0, 0, 0, 1),  # dual bracket of (x*, y*) is y*
        (0, 3): (0, 0, 0, -1),  # [x, y*] = -y*
        (1, 2): (0, 1, 0, 0),  # [y, x*] = y
        (1, 3): (-1, 0, 1, 0),  # [y, y*] = x* - x
    }
    structure = structure_from_table(4, table)
    gram = rat.matrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    d = QuadraticLieAlgebra(4, structure, SplitForm(4, gram))
    g = canonicalize([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    return ManinPairPoint(d, g)


class _LazyCatalog(Mapping):
    """Read-only mapping from names to Manin pairs; each pair is built and
    validated on its first lookup."""

    def __init__(self, builders):
        self._builders = builders
        self._built = {}

    def __getitem__(self, name):
        if name not in self._built:
            self._built[name] = self._builders[name]()
        return self._built[name]

    def __contains__(self, name):
        return name in self._builders

    def __iter__(self):
        return iter(self._builders)

    def __len__(self):
        return len(self._builders)


@lru_cache(maxsize=None)
def catalog():
    """Named Manin pairs used across the package and its test suite, as one
    read-only mapping per process whose entries are built on first lookup."""
    return _LazyCatalog({
        "abelian-r2": lambda: abelian_pair(1),
        "abelian-r4": lambda: abelian_pair(2),
        "so3-double": lambda: make_group_pair_double(so3_constants(), rat.identity(3)),
        "sl2-double": lambda: make_group_pair_double(sl2_constants(), sl2_trace_form()),
        "bialgebra-double": bialgebra_double_pair,
        "solvable-cotangent": lambda: make_cotangent_double(solvable_constants()),
    })
