"""Quadratic Lie algebras and Manin pairs over a point.

A quadratic Lie algebra is the point case of the package's ambient bracket
geometry: bracket structure constants plus an invariant split pairing.  A
Manin pair adds a Lagrangian subalgebra.  The catalog at the bottom collects
the small instances the rest of the package (and its tests) lean on.

Validation runs once per distinct algebra per process: `check_quadratic_lie`
is memoized on the frozen algebra, and the catalog is built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import rational as rat
from .exact_linear import (
    SplitForm,
    SplitSignatureError,
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

    def bracket(self, u, v):
        u, v = rat.vec(u), rat.vec(v)
        c = self.structure
        n = self.dim
        out = [Fraction(0)] * n
        for i in range(n):
            if not u[i]:
                continue
            ci = c[i]
            for j in range(n):
                if not v[j]:
                    continue
                coeff = u[i] * v[j]
                cij = ci[j]
                for k in range(n):
                    if cij[k]:
                        out[k] += coeff * cij[k]
        return tuple(out)

    def basis_bracket(self, i, j):
        return self.structure[i][j]

    def pairing(self, u, v):
        return self.form.pairing(u, v)


@lru_cache(maxsize=None)
def check_quadratic_lie(d):
    """Exact report on the point-case bracket axioms: each quantity counts
    the basis pairs or triples violating its axiom, and ``degeneracy`` is
    the nullity of the pairing.  Memoized: callers share one report."""
    n = d.dim
    c = d.structure
    bad = {"antisymmetry": 0, "jacobi": 0, "ad_invariance": 0}
    witness = {}

    def violated(name, idx):
        bad[name] += 1
        witness.setdefault(name, idx)

    for i in range(n):
        for j in range(n):
            if any(c[i][j][k] != -c[j][i][k] for k in range(n)):
                violated("antisymmetry", (i, j))

    basis = rat.identity(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = d.bracket(basis[i], c[j][k])
                rhs1 = d.bracket(c[i][j], basis[k])
                rhs2 = d.bracket(basis[j], c[i][k])
                if any(a != b + e for a, b, e in zip(lhs, rhs1, rhs2)):
                    violated("jacobi", (i, j, k))

    # <[e_i, e_j], e_k> + <e_j, [e_i, e_k]> is entry (j, k) of c_i G + G c_i^T
    gram = d.form.gram
    for i in range(n):
        m = rat.mat_add(rat.mat_mul(c[i], gram), rat.mat_mul(gram, rat.transpose(c[i])))
        for j in range(n):
            for k in range(n):
                if m[j][k] != 0:
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
    bracket.  Raises `SplitSignatureError` when the pairing is not split."""
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

    @property
    def half_dim(self):
        return self.g.dim


def make_group_pair_double(g_constants, kappa):
    """Double a Lie algebra with invariant pairing ``kappa`` into the sum of
    two copies carrying the difference pairing, with the diagonal subalgebra.

    The pair's own validation rejects a degenerate or non-invariant
    ``kappa``: the difference pairing is degenerate exactly when ``kappa``
    is, and its ad-invariance on the first copy is ``kappa``'s.
    """
    g_constants = tuple(
        tuple(tuple(rat.scalar(x) for x in r) for r in p) for p in g_constants
    )
    kappa = rat.matrix(kappa)
    n = len(kappa)
    dim = 2 * n
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = g_constants[i][j][k]
                if v:
                    c[i][j][k] = v
                    c[n + i][n + j][n + k] = v
    structure = tuple(tuple(tuple(r) for r in p) for p in c)
    form = SplitForm(dim, rat.block_diag(kappa, rat.mat_neg(kappa)))
    d = QuadraticLieAlgebra(dim, structure, form)
    diag = canonicalize(
        [
            tuple(Fraction(1 if j == i or j == n + i else 0) for j in range(dim))
            for i in range(n)
        ],
        dim,
    )
    return ManinPairPoint(d, diag)


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
    zero = (Fraction(0),) * n
    return make_group_pair_double(((zero,) * n,) * n, rat.identity(n))


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
    eye = rat.identity(n)
    zero = rat.zeros(n, n)
    gram = rat.vstack(rat.hstack(zero, eye), rat.hstack(eye, zero))
    d = QuadraticLieAlgebra(dim, structure, SplitForm(dim, gram))
    g = canonicalize(
        [tuple(Fraction(1 if j == i else 0) for j in range(dim)) for i in range(n)],
        dim,
    )
    return ManinPairPoint(d, g)


@lru_cache(maxsize=32)
def abstract_double(n):
    """Abelian pair on A plus its dual with the duality pairing and A as the
    half: the cotangent double of the n-dimensional abelian algebra."""
    zero = (Fraction(0),) * n
    return make_cotangent_double(((zero,) * n,) * n)


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


@lru_cache(maxsize=None)
def catalog():
    """Named Manin pairs used across the package and its test suite, built
    once per process and returned as a read-only mapping."""
    return MappingProxyType({
        "abelian-r2": abelian_pair(1),
        "abelian-r4": abelian_pair(2),
        "so3-double": make_group_pair_double(so3_constants(), rat.identity(3)),
        "sl2-double": make_group_pair_double(sl2_constants(), sl2_trace_form()),
        "bialgebra-double": bialgebra_double_pair(),
        "solvable-cotangent": make_cotangent_double(solvable_constants()),
    })
