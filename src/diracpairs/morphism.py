"""Morphisms of Manin pairs over a point, and Hamiltonian fibers.

A morphism between pairs is a Lagrangian relation between the ambient
algebras, taken with the pairing negated on the target side, whose readout
into the two dual spaces is the graph of a linear map.  A Hamiltonian fiber
couples a tangent space to a pair fiber.  It stores the sum-pairing
Lagrangian in (T + T*) + E.  Its underlying morphism starts at the abelian
double of the tangent space (`quadratic_lie.abstract_double`: T plus T*
with the evaluation pairing and T as the half).  The morphism predicates
are reached through the sign flip on the covector slot, which exchanges the
sum and difference conventions without moving anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from . import rational as rat
from .exact_linear import (
    LinearRelation,
    SplitForm,
    Subspace,
    canonicalize,
    compose,
    is_graph_over_factor,
    is_lagrangian,
)
from .quadratic_lie import (
    ManinPairPoint,
    abstract_double,
    first_unclosed_pair,
    product_algebra,
)
from .report import Report


@dataclass(frozen=True)
class MorphismFiber:
    """Lagrangian, bracket-closed relation between two Manin pairs.

    ``check_bracket=False`` skips closure validation; pointwise snapshots
    of manifold-level data use it, because their integrability lives in
    derivatives the fiber cannot see.
    """

    source: ManinPairPoint
    target: ManinPairPoint
    K: Subspace
    check_bracket: bool = True

    def __post_init__(self):
        n1, n2 = self.source.d.dim, self.target.d.dim
        if self.K.ambient_dim != n1 + n2:
            raise ValueError("relation lives in the wrong ambient space")
        prod = product_algebra(self.source.d, self.target.d)
        if not is_lagrangian(prod.form, self.K):
            raise ValueError("relation is not Lagrangian for the difference pairing")
        if self.check_bracket and first_unclosed_pair(prod.bracket, self.K) is not None:
            raise ValueError("relation is not closed under the bracket")

    @property
    def source_dim(self):
        return self.source.d.dim


def identity_morphism(pair):
    return graph_morphism(pair, pair, rat.identity(pair.d.dim))


def graph_morphism(source, target, phi):
    """Morphism whose relation is the graph of the linear map ``phi``
    (a matrix taking source coordinates to target coordinates), on the
    source pair's dimension, so over a point the graph is the zero
    relation."""
    return MorphismFiber(source, target, LinearRelation.from_matrix(phi, source.d.dim).graph)


def dual_pair_readout(m):
    """The relation pushed into the duals of the two halves: each side is
    read out by its pairings with the canonical basis of its half, G A^T."""
    r1, r2 = m.source.g.dim, m.target.g.dim
    readout = rat.block_diag(
        *(rat.mat_mul(p.d.form.gram, rat.transpose(p.g.basis)) for p in (m.source, m.target))
    )
    span = canonicalize(rat.mat_mul(m.K.basis, readout), r1 + r2)
    return LinearRelation(r1, r2, span)


def check_morphism_def(m):
    """Graph criterion: the dual readout of the relation is the graph of a
    linear map from the source dual to the target dual."""
    return is_graph_over_factor(dual_pair_readout(m)) is not None


def equiv_failures(m):
    """The transversality conditions the relation violates, as texts: i)
    it meets the source half only at zero, ii) its slice over the source
    half projects isomorphically onto the target half."""
    n1, n2 = m.source_dim, m.target.d.dim
    a1_embedded = m.source.g.embed(tuple(range(n1)), n1 + n2)
    failures = []
    if m.K.intersection(a1_embedded).dim != 0:
        failures.append("i) the relation meets the source half nontrivially")
    full_e2 = Subspace.full(n2).embed(tuple(range(n1, n1 + n2)), n1 + n2)
    slice_ = m.K.intersection(a1_embedded + full_e2)
    if slice_.dim != m.target.g.dim or slice_.project(tuple(range(n1, n1 + n2))) != m.target.g:
        failures.append("ii) the slice over the source half misses the target half")
    return failures


def check_morphism_equiv(m):
    """Transversality criterion: ``equiv_failures`` finds none."""
    return not equiv_failures(m)


def compose_morphisms(m12, m23):
    """Relation composition; the composite must again satisfy the graph
    criterion, which is asserted."""
    if m12.target != m23.source:
        raise ValueError("middle pairs do not match")
    r12 = LinearRelation(m12.source_dim, m12.target.d.dim, m12.K)
    r23 = LinearRelation(m23.source_dim, m23.target.d.dim, m23.K)
    k13 = compose(r12, r23).graph
    out = MorphismFiber(
        m12.source,
        m23.target,
        k13,
        check_bracket=m12.check_bracket and m23.check_bracket,
    )
    if not check_morphism_def(out):
        raise ValueError("composite relation is not a morphism")
    return out


# ---------------------------------------------------------------------------
# Hamiltonian fibers


@lru_cache(maxsize=64)
def _sum_pairing(t, form):
    """The sum pairing on (T + T*) + E, built once per tangent dimension and
    pair form, so its signature is also computed once."""
    return SplitForm.standard_double(t).direct_sum(form)


def integer_legs(dJ, rho):
    """``[dJ | rho]`` as the integer pair ``(rows, d)`` that a
    `HamiltonianFiber` keeps, the one way legs enter it: ``dJ`` is a moment
    differential given as a matrix of ints and Fractions, ``rho`` an anchor
    given as an integer pair, as `dictionary.ExactIdentification` keeps it.
    The two must have one row per base direction."""
    (dj, dd), (rows, dr) = rat.over_one_denominator(rat.matrix(dJ)), rho
    if len(dj) != len(rows):
        raise ValueError("moment differential and anchor disagree on the base")
    return [[dr * v for v in a] + [dd * v for v in b] for a, b in zip(dj, rows)], dd * dr


@dataclass(frozen=True)
class HamiltonianFiber:
    """Pointwise Hamiltonian data: a Lagrangian in (T + T*) + E for the sum
    pairing, a moment differential into the base of the pair bundle, and the
    fiber anchor used by the support condition.

    ``legs`` is ``[dJ | rho]`` as integer rows over one positive
    denominator, ``(rows, d)``, kept in lowest terms: ``dJ`` has one row per
    base direction (possibly none) and ``rho`` maps the pair fiber to the
    same base directions; the support condition says the two readouts agree
    on every element of the Lagrangian.  The legs are kept only as these
    integer rows, which the support check and ``dictionary.dirac_from_k``
    read; callers join a Fraction ``dJ`` to an integer anchor once, through
    `integer_legs`.
    """

    t_dim: int
    pair: ManinPairPoint
    K: Subspace
    legs: tuple = ((), 1)

    def __post_init__(self):
        rows, d = rat.lowest_terms(*self.legs)
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "legs", (rows, d))
        t, n = self.t_dim, self.pair.d.dim
        if self.K.ambient_dim != 2 * t + n:
            raise ValueError("Lagrangian lives in the wrong ambient space")
        if any(len(row) != t + n for row in rows):
            raise ValueError("moment differential or anchor has wrong width")
        if not is_lagrangian(_sum_pairing(t, self.pair.d.form), self.K):
            raise ValueError("not Lagrangian for the sum pairing")
        # dJ u = rho e on every row (u, alpha, e): [dJ | -rho] kills each
        # (u, e), decided on the integer rows
        readout = [row[:t] + tuple(-v for v in row[t:]) for row in rows]
        ue = [row[:t] + row[2 * t :] for row in self.K.rows]
        if not rat.int_zero_pairing(readout, ue):
            raise ValueError("support condition fails: tangents do not match")

    @property
    def ambient_dim(self):
        return 2 * self.t_dim + self.pair.d.dim

    @cached_property
    def integer_dJ(self):
        """``dJ`` as integer rows over one denominator, in lowest terms."""
        rows, d = self.legs
        return rat.lowest_terms([row[: self.t_dim] for row in rows], d)

    @cached_property
    def coordinates(self):
        """``K.rows`` transposed: one integer row per ambient coordinate,
        one column per row of ``K``."""
        return rat.transpose(self.K.rows)

    def tangent_lift(self, constraint, rhs, missing, ambiguous):
        """Tangent parts of the elements of ``K`` whose coordinates ``c`` in
        its integer rows ``K.rows`` solve ``constraint c = b``, one for each
        ``b`` of ``rhs``, as integer vectors over one positive denominator,
        ``(u, d)``, from one row reduction of the constraint beside every
        ``b`` in the integer kernel.  ``constraint`` and ``rhs`` hold ints
        and Fractions.  Raises ValueError with the text ``missing`` at the
        first ``b`` that no element solves, and ``ambiguous`` at the first
        that one does when solutions differ in their tangent part.

        A basis vector of ``K`` is its integer row over the row's pivot, so
        coordinates in the rows and in the basis differ by those pivots
        alone: the same elements solve, with the same tangent parts."""
        aug = [list(row) + [b[i] for b in rhs] for i, row in enumerate(constraint)]
        parts, null = rat.int_solve_linear(rat.over_one_denominator(aug)[0], self.K.dim, len(rhs))
        tangent = self.coordinates[: self.t_dim]
        unique = rat.int_zero_pairing(null, tangent)
        for part in parts:
            if part is None:
                raise ValueError(missing)
            if not unique:
                raise ValueError(ambiguous)
        return [([sum(map(mul, x, col)) for col in tangent], d) for x, d in parts]

    def morphism_fiber(self):
        """Underlying morphism from the abelian double of T, in the
        difference convention: flip the sign of the covector block."""
        t = self.t_dim
        rows = [
            row[:t] + tuple(-x for x in row[t : 2 * t]) + row[2 * t :]
            for row in self.K.rows
        ]
        return MorphismFiber(
            abstract_double(t),
            self.pair,
            canonicalize(rows, self.ambient_dim),
            check_bracket=False,
        )


def check_hamiltonian_fiber(h):
    """Both morphism predicates on the underlying morphism, as exact
    quantities that are 0 when the predicate holds; the two must agree (and
    the constructor has already enforced the Lagrangian and support
    conditions)."""
    m = h.morphism_fiber()
    d, e = check_morphism_def(m), check_morphism_equiv(m)
    return Report(
        {"definition": 0 if d else 1, "equivalent": 0 if e else 1},
        exact={"definition", "equivalent"},
    )


def extract_action(h):
    """Matrix of the induced action of the pair's half on tangents: for each
    basis vector a of the half, the unique tangent u with ((u, 0), a) in the
    Lagrangian.  Solved for the half's integer rows, each its basis vector
    times its pivot, so each lift is divided by that pivot."""
    t, g = h.t_dim, h.pair.g
    columns = h.tangent_lift(
        h.coordinates[t:],
        [(0,) * t + row for row in g.rows],
        "no tangent lift: fiber violates transversality",
        "tangent lift is not unique",
    )
    return rat.transpose(
        [rat.fractions((u,), d * row[p])[0] for (u, d), row, p in zip(columns, g.rows, g.pivots)]
    )
