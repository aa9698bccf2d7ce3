"""Floating-point tier: trivialized ambient bracket bundles over sampled
charts, probed by central finite differences.

Everything here is a field version of the exact point constructions: the
twisted tangent-plus-cotangent bundle, the dressing bundle of a quadratic
double over its group chart, pointwise isotropic splittings with their
induced three-form, half-subalgebra Dirac fields, the canonical moment
geometries, and the bivector compatibility checks.  Residual reports are
the product; nothing in this module proves anything symbolically.

Every derivative here, and in ``reduction``, is a ``partial_table``: the
central differences of a field along the coordinate axes, built on
``directional_derivative``.  A scalar's partial table is its gradient, and
the brackets take one table and one value per section.  This is the one
place a derivative is taken, so exact jets replace finite differences by
replacing it.

Conventions shared with the exact tier: sections are component vectors in a
fixed trivialization, the pairing gram is constant, covectors act by rows,
``i_alpha(u ^ v) = alpha(u) v - alpha(v) u``, and a three-form is stored as
the full component array ``T[i][j][k] = phi(e_i, e_j, e_k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np

from . import rational as rat
from . import so3
from .dictionary import DiracPointData, forward_dirac
from .exact_linear import canonicalize
from .morphism import HamiltonianFiber
from .quadratic_lie import ManinPairPoint, catalog, first_unclosed_pair
from .report import Report, worse

DEFAULT_STEP = 1e-4
DEFAULT_TOL = 1e-6

# Scale of the pushed-trivector term in the Jacobiator identity, i.e.
# sum_cyc {f,{g,h}} = JACOBIATOR_SIGN * chi(rho_X^T df, rho_X^T dg, rho_X^T dh).
# Convention-fixed: on every chart action this package can build (3-dim
# charts, orthogonal-type halves) the action has a pointwise kernel, the
# wedge-cubed pushforward of chi vanishes identically, and both sides of
# the identity are zero regardless of the sign, so no in-scope example
# discriminates it.  +1 matches the usual half-Schouten normalization.
JACOBIATOR_SIGN = 1.0


@dataclass(frozen=True)
class Chart:
    """A sampled coordinate patch: just a dimension, a tuple of probe
    points, and an optional stash of analytic Jacobian suppliers keyed by
    map name."""

    dim: int
    sample_points: tuple
    jacobians: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        pts = tuple(np.asarray(p, dtype=float) for p in self.sample_points)
        if not pts:
            raise ValueError("chart needs at least one sample point")
        for p in pts:
            if p.shape != (self.dim,):
                raise ValueError("sample point has wrong dimension")
            if not np.all(np.isfinite(p)):
                raise ValueError("sample point is not finite")
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.array_equal(pts[i], pts[j]):
                    raise ValueError("duplicate sample point")
        object.__setattr__(self, "sample_points", pts)


@dataclass(frozen=True)
class SectionField:
    """A rank-``rank`` section of a trivialized bundle, as a pure callable
    from chart points to component vectors."""

    rank: int
    fn: object

    def __call__(self, x):
        v = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if v.shape != (self.rank,):
            raise ValueError("section value has wrong rank")
        return v

    @staticmethod
    def constant(vec):
        v = np.asarray(vec, dtype=float).copy()
        return SectionField(v.shape[0], lambda x: v)

    def scaled_by(self, f):
        """Multiply by a scalar function of the chart point."""
        return SectionField(self.rank, lambda x, s=self: f(x) * s(x))


def directional_derivative(f, x, v, h=DEFAULT_STEP):
    x = np.asarray(x, dtype=float)
    step = h * np.asarray(v, dtype=float)
    return (np.asarray(f(x + step), dtype=float) - np.asarray(f(x - step), dtype=float)) / (2.0 * h)


def partial_table(f, x, dim, h=DEFAULT_STEP):
    """Partials ``P[..., m] = d f[...] / d x_m`` by central differences; for
    a scalar ``f`` this is its gradient."""
    cols = []
    for m in range(dim):
        e = np.zeros(dim)
        e[m] = 1.0
        cols.append(directional_derivative(f, x, e, h))
    if np.ndim(cols[0]) == 0:
        # a gradient: np.stack of 0-d columns is several times slower
        return np.array(cols)
    return np.stack(cols, axis=-1)


def vector_commutator(v1, v2, x, dim, h=DEFAULT_STEP):
    p1 = partial_table(v1, x, dim, h)
    p2 = partial_table(v2, x, dim, h)
    return p2 @ np.asarray(v1(x), float) - p1 @ np.asarray(v2(x), float)


def exterior_derivative(form, degree, x, dim, h=DEFAULT_STEP):
    """Full component array of d(form) on constant coordinate frames.  When
    degree + 1 exceeds the chart dimension the result is the full zero
    array and the form is never evaluated (every top-degree form is
    closed)."""
    if degree + 1 > dim:
        return np.zeros((dim,) * (degree + 1))
    p = partial_table(form, x, dim, h)
    return sum((-1.0) ** r * np.moveaxis(p, -1, r) for r in range(degree + 1))


@dataclass
class CourantNumeric:
    """An ambient bracket bundle in a fixed trivialization: constant gram,
    anchor matrix field, and a bracket evaluator on section fields.

    ``pair`` is the Manin pair every fiber carries (the fiber algebra with
    its Lagrangian half), when the bundle has one; ``exact_anchor`` freezes
    the anchor at a point to a rational matrix."""

    chart: Chart
    rank: int
    gram: np.ndarray
    anchor: object
    bracket_at: object
    exact_anchor: object = None
    pair: ManinPairPoint = None
    step: float = DEFAULT_STEP
    label: str = ""

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.shape != (self.rank, self.rank) or not np.allclose(g, g.T):
            raise ValueError("gram must be a symmetric rank x rank matrix")
        self.gram = g
        self.gram_inv = np.linalg.inv(g)

    def anchor_matrix(self, x):
        m = np.asarray(self.anchor(np.asarray(x, float)), dtype=float)
        if m.shape != (self.chart.dim, self.rank):
            raise ValueError("anchor matrix has wrong shape")
        return m

    def rho_star(self, x):
        """Matrix of the dual anchor (covectors into the bundle)."""
        return self.gram_inv @ self.anchor_matrix(x).T

    def pair_at(self, e1, e2, x):
        return float(e1(x) @ self.gram @ e2(x))

    def bracket(self, e1, e2):
        return SectionField(self.rank, lambda x: self.bracket_at(e1, e2, x))

    def anchor_vector_field(self, e):
        return lambda x: self.anchor_matrix(x) @ e(x)

    def anchor_coisotropy_residual(self, points=None):
        """Largest entry of rho ginv rho^T over the points; algebraic, so
        the budget is roundoff, not the FD step."""
        pts = points if points is not None else self.chart.sample_points
        worst = 0.0
        for x in pts:
            m = self.anchor_matrix(x)
            worst = worse(worst, float(np.max(np.abs(m @ self.gram_inv @ m.T))))
        return worst


def _phi_as_field(phi, dim):
    if phi is None:
        zero = np.zeros((dim, dim, dim))
        return lambda x: zero
    if callable(phi):
        return phi
    arr = np.asarray(phi, dtype=float)
    if arr.shape != (dim, dim, dim):
        raise ValueError("three-form components have wrong shape")
    return lambda x: arr


def twisted_bracket(e1, e2, x, phi_field, h=DEFAULT_STEP):
    """Twisted bracket of tangent-plus-cotangent sections at ``x``:

        [[X + a, Y + b]] = [X, Y] + L_X b - i_Y da + phi(X, Y, .)

    from one partial table and one value per section."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    p1 = partial_table(e1, x, n, h)
    p2 = partial_table(e2, x, n, h)
    e1x, e2x = e1(x), e2(x)
    v1, a1, v2, a2 = e1x[:n], e1x[n:], e2x[:n], e2x[n:]
    vec = p2[:n] @ v1 - p1[:n] @ v2
    cov = p2[n:] @ v1 + p1[:n].T @ a2
    cov -= (p1[n:].T - p1[n:]).T @ v2
    t = np.asarray(phi_field(x), dtype=float)
    cov += np.einsum("abj,a,b->j", t, v1, v2)
    return np.concatenate([vec, cov])


def volume_form(dim):
    """Component array of the coordinate volume three-form (dim 3 only)."""
    if dim != 3:
        raise ValueError("volume three-form helper is three-dimensional")
    t = np.zeros((3, 3, 3))
    for i, j, k, s in (
        (0, 1, 2, 1.0),
        (1, 2, 0, 1.0),
        (2, 0, 1, 1.0),
        (0, 2, 1, -1.0),
        (2, 1, 0, -1.0),
        (1, 0, 2, -1.0),
    ):
        t[i, j, k] = s
    return t


def make_standard_twisted(chart, phi=None, h=DEFAULT_STEP, check_closed=True, closed_tol=1e-6):
    """Twisted bracket on tangent-plus-cotangent section pairs.

    ``phi`` is a three-form (constant array, field, or None for untwisted);
    when ``check_closed`` the exterior derivative is probed at every sample
    point and a non-closed twist is rejected, and so is a twist that is not
    finite there (on a three-dimensional chart d phi is zero without phi
    being evaluated).  The negative-control tests construct the broken
    bundle on purpose, so the gate is optional.
    """
    n = chart.dim
    phi_field = _phi_as_field(phi, n)
    if check_closed:
        for x in chart.sample_points:
            d = exterior_derivative(phi_field, 3, x, n, h)
            if not float(np.max(np.abs(d))) <= closed_tol:
                raise ValueError("twist three-form is not closed at a sample point")
            if not np.all(np.isfinite(phi_field(x))):
                raise ValueError("twist three-form is not finite at a sample point")

    gram = np.zeros((2 * n, 2 * n))
    gram[:n, n:] = np.eye(n)
    gram[n:, :n] = np.eye(n)
    anchor_mat = np.hstack([np.eye(n), np.zeros((n, n))])
    return CourantNumeric(
        chart=chart,
        rank=2 * n,
        gram=gram,
        anchor=lambda x: anchor_mat,
        bracket_at=lambda e1, e2, x: twisted_bracket(e1, e2, x, phi_field, h),
        step=h,
        label="standard" if phi is None else "standard-twisted",
    )


def rotation_double_anchor(x):
    """Float anchor of the rotation double acting on its group chart by
    simultaneous left and inverse right translation (the conjugation
    action in exponential coordinates).  The generators of a left action
    anti-commute with the algebra bracket, so the anchor is their
    negative: that makes it a bracket homomorphism on the nose."""
    x = np.asarray(x, dtype=float)
    jinv = so3.left_jacobian_inv(x)
    r = so3.exp_rotation(x)
    return np.hstack([-jinv, jinv @ r])


def rotation_double_exact_anchor(x, max_denominator=10**8):
    """Rational anchor near the float one whose coisotropy defect vanishes
    identically: the rotation block is frozen through the Cayley chart, so
    orthogonality survives the rounding, and the Jacobian factor is a free
    left multiplier."""
    x = np.asarray(x, dtype=float)
    jq = so3.rationalize_matrix(so3.left_jacobian_inv(x), max_denominator)
    rq = so3.rationalize_rotation(so3.exp_rotation(x), max_denominator)
    return rat.mat_mul(jq, rat.hstack(rat.mat_neg(rat.identity(3)), rq))


def make_dressing_courant(d, g, chart, h=DEFAULT_STEP, check_axioms=True, gate_tol=1e-6):
    """Bracket bundle of a quadratic double over its dressing chart.

    The bracket on general sections extends the pointwise algebra bracket
    by directional-derivative terms along the anchored directions plus the
    dual-anchor correction that restores the pairing axioms:

        [[e1, e2]](x) = [e1(x), e2(x)] + D_{rho e1} e2 - D_{rho e2} e1
                        + rho*(<de1, e2>)

    The formula is self-certifying: the axiom report is the only warrant,
    so construction smoke-gates the single-bracket axioms on constant
    sections (the full report is a separate call).  Only the split rotation
    double carries a chart action here; anything else is rejected.
    """
    reference = catalog()["so3-double"]
    if d.dim != 6 or chart.dim != 3:
        raise ValueError("dressing chart action needs the six-dimensional rotation double")
    if d.structure != reference.d.structure or d.form.gram != reference.d.form.gram:
        raise ValueError("dressing chart action is only wired for the split rotation double")

    gram = np.array([[float(v) for v in row] for row in d.form.gram])
    gram_inv = np.linalg.inv(gram)
    structure = np.array(
        [[[float(v) for v in row] for row in plane] for plane in d.structure]
    )

    def bracket_at(e1, e2, x):
        x = np.asarray(x, dtype=float)
        rho = rotation_double_anchor(x)
        e1x, e2x = e1(x), e2(x)
        val = np.einsum("ijk,i,j->k", structure, e1x, e2x)
        p1 = partial_table(e1, x, 3, h)
        p2 = partial_table(e2, x, 3, h)
        val += p2 @ (rho @ e1x) - p1 @ (rho @ e2x)
        w = p1.T @ (gram @ e2x)
        val += gram_inv @ rho.T @ w
        return val

    cn = CourantNumeric(
        chart=chart,
        rank=6,
        gram=gram,
        anchor=rotation_double_anchor,
        bracket_at=bracket_at,
        exact_anchor=rotation_double_exact_anchor,
        pair=ManinPairPoint(d, g),
        step=h,
        label="dressing-rotation-double",
    )

    if check_axioms:
        pts = chart.sample_points[: min(3, len(chart.sample_points))]
        basis = [SectionField.constant(np.eye(6)[i]) for i in range(6)]
        coiso = cn.anchor_coisotropy_residual(pts)
        if not coiso <= 1e-10:
            raise ValueError("anchor fails coisotropy on the gate points")
        for x in pts:
            for i in (0, 3):
                for j in (1, 4):
                    got = bracket_at(basis[i], basis[j], x)
                    want = np.array([float(v) for v in d.basis_bracket(i, j)])
                    if not float(np.max(np.abs(got - want))) <= gate_tol:
                        raise ValueError("constant sections do not bracket to the algebra")
            lhs = cn.anchor_matrix(x) @ bracket_at(basis[0], basis[1], x)
            rhs = vector_commutator(
                cn.anchor_vector_field(basis[0]), cn.anchor_vector_field(basis[1]), x, 3, h
            )
            if not float(np.max(np.abs(lhs - rhs))) <= gate_tol:
                raise ValueError("anchor is not bracket-compatible on the gate points")
    return cn


def section_library(rank, dim, include_quadratic=True):
    """The fixed probe family for axiom reports: every constant basis
    section, a few coordinate-linear ones, and one quadratic."""
    eye = np.eye(rank)
    lib = [SectionField.constant(eye[i]) for i in range(rank)]
    for k in range(min(rank, 3)):
        coord = k % dim
        lib.append(
            SectionField(rank, lambda x, k=k, c=coord: x[c] * eye[k])
        )
    if include_quadratic:
        lib.append(SectionField(rank, lambda x: 0.5 * float(x @ x) * eye[rank - 1]))
    return lib


def scalar_library(dim):
    funcs = [lambda x, i=i: float(x[i]) for i in range(min(dim, 3))]
    funcs.append(lambda x: float(x[0] * x[min(1, dim - 1)]))
    funcs.append(lambda x: math.sin(float(x[0])))
    return funcs


def check_axioms_numeric(c, points=None, tol=DEFAULT_TOL, h=None, triples=None):
    """Worst residual of each of the five bracket axioms, and of anchor
    coisotropy, over the section library at the points; ``data["step"]`` is
    the finite-difference step used.

    Nested-bracket terms make the Jacobi axiom the expensive one, so it
    runs over a thin deterministic triple set; the single-bracket axioms
    sweep wider.  Pass ``triples`` to override the Jacobi probes.
    """
    h = h if h is not None else c.step
    pts = points if points is not None else c.chart.sample_points
    n = c.chart.dim
    lib = section_library(c.rank, n)
    funcs = scalar_library(n)
    res = {
        "anchor_coisotropy": c.anchor_coisotropy_residual(pts),
        "c1_jacobi": 0.0,
        "c2_selfpairing": 0.0,
        "c3_metric": 0.0,
        "c4_anchor": 0.0,
        "c5_leibniz": 0.0,
    }

    if triples is None:
        linear = c.rank  # index of the first non-constant section
        triples = [
            (0, 1, 2 % c.rank),
            (0, min(3, c.rank - 1), min(4, c.rank - 1)),
            (linear, 0, 1),
            (0, linear + 1 if linear + 1 < len(lib) else linear, 2 % c.rank),
            (len(lib) - 1, 0, 1),
        ]
    for x in pts:
        for (i, j, k) in triples:
            e1, e2, e3 = lib[i], lib[j], lib[k]
            lhs = c.bracket_at(e1, c.bracket(e2, e3), x)
            rhs = c.bracket_at(c.bracket(e1, e2), e3, x) + c.bracket_at(e2, c.bracket(e1, e3), x)
            res["c1_jacobi"] = worse(res["c1_jacobi"], float(np.max(np.abs(lhs - rhs))))

        pair_probes = lib[: min(len(lib), c.rank + 2)] + [lib[-1]]
        for e in pair_probes:
            sq = c.bracket_at(e, e, x)
            norm = lambda y, e=e: float(e(y) @ c.gram @ e(y))
            want = 0.5 * (c.rho_star(x) @ partial_table(norm, x, n, h))
            res["c2_selfpairing"] = worse(res["c2_selfpairing"], float(np.max(np.abs(sq - want))))

        for a in range(0, len(lib), 2):
            e1 = lib[a]
            e2 = lib[(a + 1) % len(lib)]
            # the metric dual of e2 at x, so <e2, e3> varies wherever e2
            # does and the metric axiom has a derivative to match
            e3 = SectionField.constant(c.gram @ e2(x))
            scalar = lambda y, e2=e2, e3=e3: float(e2(y) @ c.gram @ e3(y))
            v = c.anchor_matrix(x) @ e1(x)
            lhs = float(directional_derivative(scalar, x, v, h)) if np.any(v) else 0.0
            rhs = float(c.bracket_at(e1, e2, x) @ c.gram @ e3(x)) + float(e2(x) @ c.gram @ c.bracket_at(e1, e3, x))
            res["c3_metric"] = worse(res["c3_metric"], abs(lhs - rhs))

            lhs4 = c.anchor_matrix(x) @ c.bracket_at(e1, e2, x)
            rhs4 = vector_commutator(c.anchor_vector_field(e1), c.anchor_vector_field(e2), x, n, h)
            res["c4_anchor"] = worse(res["c4_anchor"], float(np.max(np.abs(lhs4 - rhs4))))

        for fi, f in enumerate(funcs):
            e1 = lib[fi % c.rank]
            e2 = lib[(fi + 1) % c.rank]
            scaled = e2.scaled_by(f)
            lhs5 = c.bracket_at(e1, scaled, x)
            v = c.anchor_matrix(x) @ e1(x)
            df = float(partial_table(f, x, n, h) @ v)
            rhs5 = f(x) * c.bracket_at(e1, e2, x) + df * e2(x)
            res["c5_leibniz"] = worse(res["c5_leibniz"], float(np.max(np.abs(lhs5 - rhs5))))

    return Report(res, tol=tol, data={"step": h})


def fd_convergence_probe(factory, x, h, factor=8.0):
    """Step-halving signal for the bracket's FD scheme.

    ``factory(step)`` rebuilds the bundle at a given step.  The probe
    brackets two transcendental sections at ``x`` against a much finer
    reference; for a second-order scheme the value at step ``h`` is about
    four times the value at ``h/2``.
    """
    coarse = factory(h)
    ref = factory(h / factor)
    r = coarse.rank
    eye = np.eye(r)

    def mix1(y):
        return math.sin(float(y[0])) * eye[0] + math.cos(float(y[0])) * eye[r - 1]

    def mix2(y):
        return math.cos(float(y[0])) * eye[1 % r] + math.sin(float(y[0])) * eye[r - 2]

    e1 = SectionField(r, mix1)
    e2 = SectionField(r, mix2)
    w = coarse.bracket_at(e1, e2, np.asarray(x, float))
    wr = ref.bracket_at(e1, e2, np.asarray(x, float))
    return float(np.max(np.abs(w - wr)))


def lstsq_distance(rows, w):
    """Distance from ``w`` to the row span of ``rows`` (empty span allowed)."""
    rows = np.asarray(rows, dtype=float)
    w = np.asarray(w, dtype=float)
    if rows.size == 0:
        return float(np.linalg.norm(w))
    sol, *_ = np.linalg.lstsq(rows.T, w, rcond=None)
    return float(np.linalg.norm(rows.T @ sol - w))


def subspace_rows(space):
    """Float row matrix of an exact subspace basis."""
    return np.array([[float(v) for v in row] for row in space.basis], dtype=float)


def make_exact_splitting(c, onto_tol=1e-8):
    """Pointwise right inverse of the anchor with isotropic image, plus the
    three-form it induces.

    Returns ``(s, phi)``: ``s(x)`` is the rank-by-dim splitting matrix from
    the skew-correction algorithm run over floats, ``phi(x)`` the component
    array ``phi(v1,v2,v3) = <s v1, [[s v2, s v3]]>``.  Needs an exact
    bundle: rank twice the chart dimension and an onto anchor at every
    sample point.
    """
    n = c.chart.dim
    if c.rank != 2 * n:
        raise ValueError("splitting needs rank equal to twice the chart dimension")
    for x in c.chart.sample_points:
        sv = np.linalg.svd(c.anchor_matrix(x), compute_uv=False)
        if sv[-1] < onto_tol:
            raise ValueError("anchor is not onto at a sample point")

    def s(x):
        rho = c.anchor_matrix(x)
        cmat = rho.T @ np.linalg.inv(rho @ rho.T)
        b = cmat.T @ c.gram @ cmat
        return cmat - 0.5 * (c.gram_inv @ rho.T @ b)

    columns = [SectionField(c.rank, lambda y, j=j: s(y)[:, j]) for j in range(n)]

    def phi(x):
        x = np.asarray(x, dtype=float)
        sx = s(x)
        out = np.zeros((n, n, n))
        for j in range(n):
            for k in range(j + 1, n):
                b = c.bracket_at(columns[j], columns[k], x)
                for i in range(n):
                    v = float(sx[:, i] @ c.gram @ b)
                    out[i, j, k] = v
                    out[i, k, j] = -v
        return out

    return s, phi


def splitting_residuals(c, s, points=None):
    """Max deviations of rho s = id and of isotropy of the image."""
    pts = points if points is not None else c.chart.sample_points
    comp = 0.0
    iso = 0.0
    for x in pts:
        sx = s(x)
        comp = worse(comp, float(np.max(np.abs(c.anchor_matrix(x) @ sx - np.eye(c.chart.dim)))))
        iso = worse(iso, float(np.max(np.abs(sx.T @ c.gram @ sx))))
    return {"composition": comp, "isotropy": iso}


@dataclass
class DiracField:
    """Half-subalgebra Dirac structure, pointwise: rows (rho(a), s*(a))."""

    courant: CourantNumeric
    half_rows: np.ndarray
    s: object

    def basis_at(self, x):
        rho = self.courant.anchor_matrix(x)
        sx = self.s(x)
        g = self.courant.gram
        rows = []
        for a in self.half_rows:
            rows.append(np.concatenate([rho @ a, sx.T @ (g @ a)]))
        return np.stack(rows)

    def section(self, i):
        return SectionField(
            2 * self.courant.chart.dim, lambda x, i=i: self.basis_at(x)[i]
        )

    def lagrangian_report(self, x, rank_tol=1e-8):
        b = self.basis_at(x)
        n = self.courant.chart.dim
        pair = np.zeros((2 * n, 2 * n))
        pair[:n, n:] = np.eye(n)
        pair[n:, :n] = np.eye(n)
        iso = float(np.max(np.abs(b @ pair @ b.T)))
        sv = np.linalg.svd(b, compute_uv=False)
        drop = int(np.sum(sv < rank_tol * max(1.0, sv[0])))
        return {"isotropy": iso, "rank_drop": drop}

    def integrability_residual(self, x, phi, h=DEFAULT_STEP):
        """Closure defect of the section frame under the twisted bracket."""
        phi_field = _phi_as_field(phi, self.courant.chart.dim)
        rows = self.basis_at(x)
        worst = 0.0
        for i in range(len(self.half_rows)):
            for j in range(i + 1, len(self.half_rows)):
                w = twisted_bracket(self.section(i), self.section(j), x, phi_field, h)
                worst = worse(worst, lstsq_distance(rows, w))
        return worst


def dirac_of_pair(c, half, s):
    """Dirac field of a Lagrangian subalgebra through a pointwise splitting.

    ``half`` is the exact subspace of the fiber algebra (or a float row
    matrix); its closure under the algebra bracket is required, and checked
    exactly when the bundle carries its Manin pair."""
    rows = subspace_rows(half) if hasattr(half, "basis") else np.asarray(half, float)
    if c.pair is not None and hasattr(half, "basis"):
        if first_unclosed_pair(c.pair.d.bracket, half) is not None:
            raise ValueError("half is not closed under the algebra bracket")
    return DiracField(courant=c, half_rows=rows, s=s)


@dataclass
class MapField:
    """A smooth map between charts with its differential."""

    source_dim: int
    target_dim: int
    value: object
    jacobian: object

    @staticmethod
    def identity(dim):
        return MapField(dim, dim, lambda x: np.asarray(x, float), lambda x: np.eye(dim))

    @staticmethod
    def constant(point, source_dim):
        p = np.asarray(point, dtype=float)
        return MapField(
            source_dim, p.shape[0], lambda x: p, lambda x: np.zeros((p.shape[0], source_dim))
        )


@dataclass
class CanonicalSpace:
    """The moment geometry carried by the base itself: identity moment map
    and fibers K = {((rho(a), -beta), a + rho* beta)}."""

    courant: CourantNumeric
    s: object
    phi: object

    def __post_init__(self):
        if self.courant.pair is None:
            raise ValueError("canonical space needs the bundle's Manin pair")
        self.half_rows = subspace_rows(self.courant.pair.g)

    def fiber_rows(self, x):
        n = self.courant.chart.dim
        rho = self.courant.anchor_matrix(x)
        rho_star = self.courant.rho_star(x)
        rows = []
        for a in self.half_rows:
            rows.append(np.concatenate([rho @ a, np.zeros(n), a]))
        for k in range(n):
            eps = np.eye(n)[k]
            rows.append(np.concatenate([np.zeros(n), -eps, rho_star[:, k]]))
        return np.stack(rows)

    def frozen_fiber(self, x, max_denominator=10**8):
        """Exact Hamiltonian fiber at ``x``: the anchor is frozen to a
        rational matrix with exact coisotropy, so the Lagrangian and
        support conditions hold on the nose, not within a tolerance."""
        if self.courant.exact_anchor is None:
            raise ValueError("bundle has no exact anchor to freeze")
        n = self.courant.chart.dim
        pair = self.courant.pair
        rho_q = self.courant.exact_anchor(np.asarray(x, float), max_denominator)
        gram_inv = rat.invert(pair.d.form.gram)
        rho_star_q = rat.mat_mul(gram_inv, rat.transpose(rho_q))
        zero_t = (Fraction(0),) * n
        rows = []
        for a in pair.g.basis:
            u = rat.mat_vec(rho_q, a)
            rows.append(tuple(u) + zero_t + tuple(a))
        for k in range(n):
            eps = tuple(Fraction(1 if i == k else 0) for i in range(n))
            col = tuple(rho_star_q[i][k] for i in range(len(rho_star_q)))
            rows.append(zero_t + tuple(-e for e in eps) + col)
        k_space = canonicalize(rows, 2 * n + pair.d.dim)
        return HamiltonianFiber(
            t_dim=n, pair=pair, K=k_space, dJ=rat.identity(n), rho=rho_q
        )

    def generator_residuals(self, x, h=DEFAULT_STEP):
        """Membership defects of the three bracket families of fiber
        generators, as distances to the fiber span."""
        c = self.courant
        n = c.chart.dim
        x = np.asarray(x, dtype=float)
        # single brackets only probe the twist at x, so freeze it there
        phi_x = _phi_as_field(self.phi(x), n)
        rows = self.fiber_rows(x)

        def a_section(a):
            tx = SectionField(2 * n, lambda y, a=a: np.concatenate([c.anchor_matrix(y) @ a, np.zeros(n)]))
            ee = SectionField.constant(a)
            return tx, ee

        def b_section(beta):
            tx = SectionField.constant(np.concatenate([np.zeros(n), -beta]))
            ee = SectionField(c.rank, lambda y, b=beta: c.rho_star(y) @ b)
            return tx, ee

        lifted = [a_section(a) for a in self.half_rows]
        lifted_b = [b_section(np.eye(n)[k]) for k in range(n)]
        out = {"half_half": 0.0, "half_covector": 0.0, "covector_covector": 0.0}

        def membership(tx1, e1, tx2, e2, key):
            w_tx = twisted_bracket(tx1, tx2, x, phi_x, h)
            w_e = c.bracket_at(e1, e2, x)
            out[key] = worse(out[key], lstsq_distance(rows, np.concatenate([w_tx, w_e])))

        for i in range(len(lifted)):
            for j in range(i + 1, len(lifted)):
                membership(*lifted[i], *lifted[j], "half_half")
        for tx1, e1 in lifted:
            for tx2, e2 in lifted_b:
                membership(tx1, e1, tx2, e2, "half_covector")
        for i in range(len(lifted_b)):
            for j in range(i + 1, len(lifted_b)):
                membership(*lifted_b[i], *lifted_b[j], "covector_covector")
        return out


def canonical_hamiltonian(c):
    """Canonical moment geometry over the whole base (identity map)."""
    s, phi = make_exact_splitting(c)
    return CanonicalSpace(courant=c, s=s, phi=phi)


@dataclass
class OrbitCanonicalSpace:
    """Orbit variant: the base is a distance sphere in the chart (the
    conjugation-orbit picture), the moment map is the inclusion."""

    courant: CourantNumeric
    radius: float

    def __post_init__(self):
        if self.courant.pair is None:
            raise ValueError("orbit space needs the bundle's Manin pair")
        self.half_rows = subspace_rows(self.courant.pair.g)

    def project(self, p):
        p = np.asarray(p, dtype=float)
        nrm = float(np.linalg.norm(p))
        if nrm == 0.0:
            raise ValueError("cannot project the origin to the orbit")
        return p * (self.radius / nrm)

    def orbit_points(self, count, seed):
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < count:
            v = rng.normal(size=3)
            if np.linalg.norm(v) > 1e-6:
                pts.append(self.project(v))
        return pts

    def tangent_frame(self, x):
        x = np.asarray(x, dtype=float)
        nrm = x / np.linalg.norm(x)
        base = np.eye(3)[np.argmin(np.abs(nrm))]
        t1 = base - nrm * float(nrm @ base)
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(nrm, t1)
        return np.stack([t1, t2], axis=1)

    def tangency_residual(self, x):
        """Normal component of the anchored half directions: the moment
        image of the fiber must stay tangent to the sphere."""
        x = np.asarray(x, dtype=float)
        rho = self.courant.anchor_matrix(x)
        nrm = x / np.linalg.norm(x)
        worst = 0.0
        for a in self.half_rows:
            worst = worse(worst, abs(float((rho @ a) @ nrm)))
        return worst

    def fiber_rows(self, x):
        x = np.asarray(x, dtype=float)
        frame = self.tangent_frame(x)
        rho = self.courant.anchor_matrix(x)
        rho_star = self.courant.rho_star(x)
        rows = []
        for a in self.half_rows:
            rows.append(np.concatenate([frame.T @ (rho @ a), np.zeros(2), a]))
        for k in range(3):
            eps = np.eye(3)[k]
            rows.append(np.concatenate([np.zeros(2), -(frame.T @ eps), rho_star[:, k]]))
        return np.stack(rows)

    def fiber_report(self, x, rank_tol=1e-8):
        rows = self.fiber_rows(x)
        n = 2
        gram = np.zeros((2 * n + self.courant.rank, 2 * n + self.courant.rank))
        gram[:n, n : 2 * n] = np.eye(n)
        gram[n : 2 * n, :n] = np.eye(n)
        gram[2 * n :, 2 * n :] = self.courant.gram
        iso = float(np.max(np.abs(rows @ gram @ rows.T)))
        sv = np.linalg.svd(rows, compute_uv=False)
        dim = int(np.sum(sv > rank_tol * sv[0]))
        return {"isotropy": iso, "dim": dim, "tangency": self.tangency_residual(x)}


def canonical_orbit_hamiltonian(c, radius):
    return OrbitCanonicalSpace(courant=c, radius=float(radius))


def check_strong_dirac(
    jmap,
    l_x,
    l_s,
    points,
    phi=None,
    h=DEFAULT_STEP,
    tol=DEFAULT_TOL,
    rank_tol=1e-8,
    exact_fibers=None,
):
    """Strong-map report for a Dirac field along a chart map, worst over
    the points: ``inclusion``, ``transversality`` and the ``integrability``
    defect of the source frame.

    ``l_x`` and ``l_s`` are smooth float row-basis suppliers over the
    source and target charts; they drive the FD integrability probe (run
    and reported only when ``phi``, a twist on the target chart, is given)
    and the float inclusion/transversality ranks.  ``exact_fibers`` optionally maps a
    point to ``(l_x_rows, l_s_rows, dj)`` as rational matrices; when
    present, inclusion and transversality are decided by exact rank
    arithmetic on those frozen fibers instead, and both are exact 0/1
    quantities; otherwise only transversality is.
    """
    q = jmap.source_dim
    m = jmap.target_dim
    res = {"inclusion": 0.0, "transversality": 0}
    if phi is not None:
        res["integrability"] = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        if exact_fibers is not None:
            lx_q, ls_q, dj_q = exact_fibers(x)
            fiber = DiracPointData(canonicalize(list(lx_q), 2 * q)).L
            image = forward_dirac(fiber, rat.matrix(dj_q))
            target = canonicalize(list(ls_q), 2 * m)
            stacked = canonicalize(list(image.basis) + list(target.basis), 2 * m)
            incl_res = 0.0 if stacked.dim == image.dim else 1.0
            # coefficient kernel of the covector block gives L cap T exactly
            cov_cols = [row[q:] for row in fiber.basis]
            coefs = rat.kernel(rat.transpose(rat.matrix(cov_cols)), ncols=len(cov_cols)) if cov_cols else ()
            tangent = []
            for cvec in coefs:
                u = [sum(cvec[i] * fiber.basis[i][j] for i in range(len(cvec))) for j in range(q)]
                if any(u):
                    tangent.append(tuple(u))
            if tangent:
                pushed = [tuple(rat.mat_vec(rat.matrix(dj_q), u)) for u in tangent]
                transversal = rat.rank(pushed) == rat.rank(tangent)
            else:
                transversal = True
        else:
            lxr = np.asarray(l_x(x), dtype=float)
            lsr = np.asarray(l_s(jmap.value(x)), dtype=float)
            djr = np.asarray(jmap.jacobian(x), dtype=float)
            k = lxr.shape[0]
            # forward span: pairs (dJ u, beta) with (u, dJ^T beta) in the rows
            cons = np.hstack([djr.T, -lxr.T[q:]])
            vt = np.linalg.svd(cons)[2]
            sv = np.linalg.svd(cons, compute_uv=False)
            null = [vt[i] for i in range(vt.shape[0]) if i >= len(sv) or sv[i] < rank_tol]
            fwd = []
            for z in null:
                beta, coef = z[:m], z[m:]
                u = lxr.T[:q] @ coef
                fwd.append(np.concatenate([djr @ u, beta]))
            incl_res = reduce(worse, (lstsq_distance(fwd, v) for v in lsr), 0.0)
            # L_X intersect TX, pushed through the differential
            cov = lxr.T[q:]
            cvt = np.linalg.svd(cov)[2]
            csv = np.linalg.svd(cov, compute_uv=False)
            coefs = [cvt[i] for i in range(cvt.shape[0]) if i >= len(csv) or csv[i] < rank_tol]
            tang = [lxr.T[:q] @ cvec for cvec in coefs]
            tang = [t for t in tang if np.linalg.norm(t) > rank_tol]
            if tang:
                tmat = np.stack(tang)
                rk = np.linalg.matrix_rank(tmat, tol=rank_tol)
                rk_pushed = np.linalg.matrix_rank(tmat @ djr.T, tol=rank_tol)
                transversal = rk_pushed == rk
            else:
                transversal = True
        res["inclusion"] = worse(res["inclusion"], incl_res)
        res["transversality"] = worse(res["transversality"], 0 if transversal else 1)

        if phi is not None:
            phi_field = _phi_as_field(phi, m)

            def pulled(y):
                djy = np.asarray(jmap.jacobian(y), dtype=float)
                return np.einsum(
                    "abc,ai,bj,ck->ijk",
                    phi_field(np.asarray(jmap.value(y), float)),
                    djy,
                    djy,
                    djy,
                )

            rows_f = np.asarray(l_x(x), dtype=float)
            for i in range(rows_f.shape[0]):
                for j in range(i + 1, rows_f.shape[0]):
                    sec_i = SectionField(2 * q, lambda y, i=i: np.asarray(l_x(y), float)[i])
                    sec_j = SectionField(2 * q, lambda y, j=j: np.asarray(l_x(y), float)[j])
                    w = twisted_bracket(sec_i, sec_j, x, pulled, h)
                    res["integrability"] = worse(
                        res["integrability"], lstsq_distance(rows_f, w)
                    )
    exact = {"transversality"} if exact_fibers is None else {"inclusion", "transversality"}
    return Report(res, tol=tol, exact=exact)


def make_quasi_pi_field(c, j_cols):
    """Bivector and action fields induced by a constant isotropic
    complement ``j`` of the bundle's half subalgebra.

    Returns ``(pi, rho_x, rho_astar)``: ``pi(x)[i][j]`` is the bivector on
    coordinate covectors, ``rho_x(x)`` the action of the half algebra, and
    ``rho_astar(x)`` the anchored complement (used by the sharp-map
    compatibility identity).  The bivector comes out antisymmetric exactly
    as the anchor's coisotropy defect vanishes.
    """
    if c.pair is None:
        raise ValueError("bundle carries no Manin pair")
    a_cols = subspace_rows(c.pair.g).T
    j_f = np.array([[float(v) for v in row] for row in j_cols])
    proj = a_cols @ (j_f.T @ c.gram)

    def pi(x):
        rho = c.anchor_matrix(x)
        return -(rho @ proj @ c.gram_inv @ rho.T)

    def rho_x(x):
        return c.anchor_matrix(x) @ a_cols

    def rho_astar(x):
        return c.anchor_matrix(x) @ j_f

    return pi, rho_x, rho_astar


def make_exact_quasi_pi(c, j_cols, max_denominator=10**8):
    """Exact-fiber supplier matching make_quasi_pi_field: rationalize the
    anchor once per point and push the same constant complement through
    exact arithmetic."""
    if c.exact_anchor is None:
        raise ValueError("bundle has no exact anchor to freeze")
    gram = c.pair.d.form.gram
    a_cols = rat.transpose(list(c.pair.g.basis))
    j_q = rat.matrix(j_cols)
    gram_inv = rat.invert(gram)
    proj = rat.mat_mul(a_cols, rat.mat_mul(rat.transpose(j_q), gram))

    def fibers(x):
        rho = c.exact_anchor(np.asarray(x, float), max_denominator)
        pit = rat.mat_mul(rho, rat.mat_mul(proj, rat.mat_mul(gram_inv, rat.transpose(rho))))
        pi = rat.mat_neg(pit)
        return {
            "pi": pi,
            "rho_x": rat.mat_mul(rho, a_cols),
            "rho_astar": rat.mat_mul(rho, j_q),
            "dj": rat.identity(c.chart.dim),
        }

    return fibers


def poisson_bracket_field(pi, f, g, dim, h=DEFAULT_STEP):
    """The scalar field {f, g} for a bivector component field ``pi``."""

    def value(x):
        x = np.asarray(x, dtype=float)
        gf = partial_table(f, x, dim, h)
        gg = partial_table(g, x, dim, h)
        return float(gg @ np.asarray(pi(x), float).T @ gf)

    return value


def check_quasi_poisson(
    pi,
    rho_x,
    jmap,
    chi,
    cobracket,
    points,
    rho_astar=None,
    exact_fibers=None,
    funcs=None,
    h=DEFAULT_STEP,
    tol=1e-4,
    sign=None,
):
    """Worst residuals of the three bivector compatibility identities:
    ``jacobiator``, ``lie_compat`` and ``sharp_compat``.

    The Jacobiator identity compares the cyclic nested bracket sum with
    the anchored trivector term (scaled by the frozen module sign); the
    derivative identity compares Lie derivatives of the bivector along
    anchored constant sections with the pushed cobracket; the sharp-map
    identity is algebraic and runs exactly whenever frozen fibers are
    supplied, which makes ``sharp_compat`` an exact quantity.  ``chi`` and
    ``cobracket`` use the exact splitting module's component conventions
    (nested tuples, possibly empty for the ordinary Poisson case).  An
    identity that is not measured is absent from the report: ``lie_compat``
    with an empty cobracket, ``sharp_compat`` with neither ``exact_fibers``
    nor ``rho_astar``.
    """
    sign = JACOBIATOR_SIGN if sign is None else sign
    dim = jmap.source_dim
    funcs = funcs if funcs is not None else scalar_library(dim)
    chi_f = np.array(chi, dtype=float)
    cob_f = np.array(cobracket, dtype=float)

    res = {"jacobiator": 0.0}
    if cob_f.size:
        res["lie_compat"] = 0.0
    if exact_fibers is not None or rho_astar is not None:
        res["sharp_compat"] = 0.0

    for x in points:
        x = np.asarray(x, dtype=float)
        px = np.asarray(pi(x), float)
        rx = np.asarray(rho_x(x), float)
        grads = [partial_table(f, x, dim, h) for f in funcs]
        # gradient of each inner bracket {f_b, f_c}, taken once per point
        inner = {}
        for i, j, k in combinations(range(len(funcs)), 3):
            total = 0.0
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                if (b, c) not in inner:
                    bracket = poisson_bracket_field(pi, funcs[b], funcs[c], dim, h)
                    inner[b, c] = partial_table(bracket, x, dim, h)
                total += float(inner[b, c] @ px.T @ grads[a])
            rhs = 0.0
            if chi_f.size:
                vf, vg, vk = (rx.T @ grads[m] for m in (i, j, k))
                rhs = sign * float(np.einsum("ijk,i,j,k->", chi_f, vf, vg, vk))
            res["jacobiator"] = worse(res["jacobiator"], abs(total - rhs))

        if "lie_compat" in res:
            r = cob_f.shape[0]
            pfield = lambda y: np.asarray(pi(y), float).reshape(-1)
            pt = partial_table(pfield, x, dim, h).reshape(dim, dim, dim)
            for idx in range(r):
                a = np.eye(r)[idx]
                vfield = lambda y, a=a: np.asarray(rho_x(y), float) @ a
                vt = partial_table(vfield, x, dim, h)
                vx = vfield(x)
                lie = np.einsum("klm,m->kl", pt, vx)
                lie -= np.einsum("ml,km->kl", px, vt)
                lie -= np.einsum("km,lm->kl", px, vt)
                fa = np.einsum("ikl,i->kl", cob_f, a)
                want = rx @ fa @ rx.T
                res["lie_compat"] = worse(res["lie_compat"], float(np.max(np.abs(lie - want))))

        if exact_fibers is not None:
            fb = exact_fibers(x)
            lhs = rat.mat_mul(rat.transpose(fb["pi"]), rat.transpose(fb["dj"]))
            rhs_m = rat.mat_mul(fb["rho_x"], rat.transpose(fb["rho_astar"]))
            diff = (abs(v) for row in rat.mat_sub(lhs, rhs_m) for v in row)
            res["sharp_compat"] = reduce(worse, diff, res["sharp_compat"])
        elif rho_astar is not None:
            lhs = px.T @ np.asarray(jmap.jacobian(x), float).T
            rhs_m = rx @ np.asarray(rho_astar(x), float).T
            res["sharp_compat"] = worse(res["sharp_compat"], float(np.max(np.abs(lhs - rhs_m))))

    exact = () if exact_fibers is None else ("sharp_compat",)
    return Report(res, tol=tol, exact=exact)


def so3_linear_poisson(x):
    """Component matrix of the linear bivector on the dual of the rotation
    algebra: {x_i, x_j} = sum_k eps_ijk x_k."""
    x = np.asarray(x, dtype=float)
    return np.array(
        [
            [0.0, x[2], -x[1]],
            [-x[2], 0.0, x[0]],
            [x[1], -x[0], 0.0],
        ]
    )


def group_trace_function(x):
    """Trace of the chart rotation; the transcendental probe function."""
    return 1.0 + 2.0 * math.cos(float(np.linalg.norm(np.asarray(x, float))))
