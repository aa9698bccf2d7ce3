"""Floating-point tier: trivialized ambient bracket bundles over sampled
charts, probed by central finite differences.

Everything here is a field version of the exact point constructions: the
twisted tangent-plus-cotangent bundle, the dressing bundle of a quadratic
double over its group chart, pointwise isotropic splittings with their
induced three-form, half-subalgebra Dirac fields, the canonical moment
geometries, and the bivector compatibility checks.  Residual reports are
the product.  The algebraic strong-map and sharp quantities are decided
exactly, on fibers frozen to rational matrices at each point.

Every derivative here, and in ``reduction``, is a ``partial_table``: the
central differences ``(f(x + h e_m) - f(x - h e_m)) / 2h`` of a field along
the coordinate axes, on a stencil built once per table.  A scalar's partial
table is its gradient.  The brackets read each section through its jet,
``SectionField.jet(x, h)``: the section's value and partial table at
``x``, memoized per section, so the nested brackets of an axiom probe
differentiate each section once per point and step.  A constant section's
jet is exact, its value and a zero table, and never evaluates the section.
The jet is the seam where exact jets replace finite differences.

Each bundle has one bracket kernel, ``CourantNumeric.bracket_at``, and it
takes one point ``(n,)`` or a stack of points ``(P, n)``: jets are read per
point, the arithmetic runs over the stack, and every stacked value equals
the single-point one bit for bit.  A bracket section (``StackedSection``)
takes its jet, the point and its whole stencil, in one kernel call;
``check_axioms_numeric`` brackets every point-independent probe, and one
closure loop every pair of frame rows (``generator_residuals``, and
``check_strong_dirac``'s ``integrability``), over all sample points at once.

Per-point fields of the rotation bundle (the dressing anchor and the
exact splitting) and the Dirac frames of the integrability probes are
memoized by ``per_point``: each sample point and each of its
finite-difference neighbours is computed once, and the cached value is
read-only.  The memo is bound when the bundle is built, so a later
monkeypatch of ``rotation_double_anchor`` reaches only bundles built after
it.

Conventions shared with the exact tier: sections are component vectors in a
fixed trivialization, the pairing gram is constant, covectors act by rows,
``i_alpha(u ^ v) = alpha(u) v - alpha(v) u``, and a three-form is stored as
the full component array ``T[i][j][k] = phi(e_i, e_j, e_k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import combinations

import numpy as np

from . import rational as rat
from . import so3
from .dictionary import forward_dirac
from .exact_linear import Subspace, canonicalize
from .morphism import HamiltonianFiber
from .quadratic_lie import ManinPairPoint, catalog, first_unclosed_pair
from .report import Report, worse

DEFAULT_STEP = 1e-4
DEFAULT_TOL = 1e-6

# Entries one per-point memo (a per_point field or a section's jet) holds:
# a 50-sample run visits 7 x 50 = 350 points (each sample point and its six
# central-difference neighbours) at one step.
_PER_POINT_MEMO = 512

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
    """A sampled coordinate patch: just a dimension and a tuple of probe
    points."""

    dim: int
    sample_points: tuple

    def __post_init__(self):
        pts = tuple(np.asarray(p, dtype=float) for p in self.sample_points)
        if not pts:
            raise ValueError("chart needs at least one sample point")
        for p in pts:
            if p.shape != (self.dim,):
                raise ValueError("sample point has wrong dimension")
            if not np.all(np.isfinite(p)):
                raise ValueError("sample point is not finite")
        # tuple equality, like np.array_equal, takes -0.0 and 0.0 as equal
        if len({tuple(p) for p in pts}) != len(pts):
            raise ValueError("duplicate sample point")
        object.__setattr__(self, "sample_points", pts)


@dataclass(frozen=True)
class SectionField:
    """A rank-``rank`` section of a trivialized bundle, as a pure callable
    from chart points to component vectors.

    ``jet(x, h)`` is the seam every bracket reads: ``(value, partial_table)``
    at ``x`` with step ``h``, both read-only and memoized per section by
    point and step.  ``constant`` sections carry exact jets and bracket
    sections (``StackedSection``) take their jet in one call."""

    rank: int
    fn: object

    @cached_property
    def jet(self):
        return _point_memo(
            lambda x, h: (_read_only(self(x)), _read_only(partial_table(self, x, x.shape[0], h)))
        )

    def __call__(self, x):
        """The value at a point ``(n,)``; a ``StackedSection`` also maps a
        stack ``(P, n)`` to ``(P, rank)``."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(self.fn(x), dtype=float)
        if v.shape != x.shape[:-1] + (self.rank,):
            raise ValueError("section value has wrong rank")
        return v

    @staticmethod
    def constant(vec):
        v = _read_only(vec)
        if not np.all(np.isfinite(v)):
            raise ValueError("constant section is not finite")
        return ConstantSection(v.shape[0], lambda x: v, v)

    def scaled_by(self, f):
        """Multiply by a scalar function of the chart point."""
        return SectionField(self.rank, lambda x, s=self: f(x) * s(x))


@dataclass(frozen=True)
class ConstantSection(SectionField):
    """A section with one finite value everywhere.  Its jet is exact and
    never calls ``fn``: the value and a zero partial table, which is what
    central differences give bit for bit, since ``(v - v) / 2h`` is
    ``+0.0``."""

    value: np.ndarray = field(compare=False)

    def jet(self, x, h):
        return self.value, _zero_table(self.rank, np.shape(x)[-1])


class StackedSection(SectionField):
    """A section whose ``fn`` also maps a stack of points ``(P, n)`` to the
    stack of its values ``(P, rank)`` in one call.  Its jet takes the point
    and its whole stencil in one call, with the same value and table as the
    point-by-point jet.  ``CourantNumeric.bracket`` makes these."""

    @cached_property
    def jet(self):
        def at(x, h):
            values = self(np.concatenate([x[None], x + _stencil_steps(x.shape[0], h)]))
            return _read_only(values[0]), _read_only(_central_differences(values[1:], h))

        return _point_memo(at)


@lru_cache(maxsize=64)
def _zero_table(rank, dim):
    """The read-only zero partial table every constant section of ``rank``
    shares on a ``dim``-dimensional chart."""
    return _read_only(np.zeros((rank, dim)))


def _read_only(value):
    """A float copy of ``value`` that refuses in-place writes, so one array
    can be handed to every caller."""
    v = np.array(value, dtype=float)
    v.flags.writeable = False
    return v


def _point_memo(fn):
    """``fn(x, *args)`` in a bounded memo keyed by the bytes of ``x`` as a
    float vector and by the hashable ``args``; each wrapper has its own."""

    @lru_cache(maxsize=_PER_POINT_MEMO)
    def at(key, *args):
        return fn(np.frombuffer(key), *args)

    def memoized(x, *args):
        return at(np.asarray(x, dtype=float).tobytes(), *args)

    return memoized


def per_point(fn):
    """Memoize a pure field of a chart point ``x``.  The value is a
    read-only float copy of ``fn(x)``; each wrapper has its own bounded
    memo."""
    return _point_memo(lambda x: _read_only(fn(x)))


def _at_points(fn, x):
    """``fn`` of one point at ``x`` ``(n,)``, or stacked over the points of
    ``x`` ``(P, n)``."""
    if x.ndim == 1:
        return np.asarray(fn(x), dtype=float)
    return np.array([np.asarray(fn(y), dtype=float) for y in x])


def _jets(e, x, h):
    """``e.jet(x, h)`` at a point ``(n,)``, or its values and tables
    stacked over the points of ``x`` ``(P, n)``."""
    if x.ndim == 1:
        return e.jet(x, h)
    jets = [e.jet(y, h) for y in x]
    return np.array([v for v, _ in jets]), np.array([t for _, t in jets])


def _mv(a, v):
    """``a @ v`` over any leading point axes; each stacked product is the
    single-point one bit for bit (``einsum("pij,pj->pi")`` is not)."""
    return np.matmul(a, v[..., None])[..., 0]


def _tr(a):
    return a.swapaxes(-1, -2)


def directional_derivative(f, x, v, h):
    x = np.asarray(x, dtype=float)
    step = h * np.asarray(v, dtype=float)
    return (np.asarray(f(x + step), dtype=float) - np.asarray(f(x - step), dtype=float)) / (2.0 * h)


def partial_table(f, x, dim, h=DEFAULT_STEP):
    """Partials ``P[..., m] = d f[...] / d x_m`` by central differences,
    ``(f(x + h e_m) - f(x - h e_m)) / 2h``; for a scalar ``f`` this is its
    gradient.  ``f`` is evaluated point by point on a stencil built once, in
    the order ``x + h e_0, x - h e_0, x + h e_1, ...``."""
    stencil = np.asarray(x, dtype=float) + _stencil_steps(dim, h)
    return _central_differences(np.array([f(y) for y in stencil], dtype=float), h)


def _central_differences(values, h):
    """The C-contiguous partial table of ``values`` taken on the stencil
    rows of ``_stencil_steps``."""
    d = (values[0::2] - values[1::2]) / (2.0 * h)
    if d.ndim == 1:
        return d
    return np.ascontiguousarray(d.transpose((*range(1, d.ndim), 0)))


@lru_cache(maxsize=64)
def _stencil_steps(dim, h):
    """Rows ``h e_0, -h e_0, h e_1, ...``: adding a row to ``x`` gives
    ``x + h e_m`` or ``x - h e_m`` bit for bit, signed zeros included."""
    steps = np.empty((2 * dim, dim))
    steps[0::2] = h * np.eye(dim)
    steps[1::2] = -steps[0::2]
    return _read_only(steps)


def vector_commutator(v1, v2, x, dim, h):
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

    ``bracket_at(e1, e2, x)`` is the bundle's one bracket kernel.  ``x`` is
    a point ``(n,)``, giving the bracket's value ``(rank,)``, or a stack of
    points ``(P, n)``, giving the stack of values ``(P, rank)``; each stacked
    value must equal the single-point one.  ``bracket(e1, e2)`` is the
    bracket as a ``StackedSection`` over that kernel.

    ``pair`` is the Manin pair every fiber carries (the fiber algebra with
    its Lagrangian half), when the bundle has one.  ``exact_anchor(x)``
    freezes the anchor at a point to a rational matrix with exactly zero
    coisotropy defect, rounding through ``rational.rationalize``."""

    chart: Chart
    rank: int
    gram: np.ndarray
    anchor: object
    bracket_at: object
    step: float
    exact_anchor: object = None
    pair: ManinPairPoint = None

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

    def bracket(self, e1, e2):
        return StackedSection(self.rank, lambda x: self.bracket_at(e1, e2, x))

    def anchor_vector_field(self, e):
        return lambda x: self.anchor_matrix(x) @ e(x)

    def anchor_coisotropy_residual(self, points):
        """Largest entry of rho ginv rho^T over the points; algebraic, so
        the budget is roundoff, not the FD step."""
        worst = 0.0
        for x in points:
            m = self.anchor_matrix(x)
            worst = worse(worst, float(np.max(np.abs(m @ self.gram_inv @ m.T))))
        return worst


def _phi_as_field(phi, dim):
    if phi is None:
        zero = _read_only(np.zeros((dim, dim, dim)))
        return lambda x: zero
    if callable(phi):
        return phi
    arr = _read_only(phi)
    if arr.shape != (dim, dim, dim):
        raise ValueError("three-form components have wrong shape")
    return lambda x: arr


def twisted_bracket(e1, e2, x, phi_field, h):
    """Twisted bracket of tangent-plus-cotangent sections at a point ``x``
    ``(n,)`` or over a stack of points ``(P, n)``:

        [[X + a, Y + b]] = [X, Y] + L_X b - i_Y da + phi(X, Y, .)

    from each section's jet."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    e1x, p1 = _jets(e1, x, h)
    e2x, p2 = _jets(e2, x, h)
    v1, a1, v2, a2 = e1x[..., :n], e1x[..., n:], e2x[..., :n], e2x[..., n:]
    vec = _mv(p2[..., :n, :], v1) - _mv(p1[..., :n, :], v2)
    cov = _mv(p2[..., n:, :], v1) + _mv(_tr(p1[..., :n, :]), a2)
    cov -= _mv(_tr(_tr(p1[..., n:, :]) - p1[..., n:, :]), v2)
    t = _at_points(phi_field, x)
    cov += np.einsum("...abj,...a,...b->...j", t, v1, v2)
    return np.concatenate([vec, cov], axis=-1)


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


def make_standard_twisted(chart, phi=None, h=DEFAULT_STEP, check_closed=True):
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
            if not float(np.max(np.abs(d))) <= 1e-6:
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


def rotation_double_exact_anchor(x):
    """Rational anchor near the float one whose coisotropy defect vanishes
    identically: the rotation block is frozen through the Cayley chart, so
    orthogonality survives the rounding, and the Jacobian factor is a free
    left multiplier."""
    x = np.asarray(x, dtype=float)
    jq = so3.rationalize_matrix(so3.left_jacobian_inv(x))
    rq = so3.rationalize_rotation(so3.exp_rotation(x))
    return rat.mat_mul(jq, rat.hstack(rat.mat_neg(rat.identity(3)), rq))


def make_dressing_courant(chart, h=DEFAULT_STEP):
    """Bracket bundle of the split rotation double ``catalog()["so3-double"]``
    over its three-dimensional dressing chart.

    The bracket on general sections extends the pointwise algebra bracket
    by directional-derivative terms along the anchored directions plus the
    dual-anchor correction that restores the pairing axioms:

        [[e1, e2]](x) = [e1(x), e2(x)] + D_{rho e1} e2 - D_{rho e2} e1
                        + rho*(<de1, e2>)

    The formula is self-certifying: the axiom report is the only warrant,
    so construction smoke-gates the anchor at up to three sample points:
    coisotropy within 1e-10, and that it carries the bracket of the first
    two constant sections to the commutator of their vector fields within
    1e-6 (the full report is a separate call).  Constant sections need no
    gate of their own: their jets are exactly zero, so their bracket is the
    algebra's structure constants bit for bit.  The bundle's ``pair`` is
    the catalog pair itself, validated once; it is the only pair with a
    chart action here.

    The bracket and ``anchor_matrix`` read one anchor, memoized per bundle
    with ``per_point`` and bound here: replacing ``rotation_double_anchor``
    afterwards does not reach this bundle, and the anchor matrices it
    returns are read-only.
    """
    if chart.dim != 3:
        raise ValueError("dressing chart action needs the six-dimensional rotation double")
    pair = catalog()["so3-double"]
    d = pair.d

    gram = np.array([[float(v) for v in row] for row in d.form.gram])
    structure = np.array(
        [[[float(v) for v in row] for row in plane] for plane in d.structure]
    )

    anchor = per_point(rotation_double_anchor)

    def bracket_at(e1, e2, x):
        x = np.asarray(x, dtype=float)
        rho = _at_points(anchor, x)
        e1x, p1 = _jets(e1, x, h)
        e2x, p2 = _jets(e2, x, h)
        val = np.einsum("ijk,...i,...j->...k", structure, e1x, e2x)
        val += _mv(p2, _mv(rho, e1x)) - _mv(p1, _mv(rho, e2x))
        w = _mv(_tr(p1), _mv(gram, e2x))
        val += _mv(np.matmul(cn.gram_inv, _tr(rho)), w)
        return val

    cn = CourantNumeric(
        chart=chart,
        rank=6,
        gram=gram,
        anchor=anchor,
        bracket_at=bracket_at,
        exact_anchor=rotation_double_exact_anchor,
        pair=pair,
        step=h,
    )

    pts = chart.sample_points[: min(3, len(chart.sample_points))]
    e0, e1 = (SectionField.constant(np.eye(6)[i]) for i in range(2))
    coiso = cn.anchor_coisotropy_residual(pts)
    if not coiso <= 1e-10:
        raise ValueError("anchor fails coisotropy on the gate points")
    for x in pts:
        lhs = cn.anchor_matrix(x) @ bracket_at(e0, e1, x)
        rhs = vector_commutator(cn.anchor_vector_field(e0), cn.anchor_vector_field(e1), x, 3, h)
        if not float(np.max(np.abs(lhs - rhs))) <= 1e-6:
            raise ValueError("anchor is not bracket-compatible on the gate points")
    return cn


def section_library(rank, dim):
    """The fixed probe family for axiom reports: every constant basis
    section, a few coordinate-linear ones, and one quadratic."""
    eye = np.eye(rank)
    lib = [SectionField.constant(eye[i]) for i in range(rank)]
    for k in range(min(rank, 3)):
        coord = k % dim
        lib.append(
            SectionField(rank, lambda x, k=k, c=coord: x[c] * eye[k])
        )
    lib.append(SectionField(rank, lambda x: 0.5 * float(x @ x) * eye[rank - 1]))
    return lib


def scalar_library(dim):
    funcs = [lambda x, i=i: float(x[i]) for i in range(min(dim, 3))]
    funcs.append(lambda x: float(x[0] * x[min(1, dim - 1)]))
    funcs.append(lambda x: math.sin(float(x[0])))
    return funcs


def check_axioms_numeric(c, tol=DEFAULT_TOL):
    """Worst residual of each of the five bracket axioms, and of anchor
    coisotropy, over the section library at the chart's sample points, by
    finite differences with the bundle's step, which ``data["step"]``
    records.

    Nested-bracket terms make the Jacobi axiom the expensive one, so it
    runs over a thin deterministic triple set; the single-bracket axioms
    sweep wider.

    Each library bracket section is built once, and every probe bracket
    that does not depend on the point is taken over a whole chunk of points
    in one ``bracket_at`` call; the readings then fold point by point.  A
    chunk holds at most ``_PER_POINT_MEMO // (2n + 1)`` points, so the
    jets of its points and their stencils fit in each per-point memo.
    """
    h = c.step
    pts = c.chart.sample_points
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

    linear = c.rank  # index of the first non-constant section
    triples = [
        (0, 1, 2 % c.rank),
        (0, min(3, c.rank - 1), min(4, c.rank - 1)),
        (linear, 0, 1),
        (0, linear + 1 if linear + 1 < len(lib) else linear, 2 % c.rank),
        (len(lib) - 1, 0, 1),
    ]
    brackets = {}

    def bracket(i, j):
        if (i, j) not in brackets:
            brackets[i, j] = c.bracket(lib[i], lib[j])
        return brackets[i, j]

    jacobi = [
        ((lib[i], bracket(j, k)), (bracket(i, j), lib[k]), (lib[j], bracket(i, k)))
        for (i, j, k) in triples
    ]
    pair_probes = lib[: min(len(lib), c.rank + 2)] + [lib[-1]]
    metric = [(lib[a], lib[(a + 1) % len(lib)]) for a in range(0, len(lib), 2)]
    leibniz = [
        (lib[fi % c.rank], lib[(fi + 1) % c.rank], f) for fi, f in enumerate(funcs)
    ]
    scaled = [e2.scaled_by(f) for _, e2, f in leibniz]

    pts = [np.asarray(x, dtype=float) for x in pts]
    chunk = max(1, _PER_POINT_MEMO // (2 * n + 1))
    for start in range(0, len(pts), chunk):
        block = pts[start : start + chunk]
        xs = np.array(block)
        over = lambda pair: c.bracket_at(*pair, xs)
        c1 = [(over(lhs), over(r1) + over(r2)) for lhs, r1, r2 in jacobi]
        c2 = [over((e, e)) for e in pair_probes]
        c34 = [over(pair) for pair in metric]
        c5 = [
            (over((e1, s)), over((e1, e2))) for (e1, e2, _), s in zip(leibniz, scaled)
        ]
        for p, x in enumerate(block):
            for lhs, rhs in c1:
                res["c1_jacobi"] = worse(res["c1_jacobi"], float(np.max(np.abs(lhs[p] - rhs[p]))))

            for e, sq in zip(pair_probes, c2):
                norm = lambda y, e=e: float(e(y) @ c.gram @ e(y))
                want = 0.5 * (c.rho_star(x) @ partial_table(norm, x, n, h))
                res["c2_selfpairing"] = worse(res["c2_selfpairing"], float(np.max(np.abs(sq[p] - want))))

            for (e1, e2), b12 in zip(metric, c34):
                # the metric dual of e2 at x, so <e2, e3> varies wherever e2
                # does and the metric axiom has a derivative to match
                e3 = SectionField.constant(c.gram @ e2(x))
                scalar = lambda y, e2=e2, e3=e3: float(e2(y) @ c.gram @ e3(y))
                v = c.anchor_matrix(x) @ e1(x)
                lhs = float(directional_derivative(scalar, x, v, h)) if np.any(v) else 0.0
                rhs = float(b12[p] @ c.gram @ e3(x)) + float(e2(x) @ c.gram @ c.bracket_at(e1, e3, x))
                res["c3_metric"] = worse(res["c3_metric"], abs(lhs - rhs))

                lhs4 = c.anchor_matrix(x) @ b12[p]
                rhs4 = vector_commutator(c.anchor_vector_field(e1), c.anchor_vector_field(e2), x, n, h)
                res["c4_anchor"] = worse(res["c4_anchor"], float(np.max(np.abs(lhs4 - rhs4))))

            for (e1, e2, f), (lhs5, b12) in zip(leibniz, c5):
                v = c.anchor_matrix(x) @ e1(x)
                df = float(partial_table(f, x, n, h) @ v)
                rhs5 = f(x) * b12[p] + df * e2(x)
                res["c5_leibniz"] = worse(res["c5_leibniz"], float(np.max(np.abs(lhs5[p] - rhs5))))

    return Report(res, tol=tol, data={"step": h})


def lstsq_distance(rows, w):
    """Distance from ``w`` to the row span of ``rows``."""
    rows = np.asarray(rows, dtype=float)
    w = np.asarray(w, dtype=float)
    sol, *_ = np.linalg.lstsq(rows.T, w, rcond=None)
    return float(np.linalg.norm(rows.T @ sol - w))


def subspace_rows(space):
    """Float row matrix of an exact subspace basis."""
    return np.array([[float(v) for v in row] for row in space.basis], dtype=float)


def make_exact_splitting(c):
    """Pointwise right inverse of the anchor with isotropic image, plus the
    three-form it induces.

    Returns ``(s, phi)``: ``s(x)`` is the rank-by-dim splitting matrix from
    the skew-correction algorithm run over floats, ``phi(x)`` the component
    array ``phi(v1,v2,v3) = <s v1, [[s v2, s v3]]>``.  Needs an exact
    bundle: rank twice the chart dimension and an onto anchor at every
    sample point.  ``s`` is memoized per point with ``per_point``, so its
    matrices are read-only.
    """
    n = c.chart.dim
    if c.rank != 2 * n:
        raise ValueError("splitting needs rank equal to twice the chart dimension")
    for x in c.chart.sample_points:
        sv = np.linalg.svd(c.anchor_matrix(x), compute_uv=False)
        if sv[-1] < 1e-8:
            raise ValueError("anchor is not onto at a sample point")

    @per_point
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


def _closure(generators, bracket, frames, out, family):
    """Fold into ``out`` the distance from the bracket of each pair of
    ``generators`` to the row span of the frame, at every point of a
    stack: ``bracket(g1, g2)`` is the pair's stack of values, ``frames``
    the frame at each point, and ``family(i, j)`` the key of the pair of
    indices ``i < j`` in ``out``."""
    for (i, g1), (j, g2) in combinations(enumerate(generators), 2):
        key = family(i, j)
        for rows, w in zip(frames, bracket(g1, g2)):
            out[key] = worse(out[key], lstsq_distance(rows, w))
    return out


def dirac_of_pair(c, half, s):
    """Dirac field of a Lagrangian subalgebra through a pointwise splitting,
    as its frame function: ``x`` to the float rows ``(rho(a), s(x)^T g a)``,
    one per basis vector ``a`` of the half.

    ``half`` is the exact subspace of the fiber algebra; its closure under
    the algebra bracket is required, and checked exactly when the bundle
    carries its Manin pair."""
    rows = subspace_rows(half)
    if c.pair is not None and first_unclosed_pair(c.pair.d.bracket, half) is not None:
        raise ValueError("half is not closed under the algebra bracket")

    def basis_at(x):
        rho = c.anchor_matrix(x)
        sx = s(x)
        return np.stack([np.concatenate([rho @ a, sx.T @ (c.gram @ a)]) for a in rows])

    return basis_at


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
        frame = self._frame = per_point(self.fiber_rows)
        t, rank = 2 * self.courant.chart.dim, self.courant.rank
        self._generators = [
            (
                SectionField(t, lambda y, i=i: frame(y)[i, :t]),
                SectionField(rank, lambda y, i=i: frame(y)[i, t:]),
            )
            for i in range(len(self.half_rows) + self.courant.chart.dim)
        ]

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

    def frozen_fiber(self, x):
        """Exact Hamiltonian fiber at ``x``: the anchor is frozen to a
        rational matrix with exact coisotropy, so the Lagrangian and
        support conditions hold on the nose, not within a tolerance."""
        if self.courant.exact_anchor is None:
            raise ValueError("bundle has no exact anchor to freeze")
        pair = self.courant.pair
        rho_q = self.courant.exact_anchor(np.asarray(x, float))
        return canonical_fiber(pair, rho_q, rat.mat_mul(pair.d.form.gram_inv, rat.transpose(rho_q)))

    def generator_residuals(self, x):
        """Distances from the brackets of the fiber generators, the rows of
        ``fiber_rows``, to the fiber span, worst per family over the point
        ``x`` ``(n,)`` or the stack of points ``(P, n)``.  Two rows bracket
        by the twisted bracket, with the bundle's step, on their ``T + T*``
        legs and the bundle's bracket on their ``E`` legs, each pair once
        over the whole stack; their indices name the family: ``half_half``,
        ``half_covector`` or ``covector_covector``."""
        c = self.courant
        pts = np.asarray(x, dtype=float)
        stack = pts.reshape(-1, pts.shape[-1])
        # every pair reads the twist, and a single bracket only at its own point
        twist = per_point(self.phi)

        def bracket(g1, g2):
            (t1, e1), (t2, e2) = g1, g2
            legs = [twisted_bracket(t1, t2, pts, twist, c.step), c.bracket_at(e1, e2, pts)]
            return np.concatenate(legs, axis=-1).reshape(len(stack), -1)

        half, families = len(self.half_rows), ("half_half", "half_covector", "covector_covector")
        frames, out = [self._frame(y) for y in stack], dict.fromkeys(families, 0.0)
        return _closure(
            self._generators, bracket, frames, out, lambda i, j: families[(i >= half) + (j >= half)]
        )


def canonical_fiber(pair, rho, rho_star):
    """The canonical Hamiltonian fiber K = {((rho(a), -beta), a + rho*
    beta)} of an exact rational anchor ``rho`` with its adjoint ``rho_star``
    (G^{-1} rho^T, as ``ExactIdentification`` carries it), identity moment
    map; ``HamiltonianFiber`` checks it is Lagrangian and supported."""
    n, a = len(rho), pair.g.basis
    rows = rat.vstack(
        rat.hstack(rat.mat_mul(a, rat.transpose(rho)), rat.zeros(len(a), n), a),
        rat.hstack(rat.zeros(n, n), rat.mat_neg(rat.identity(n)), rat.transpose(rho_star)),
    )
    k_space = canonicalize(rows, 2 * n + pair.d.dim)
    return HamiltonianFiber(t_dim=n, pair=pair, K=k_space, dJ=rat.identity(n), rho=rho)


def canonical_hamiltonian(c):
    """Canonical moment geometry over the whole base (identity map)."""
    s, phi = make_exact_splitting(c)
    return CanonicalSpace(courant=c, s=s, phi=phi)


def check_strong_dirac(
    l_x,
    points,
    phi=None,
    h=DEFAULT_STEP,
    tol=DEFAULT_TOL,
    exact_fibers=None,
):
    """Strong-map report for a Dirac field on the chart of ``points``, worst
    over the points.

    ``exact_fibers`` maps a point to ``(l_x, l_s, dj)``: the frozen source
    and target fibers as exact ``Subspace``s, which the supplier has
    validated (``l_x`` Lagrangian), and the map's differential as a
    rational matrix.  From them ``inclusion`` (the target fiber lies in the
    forward image of the source fiber) and ``transversality`` (``dj`` is
    injective on the source fiber's tangent part) are exact 0/1 quantities.
    ``phi``, a twist on the source chart, adds the finite-difference
    ``integrability`` defect of ``l_x``, a smooth float row-basis supplier
    over that chart; a caller whose map is not the identity pulls its
    target twist back along the map first.  A check given neither measures
    nothing, so it raises ValueError, and so does one without points.
    """
    if exact_fibers is None and phi is None:
        raise ValueError("strong-map check needs exact fibers or a twist to measure")
    if not len(points):
        raise ValueError("strong-map check needs at least one point")
    q = np.shape(points[0])[0]
    res = {}
    if exact_fibers is not None:
        res.update(inclusion=0.0, transversality=0)
        tangents = Subspace.full(q).embed(range(q), 2 * q)
        for x in points:
            fiber, target, dj_q = exact_fibers(np.asarray(x, dtype=float))
            dj = rat.matrix(dj_q)
            included = forward_dirac(fiber, dj).contains(target)
            tangent = fiber.intersection(tangents).project(range(q))
            transversal = rat.rank(rat.mat_mul(tangent.basis, rat.transpose(dj))) == tangent.dim
            res["inclusion"] = worse(res["inclusion"], 0.0 if included else 1.0)
            res["transversality"] = worse(res["transversality"], 0 if transversal else 1)
    if phi is not None:
        # the rows' sections are built once, so their jets serve every pair
        frame, twist = per_point(l_x), per_point(_phi_as_field(phi, q))
        stack = np.array(points, dtype=float)
        frames = [frame(x) for x in stack]
        rows = [SectionField(len(r), lambda y, i=i: frame(y)[i]) for i, r in enumerate(frames[0])]

        def bracket(e1, e2):
            return twisted_bracket(e1, e2, stack, twist, h)

        res["integrability"] = 0.0
        _closure(rows, bracket, frames, res, lambda i, j: "integrability")
    return Report(res, tol=tol, exact={"inclusion", "transversality"} & res.keys())


def make_quasi_pi_field(c, j_cols):
    """Bivector and action fields induced by a constant isotropic
    complement ``j`` of the bundle's half subalgebra.

    Returns ``(pi, rho_x)``: ``pi(x)[i][j]`` is the bivector on coordinate
    covectors and ``rho_x(x)`` the action of the half algebra.  The bivector
    comes out antisymmetric exactly as the anchor's coisotropy defect
    vanishes.  The sharp identity has no float version here: it is decided
    on the frozen fibers of ``make_exact_quasi_pi``.
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

    return pi, rho_x


def make_exact_quasi_pi(c, j_cols):
    """Exact-fiber supplier matching make_quasi_pi_field: freeze the anchor
    once per point and push the same constant complement through exact
    arithmetic into rational ``pi``, ``rho_x`` and ``rho_astar``."""
    if c.exact_anchor is None:
        raise ValueError("bundle has no exact anchor to freeze")
    form = c.pair.d.form
    a_cols = rat.transpose(list(c.pair.g.basis))
    j_q = rat.matrix(j_cols)
    proj = rat.mat_mul(a_cols, rat.mat_mul(rat.transpose(j_q), form.gram))

    def fibers(x):
        rho = c.exact_anchor(np.asarray(x, float))
        pit = rat.mat_mul(rho, rat.mat_mul(proj, rat.mat_mul(form.gram_inv, rat.transpose(rho))))
        pi = rat.mat_neg(pit)
        return {
            "pi": pi,
            "rho_x": rat.mat_mul(rho, a_cols),
            "rho_astar": rat.mat_mul(rho, j_q),
        }

    return fibers


def check_quasi_poisson(
    pi,
    rho_x,
    chi,
    cobracket,
    points,
    exact_fibers=None,
    funcs=None,
    h=DEFAULT_STEP,
    tol=1e-4,
):
    """Worst residuals of the three bivector compatibility identities:
    ``jacobiator``, ``lie_compat`` and ``sharp_compat``.

    The Jacobiator identity compares the cyclic nested bracket sum with
    the anchored trivector term (scaled by the frozen module sign); the
    derivative identity compares Lie derivatives of the bivector along
    anchored constant sections with the pushed cobracket,
    L_{rho(a_i)} pi = -rho_x F[i] rho_x^T, where F[i][k][l] =
    <[j_k, j_l], a_i> as ``splitting.derive_quasi_data`` builds it.  The
    sign follows from the anchor being a bracket homomorphism (see
    ``rotation_double_anchor``): pi is -rho(sum_k a_k (x) j_k), and ad_{a_i}
    maps that tensor to sum_{k,l} F[i][k][l] a_k (x) a_l.  The sharp-map
    identity ``pi^T = rho_x rho_astar^T`` is algebraic: it runs only on the
    frozen rational fibers ``exact_fibers`` (the dicts of
    ``make_exact_quasi_pi``), so ``sharp_compat`` is an exact quantity.
    ``chi`` and ``cobracket`` use the exact splitting module's component
    conventions (nested tuples, possibly empty for the ordinary Poisson
    case).  An identity that is not
    measured is absent from the report: ``lie_compat`` with an empty
    cobracket, ``sharp_compat`` without ``exact_fibers``.  The chart
    dimension is that of the points, and at least one point is needed.
    """
    if not len(points):
        raise ValueError("quasi-Poisson check needs at least one point")
    dim = np.shape(points[0])[0]
    funcs = funcs if funcs is not None else scalar_library(dim)
    chi_f = np.array(chi, dtype=float)
    cob_f = np.array(cobracket, dtype=float)

    res = {"jacobiator": 0.0}
    if cob_f.size:
        res["lie_compat"] = 0.0
    if exact_fibers is not None:
        res["sharp_compat"] = 0.0

    # the fields and each function's gradient once per point: every inner
    # bracket and partial table reads them at the same stencil points
    pi, rho_x = per_point(pi), per_point(rho_x)
    grad = [per_point(lambda y, f=f: partial_table(f, y, dim, h)) for f in funcs]
    for x in points:
        x = np.asarray(x, dtype=float)
        px = np.asarray(pi(x), float)
        rx = np.asarray(rho_x(x), float)
        grads = [d(x) for d in grad]
        # gradient of each inner bracket {f_b, f_c}, taken once per point
        inner = {}
        for i, j, k in combinations(range(len(funcs)), 3):
            total = 0.0
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                if (b, c) not in inner:
                    def bracket(y, b=b, c=c):
                        # the scalar field {f_b, f_c} = df_c(pi^T df_b)
                        return float(grad[c](y) @ np.asarray(pi(y), float).T @ grad[b](y))

                    inner[b, c] = partial_table(bracket, x, dim, h)
                total += float(inner[b, c] @ px.T @ grads[a])
            rhs = 0.0
            if chi_f.size:
                vf, vg, vk = (rx.T @ grads[m] for m in (i, j, k))
                rhs = JACOBIATOR_SIGN * float(np.einsum("ijk,i,j,k->", chi_f, vf, vg, vk))
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
                want = -(rx @ fa @ rx.T)
                res["lie_compat"] = worse(res["lie_compat"], float(np.max(np.abs(lie - want))))

        if exact_fibers is not None:
            fb = exact_fibers(x)
            lhs = rat.transpose(fb["pi"])
            rhs_m = rat.mat_mul(fb["rho_x"], rat.transpose(fb["rho_astar"]))
            diff = (abs(v) for row in rat.mat_sub(lhs, rhs_m) for v in row)
            res["sharp_compat"] = reduce(worse, diff, res["sharp_compat"])

    exact = () if exact_fibers is None else ("sharp_compat",)
    return Report(res, tol=tol, exact=exact)
