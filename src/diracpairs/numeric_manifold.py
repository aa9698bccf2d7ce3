"""Floating-point tier: trivialized ambient bracket bundles over sampled
charts, probed by central finite differences.

Everything here is a field version of the exact point constructions: the
twisted tangent-plus-cotangent bundle, the dressing bundle of a quadratic
double over its group chart, pointwise isotropic splittings with their
induced three-form, half-subalgebra Dirac fields, the canonical moment
geometries, and the bivector compatibility checks.  Residual reports are
the product.  The algebraic strong-map quantities are decided exactly, on
fibers frozen to rational matrices at each point.  The bivector's sharp
identity is algebraic too: it takes no derivative, so it is read in floats
on the fields the check already evaluates, at no step and with no
truncation error, only roundoff.

Every field here takes a point ``(n,)`` or a stack of points ``(..., n)``,
each stacked value the single-point one bit for bit: sections
(``SectionField.fn``), anchors, twists, splittings, Dirac frames, the
bivector and its action.  The rotation double's anchor is stacked too, down
to ``so3``'s exponential chart, and so is its exact anchor, which a freeze
calls once on all its points.  An anchor, frame, splitting or twist that
several sections or pairs read is shared by the stack (``_shared``), so it
is computed once per stack; the rotation double's anchor, read at a check's
points and at their stencils, is shared by the point as well
(``_shared_by_point``), so it is computed once per point.

Every derivative here, and in ``reduction``, is a central difference
``(f(x + h e_m) - f(x - h e_m)) / 2h`` along the coordinate axes, taken by
``_central_differences`` on the stencil rows of ``_stencil_steps``, from one
call of the field on the stencils of a point or a stack (``partial_table``;
``reduction`` wraps its one-point callables in ``_at_points``).  The
brackets read each section through its jet, ``SectionField.jet(x, h)``: its
value and partial table from one call on the stencil stack, memoized per
section by the stack and the step.  A constant section's jet is exact and
never evaluates the section.  The jet is the seam where exact jets replace
finite differences.  Each bundle has one bracket kernel,
``CourantNumeric.bracket_at``, at a point or over a stack; the checks run
every probe and every pair of frame rows over all their points at once.

The step ``h`` and the gate ``tol`` have no defaults here or in
``reduction``: callers pass them, so a check runs at the step and tolerance
the user chose.  ``verify.DEFAULTS`` is the only place defaults live.

Conventions shared with the exact tier: sections are component vectors in a
fixed trivialization, the pairing gram is constant, covectors act by rows,
``i_alpha(u ^ v) = alpha(u) v - alpha(v) u``, and a three-form is stored as
the full component array ``T[i][j][k] = phi(e_i, e_j, e_k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, permutations

import numpy as np

from . import rational as rat
from . import so3
from .dictionary import forward_dirac
from .exact_linear import Subspace, canonicalize
from .morphism import HamiltonianFiber
from .quadratic_lie import ManinPairPoint, catalog, first_unclosed_pair
from .report import Report, worse

# Stacks one memo holds, for a jet or a shared field, and points the memo by
# the point (_shared_by_point) keeps.  A check reads a few stacks of each
# field, its points and their stencil stack, far under the bound, which only
# keeps a long-lived field's memo from growing.
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
    """A rank-``rank`` section of a trivialized bundle, as a pure field
    ``fn`` of stacks: a point ``(n,)`` to its component vector ``(rank,)``,
    and a stack of points ``(..., n)`` to the stack of its vectors ``(...,
    rank)``, each the single-point one bit for bit.

    ``jet(x, h)`` is the seam every bracket reads: the section's value and
    partial table with step ``h`` at a point ``(n,)``, shapes ``(rank,)``
    and ``(rank, n)``, or at every point of a stack ``(P, n)``, shapes
    ``(P, rank)`` and ``(P, rank, n)``.  Both are read-only and taken from
    one call of the section on the stack of the points and their stencils
    ``(P, 2n + 1, n)``.  Each section memoizes its jets by the bytes and
    shape of the stack and by the step, in a memo of at most
    ``_PER_POINT_MEMO`` stacks; a ``ConstantSection``'s jet is exact."""

    rank: int
    fn: object

    @cached_property
    def jet(self):
        read = lambda x, h: _jet(self(_stencil_points(x, h)), x.ndim - 1, h)
        return _array_memo(lambda x, h: tuple(map(_read_only, read(x, h))))

    def __call__(self, x):
        """The value at a point ``(n,)``, or at every point of a stack
        ``(..., n)``."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(self.fn(x), dtype=float)
        if v.shape != x.shape[:-1] + (self.rank,):
            raise ValueError("section value has wrong rank")
        return v

    @staticmethod
    def constant(vec):
        """The section with value ``vec`` everywhere; a stack of values
        ``(P, rank)`` gives each point of a ``P``-stack its own constant
        section."""
        v = _read_only(vec)
        if not np.all(np.isfinite(v)):
            raise ValueError("constant section is not finite")
        return ConstantSection(v.shape[-1], lambda x: np.broadcast_to(v, x.shape[:-1] + v.shape[-1:]), v)

    def scaled_by(self, f):
        """Multiply by a scalar field ``f`` of stacks."""
        return SectionField(self.rank, lambda x, s=self: np.asarray(f(x), dtype=float)[..., None] * s(x))


@dataclass(frozen=True)
class ConstantSection(SectionField):
    """A section with one finite value everywhere, or one per point of a
    stack.  Its jet is exact and never calls ``fn``: the value and a zero
    partial table, which is what central differences give bit for bit,
    since ``(v - v) / 2h`` is ``+0.0``."""

    value: np.ndarray = field(compare=False)

    def jet(self, x, h):
        lead = np.shape(x)[:-1]
        value = np.broadcast_to(self.value, lead + (self.rank,))
        return _read_only(value), _read_only(np.zeros(lead + (self.rank, np.shape(x)[-1])))


def _read_only(value):
    """A float copy of ``value`` that refuses in-place writes, so one array
    can be handed to every caller."""
    v = np.array(value, dtype=float)
    v.flags.writeable = False
    return v


def _array_memo(fn):
    """``fn(x, *args)`` in a bounded memo keyed by the bytes and shape of
    ``x`` as a float array, a point or a stack of points, and by the
    hashable ``args``; each wrapper has its own."""

    @lru_cache(maxsize=_PER_POINT_MEMO)
    def at(key, shape, *args):
        return fn(np.frombuffer(key).reshape(shape), *args)

    def memoized(x, *args):
        x = np.asarray(x, dtype=float)
        return at(x.tobytes(), x.shape, *args)

    return memoized


def _shared(field):
    """A pure field of stacks, memoized by the stack, so a frame, splitting
    or twist that several sections or pairs read is computed once per
    stack.  The value is a read-only float copy of ``field(x)``; each
    wrapper has its own bounded memo."""
    return _array_memo(lambda x: _read_only(field(x)))


def _shared_by_point(field):
    """``_shared`` in front of a memo by the point: a stack the stack memo
    has not seen calls ``field`` once, on just the points that no earlier
    stack held, so a field read at a check's points and then at their
    stencils is computed once per point.  The point memo keeps the latest
    ``_PER_POINT_MEMO`` points; a later stack's points older than that are
    computed again.  ``field`` must give each point of a stack its
    single-point value bit for bit."""
    known = {}

    def at_points(x):
        keys = [p.tobytes() for p in x.reshape(-1, x.shape[-1])]
        new = [k for k in dict.fromkeys(keys) if k not in known]
        if new:
            known.update(zip(new, field(np.frombuffer(b"".join(new)).reshape(len(new), -1))))
        values = np.array([known[k] for k in keys])
        for k in list(known)[: max(0, len(known) - _PER_POINT_MEMO)]:
            del known[k]
        return values.reshape(x.shape[:-1] + values.shape[1:])

    return _shared(at_points)


def _at_points(fn, x):
    """``fn`` of one point at ``x`` ``(n,)``, or stacked over the points of
    ``x`` ``(..., n)``, one call per point."""
    if x.ndim == 1:
        return np.asarray(fn(x), dtype=float)
    if x.ndim > 2:
        values = _at_points(fn, x.reshape(-1, x.shape[-1]))
        return values.reshape(x.shape[:-1] + values.shape[1:])
    return np.array([fn(y) for y in x], dtype=float)


def _stencil_points(x, h):
    """Each point of ``x`` ``(..., n)``, then ``x + h e_0, x - h e_0, ...``."""
    rows = x[..., None, :]
    return np.concatenate([rows, rows + _stencil_steps(x.shape[-1], h)], axis=-2)


def _jet(values, lead, h):
    """Value and partial table from ``values`` on ``_stencil_points`` of a
    stack with ``lead`` point axes."""
    values = np.moveaxis(values, lead, 0)
    return values[0], _central_differences(values[1:], h)


def _mv(a, v):
    """``a @ v`` over any leading point axes; each stacked product is the
    single-point one bit for bit (``einsum("pij,pj->pi")`` is not)."""
    return np.matmul(a, v[..., None])[..., 0]


def _dot(u, w):
    """``u @ w`` of vectors over any leading point axes; each stacked
    product is the single-point one bit for bit, as for ``_mv``
    (``einsum`` and ``norm(axis=-1)`` are not)."""
    return np.matmul(u[..., None, :], w[..., :, None])[..., 0, 0]


def _quad(u, g, w):
    """``u @ g @ w`` over any leading point axes, in that order."""
    return _dot(np.matmul(u[..., None, :], g)[..., 0, :], w)


def _tr(a):
    return a.swapaxes(-1, -2)


def directional_derivative(f, x, v, h):
    x = np.asarray(x, dtype=float)
    step = h * np.asarray(v, dtype=float)
    return (np.asarray(f(x + step), dtype=float) - np.asarray(f(x - step), dtype=float)) / (2.0 * h)


def partial_table(f, x, h):
    """Partials ``P[..., m] = d f[...] / d x_m`` by central differences at a
    point ``x`` ``(n,)`` or at every point of a stack ``(P, n)``; for a
    scalar ``f`` this is its gradient.  ``f`` maps a stack to one value per
    point: it is called once, on the stencils ``x + h e_0, x - h e_0, ...``."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(f(x[..., None, :] + _stencil_steps(x.shape[-1], h)), dtype=float)
    return _central_differences(np.moveaxis(values, x.ndim - 1, 0) if x.ndim > 1 else values, h)


def _central_differences(values, h):
    """The C-contiguous partial table ``(..., n)`` of ``values`` ``(2n,
    ...)`` taken on the stencil rows of ``_stencil_steps``."""
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


def vector_commutator(v1, v2, x, h):
    """The commutator ``[v1, v2]`` of fields of stacks, at a point or a stack."""
    x = np.asarray(x, dtype=float)
    return _mv(partial_table(v2, x, h), v1(x)) - _mv(partial_table(v1, x, h), v2(x))


def exterior_derivative(form, degree, x, h):
    """Full component array of d(form) on constant coordinate frames, at a
    point ``(n,)`` or at every point of a stack ``(P, n)``; ``form`` takes
    stacks, as ``partial_table``'s ``f``.  When degree + 1 exceeds the
    chart dimension the result is the full zero array and the form is
    never evaluated (every top-degree form is closed)."""
    x = np.asarray(x, dtype=float)
    if degree + 1 > x.shape[-1]:
        return np.zeros(x.shape[:-1] + x.shape[-1:] * (degree + 1))
    p = partial_table(form, x, h)
    return sum((-1.0) ** r * np.moveaxis(p, -1, x.ndim - 1 + r) for r in range(degree + 1))


@dataclass
class CourantNumeric:
    """An ambient bracket bundle in a fixed trivialization: constant gram,
    anchor matrix field, and a bracket evaluator on section fields.

    ``bracket_at(e1, e2, x)`` is the bundle's one bracket kernel.  ``x`` is
    a point ``(n,)``, giving the bracket's value ``(rank,)``, or a stack of
    points ``(P, n)``, giving the stack of values ``(P, rank)``; each stacked
    value must equal the single-point one.  ``bracket(e1, e2)`` is the
    bracket as a section over that kernel.

    ``pair`` is the Manin pair every fiber carries (the fiber algebra with
    its Lagrangian half), when the bundle has one.  ``exact_anchor(x)``
    freezes the anchor at a point ``(n,)`` to a rational matrix with
    exactly zero coisotropy defect, rounding through
    ``rational.rationalize_rows`` onto the grid of multiples of 2^-52, each
    rounded entry within 2^-53, and returns it as integer rows over one
    denominator, ``(rows, d)``.  At a stack of points ``(P, n)`` it returns
    the list of the ``P`` pairs, each the single-point one, from one pass
    of stacked float fields, so a freeze makes one call for all its
    points."""

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
        """The anchor at a point ``(n,)``, or at every point of a stack
        ``(..., n)``, from one call of the field ``anchor``."""
        x = np.asarray(x, dtype=float)
        m = np.asarray(self.anchor(x), dtype=float)
        if m.shape != x.shape[:-1] + (self.chart.dim, self.rank):
            raise ValueError("anchor matrix has wrong shape")
        return m

    def rho_star(self, x):
        """Matrix of the dual anchor (covectors into the bundle), at a point
        or stacked as ``anchor_matrix``."""
        return np.matmul(self.gram_inv, _tr(self.anchor_matrix(x)))

    def bracket(self, e1, e2):
        return SectionField(self.rank, lambda x: self.bracket_at(e1, e2, x))

    def anchor_vector_field(self, e):
        """The vector field ``rho(e)``, at a point or over a stack."""
        return lambda x: _mv(self.anchor_matrix(x), e(x))

    def anchor_coisotropy_residual(self, points):
        """Largest entry of rho ginv rho^T over the points; algebraic, so
        the budget is roundoff, not the FD step."""
        m = self.anchor_matrix(np.array(points))
        return float(np.max(np.abs(m @ self.gram_inv @ _tr(m))))


def _phi_as_field(phi, dim):
    """The twist as a field of a point ``(n,)`` or a stack of points
    ``(..., n)``: a constant three-form, or None for zero, repeats its one
    read-only array over the stack; a field of stacks is shared by the
    stack, so every bracket over one stack reads one evaluation."""
    if callable(phi):
        return _shared(phi)
    arr = _read_only(np.zeros((dim, dim, dim)) if phi is None else phi)
    if arr.shape != (dim, dim, dim):
        raise ValueError("three-form components have wrong shape")
    return lambda x: np.broadcast_to(arr, np.shape(x)[:-1] + arr.shape)


def twisted_bracket(e1, e2, x, phi_field, h):
    """Twisted bracket of tangent-plus-cotangent sections at a point ``x``
    ``(n,)`` or over a stack of points ``(P, n)``:

        [[X + a, Y + b]] = [X, Y] + L_X b - i_Y da + phi(X, Y, .)

    from each section's jet and the twist of the point or stack, a field
    as ``_phi_as_field`` makes it."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    e1x, p1 = e1.jet(x, h)
    e2x, p2 = e2.jet(x, h)
    v1, a1, v2, a2 = e1x[..., :n], e1x[..., n:], e2x[..., :n], e2x[..., n:]
    vec = _mv(p2[..., :n, :], v1) - _mv(p1[..., :n, :], v2)
    cov = _mv(p2[..., n:, :], v1) + _mv(_tr(p1[..., :n, :]), a2)
    cov -= _mv(_tr(_tr(p1[..., n:, :]) - p1[..., n:, :]), v2)
    t = phi_field(x)
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


def make_standard_twisted(chart, phi=None, *, h, check_closed=True):
    """Twisted bracket on tangent-plus-cotangent section pairs.

    ``phi`` is a three-form: a constant array, None for untwisted, or a
    field that takes stacks.  When ``check_closed`` the exterior derivative
    is probed at every sample point and a non-closed twist is rejected, and
    so is a twist that is not finite there (on a three-dimensional chart d
    phi is zero without phi being evaluated).  The negative-control tests
    construct the broken bundle on purpose, so the gate is optional.
    """
    n = chart.dim
    phi_field = _phi_as_field(phi, n)
    if check_closed:
        xs = np.array(chart.sample_points)
        if not float(np.max(np.abs(exterior_derivative(phi_field, 3, xs, h)))) <= 1e-6:
            raise ValueError("twist three-form is not closed at a sample point")
        if not np.all(np.isfinite(phi_field(xs))):
            raise ValueError("twist three-form is not finite at a sample point")

    gram = np.zeros((2 * n, 2 * n))
    gram[:n, n:] = np.eye(n)
    gram[n:, :n] = np.eye(n)
    anchor_mat = np.hstack([np.eye(n), np.zeros((n, n))])
    return CourantNumeric(
        chart=chart,
        rank=2 * n,
        gram=gram,
        anchor=lambda x: np.broadcast_to(anchor_mat, np.shape(x)[:-1] + anchor_mat.shape),
        bracket_at=lambda e1, e2, x: twisted_bracket(e1, e2, x, phi_field, h),
        step=h,
    )


def rotation_double_anchor(x):
    """Float anchor of the rotation double acting on its group chart by
    simultaneous left and inverse right translation (the conjugation
    action in exponential coordinates).  The generators of a left action
    anti-commute with the algebra bracket, so the anchor is their
    negative: that makes it a bracket homomorphism on the nose.

    At a point ``(3,)`` it is a ``(3, 6)`` matrix, and at a stack ``(...,
    3)`` the stack of them, each the single-point one bit for bit."""
    x = np.asarray(x, dtype=float)
    jinv = so3.left_jacobian_inv(x)
    r = so3.exp_rotation(x)
    return np.concatenate([-jinv, np.matmul(jinv, r)], axis=-1)


def rotation_double_integer_anchor(x):
    """Rational anchor near the float one whose coisotropy defect vanishes
    identically, as integer rows over one denominator, ``(rows, d)``, at a
    point ``(3,)``; at a stack of points ``(P, 3)``, the list of their ``P``
    pairs, each the single-point one.

    The rotation block is frozen through the Cayley chart, so orthogonality
    survives the rounding, and the Jacobian factor is a free left
    multiplier.  Both round their entries onto the grid of multiples of
    2^-52, each within 2^-53, straight into integers
    (``rational.rationalize_rows``).  The anchor is ``[-jq | jq rq]``, over
    the product of the two denominators.  A stack takes one stacked
    ``left_jacobian_inv``, one stacked ``exp_rotation`` and one stacked
    Cayley solve, each of whose values is the single-point one bit for
    bit."""
    x = np.asarray(x, dtype=float)
    pts = x.reshape(-1, 3)
    jacobians = map(rat.rationalize_rows, so3.left_jacobian_inv(pts).tolist())
    anchors = []
    for (jq, dj), (rq, dr) in zip(jacobians, so3.rationalize_rotation(so3.exp_rotation(pts))):
        rows = [[-v * dr for v in j] + jr for j, jr in zip(jq, rat.int_mat_mul(jq, rq))]
        anchors.append((rows, dj * dr))
    return anchors if x.ndim > 1 else anchors[0]


def rotation_double_exact_anchor(x):
    """`rotation_double_integer_anchor` as a Fraction matrix."""
    return rat.fractions(*rotation_double_integer_anchor(x))


def make_dressing_courant(chart, h):
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

    The bracket and ``anchor_matrix`` read one anchor, bound here and
    shared by the stack and by the point (``_shared_by_point``), in memos
    of the bundle's own: each new stack is one call of
    ``rotation_double_anchor`` on just its points the bundle has not met,
    so the gate and the checks compute the anchor once per point.
    Replacing ``rotation_double_anchor`` afterwards does not reach this
    bundle, and the anchor matrices it returns are read-only.

    The bundle's ``exact_anchor`` is ``rotation_double_integer_anchor`` as
    bound here, a field of stacks: a freeze calls it once on all its points.
    """
    if chart.dim != 3:
        raise ValueError("dressing chart action needs the six-dimensional rotation double")
    pair = catalog()["so3-double"]
    d = pair.d

    gram = np.array(d.form.gram, dtype=float)
    structure = np.array(d.structure, dtype=float)

    anchor = _shared_by_point(rotation_double_anchor)

    def bracket_at(e1, e2, x):
        x = np.asarray(x, dtype=float)
        rho = anchor(x)
        e1x, p1 = e1.jet(x, h)
        e2x, p2 = e2.jet(x, h)
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
        exact_anchor=rotation_double_integer_anchor,
        pair=pair,
        step=h,
    )

    xs = np.array(chart.sample_points[:3])
    e0, e1 = (SectionField.constant(np.eye(6)[i]) for i in range(2))
    if not cn.anchor_coisotropy_residual(xs) <= 1e-10:
        raise ValueError("anchor fails coisotropy on the gate points")
    lhs = _mv(cn.anchor_matrix(xs), bracket_at(e0, e1, xs))
    rhs = vector_commutator(cn.anchor_vector_field(e0), cn.anchor_vector_field(e1), xs, h)
    if not float(np.max(np.abs(lhs - rhs))) <= 1e-6:
        raise ValueError("anchor is not bracket-compatible on the gate points")
    return cn


def section_library(rank, dim):
    """The fixed probe family for axiom reports: every constant basis
    section, a few coordinate-linear ones, and one quadratic, each taking
    a point or a stack of points."""
    eye = np.eye(rank)
    lib = [SectionField.constant(eye[i]) for i in range(rank)]
    for k in range(min(rank, 3)):
        coord = k % dim
        lib.append(SectionField(rank, lambda x, k=k, c=coord: x[..., c, None] * eye[k]))
    lib.append(SectionField(rank, lambda x: 0.5 * _dot(x, x)[..., None] * eye[rank - 1]))
    return lib


def scalar_library(dim):
    """The fixed scalar probes: coordinates, a product and a sine, each a
    function of a point ``(n,)`` or of every point of a stack ``(..., n)``.
    The sine goes through ``math.sin`` point by point: numpy's sine need
    not round as it does."""
    funcs = [lambda x, i=i: x[..., i].copy() for i in range(min(dim, 3))]
    funcs.append(lambda x: x[..., 0] * x[..., min(1, dim - 1)])
    funcs.append(lambda x: np.fromiter(map(math.sin, x[..., 0].flat), float).reshape(x.shape[:-1]))
    return funcs


def _fold(res, key, readings):
    """Fold the largest of a stack of ``readings`` into ``res[key]``."""
    res[key] = worse(res[key], float(np.max(readings)))


def check_axioms_numeric(c, tol):
    """Worst residual of each of the five bracket axioms, and of anchor
    coisotropy, over the section library at the chart's sample points, by
    finite differences with the bundle's step, which ``data["step"]``
    records.

    Nested-bracket terms make the Jacobi axiom the expensive one, so it
    runs over a thin deterministic triple set; the single-bracket axioms
    sweep wider.

    Each library bracket section is built once, and every probe runs over
    all the sample points at once: the probe brackets in one
    ``bracket_at`` call each, the norm, anchored-field and scalar
    gradients from one evaluation of the points' stencil stack, and the
    metric axiom against the metric dual of its section at each point, a
    stack of constant sections.  Every stacked reading equals the
    point-by-point one bit for bit.
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

    g = c.gram
    xs = np.array(pts)
    ys = _stencil_points(xs, h)
    over = lambda pair: c.bracket_at(*pair, xs)
    anchor, rho_star = c.anchor_matrix(xs), c.rho_star(xs)
    for lhs, r1, r2 in jacobi:
        _fold(res, "c1_jacobi", np.abs(over(lhs) - (over(r1) + over(r2))))

    for e in pair_probes:
        v = e(ys)
        want = 0.5 * _mv(rho_star, _jet(_quad(v, g, v), 1, h)[1])
        _fold(res, "c2_selfpairing", np.abs(over((e, e)) - want))

    for e1, e2 in metric:
        b12 = over((e1, e2))
        v1, t1 = _jet(c.anchor_vector_field(e1)(ys), 1, h)
        v2, t2 = _jet(c.anchor_vector_field(e2)(ys), 1, h)
        # the metric dual of e2 at each point, so <e2, e3> varies wherever
        # e2 does and the metric axiom has a derivative to match
        e2x = e2(xs)
        w3 = _mv(g, e2x)
        scalar = lambda y, e2=e2, w3=w3: _quad(e2(y), g, w3)
        lhs = np.where(np.any(v1, axis=-1), directional_derivative(scalar, xs, v1, h), 0.0)
        rhs = _quad(b12, g, w3) + _quad(e2x, g, c.bracket_at(e1, SectionField.constant(w3), xs))
        _fold(res, "c3_metric", np.abs(lhs - rhs))
        _fold(res, "c4_anchor", np.abs(_mv(anchor, b12) - (_mv(t2, v1) - _mv(t1, v2))))

    for (e1, e2, f), s in zip(leibniz, scaled):
        fx, df = _jet(f(ys), 1, h)
        v = _mv(anchor, e1(xs))
        rhs5 = fx[..., None] * over((e1, e2)) + _dot(df, v)[..., None] * e2(xs)
        _fold(res, "c5_leibniz", np.abs(over((e1, s)) - rhs5))

    return Report(res, tol=tol, data={"step": h})


def lstsq_distance(rows, w):
    """Distance from ``w`` to the row span of ``rows``."""
    rows = np.asarray(rows, dtype=float)
    w = np.asarray(w, dtype=float)
    sol, *_ = np.linalg.lstsq(rows.T, w, rcond=None)
    return float(np.linalg.norm(rows.T @ sol - w))


def subspace_rows(space):
    """Float row matrix of an exact subspace basis."""
    return np.array(space.basis, dtype=float)


def make_exact_splitting(c):
    """Pointwise right inverse of the anchor with isotropic image, plus the
    three-form it induces.

    Returns ``(s, phi)``, two fields of stacks: ``s(x)`` is the rank-by-dim
    splitting matrix from the skew-correction algorithm run over floats,
    ``phi(x)`` the component array ``phi(v1,v2,v3) = <s v1, [[s v2, s
    v3]]>``, at a point ``(n,)`` or at every point of a stack ``(..., n)``,
    each stacked value the single-point one bit for bit.  Needs an exact
    bundle: rank twice the chart dimension and an onto anchor at every
    sample point.  ``s`` is shared by the stack, so the columns' jets and
    ``phi`` read one evaluation, and its matrices are read-only.
    """
    n = c.chart.dim
    if c.rank != 2 * n:
        raise ValueError("splitting needs rank equal to twice the chart dimension")
    sv = np.linalg.svd(c.anchor_matrix(np.array(c.chart.sample_points)), compute_uv=False)
    if np.min(sv[:, -1]) < 1e-8:
        raise ValueError("anchor is not onto at a sample point")

    @_shared
    def s(x):
        rho = c.anchor_matrix(x)
        cmat = np.matmul(_tr(rho), np.linalg.inv(np.matmul(rho, _tr(rho))))
        b = np.matmul(np.matmul(_tr(cmat), c.gram), cmat)
        return cmat - 0.5 * np.matmul(np.matmul(c.gram_inv, _tr(rho)), b)

    columns = [SectionField(c.rank, lambda y, j=j: s(y)[..., j]) for j in range(n)]

    def phi(x):
        x = np.asarray(x, dtype=float)
        sx = s(x)
        out = np.zeros(x.shape[:-1] + (n, n, n))
        for j, k in combinations(range(n), 2):
            b = c.bracket_at(columns[j], columns[k], x)
            for i in range(n):
                v = _quad(sx[..., i], c.gram, b)
                out[..., i, j, k] = v
                out[..., i, k, j] = -v
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
    as its frame, a field of stacks: ``x`` to the float rows ``(rho(a),
    s(x)^T g a)``, one per basis vector ``a`` of the half, at a point
    ``(n,)`` or at every point of a stack ``(..., n)``.

    ``half`` is the exact subspace of the fiber algebra; its closure under
    the algebra bracket is required, and checked exactly when the bundle
    carries its Manin pair."""
    rows = subspace_rows(half)
    if c.pair is not None and first_unclosed_pair(c.pair.d.bracket, half) is not None:
        raise ValueError("half is not closed under the algebra bracket")

    def basis_at(x):
        rho, sx = c.anchor_matrix(x), s(x)
        frame = [np.concatenate([_mv(rho, a), _mv(_tr(sx), c.gram @ a)], axis=-1) for a in rows]
        return np.stack(frame, axis=-2)

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
        frame = self._frame = _shared(self.fiber_rows)
        t, rank = 2 * self.courant.chart.dim, self.courant.rank
        self._generators = [
            (
                SectionField(t, lambda y, i=i: frame(y)[..., i, :t]),
                SectionField(rank, lambda y, i=i: frame(y)[..., i, t:]),
            )
            for i in range(len(self.half_rows) + self.courant.chart.dim)
        ]

    def fiber_rows(self, x):
        """The rows of the fiber at a point ``(n,)``, or at every point of
        a stack ``(..., n)``."""
        x = np.asarray(x, dtype=float)
        lead, n = x.shape[:-1], x.shape[-1]
        rho, rho_star = self.courant.anchor_matrix(x), self.courant.rho_star(x)
        zeros = np.zeros(lead + (n,))
        spread = lambda v: np.broadcast_to(v, lead + v.shape)
        rows = [np.concatenate([_mv(rho, a), zeros, spread(a)], axis=-1) for a in self.half_rows]
        for k, eps in enumerate(np.eye(n)):
            rows.append(np.concatenate([zeros, spread(-eps), rho_star[..., :, k]], axis=-1))
        return np.stack(rows, axis=-2)

    def frozen_fiber(self, x):
        """Exact Hamiltonian fiber at a point ``(n,)``; at a stack of points
        ``(P, n)``, an iterator over the fibers at its points in order.
        The anchor is frozen to a rational matrix with exact coisotropy, so
        the Lagrangian and support conditions hold on the nose, not within
        a tolerance.  A stack freezes the anchors of all its points in one
        call of the bundle's ``exact_anchor``, and the iterator builds, and
        so validates, each fiber when it reaches it."""
        if self.courant.exact_anchor is None:
            raise ValueError("bundle has no exact anchor to freeze")
        pair = self.courant.pair
        x = np.asarray(x, float)
        anchors = self.courant.exact_anchor(x.reshape(-1, x.shape[-1]))
        fibers = (canonical_fiber(pair, a, pair.d.form.adjoint(a)) for a in anchors)
        return fibers if x.ndim > 1 else next(fibers)

    def generator_residuals(self, x):
        """Distances from the brackets of the fiber generators, the rows of
        ``fiber_rows``, to the fiber span, worst per family over the point
        ``x`` ``(n,)`` or the stack of points ``(P, n)``.  Two rows bracket
        by the twisted bracket, with the bundle's step, on their ``T + T*``
        legs and the bundle's bracket on their ``E`` legs, each pair once
        over the whole stack; their indices name the family: ``half_half``,
        ``half_covector`` or ``covector_covector``."""
        c = self.courant
        pts = np.asarray(x, dtype=float).reshape(-1, np.shape(x)[-1])
        # every pair reads the twist over the stack once
        twist = _phi_as_field(self.phi, pts.shape[-1])

        def bracket(g1, g2):
            (t1, e1), (t2, e2) = g1, g2
            legs = [twisted_bracket(t1, t2, pts, twist, c.step), c.bracket_at(e1, e2, pts)]
            return np.concatenate(legs, axis=-1)

        half, families = len(self.half_rows), ("half_half", "half_covector", "covector_covector")
        # the frames at the points, from the stencil stack the generators' jets read
        frames, out = self._frame(_stencil_points(pts, c.step))[:, 0], dict.fromkeys(families, 0.0)
        return _closure(
            self._generators, bracket, frames, out, lambda i, j: families[(i >= half) + (j >= half)]
        )


def canonical_fiber(pair, anchor, adjoint):
    """The canonical Hamiltonian fiber K = {((rho(a), -beta), a + rho*
    beta)} of an exact rational anchor ``rho`` with its adjoint ``rho*``
    (G^{-1} rho^T, as ``ExactIdentification`` carries it), identity moment
    map; ``HamiltonianFiber`` checks it is Lagrangian and supported.  Both
    come as integer rows over one denominator, ``anchor = (R, d)`` and
    ``adjoint = (S, e)``, and K is spanned by their rows scaled to integers:
    [A R^T | 0 | d A] over [0 | -e I | S^T], A the half's integer rows.
    The fiber's legs [dJ | rho] are [d I | R] over d: no Fraction is built."""
    (r, d), (s, e) = anchor, adjoint
    n, a = len(r), pair.g.rows
    images = rat.int_mat_mul(a, rat.transpose(r))
    top = [ar + [0] * n + [d * v for v in row] for ar, row in zip(images, a)]
    bottom = [[0] * n + unit + list(col) for unit, col in zip(rat.unit_rows(n, -e), zip(*s))]
    k_space = canonicalize(top + bottom, 2 * n + pair.d.dim)
    legs = [unit + list(row) for unit, row in zip(rat.unit_rows(n, d), r)]
    return HamiltonianFiber(t_dim=n, pair=pair, K=k_space, legs=(legs, d))


def canonical_hamiltonian(c):
    """Canonical moment geometry over the whole base (identity map)."""
    s, phi = make_exact_splitting(c)
    return CanonicalSpace(courant=c, s=s, phi=phi)


def check_strong_dirac(l_x, points, phi=None, *, h, tol, exact_fibers=None):
    """Strong-map report for a Dirac field on the chart of ``points``, worst
    over the points.

    ``exact_fibers`` maps a point to ``(l_x, l_s, dj)``: the frozen source
    and target fibers as exact ``Subspace``s, which the supplier has
    validated (``l_x`` Lagrangian), and the map's differential as a
    matrix of ints and Fractions, which goes into the integer kernel as it
    is: an integer one, such as the strong section's identity, builds no
    Fraction.  From them ``inclusion`` (the target fiber lies in the
    forward image of the source fiber) and ``transversality`` (ker dj meets
    ker L, the intersection of the source fiber with the tangents, only in
    0) are exact 0/1 quantities.
    ``phi``, a twist on the source chart, adds the finite-difference
    ``integrability`` defect of ``l_x``, a smooth float row-basis field over
    that chart; a caller whose map is not the identity pulls its target
    twist back along the map first.  A check given neither measures
    nothing, so it raises ValueError, and so does one without points.

    ``l_x`` and a callable ``phi`` take stacks, as ``SectionField.fn`` does.
    Each is called once: the frame on the stencil stack that its rows' jets
    share, the twist on the stack of the points.
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
            fiber, target, dj = exact_fibers(np.asarray(x, dtype=float))
            included = forward_dirac(fiber, dj).contains(target)
            tangent = fiber.intersection(tangents).project(range(q))
            image = rat.int_mat_mul(tangent.rows, rat.transpose(rat.over_one_denominator(dj)[0]))
            transversal = len(rat.int_rref(image)[0]) == tangent.dim
            res["inclusion"] = worse(res["inclusion"], 0.0 if included else 1.0)
            res["transversality"] = worse(res["transversality"], 0 if transversal else 1)
    if phi is not None:
        # the rows' sections are built once, so their jets serve every pair
        frame, twist = _shared(l_x), _phi_as_field(phi, q)
        stack = np.array(points, dtype=float)
        frames = frame(_stencil_points(stack, h))[:, 0]
        rows = [SectionField(len(r), lambda y, i=i: frame(y)[..., i, :]) for i, r in enumerate(frames[0])]

        def bracket(e1, e2):
            return twisted_bracket(e1, e2, stack, twist, h)

        res["integrability"] = 0.0
        _closure(rows, bracket, frames, res, lambda i, j: "integrability")
    return Report(res, tol=tol, exact={"inclusion", "transversality"} & res.keys())


def make_quasi_pi_field(c, j_cols):
    """Bivector and action fields induced by a constant isotropic
    complement ``j`` of the bundle's half subalgebra.

    Returns ``(pi, rho_x, rho_astar)``, three fields of stacks:
    ``pi(x)[..., i, j]`` is the bivector on coordinate covectors,
    ``rho_x(x)`` the action of the half algebra and ``rho_astar(x)`` the
    anchor of the complement, ``rho j``, at a point ``(n,)`` or at every
    point of a stack ``(..., n)``, each stacked value the single-point one
    bit for bit.  The bivector comes out antisymmetric exactly as the
    anchor's coisotropy defect vanishes, and so does the sharp identity
    ``pi^T = rho_x rho_astar^T`` that ``check_quasi_poisson`` reads.
    """
    if c.pair is None:
        raise ValueError("bundle carries no Manin pair")
    a_cols = subspace_rows(c.pair.g).T
    j_f = np.array(j_cols, dtype=float)
    proj = a_cols @ (j_f.T @ c.gram)

    def pi(x):
        rho = c.anchor_matrix(x)
        return -np.matmul(np.matmul(np.matmul(rho, proj), c.gram_inv), _tr(rho))

    def rho_x(x):
        return np.matmul(c.anchor_matrix(x), a_cols)

    def rho_astar(x):
        return np.matmul(c.anchor_matrix(x), j_f)

    return pi, rho_x, rho_astar


def check_quasi_poisson(
    pi, rho_x, chi, cobracket, points, rho_astar=None, funcs=None, *, h, tol
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
    identity ``pi^T = rho_x rho_astar^T`` reads ``|pi^T - rho_x
    rho_astar^T|`` on the same float ``pi`` and ``rho_x`` at the points,
    with the complement's anchor ``rho_astar``.  It is algebraic: no
    derivative, so no step and no truncation error, and a clean field
    reads roundoff (1.6e-15 on the dressing chart).  On the fields of
    ``make_quasi_pi_field`` it is, up to roundoff, the float anchor's
    coisotropy: the split frame of any isotropic splitting gives
    A J^T + J A^T = G^-1, so pi^T - rho_x rho_astar^T = -rho G^-1 rho^T;
    a bivector that is not the one those fields build reads its defect.
    Like every float quantity, ``sharp_compat`` is gated at ``tol``.
    ``chi`` and ``cobracket`` use the exact splitting module's component
    conventions (nested tuples, possibly empty for the ordinary Poisson
    case).  An identity that is not measured is absent from the report:
    ``lie_compat`` with an empty cobracket, ``sharp_compat`` without
    ``rho_astar``.  The chart dimension is that of the points, and at
    least one point is needed.

    ``pi``, ``rho_x``, ``rho_astar`` and each probe of ``funcs``
    (``scalar_library`` by default) take stacks, as ``SectionField.fn``
    does.  ``pi``, ``rho_x`` and each probe's gradient are one call on the
    points' stencil stack ``ys`` ``(P, 2n + 1, n)``, ``rho_astar`` one call
    on the points.
    """
    if not len(points):
        raise ValueError("quasi-Poisson check needs at least one point")
    xs = np.array(points, dtype=float)
    n = xs.shape[-1]
    funcs = funcs if funcs is not None else scalar_library(n)
    chi_f = np.array(chi, dtype=float)
    cob_f = np.array(cobracket, dtype=float)

    res = {"jacobiator": 0.0}
    if cob_f.size:
        res["lie_compat"] = 0.0
    if rho_astar is not None:
        res["sharp_compat"] = 0.0

    ys = _stencil_points(xs, h)
    pis, rhos = np.asarray(pi(ys), dtype=float), np.asarray(rho_x(ys), dtype=float)
    px, rx = pis[:, 0], rhos[:, 0]
    grads = [partial_table(f, ys, h) for f in funcs]
    # the gradient of each inner bracket {f_b, f_c} = df_c(pi^T df_b)
    inner = {
        (b, c): _jet(_quad(grads[c], _tr(pis), grads[b]), 1, h)[1]
        for b, c in permutations(range(len(funcs)), 2)
    }
    for i, j, k in combinations(range(len(funcs)), 3):
        total = 0.0
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            total += _quad(inner[b, c], _tr(px), grads[a][:, 0])
        rhs = 0.0
        if chi_f.size:
            vf, vg, vk = (_mv(_tr(rx), grads[m][:, 0]) for m in (i, j, k))
            rhs = JACOBIATOR_SIGN * np.einsum("ijk,...i,...j,...k->...", chi_f, vf, vg, vk)
        _fold(res, "jacobiator", np.abs(total - rhs))

    if "lie_compat" in res:
        dpi = _jet(pis, 1, h)[1]
        for a in np.eye(cob_f.shape[0]):
            vx, vt = _jet(_mv(rhos, a), 1, h)
            lie = np.einsum("...klm,...m->...kl", dpi, vx)
            lie -= np.einsum("...ml,...km->...kl", px, vt)
            lie -= np.einsum("...km,...lm->...kl", px, vt)
            want = -(rx @ np.einsum("ikl,i->kl", cob_f, a) @ _tr(rx))
            _fold(res, "lie_compat", np.abs(lie - want))

    if rho_astar is not None:
        ras = np.asarray(rho_astar(xs), dtype=float)
        _fold(res, "sharp_compat", np.abs(_tr(px) - np.matmul(rx, _tr(ras))))

    return Report(res, tol=tol)
