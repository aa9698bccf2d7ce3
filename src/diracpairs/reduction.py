"""Admissible observables and level-set reduction over pointwise fibers.

A scalar function is admissible at a point when the fiber there contains
an element pairing its differential with a flow direction and nothing
from the algebra leg.  Matching directions across points gives a bracket
on the admissible functions; restricting everything to the zero locus of
constraint functions inherits it.  All checks are sample based: callers
hand in a fiber supplier and probe points, with the finite-difference step
``h`` and the gate ``tol``, and read residuals back.  Neither has a
default: ``verify.DEFAULTS`` is the only place defaults live.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .numeric_manifold import _at_points, partial_table, vector_commutator
from .report import Report, worse


@dataclass(frozen=True, eq=False)
class ObservableFunction:
    """Scalar chart function with an optional hand-supplied gradient.

    Evaluation must be deterministic; the finite-difference gradient is
    the fallback when no analytic one is given.
    """

    fn: Callable
    grad: Optional[Callable] = None

    def value(self, x):
        return float(self.fn(np.asarray(x, dtype=float)))

    def gradient(self, x, h):
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        return partial_table(partial(_at_points, self.fn), x, h)


def observable(f, grad=None):
    """Coerce a plain callable to an observable, passing one through."""
    if isinstance(f, ObservableFunction):
        return f
    return ObservableFunction(fn=f, grad=grad)


@dataclass(frozen=True, eq=False)
class PointFiber:
    """Float row basis of one fiber, read as tangent/covector/algebra
    column blocks, plus the optional base differential whose kernel the
    matched flows must respect."""

    t_dim: int
    e_dim: int
    rows: np.ndarray
    dj: Optional[np.ndarray] = None

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.shape[1] != 2 * self.t_dim + self.e_dim:
            raise ValueError("fiber rows do not match the declared block widths")
        object.__setattr__(self, "rows", rows)


def bivector_fibers(pi_field, dim):
    """Graph fibers of a bivector field: each coordinate covector is
    paired with its interior product, so every function is admissible."""

    def fiber_at(x):
        p = np.asarray(pi_field(np.asarray(x, dtype=float)), dtype=float)
        return PointFiber(dim, 0, np.hstack([p, np.eye(dim)]))

    return fiber_at


@dataclass(frozen=True, eq=False)
class FlowSample:
    """Outcome of matching a differential against one fiber: ``vector`` is
    None where the differential is not admissible."""

    vector: Optional[np.ndarray]
    conservation: float


def _reject_ambiguous(a, u_map):
    # a kernel coefficient with a nonzero tangent image means the fiber
    # pairs the zero differential with a flow, so no match is unique
    _, sv, vt = np.linalg.svd(a)
    for i in range(vt.shape[0]):
        if i >= len(sv) or sv[i] < 1e-8:
            if np.linalg.norm(u_map @ vt[i]) > 1e-8:
                raise ValueError(
                    "fiber matches the zero differential with a nonzero direction"
                )


def hamiltonian_vector(f, fiber_at, points, h, tol):
    """Flow directions matched to ``f`` by the fibers.

    At each point the fiber rows are combined so the covector block hits
    the differential of ``f`` and the algebra block vanishes; the tangent
    block of that combination is the flow direction.  No combination
    within ``tol`` means ``f`` is not admissible there and the sample
    carries ``None``.  Fibers able to match the zero differential with a
    nonzero direction are rejected outright.
    """
    f = observable(f)
    out = []
    for x in points:
        x = np.asarray(x, dtype=float)
        fb = fiber_at(x)
        t = fb.t_dim
        m = fb.rows
        a = m[:, t:].T
        u_map = m[:, :t].T
        _reject_ambiguous(a, u_map)
        rhs = np.concatenate([f.gradient(x, h), np.zeros(fb.e_dim)])
        coef = np.linalg.lstsq(a, rhs, rcond=None)[0]
        res = float(np.linalg.norm(a @ coef - rhs))
        if res >= tol:
            out.append(FlowSample(None, 0.0))
            continue
        u = u_map @ coef
        cons = 0.0
        if fb.dj is not None:
            du = np.asarray(fb.dj, dtype=float) @ u
            cons = float(np.max(np.abs(du))) if du.size else 0.0
        out.append(FlowSample(u, cons))
    return out


def poisson_bracket(f, g, fiber_at, h, tol):
    """Derivative of ``g`` along the flow matched to ``f``.

    The result is again an observable; evaluating it somewhere the
    fibers reject ``f`` raises ValueError.
    """
    f = observable(f)
    return _bracket_along(lambda y: hamiltonian_vector(f, fiber_at, [y], h=h, tol=tol)[0], g, h)


def _bracket_along(flow, g, h):
    """Derivative of ``g`` along ``flow(y)``, the `FlowSample` matched to
    some observable at ``y``, as an observable."""
    g = observable(g)

    def value(y):
        y = np.asarray(y, dtype=float)
        sample = flow(y)
        if sample.vector is None:
            raise ValueError("observable is not admissible where the bracket is evaluated")
        return float(g.gradient(y, h) @ sample.vector)

    return ObservableFunction(fn=value)


def check_bracket_laws(f, g, fiber_at, points, h, tol):
    """Worst ``skew`` symmetry defect, ``flow_match`` of a bracket's flow
    against the commutator of flows, and ``conservation`` of the base
    differential along the flows.

    Outer differentiation widens the step to sqrt(h): inner values carry
    an error of order h^2 already, and dividing by a same-order step
    would drown it.  Each flow of ``f`` or ``g`` at a point is solved once:
    the skew values, the commutator of flows, the finite-difference
    gradient of the bracket ``fg`` and ``conservation`` all read one memo
    of the solves.
    """
    f = observable(f)
    g = observable(g)
    h2 = float(np.sqrt(h))
    solved = {}

    def solve(obs, y):
        key = (id(obs), y.tobytes())
        if key not in solved:
            solved[key] = hamiltonian_vector(obs, fiber_at, [y], h=h, tol=tol)[0]
        return solved[key]

    def flow_field(obs):
        def at(y):
            s = solve(obs, y)
            if s.vector is None:
                raise ValueError("bracket laws need admissible inputs")
            return s.vector

        return partial(_at_points, at)

    fg = _bracket_along(partial(solve, f), g, h)
    gf = _bracket_along(partial(solve, g), f, h)
    res = {"skew": 0.0, "flow_match": 0.0, "conservation": 0.0}
    for x in points:
        x = np.asarray(x, dtype=float)
        res["skew"] = worse(res["skew"], abs(fg.value(x) + gf.value(x)))
        lie = vector_commutator(flow_field(f), flow_field(g), x, h2)
        s_fg = hamiltonian_vector(fg, fiber_at, [x], h=h2, tol=max(tol, 1e-3))[0]
        if s_fg.vector is None:
            raise ValueError("bracket of the inputs stopped being admissible")
        match = float(np.max(np.abs(s_fg.vector - lie)))
        res["flow_match"] = worse(res["flow_match"], match)
        for obs in (f, g):
            res["conservation"] = worse(res["conservation"], solve(obs, x).conservation)
    return Report(res, tol=tol)


def jacobi_residual(f, g, k, fiber_at, points, h, tol):
    """Cyclic sum of nested brackets, nesting with the widened step."""
    h2 = float(np.sqrt(h))
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for a, b, c in ((f, g, k), (g, k, f), (k, f, g)):
            inner = poisson_bracket(b, c, fiber_at, h=h, tol=tol)
            outer = poisson_bracket(a, inner, fiber_at, h=h2, tol=max(tol, 1e-3))
            total += outer.value(x)
        worst = worse(worst, abs(total))
    return worst


@dataclass(frozen=True, eq=False)
class OrbitDescription:
    """Zero locus of constraint functions with probe points on it.

    Construction validates that the samples sit on the locus (within
    1e-6) and that the constraint gradients, taken with the step ``STEP``,
    keep full rank there, so downstream consumers can treat the data as
    transversality-certified.
    """

    STEP = 1e-4

    constraints: tuple
    samples: tuple

    def __post_init__(self):
        cons = tuple(observable(c) for c in self.constraints)
        object.__setattr__(self, "constraints", cons)
        pts = tuple(np.asarray(p, dtype=float) for p in self.samples)
        if not pts:
            raise ValueError("orbit needs at least one sample point")
        object.__setattr__(self, "samples", pts)
        for x in pts:
            for c in cons:
                if abs(c.value(x)) > 1e-6:
                    raise ValueError("sample is off the constraint locus")
            self._require_transversal(x)

    def _require_transversal(self, x):
        if not self.constraints:
            return
        grads = np.stack([c.gradient(x, self.STEP) for c in self.constraints])
        sv = np.linalg.svd(grads, compute_uv=False)
        if len(sv) < len(self.constraints) or sv[-1] <= 1e-8 * max(sv[0], 1.0):
            raise ValueError("constraint gradients drop rank at a sample")

    @classmethod
    def from_projection(cls, constraints, seeds):
        """Build the locus samples by damped least-squares projection of
        seed points onto the constraint zero set (60 half steps at most)."""
        cons = tuple(observable(c) for c in constraints)
        pts = []
        for x in seeds:
            x = np.array(x, dtype=float)
            for _ in range(60):
                vals = np.array([c.value(x) for c in cons])
                if vals.size == 0 or np.max(np.abs(vals)) < 1e-12:
                    break
                jac = np.stack([c.gradient(x, cls.STEP) for c in cons])
                step = np.linalg.lstsq(jac, vals, rcond=None)[0]
                x = x - 0.5 * step
            pts.append(x)
        return cls(cons, tuple(pts))


def reduce_to_orbit(orbit, f, g, fiber_at, action_field=None, *, h, tol):
    """Bracket of two observables along the constraint locus.

    The inputs act as their own ambient extensions.  Independence of
    that choice is probed by replacing ``f`` with an extension differing
    by a constraint multiple (scaled by ``1 + sum(x) / 4``, smooth and
    nowhere special); the restricted bracket must not move.  The probe
    presumes the constraints are themselves constant along the action,
    which is what the tangency residual reports when an action frame is
    supplied.  With no constraints the locus is everything and the
    report collapses to the plain bracket.  The report gates the
    ``extension`` and ``tangency`` residuals and carries the restricted
    bracket at each sample as ``data["values"]``.
    """
    f = observable(f)
    g = observable(g)
    for x in orbit.samples:
        orbit._require_transversal(x)
    fg = poisson_bracket(f, g, fiber_at, h=h, tol=tol)
    values = tuple(fg.value(x) for x in orbit.samples)

    ext_res = 0.0
    if orbit.constraints:
        c0 = orbit.constraints[0]

        def shifted(y):
            y = np.asarray(y, dtype=float)
            return f.value(y) + c0.value(y) * (1.0 + 0.25 * float(np.sum(y)))

        fg_ext = poisson_bracket(
            ObservableFunction(fn=shifted), g, fiber_at, h=h, tol=tol
        )
        for x, base in zip(orbit.samples, values):
            ext_res = worse(ext_res, abs(fg_ext.value(x) - base))

    tang = 0.0
    if action_field is not None:
        for x in orbit.samples:
            cols = np.asarray(action_field(x), dtype=float)
            if cols.size == 0:
                continue
            for c in orbit.constraints:
                tang = worse(tang, float(np.max(np.abs(c.gradient(x, h) @ cols))))

    return Report(
        {"extension": ext_res, "tangency": tang}, tol=tol, data={"values": values}
    )
