"""Named end-to-end examples runnable from scenes and the command line.

Every entry is a callable ``fn(samples, seed, tol, step) -> Report``
whose quantities are the worst defects the run measured, gated by ``tol``.
A ValueError means the arguments were rejected (a construction gate such as
the dressing bundle's).  A failure of the geometry itself is a quantity:
an exact constructor that rejects a point's frozen fiber gives
``frozen_fiber`` 1, with the point and the constructor's message as
witness.  Entries draw their probe points from the given seed so reports
are reproducible.

Every entry, and every check below it, takes the step and the tolerance as
required arguments.  ``DEFAULTS`` is the only place defaults live: the
command line and the scene parser read it, and nothing below them has one.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import dictionary as dc
from . import numeric_manifold as nm
from . import rational as rat
from . import reduction as red
from . import so3
from . import splitting as sp_mod
from .exact_linear import canonicalize
from .quadratic_lie import catalog
from .report import Report, worse

# What an example runs with when the command line or the scene leaves a value out.
DEFAULTS = {"samples": 50, "seed": 0, "tol": 1e-6, "step": 1e-4}


def _flat_points(samples, seed, dim=3):
    """``samples`` points of the cube [-1, 1)^dim as row views of one
    array: ``so3.uniform_stream`` read row by row, which is numpy's
    ``default_rng(seed).uniform(-1, 1, (samples, dim))`` bit for bit (tier-1
    pins it) without the 7-10 ms import of ``numpy.random``."""
    stream = so3.uniform_stream(seed, -1.0, 1.0)
    return tuple(np.fromiter(stream, float, samples * dim).reshape(samples, dim))


def _dressing(samples, seed, step):
    pts = so3.sample_chart_points(samples, seed)
    cd = nm.make_dressing_courant(nm.Chart(3, tuple(pts)), h=step)
    return catalog()["so3-double"], pts, cd


def _freeze(points, fibers):
    """The frozen fibers of ``points``, by the point's bytes, and the exact
    ``frozen_fiber`` report: 0 when every frozen fiber validates, else 1 at
    the first point whose constructor raised, the fibers then being None.

    ``fibers`` yields the points' fibers in order, each built, and so
    validated, when it is reached: the caller freezes the exact anchors of
    all the points in one call and builds the fibers from them one by one,
    so a failing point ends the freeze where it fails."""
    frozen, fibers = {}, iter(fibers)
    for i, x in enumerate(points):
        try:
            frozen[x.tobytes()] = next(fibers)
        except ValueError as e:
            return None, Report.verdict("frozen_fiber", False, f"point {i}: {e}")
    return frozen, Report.verdict("frozen_fiber", True, None)


def flat_twisted_axioms(samples, seed, tol, step):
    """Bracket axioms for the volume-twisted standard bundle on a flat
    three-dimensional chart."""
    chart = nm.Chart(3, _flat_points(samples, seed))
    c = nm.make_standard_twisted(chart, nm.volume_form(3), h=step)
    return nm.check_axioms_numeric(c, tol=tol)


def rotation_dressing_axioms(samples, seed, tol, step):
    """Bracket axioms for the rotation double over its dressing chart."""
    _, _, cd = _dressing(samples, seed, step)
    return nm.check_axioms_numeric(cd, tol=tol)


def rotation_strong_section(samples, seed, tol, step):
    """Strong-map property of the dressing Dirac structure along the
    identity: exact inclusion and transversality from frozen fibers, FD
    integrability against the induced twist.

    The exact gates hold by construction: the target fiber ``ls`` equals
    the source fiber ``lx`` at every point (20 of 20 at seed 0, 20 samples)
    and ``dj`` is the identity, so ``inclusion`` and ``transversality``
    cannot fail; only ``frozen_fiber`` carries exact evidence.  Nor can
    ``integrability`` see the twist: with ``can.phi`` scaled by 0, 2 or -1
    it reads at most 5.8e-10 (20 samples, seed 0), as the twist term
    phi(X, Y, .) of two rows (up to 1.9) lies in the frame's span within
    1e-10: the frame's tangent parts span only a plane.  So that gate
    checks closure under the untwisted bracket; the twist's sign is pinned
    on a flat chart instead."""
    pair, pts, cd = _dressing(samples, seed, step)
    can = nm.canonical_hamiltonian(cd)
    frame = nm.dirac_of_pair(cd, pair.g, can.s)

    # dj is the identity, an integer matrix the strong-map check reads as it is
    dj = tuple(map(tuple, rat.unit_rows(3)))

    def exact_fibers(anchors):
        for anchor in anchors:
            # one anchor adjoint per point: the frozen fiber reuses the identification's
            ident = dc.ExactIdentification(pair, anchor)
            hf = nm.canonical_fiber(pair, ident.integer_rho, ident.integer_rho_star)
            lx = dc.dirac_from_k(hf, ident).L
            # each half vector a read out as (rho a, s_star a), scaled to integers
            (rho, d), (star, ds) = ident.integer_rho, ident.integer_s_star
            legs = (rat.int_mat_mul(pair.g.rows, rat.transpose(m)) for m in (rho, star))
            ls_rows = [[ds * v for v in ra] + [d * v for v in sa] for ra, sa in zip(*legs)]
            yield lx, canonicalize(ls_rows, 6), dj

    fibers, frozen = _freeze(pts, exact_fibers(cd.exact_anchor(np.array(pts))))
    if fibers is None:
        return frozen
    rep = nm.check_strong_dirac(
        frame, pts, phi=can.phi, h=step, tol=tol, exact_fibers=lambda x: fibers[x.tobytes()]
    )
    return Report(
        {**rep.quantities, **frozen.quantities},
        tol=tol,
        exact=rep.exact | frozen.exact,
        witness=rep.witness,
    )


def rotation_quasi_poisson(samples, seed, tol, step):
    """Bivector compatibility identities of the dressing chart: cyclic
    bracket sum against the anchored trivector, bivector derivative
    against the pushed cobracket, and the sharp identity pi^T = rho_x
    rho_astar^T on the same float fields.  The sharp identity takes no
    derivative, so it has no step and no truncation error: it reads
    roundoff (about 1e-15) and is gated at ``tol`` like the other two."""
    pair, pts, cd = _dressing(samples, seed, step)
    sp = sp_mod.make_isotropic_splitting(pair)
    qd = sp_mod.derive_quasi_data(pair, sp)
    pi, rho_x, rho_astar = nm.make_quasi_pi_field(cd, sp.j)
    return nm.check_quasi_poisson(
        pi, rho_x, qd.chi, qd.F, pts, rho_astar=rho_astar, h=step, tol=tol
    )


def rotation_canonical_fibers(samples, seed, tol, step):
    """Canonical moment geometry of the dressing chart: frozen fibers are
    exactly Lagrangian with exact support (their constructor is the
    proof, read as ``frozen_fiber``), and the three generator-bracket
    families land back in the fiber within tolerance."""
    _, pts, cd = _dressing(samples, seed, step)
    can = nm.canonical_hamiltonian(cd)
    fibers, frozen = _freeze(pts, can.frozen_fiber(np.array(pts)))
    if fibers is None:
        return frozen
    res = can.generator_residuals(np.array(pts))
    return Report({**res, **frozen.quantities}, tol=tol, exact=frozen.exact)


def planar_symplectic_reduction(samples, seed, tol, step):
    """Flow calculus on the flat symplectic plane: coordinate bracket
    value, bracket laws, and the Jacobi identity."""
    pts = _flat_points(samples, seed, dim=2)
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    fiber_at = red.bivector_fibers(lambda x: p, 2)
    fx = red.observable(lambda x: float(x[0]), grad=lambda x: np.array([1.0, 0.0]))
    fy = red.observable(lambda x: float(x[1]), grad=lambda x: np.array([0.0, 1.0]))
    bracket = red.poisson_bracket(fx, fy, fiber_at, h=step, tol=tol)
    coordinate = reduce(worse, (abs(bracket.value(x) - 1.0) for x in pts), 0.0)
    laws = red.check_bracket_laws(fx, fy, fiber_at, pts[: min(4, len(pts))], h=step, tol=tol)
    fq = red.observable(lambda x: 0.5 * float(x @ x), grad=lambda x: np.asarray(x, float))
    jacobi = red.jacobi_residual(fx, fy, fq, fiber_at, pts[:3], h=step, tol=tol)
    return Report(
        {"coordinate_bracket": coordinate, **laws.quantities, "jacobi": jacobi}, tol=tol
    )


EXAMPLES = {
    "flat_twisted_axioms": flat_twisted_axioms,
    "rotation_dressing_axioms": rotation_dressing_axioms,
    "rotation_strong_section": rotation_strong_section,
    "rotation_quasi_poisson": rotation_quasi_poisson,
    "rotation_canonical_fibers": rotation_canonical_fibers,
    "planar_symplectic_reduction": planar_symplectic_reduction,
}


def run_example(name, samples, seed, tol, step):
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}")
    return EXAMPLES[name](samples=samples, seed=seed, tol=tol, step=step)
