"""Named end-to-end examples runnable from scenes and the command line.

Every entry is a callable ``fn(samples, seed, tol, step) -> Report``
whose quantities are the worst defects the run measured, gated by ``tol``.
A construction gate that rejects the arguments raises ValueError.  Entries
draw their probe points from the given seed so reports are reproducible.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import numeric_manifold as nm
from . import reduction as red
from . import so3
from .quadratic_lie import catalog
from .report import Report, worse


def _flat_points(samples, seed, dim=3, scale=1.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-scale, scale, size=(samples, dim))
    return tuple(pts)


def _dressing(samples, seed, step):
    pts = so3.sample_chart_points(samples, seed)
    chart = nm.Chart(3, tuple(pts), name="rotation-chart")
    pair = catalog()["so3-double"]
    cd = nm.make_dressing_courant(pair.d, pair.g, chart, h=step)
    return pair, pts, cd


def flat_twisted_axioms(samples, seed, tol, step):
    """Bracket axioms for the volume-twisted standard bundle on a flat
    three-dimensional chart."""
    chart = nm.Chart(3, _flat_points(samples, seed), name="flat3")
    c = nm.make_standard_twisted(chart, nm.volume_form(3), h=step)
    return nm.check_axioms_numeric(c, tol=tol, h=step)


def rotation_dressing_axioms(samples, seed, tol, step):
    """Bracket axioms for the rotation double over its dressing chart."""
    _, _, cd = _dressing(samples, seed, step)
    return nm.check_axioms_numeric(cd, tol=tol, h=step)


def rotation_strong_section(samples, seed, tol, step):
    """Strong-map property of the dressing Dirac structure along the
    identity: exact inclusion and transversality from frozen fibers, FD
    integrability against the induced twist."""
    from . import dictionary as dc
    from . import rational as rat
    from .exact_linear import canonicalize

    pair, pts, cd = _dressing(samples, seed, step)
    can = nm.canonical_hamiltonian(cd)
    ds = nm.dirac_of_pair(cd, pair.g, can.s)

    def exact_fibers(x):
        hf = can.frozen_fiber(x)
        ident = dc.identification_from_anchor(pair, hf.rho)
        lx = dc.dirac_from_k(hf, ident).L.basis
        ls_rows = [
            tuple(rat.mat_vec(hf.rho, a)) + tuple(rat.mat_vec(ident.s_star, a))
            for a in pair.g.basis
        ]
        return lx, canonicalize(ls_rows, 6).basis, rat.identity(3)

    jmap = nm.MapField.identity(3)
    return nm.check_strong_dirac(
        jmap, ds.basis_at, ds.basis_at, pts, phi=can.phi, h=step, tol=tol,
        exact_fibers=exact_fibers,
    )


def rotation_quasi_poisson(samples, seed, tol, step):
    """Bivector compatibility identities of the dressing chart: cyclic
    bracket sum against the anchored trivector, bivector derivative
    against the pushed cobracket, and the exact sharp identity."""
    from . import splitting as sp_mod

    pair, pts, cd = _dressing(samples, seed, step)
    sp = sp_mod.make_isotropic_splitting(pair)
    qd = sp_mod.derive_quasi_data(pair, sp)
    pi, rho_x, rho_astar = nm.make_quasi_pi_field(cd, sp.j)
    exact = nm.make_exact_quasi_pi(cd, sp.j)
    return nm.check_quasi_poisson(
        pi,
        rho_x,
        nm.MapField.identity(3),
        qd.chi,
        qd.F,
        pts,
        rho_astar=rho_astar,
        exact_fibers=exact,
        h=step,
        tol=tol,
    )


def rotation_canonical_fibers(samples, seed, tol, step):
    """Canonical moment geometry of the dressing chart: frozen fibers are
    exactly Lagrangian with exact support (their constructor is the
    proof), and the three generator-bracket families land back in the
    fiber within tolerance."""
    _, pts, cd = _dressing(samples, seed, step)
    can = nm.canonical_hamiltonian(cd)
    res = {}
    for x in pts:
        can.frozen_fiber(x)
        for family, value in can.generator_residuals(x, h=step).items():
            res[family] = worse(res.get(family, 0.0), value)
    return Report(res, tol=tol)


def planar_symplectic_reduction(samples, seed, tol, step):
    """Flow calculus on the flat symplectic plane: coordinate bracket
    value, bracket laws, and the Jacobi identity."""
    pts = _flat_points(samples, seed, dim=2)
    p = np.array([[0.0, 1.0], [-1.0, 0.0]])
    fiber_at = red.bivector_fibers(lambda x: p, 2)
    fx = red.observable(lambda x: float(x[0]), grad=lambda x: np.array([1.0, 0.0]))
    fy = red.observable(lambda x: float(x[1]), grad=lambda x: np.array([0.0, 1.0]))
    bracket = red.poisson_bracket(fx, fy, fiber_at, h=step)
    coordinate = reduce(worse, (abs(bracket.value(x) - 1.0) for x in pts), 0.0)
    laws = red.check_bracket_laws(fx, fy, fiber_at, pts[: min(4, len(pts))], h=step)
    fq = red.observable(lambda x: 0.5 * float(x @ x), grad=lambda x: np.asarray(x, float))
    jacobi = red.jacobi_residual(fx, fy, fq, fiber_at, pts[:3], h=step)
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


def run_example(name, samples=50, seed=0, tol=1e-6, step=1e-4):
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}")
    return EXAMPLES[name](samples=samples, seed=seed, tol=tol, step=step)
