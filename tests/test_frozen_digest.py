"""Every rational the per-point freeze builds, pinned by one digest.

The rotation examples freeze each sample point's anchor, its
identification, its canonical fiber and the strong section's two
Lagrangians into exact rationals.  The digest below is the sha256 of the
reprs of all of them at 50 points of seeds 0, 1 and 2, so a change to the
exact kernel that moves any one rational bit fails here.
"""

import hashlib

import helpers
import numpy as np

from diracpairs import numeric_manifold as nm
from diracpairs import rational as rat
from diracpairs import so3, verify
from diracpairs.dictionary import forward_dirac, identification_from_anchor
from diracpairs.quadratic_lie import catalog
from diracpairs.report import Report

FROZEN_DIGEST = "00c26c38362de8e185a32c769bed4d9cc248819179e4cd541550b9dc8c870e7a"


def strong_section_fibers(monkeypatch, samples, seed):
    """The ``(lx, ls, dj)`` that ``rotation_strong_section`` hands to
    ``check_strong_dirac`` at each of its points, read without running the
    check."""
    out = []

    def capture(l_x, points, phi=None, *, h, tol, exact_fibers=None):
        out.extend(exact_fibers(np.asarray(x, dtype=float)) for x in points)
        return Report({}, tol=tol)

    monkeypatch.setattr(nm, "check_strong_dirac", capture)
    verify.run_example(
        "rotation_strong_section", samples=samples, seed=seed, tol=helpers.TOL, step=helpers.STEP
    )
    monkeypatch.undo()
    return out


def test_the_frozen_rationals_keep_their_digest(monkeypatch):
    pair = catalog()["so3-double"]
    digest = hashlib.sha256()

    def note(matrix):
        digest.update(repr(matrix).encode())

    for seed in (0, 1, 2):
        pts = so3.sample_chart_points(50, seed)
        can = nm.canonical_hamiltonian(nm.make_dressing_courant(nm.Chart(3, tuple(pts)), h=helpers.STEP))
        for x in pts:
            anchor = nm.rotation_double_exact_anchor(x)
            ident = identification_from_anchor(pair, anchor)
            for matrix in (anchor, ident.s, ident.s_star, ident.rho_star, can.frozen_fiber(x).K.basis):
                note(matrix)
        fibers = strong_section_fibers(monkeypatch, 50, seed)
        assert len(fibers) == 50
        for lx, ls, dj in fibers:
            assert dj == rat.identity(3)
            for matrix in (lx.basis, ls.basis, forward_dirac(lx, rat.identity(3)).basis):
                note(matrix)
    assert digest.hexdigest() == FROZEN_DIGEST
