"""Isotropic splittings over a point and the induced cobracket data.

A splitting embeds the dual of the Lagrangian half back into the ambient
algebra with isotropic image; `isotropic_right_inverse` builds it, and the
splitting of an exact anchor in `dictionary.ExactIdentification`.  Pushing
the ambient bracket through it yields cobracket structure constants and a
top-degree defect tensor; the coherence checks below verify the square of
the induced differential against that defect, exactly.

Multivectors over the Lagrangian half A are stored as dense antisymmetric
component arrays: the entries of a k-vector are its evaluations on k-tuples
of dual basis vectors, so evaluation is plain multilinear contraction and no
factorial normalizations float around.  The coherence check reads the stored
cobracket and defect once at their sorted keys and computes on sorted-key
multivectors, so degrees above the half's dimension cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import rational as rat
from .quadratic_lie import structure_from_table
from .report import Report

# ---------------------------------------------------------------------------
# dense antisymmetric tensors


def tensor_get(t, idx):
    for i in idx:
        t = t[i]
    return t


def tensor_from_function(dim, degree, fn):
    def build(prefix):
        if len(prefix) == degree:
            return rat.scalar(fn(prefix))
        return tuple(build(prefix + (i,)) for i in range(dim))

    return build(())


# ---------------------------------------------------------------------------
# splittings

# Sign convention for the top-defect bracket: [chi, a] = TOP_BRACKET_SIGN *
# ad_a(chi).  On a 3-dim unimodular half (so3, sl2) ad_a(chi) = tr(ad_a) chi
# is zero, so those doubles cannot tell the signs apart.  The solvable
# cotangent half has traces: twisted by e_0 ^ e_1 it passes coherence only
# with this sign (tests/test_splitting.py pins it on the solvable cotangent
# double of tests/helpers.py).
TOP_BRACKET_SIGN = Fraction(-1)


@dataclass(frozen=True)
class IsotropicSplitting:
    """Right inverse ``j`` of the projection onto the dual of the Lagrangian
    half, with isotropic image.

    ``j`` has one column per dual basis vector of A (the dual basis of the
    canonical basis rows of ``pair.g``)."""

    pair: object
    j: tuple

    def __post_init__(self):
        object.__setattr__(self, "j", rat.matrix(self.j))
        d = self.pair.d
        n, r = d.dim, self.pair.g.dim
        if len(self.j) != n or (n and len(self.j[0]) != r):
            raise ValueError("splitting matrix has wrong shape")
        jg = rat.mat_mul(rat.transpose(self.j), d.form.gram)
        if not rat.is_zero_product(jg, self.j):
            raise ValueError("image of the splitting is not isotropic")
        if rat.mat_mul(jg, rat.transpose(self.pair.g.basis)) != rat.identity(r):
            raise ValueError("splitting does not project to the identity")

    @property
    def a_basis(self):
        return self.pair.g.basis

    def frame(self):
        """The split frame: columns of the half's basis, then of ``j``."""
        a_cols = rat.transpose(self.a_basis)
        return rat.hstack(a_cols, self.j)


def isotropic_right_inverse(form, p, adjoint):
    """Right inverse ``s`` of the onto map ``p`` with isotropic image, built
    through its ``adjoint`` p* = G^{-1} p^T; it builds every exact
    isotropic splitting, `make_isotropic_splitting`'s and
    `dictionary.ExactIdentification`'s.  Maps and result are integer rows
    over one denominator, ``(rows, d)``.

    With c = p^T (p p^T)^{-1}, the Gram right inverse of p, and B = c^T G
    c, s = c - 1/2 p* B.  As p*^T G = p, p s = I - 1/2 (p p*) B and s^T G
    s = 1/4 B (p p*) B: s is a right inverse with isotropic image when p p*
    = 0, that is when p* has isotropic image, which the caller ensures.
    When that image is Lagrangian it is the kernel of p, so any such right
    inverse is s + p* K, with K skew, as its self pairing K + K^T is 0.
    K = 0 is the choice of this c, p's right inverse of least coordinate
    norm; a coordinate complement of the kernel in its place gives K != 0
    in general once p has two rows or more.

    For p = R / d, c^T = d (R R^T)^{-1} R is one solve, and R R^T is
    singular, raising `ValueError`, exactly when p is not onto.  With p* =
    A / da, G = H / dg and c = C / dc, s = (2 da dc dg C - A C^T H C) /
    (2 da dc^2 dg)."""
    (rows, d), (ar, da), (h, dg) = p, adjoint, form.integer_gram
    aug = [g + list(r) for g, r in zip(rat.int_mat_mul(rows, rat.transpose(rows)), rows)]
    try:
        sol, e = rat.int_solve(aug, len(rows))
    except ValueError:
        raise ValueError("map is not onto") from None
    cr, dc = rat.lowest_terms([[d * row[i] for row in sol] for i in range(len(h))], e)
    ab = rat.int_mat_mul(ar, rat.int_mat_mul(rat.int_mat_mul(rat.transpose(cr), h), cr))
    k = 2 * da * dc * dg
    return rat.lowest_terms(
        [[k * x - y for x, y in zip(row, sub)] for row, sub in zip(cr, ab)], k * dc
    )


def make_isotropic_splitting(pair):
    """Construct a splitting for any split Manin pair: the isotropic right
    inverse of p = A G, which pairs with the half's canonical basis rows A,
    through its adjoint A^T, whose image is the Lagrangian half."""
    d, r = pair.d, pair.g.dim
    if r == 0:
        return IsotropicSplitting(pair, rat.zeros(d.dim, 0))
    (a_rows, da), (h, dg) = rat.over_one_denominator(pair.g.basis), d.form.integer_gram
    p = (rat.int_mat_mul(a_rows, h), da * dg)
    j = isotropic_right_inverse(d.form, p, (rat.transpose(a_rows), da))
    return IsotropicSplitting(pair, rat.fractions(*j))


@dataclass(frozen=True)
class QuasiBialgebraData:
    """Cobracket constants and top-degree defect of a quasi-Lie bialgebra
    over a point.

    ``derive_quasi_data`` builds them as F[i][k][l] = <[c_k, c_l], a_i> and
    chi[k][l][m] = <[c_k, c_l], c_m>, antisymmetric by the antisymmetry of
    the bracket and by ad-invariance of the pairing, both of which the
    pair's algebra passed when it was validated."""

    a_dim: int
    F: tuple  # F[i] is the 2-tensor image of the i-th basis vector
    chi: tuple  # 3-tensor


def subalgebra_structure(pair):
    """Structure constants of the Lagrangian half in its canonical basis;
    the half is closed, as ``ManinPairPoint`` proved."""
    g = pair.g
    r = g.dim
    pivots = g.pivots

    def coords(v):
        return tuple(v[p] for p in pivots)

    table = {}
    for i in range(r):
        for j in range(i + 1, r):
            table[(i, j)] = coords(pair.d.bracket(g.basis[i], g.basis[j]))
    return structure_from_table(r, table)


def derive_quasi_data(pair, splitting):
    """Cobracket and defect of a splitting, from ambient pairings."""
    d = pair.d
    r = pair.g.dim
    cols = rat.transpose(splitting.j)
    brackets = [d.bracket(cols[k], cols[l]) for k in range(r) for l in range(r)]
    # row k r + l pairs [c_k, c_l] with the split frame: each a_i, then each c_m
    paired = rat.mat_mul(rat.mat_mul(brackets, d.form.gram), splitting.frame())
    f = tuple(
        tensor_from_function(r, 2, lambda kl, i=i: paired[kl[0] * r + kl[1]][i])
        for i in range(r)
    )
    chi = tensor_from_function(r, 3, lambda klm: paired[klm[0] * r + klm[1]][r + klm[2]])
    return QuasiBialgebraData(a_dim=r, F=f, chi=chi)


# ---------------------------------------------------------------------------
# the coherence check, on sorted-key multivectors
#
# A sorted-key multivector maps strictly increasing index tuples to nonzero
# Fractions: the coefficients of the basis k-vectors e_{i1} ^ ... ^ e_{ik}.
# For a dense antisymmetric tensor these are its components at sorted keys.

# Highest degree of the basis multivectors on which coherence is checked.
COHERENCE_DEGREE = 3


def _sorted_keys(t, dim, degree):
    """Sorted-key multivector of a dense antisymmetric ``degree``-tensor."""
    out = {}
    for key in combinations(range(dim), degree):
        v = tensor_get(t, key)
        if v:
            out[key] = v
    return out


def _derive(mv, images, odd):
    """Apply the derivation ``e_i -> images[i]`` to ``mv`` by the Leibniz rule.

    The image of a key's r-th factor takes that factor's place; the term's
    sign is the parity of the merged key's inversions, times ``(-1)^r`` when
    the derivation is odd."""
    out = {}
    for key, c in mv.items():
        for r, i in enumerate(key):
            c_r = -c if odd and r % 2 else c
            for image_key, v in images[i].items():
                merged = key[:r] + image_key + key[r + 1 :]
                if len(set(merged)) < len(merged):
                    continue
                inversions = sum(x > y for x, y in combinations(merged, 2))
                term = -c_r * v if inversions % 2 else c_r * v
                sorted_key = tuple(sorted(merged))
                out[sorted_key] = out.get(sorted_key, 0) + term
    return {key: v for key, v in out.items() if v}


def check_quasi_jacobi(a_structure, data):
    """Verify, exactly on basis multivectors up to ``COHERENCE_DEGREE``,
    that the square of the induced codifferential is bracketing with the
    defect, and that the defect itself is closed.  ``coherence`` counts the
    basis multivectors where the first identity fails; ``defect`` is 1 when
    the defect is not closed.

    The codifferential is the odd derivation ``e_i -> F[i]`` and ``[chi, .]``
    the even one ``e_i -> TOP_BRACKET_SIGN * ad_{e_i}(chi)``.  d(chi) is a
    4-vector, so ``defect`` cannot fail on a half of dimension at most 3."""
    dim = data.a_dim
    f_images = [_sorted_keys(f, dim, 2) for f in data.F]
    chi = _sorted_keys(data.chi, dim, 3)
    chi_images = []
    for i in range(dim):
        ad_i = [
            {(k,): c for k, c in enumerate(a_structure[i][m]) if c}
            for m in range(dim)
        ]
        ad_chi = _derive(chi, ad_i, odd=False)
        chi_images.append({k: TOP_BRACKET_SIGN * v for k, v in ad_chi.items()})
    witness = {}
    coherence = 0
    for degree in range(1, min(COHERENCE_DEGREE, dim) + 1):
        for idx in combinations(range(dim), degree):
            e = {idx: Fraction(1)}
            twice = _derive(_derive(e, f_images, odd=True), f_images, odd=True)
            if twice != _derive(e, chi_images, odd=False):
                coherence += 1
                witness.setdefault("coherence", idx)
    defect = 1 if _derive(chi, f_images, odd=True) else 0
    if defect:
        witness["defect"] = "d(chi) != 0"
    return Report(
        {"coherence": coherence, "defect": defect},
        exact={"coherence", "defect"},
        witness=witness,
    )
