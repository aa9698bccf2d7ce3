"""Pointwise dictionary between bivector data and Lagrangian data.

All maps here are exact linear algebra on a single fiber: a bivector with an
action of the Lagrangian half on one side, a Lagrangian subspace of tangents
plus covectors on the other.  The Hamiltonian fiber is the one intrinsic
object: each picture enters and leaves only through it (``k_from_quasi``,
``pi_from_k``, ``k_from_dirac``, ``dirac_from_k``), and a conversion between
the pictures is a composite of those.  Each re-proves nothing that its
inputs' constructors proved, so ``pi_from_k`` reads the bivector out once.
Round trips are identities on valid fibers and the test suite holds them to
exact equality, so every formula below states its convention precisely.

Interior product convention: i_alpha(u ^ v) = alpha(u) v - alpha(v) u.
Bivectors are stored as antisymmetric matrices P with P[i][j] the value on
the i-th and j-th coordinate covectors, so i_alpha P = P^T alpha.

Each fiber is assembled as one block matrix of spanning rows, every map
applied to its whole block by one product, in the columns (T | T* | E) or
(T | T*).  With A the canonical basis rows of the half, j the splitting,
s and rho_star the identification's legs and L_T the tangent columns of
a Lagrangian's basis L:

* ``k_from_quasi``: [rho_X^T | 0 | A] over [Pi | I | -rho_X j^T];
* ``k_from_dirac``: [L | L_T (s dJ)^T] over [0 | -dJ | rho_star^T];
* ``dirac_from_k``: K times [[I, 0], [0, I], [0, s_star^T dJ]];
* ``numeric_manifold.canonical_fiber``: [A rho^T | 0 | A] over
  [0 | -I | rho_star^T].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import rational as rat
from .exact_linear import (
    LinearRelation,
    SplitForm,
    Subspace,
    canonicalize,
    is_graph_over_factor,
    is_lagrangian,
)
from .morphism import HamiltonianFiber, extract_action
from .quadratic_lie import ManinPairPoint, abstract_double
from .splitting import absorb_self_pairing, make_isotropic_splitting


@dataclass(frozen=True)
class QuasiPoissonPointData:
    """Bivector on the tangent space plus an action of the half."""

    t_dim: int
    a_dim: int
    Pi: tuple
    rho_X: tuple

    def __post_init__(self):
        object.__setattr__(self, "Pi", rat.matrix(self.Pi))
        object.__setattr__(self, "rho_X", rat.matrix(self.rho_X))
        t = self.t_dim
        if len(self.Pi) != t or (t and len(self.Pi[0]) != t):
            raise ValueError("bivector has wrong shape")
        for i in range(t):
            for j in range(t):
                if self.Pi[i][j] != -self.Pi[j][i]:
                    raise ValueError("bivector is not antisymmetric")
        if self.a_dim:
            if len(self.rho_X) != t or any(len(row) != self.a_dim for row in self.rho_X):
                raise ValueError("action matrix has wrong shape")
        else:
            if any(self.rho_X):
                raise ValueError("action matrix has wrong shape")
            # one canonical spelling of the t x 0 matrix, so equality works
            object.__setattr__(self, "rho_X", ((),) * t)


@dataclass(frozen=True)
class DiracPointData:
    """Lagrangian subspace of tangents plus covectors at a point."""

    L: Subspace

    def __post_init__(self):
        if self.L.ambient_dim % 2:
            raise ValueError("ambient dimension must be even")
        t = self.L.ambient_dim // 2
        if not is_lagrangian(SplitForm.standard_double(t), self.L):
            raise ValueError("subspace is not Lagrangian for the standard pairing")

    @property
    def t_dim(self):
        return self.L.ambient_dim // 2


@dataclass(frozen=True)
class ExactIdentification:
    """Canonical splitting of an exact fiber: the right inverse ``s`` of the
    anchor with isotropic image, identifying the fiber with base tangents
    plus covectors through (v, beta) -> s(v) + rho_star(beta), where
    ``rho_star`` is beta -> G^{-1} rho^T beta and ``s_star`` is
    e -> s^T G e.

    The one gate is exactness, rho rho_star = 0.  With c = rho^T (rho
    rho^T)^{-1}, the Gram right inverse of rho, and B = c^T G c, the
    splitting is s = c - 1/2 rho_star B.  Then rho s = I - 1/2 (rho
    rho_star) B and s^T G s = 1/4 B (rho rho_star) B, so exactness makes
    ``s`` a right inverse with isotropic image.  Over a point the anchor is
    empty and so are ``s``, ``s_star`` and ``rho_star``."""

    pair: ManinPairPoint
    rho: tuple
    s: tuple = field(init=False, repr=False, compare=False)
    s_star: tuple = field(init=False, repr=False, compare=False)
    rho_star: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rho", rat.matrix(self.rho))
        # an empty anchor has width 0: over a point only the zero fiber is exact
        if (len(self.rho[0]) if self.rho else 0) != self.pair.d.dim:
            raise ValueError("anchor has wrong shape")
        form = self.pair.d.form
        rho_t = rat.transpose(self.rho)
        rho_star = rat.mat_mul(form.gram_inv, rho_t)
        if not rat.is_zero_product(self.rho, rho_star):
            raise ValueError("fiber is not exact: anchor adjoint is not isotropic")
        try:
            # rho rho^T is symmetric, so c is ((rho rho^T)^-1 rho)^T: one solve
            c = rat.transpose(rat.solve_right(rat.mat_mul(self.rho, rho_t), self.rho))
        except ValueError:
            # rho rho^T has rho's rank, so it is singular exactly when rho is not onto
            raise ValueError(
                f"anchor is not onto: rank {rat.rank(self.rho)} "
                f"below the base dimension {self.base_dim}"
            ) from None
        s = absorb_self_pairing(form, c, rho_star)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "s_star", rat.mat_mul(rat.transpose(s), form.gram))
        object.__setattr__(self, "rho_star", rho_star)

    @property
    def base_dim(self):
        return len(self.rho)


def identification_from_anchor(pair, rho):
    """Canonical splitting of an exact anchor: start from the Gram right
    inverse and absorb half of its self pairing."""
    return ExactIdentification(pair, rho)


def k_from_quasi(q, dJ=(), rho=(), realization=None):
    """Hamiltonian fiber of a bivector with action.

    Rows are the images of the half basis, ((rho_X(a), 0), (a, 0)), and of
    the coordinate covectors, ((i_alpha Pi, alpha), (0, -rho_X^T alpha)).
    The fiber side (a, xi) embeds into the pair of the ``realization``
    splitting through its split frame, as a + j(xi); without one, into the
    abstract double of the half, whose split frame is the identity.
    """
    t, r = q.t_dim, q.a_dim
    if realization is None:
        realization = make_isotropic_splitting(abstract_double(r))
    pair, j_t = realization.pair, rat.transpose(realization.j)
    rows = rat.vstack(
        rat.hstack(rat.transpose(q.rho_X), rat.zeros(r, t), realization.a_basis),
        rat.hstack(q.Pi, rat.identity(t), rat.mat_neg(rat.mat_mul(q.rho_X, j_t))),
    )
    K = canonicalize(rows, 2 * t + pair.d.dim)
    return HamiltonianFiber(t_dim=t, pair=pair, K=K, dJ=dJ, rho=rho)


def pi_from_k(h, splitting):
    """Bivector and action back out of a Hamiltonian fiber.

    Per coordinate covector alpha, the unique element ((u, alpha), e) of the
    fiber Lagrangian whose half component vanishes in the decomposition the
    splitting induces, so that e lies in the dual image; u is the interior
    product of the bivector with alpha.  By linearity these elements span
    the composite of the Lagrangian with the dual image, which is the graph
    of the bivector.
    """
    t, r = h.t_dim, h.pair.g.dim
    rho_x = extract_action(h)

    a_part = rat.invert(splitting.frame())[:r]
    bt = h.coordinates
    constraint = bt[t : 2 * t] + rat.mat_mul(a_part, bt[2 * t :])
    pi = h.tangent_lift(
        constraint,
        rat.hstack(rat.identity(t), rat.zeros(t, r)),
        "no fiber element over this covector",
        "bivector element is not unique: invalid fiber",
    )
    return QuasiPoissonPointData(t_dim=t, a_dim=r, Pi=pi, rho_X=rho_x)


def k_from_dirac(d, dJ, ident):
    """Hamiltonian fiber of a Lagrangian at a point with a moment
    differential: push tangents through the splitting and sweep the base
    covectors through both legs."""
    t = d.t_dim
    dJ = rat.matrix(dJ)
    s_dim = ident.base_dim
    if dJ:
        if len(dJ) != s_dim or len(dJ[0]) != t:
            raise ValueError("moment differential has wrong shape")
    elif s_dim:
        raise ValueError("moment differential has wrong shape")
    tangents = [row[:t] for row in d.L.basis]
    rows = rat.vstack(
        rat.hstack(d.L.basis, rat.mat_mul(tangents, rat.transpose(rat.mat_mul(ident.s, dJ)))),
        rat.hstack(rat.zeros(s_dim, t), rat.mat_neg(dJ), rat.transpose(ident.rho_star)),
    )
    K = canonicalize(rows, 2 * t + ident.pair.d.dim)
    return HamiltonianFiber(t_dim=t, pair=ident.pair, K=K, dJ=dJ, rho=ident.rho)


def dirac_from_k(h, ident):
    """Lagrangian at a point out of a Hamiltonian fiber: keep the tangent
    and covector parts, adding the pulled-back base covector leg."""
    t, n = h.t_dim, h.pair.d.dim
    # (u, alpha, e) -> (u, alpha + dJ^T s_star e): one product with
    # [[I, 0], [0, I], [0, s_star^T dJ]]; without a moment map the last block is 0
    pull = rat.mat_mul(rat.transpose(ident.s_star), h.dJ) or rat.zeros(n, t)
    rows = rat.mat_mul(
        h.K.basis, rat.vstack(rat.identity(2 * t), rat.hstack(rat.zeros(n, t), pull))
    )
    return DiracPointData(canonicalize(rows, 2 * t))


def l_from_quasi(q, splitting, ident, dJ):
    """Lagrangian of a bivector with action, through its Hamiltonian fiber:
    ``dirac_from_k`` of ``k_from_quasi`` realized by ``splitting``."""
    if splitting.pair != ident.pair:
        raise ValueError("splitting and identification live on different pairs")
    fiber = k_from_quasi(q, dJ=dJ, rho=ident.rho, realization=splitting)
    return dirac_from_k(fiber, ident)


# ---------------------------------------------------------------------------
# forward and backward maps along a smooth map's pointwise differential


def _transport(l, f, forward):
    """Transport of ``l`` along the tangent map ``f``, solved in the
    coordinates ``c`` of its basis rows, split into tangent and covector
    parts: forward solves f^T beta = L_cov^T c and reads out
    (f L_tan^T c, beta); backward solves f u = L_tan^T c and reads out
    (u, f^T L_cov^T c).  Each solution space is one kernel, and the readout
    is injective on it because the basis of ``l`` is independent."""
    f = rat.matrix(f)
    m, qd = len(f), len(f[0]) if f else 0
    f_t = rat.transpose(f)
    src, out = (qd, m) if forward else (m, qd)
    if l.ambient_dim != 2 * src:
        raise ValueError("Lagrangian has wrong ambient for the map")
    tan = [row[:src] for row in l.basis]
    cov = [row[src:] for row in l.basis]
    # unknowns (v, c), v the read-out leg kept as it is: beta or u
    lhs, given, carried, carry_map = (f_t, cov, tan, f_t) if forward else (f, tan, cov, f)
    sols = rat.kernel(rat.hstack(lhs, rat.mat_neg(rat.transpose(given))), ncols=out + len(tan))
    coeffs = [s[out:] for s in sols]
    read = rat.mat_mul(coeffs, rat.mat_mul(carried, carry_map)) or rat.zeros(len(sols), out)
    rows = [r + s[:out] if forward else s[:out] + r for r, s in zip(read, sols)]
    return canonicalize(rows, 2 * out)


def forward_dirac(l, f):
    """{(f(u), beta) : (u, f^T beta) in L} for a tangent map ``f``."""
    return _transport(l, f, forward=True)


def backward_dirac(l, f):
    """{(u, f^T beta) : (f(u), beta) in L'} for a tangent map ``f``."""
    return _transport(l, f, forward=False)


# ---------------------------------------------------------------------------
# nondegenerate locus predicates


def k_spans_tangents(h):
    """Projection of the fiber Lagrangian onto tangents is onto."""
    return h.K.project(tuple(range(h.t_dim))).dim == h.t_dim


def dirac_is_form_graph(d):
    """The Lagrangian is the graph of a 2-form on tangents."""
    t = d.t_dim
    return is_graph_over_factor(LinearRelation(t, t, d.L)) is not None


def quasi_spans_tangents(q):
    """Action images and interior products together fill the tangent space."""
    cols = list(rat.transpose(q.rho_X)) if q.a_dim else []
    cols += list(q.Pi)
    return rat.rank(rat.matrix(cols)) == q.t_dim if cols else q.t_dim == 0


# ---------------------------------------------------------------------------
# exact JSON encoding of fiber data


def _enc_scalar(x):
    return str(Fraction(x))


def _enc_matrix(mat):
    return [[_enc_scalar(x) for x in row] for row in mat]


def _dec_matrix(rows):
    if isinstance(rows, str) or any(isinstance(row, str) for row in rows):
        raise TypeError("a matrix is a list of rows of entries, not a string")
    return rat.matrix([[Fraction(x) for x in row] for row in rows])


def _dec_int(x):
    v = Fraction(x)
    if v.denominator != 1:
        raise ValueError(f"{x!r} is not an integer")
    if v < 0:
        raise ValueError(f"{x!r} is negative")
    return int(v)


class RecordError(ValueError):
    """A fiber record field that is missing or does not decode."""


def _field(obj, name, decode=_dec_matrix):
    """``decode(obj[name])``, raising RecordError that names the field."""
    if name not in obj:
        raise RecordError(f"fiber record has no {name!r} field")
    try:
        return decode(obj[name])
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise RecordError(f"fiber record field {name!r}: {e}") from None


def quasi_to_dict(q):
    return {
        "kind": "quasi",
        "t_dim": q.t_dim,
        "a_dim": q.a_dim,
        "pi": _enc_matrix(q.Pi),
        "rho_x": _enc_matrix(q.rho_X),
    }


def quasi_from_dict(obj):
    if obj.get("kind") != "quasi":
        raise ValueError("not a bivector fiber object")
    return QuasiPoissonPointData(
        t_dim=_field(obj, "t_dim", _dec_int),
        a_dim=_field(obj, "a_dim", _dec_int),
        Pi=_field(obj, "pi"),
        rho_X=_field(obj, "rho_x"),
    )


def dirac_to_dict(d):
    return {
        "kind": "dirac",
        "t_dim": d.t_dim,
        "basis": _enc_matrix(d.L.basis),
    }


def dirac_from_dict(obj):
    if obj.get("kind") != "dirac":
        raise ValueError("not a Lagrangian fiber object")
    t = _field(obj, "t_dim", _dec_int)
    return DiracPointData(canonicalize(_field(obj, "basis"), 2 * t))
