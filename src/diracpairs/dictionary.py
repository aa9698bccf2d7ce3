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
s and rho_star the identification's legs (s and j both built by
`splitting.isotropic_right_inverse`) and L_T the tangent columns of a
Lagrangian's basis L:

* ``k_from_quasi``: [rho_X^T | 0 | A] over [Pi | I | -rho_X j^T];
* ``k_from_dirac``: [L | L_T (s dJ)^T] over [0 | -dJ | rho_star^T], built
  in the integer kernel as [dd ds L | L_T DJ^T S^T] over [0 | -dr DJ | dd
  R*^T], each block row scaled to integers, for dJ = DJ / dd, s = S / ds
  and rho_star = R* / dr, with L the integer rows of the Lagrangian;
* ``dirac_from_k``: K times [[I, 0], [0, I], [0, s_star^T dJ]];
* ``numeric_manifold.canonical_fiber``: [A rho^T | 0 | A] over
  [0 | -I | rho_star^T].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import rational as rat
from .exact_linear import (
    LinearRelation,
    SplitForm,
    Subspace,
    canonicalize,
    is_graph_over_factor,
    is_lagrangian,
)
from .morphism import HamiltonianFiber, extract_action, integer_legs
from .quadratic_lie import ManinPairPoint, abstract_double
from .splitting import isotropic_right_inverse, make_isotropic_splitting


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

    The one gate is exactness, rho rho_star = 0, which makes ``s``, built
    by `splitting.isotropic_right_inverse` on rho and rho_star, a right
    inverse with isotropic image.  Over a point the anchor is empty and so
    are ``s``, ``s_star`` and ``rho_star``.

    The anchor and the three legs are kept only as integer rows over one
    denominator in lowest terms, ``integer_rho``, ``integer_s``,
    ``integer_s_star`` and ``integer_rho_star``, which the per-point freeze
    and the dictionary read in the integer kernel."""

    pair: ManinPairPoint
    integer_rho: tuple
    integer_s: tuple = field(init=False, repr=False, compare=False)
    integer_s_star: tuple = field(init=False, repr=False, compare=False)
    integer_rho_star: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, d = rat.lowest_terms(*self.integer_rho)
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "integer_rho", (rows, d))
        # an empty anchor has width 0: over a point only the zero fiber is exact
        if (len(rows[0]) if rows else 0) != self.pair.d.dim:
            raise ValueError("anchor has wrong shape")
        form = self.pair.d.form
        rho_star = form.adjoint((rows, d))
        if not rat.int_zero_pairing(rows, rat.transpose(rho_star[0])):
            raise ValueError("fiber is not exact: anchor adjoint is not isotropic")
        try:
            s_rows, ds = isotropic_right_inverse(form, (rows, d), rho_star)
        except ValueError:
            raise ValueError(
                f"anchor is not onto: rank {len(rat.int_rref(rows)[0])} "
                f"below the base dimension {self.base_dim}"
            ) from None
        g, dg = form.integer_gram
        s_star = rat.lowest_terms(rat.int_mat_mul(rat.transpose(s_rows), g), ds * dg)
        object.__setattr__(self, "integer_s", (s_rows, ds))
        object.__setattr__(self, "integer_s_star", s_star)
        object.__setattr__(self, "integer_rho_star", rho_star)

    @property
    def base_dim(self):
        return len(self.integer_rho[0])


def identification_from_anchor(pair, rho):
    """Canonical splitting of an exact rational anchor ``rho``."""
    return ExactIdentification(pair, rat.over_one_denominator(rat.matrix(rho)))


def k_from_quasi(q, legs=((), 1), realization=None):
    """Hamiltonian fiber of a bivector with action.

    Rows are the images of the half basis, ((rho_X(a), 0), (a, 0)), and of
    the coordinate covectors, ((i_alpha Pi, alpha), (0, -rho_X^T alpha)).
    The fiber side (a, xi) embeds into the pair of the ``realization``
    splitting through its split frame, as a + j(xi); without one, into the
    abstract double of the half, whose split frame is the identity.
    ``legs`` is the fiber's ``[dJ | rho]`` as the integer pair that
    `morphism.integer_legs` gives; by default there is no base.
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
    return HamiltonianFiber(t_dim=t, pair=pair, K=K, legs=legs)


def pi_from_k(h, splitting):
    """Bivector and action back out of a Hamiltonian fiber.

    Per coordinate covector alpha, the unique element ((u, alpha), e) of the
    fiber Lagrangian whose half component vanishes in the decomposition the
    splitting induces, so that e lies in the dual image; u is the interior
    product of the bivector with alpha.  By linearity these elements span
    the composite of the Lagrangian with the dual image, which is the graph
    of the bivector.

    The half component of e = A^T a + j xi is a = j^T G e: the half A is
    Lagrangian, j is isotropic and j^T G A^T = I, so j^T G is the half's
    block of the inverse split frame.  It is the integer product of j's
    rows transposed and the form's integer Gram, and the constraint is
    solved on the integer rows of K, scaled by its denominator; no Fraction
    is read.
    """
    t, r = h.t_dim, h.pair.g.dim
    rho_x = extract_action(h)

    (j, dj), (g, dg) = rat.over_one_denominator(splitting.j), splitting.pair.d.form.integer_gram
    a_part, da = rat.lowest_terms(rat.int_mat_mul(rat.transpose(j), g), dj * dg)
    bt = h.coordinates
    covectors = [[da * v for v in row] for row in bt[t : 2 * t]]
    lifts = h.tangent_lift(
        covectors + rat.int_mat_mul(a_part, bt[2 * t :]),
        [unit + [0] * r for unit in rat.unit_rows(t, da)],
        "no fiber element over this covector",
        "bivector element is not unique: invalid fiber",
    )
    pi = [rat.fractions((u,), d)[0] for u, d in lifts]
    return QuasiPoissonPointData(t_dim=t, a_dim=r, Pi=pi, rho_X=rho_x)


def k_from_dirac(d, dJ, ident):
    """Hamiltonian fiber of a Lagrangian at a point with a moment
    differential: push tangents through the splitting and sweep the base
    covectors through both legs, in the integer kernel."""
    t = d.t_dim
    (dj, dd), s_dim = rat.over_one_denominator(rat.matrix(dJ)), ident.base_dim
    if len(dj) != s_dim or any(len(row) != t for row in dj):
        raise ValueError("moment differential has wrong shape")
    (s, ds), (rho_star, dr) = ident.integer_s, ident.integer_rho_star
    tangents = [row[:t] for row in d.L.rows]
    pushed = rat.int_mat_mul(tangents, rat.transpose(rat.int_mat_mul(s, dj)))
    rows = [[dd * ds * v for v in row] + w for row, w in zip(d.L.rows, pushed)]
    rows += [
        [0] * t + [-dr * v for v in u] + [dd * v for v in w]
        for u, w in zip(dj, rat.transpose(rho_star))
    ]
    K = canonicalize(rows, 2 * t + ident.pair.d.dim)
    legs = integer_legs(dJ, ident.integer_rho)
    return HamiltonianFiber(t_dim=t, pair=ident.pair, K=K, legs=legs)


def dirac_from_k(h, ident):
    """Lagrangian at a point out of a Hamiltonian fiber: keep the tangent
    and covector parts, adding the pulled-back base covector leg."""
    t = h.t_dim
    # (u, alpha, e) -> (u, alpha + dJ^T s_star e), on K's integer rows
    # scaled by the denominator of the pulled-back leg s_star^T dJ; without
    # a moment map that leg is 0
    rows = [r[: 2 * t] for r in h.K.rows]
    if h.legs[0]:
        (star, ds), (dj, dd) = ident.integer_s_star, h.integer_dJ
        pull = rat.int_mat_mul(rat.transpose(star), dj)
        lifts = rat.int_mat_mul([r[2 * t :] for r in h.K.rows], pull)
        rows = [
            [ds * dd * v for v in r[:t]] + [ds * dd * v + w for v, w in zip(r[t:], lift)]
            for r, lift in zip(rows, lifts)
        ]
    return DiracPointData(canonicalize(rows, 2 * t))


def l_from_quasi(q, splitting, ident, dJ):
    """Lagrangian of a bivector with action, through its Hamiltonian fiber:
    ``dirac_from_k`` of ``k_from_quasi`` realized by ``splitting``."""
    if splitting.pair != ident.pair:
        raise ValueError("splitting and identification live on different pairs")
    fiber = k_from_quasi(q, integer_legs(dJ, ident.integer_rho), realization=splitting)
    return dirac_from_k(fiber, ident)


# ---------------------------------------------------------------------------
# forward and backward maps along a smooth map's pointwise differential


def _transport(l, f, forward):
    """Transport of ``l`` along the tangent map ``f``, solved in the
    coordinates ``c`` of its basis rows, split into tangent and covector
    parts: forward solves f^T beta = L_cov^T c and reads out
    (f L_tan^T c, beta); backward solves f u = L_tan^T c and reads out
    (u, f^T L_cov^T c).  Each solution space is one kernel, and the readout
    is injective on it because the basis of ``l`` is independent.  ``f``
    is a matrix of ints and Fractions, read into the integer kernel as it
    is."""
    # f = F / df over the integers; the system and the rows below are
    # scaled by df, which keeps their kernels and spans
    fi, df = rat.over_one_denominator(f)
    m, qd = len(fi), len(fi[0]) if fi else 0
    if any(len(row) != qd for row in fi):
        raise ValueError("ragged rows")
    fi_t = rat.transpose(fi)
    src, out = (qd, m) if forward else (m, qd)
    if l.ambient_dim != 2 * src:
        raise ValueError("Lagrangian has wrong ambient for the map")
    tan = [row[:src] for row in l.rows]
    cov = [row[src:] for row in l.rows]
    # unknowns (v, c), v the read-out leg kept as it is: beta or u; the
    # read-out map's columns are the rows of ``cols``
    lhs, given, carried, cols = (fi_t, cov, tan, fi) if forward else (fi, tan, cov, fi_t)
    system = [list(lhs[i]) + [-df * g[i] for g in given] for i in range(src)]
    sols = rat.int_kernel(system, out + len(tan))
    coeffs = [s[out:] for s in sols]
    read = [[sum(map(mul, w, col)) for col in cols] for w in rat.int_mat_mul(coeffs, carried)]
    kept = [[df * v for v in s[:out]] for s in sols]
    rows = [r + k if forward else k + r for r, k in zip(read, kept)]
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
    return len(rat.int_rref(rat.over_one_denominator(cols)[0])[0]) == q.t_dim


# ---------------------------------------------------------------------------
# exact JSON encoding of fiber data


def _enc_scalar(x):
    return str(Fraction(x))


def _enc_matrix(mat):
    return [[_enc_scalar(x) for x in row] for row in mat]


def _dec_scalar(x):
    """A record entry as a rational: an integer, or a string such as
    '3/4'.  A float or a boolean is refused, as `rational.rationalize` is
    the only place a float becomes a rational."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"{x!r} is not an integer or a string")
    return Fraction(x)


def _dec_matrix(rows):
    if isinstance(rows, str) or any(isinstance(row, str) for row in rows):
        raise TypeError("a matrix is a list of rows of entries, not a string")
    return rat.matrix([[_dec_scalar(x) for x in row] for row in rows])


def _dec_int(x):
    v = _dec_scalar(x)
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
