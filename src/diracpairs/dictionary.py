"""Pointwise dictionary between bivector data and Lagrangian data.

All maps here are exact linear algebra on a single fiber: a bivector with an
action of the Lagrangian half on one side, a Lagrangian subspace of tangents
plus covectors on the other, with Hamiltonian fibers as the hinge.  Round
trips are identities on valid fibers and the test suite holds them to exact
equality, so every formula below states its convention precisely.

Interior product convention: i_alpha(u ^ v) = alpha(u) v - alpha(v) u.
Bivectors are stored as antisymmetric matrices P with P[i][j] the value on
the i-th and j-th coordinate covectors, so i_alpha P = P^T alpha.
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
    compose,
    is_graph_over_factor,
    is_lagrangian,
)
from .morphism import HamiltonianFiber, extract_action
from .quadratic_lie import ManinPairPoint, abstract_double


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
            if len(self.rho_X) != t or len(self.rho_X[0]) != self.a_dim:
                raise ValueError("action matrix has wrong shape")
        else:
            if any(self.rho_X):
                raise ValueError("action matrix has wrong shape")
            # one canonical spelling of the t x 0 matrix, so equality works
            object.__setattr__(self, "rho_X", ((),) * t)

    def interior(self, alpha):
        """i_alpha of the bivector."""
        return rat.mat_vec(rat.transpose(self.Pi), alpha)

    def evaluate(self, alpha, beta):
        """Value of the bivector on two covectors: beta(i_alpha Pi)."""
        u = self.interior(alpha)
        return sum(b * x for b, x in zip(rat.vec(beta), u))


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
    """Splitting of an exact fiber: a right inverse ``s`` of the anchor with
    isotropic image, identifying the fiber with base tangents plus covectors
    through (v, beta) -> s(v) + rho_star(beta).  The isotropy checks keep
    ``s_star`` (e -> s^T G e) and ``rho_star`` (beta -> G^{-1} rho^T beta)."""

    pair: ManinPairPoint
    rho: tuple
    s: tuple
    s_star: tuple = field(init=False, repr=False, compare=False)
    rho_star: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rho", rat.matrix(self.rho))
        object.__setattr__(self, "s", rat.matrix(self.s))
        n = self.pair.d.dim
        srows = len(self.rho)
        if srows == 0 or len(self.rho[0]) != n:
            raise ValueError("anchor has wrong shape")
        if len(self.s) != n or len(self.s[0]) != srows:
            raise ValueError("splitting has wrong shape")
        gram = self.pair.d.form.gram
        rs = rat.mat_mul(self.rho, self.s)
        if rs != rat.identity(srows):
            raise ValueError("s is not a right inverse of the anchor")
        s_star = rat.mat_mul(rat.transpose(self.s), gram)
        if not rat.is_zero_matrix(rat.mat_mul(s_star, self.s)):
            raise ValueError("image of s is not isotropic")
        rho_star = rat.mat_mul(rat.invert(gram), rat.transpose(self.rho))
        if not rat.is_zero_matrix(rat.mat_mul(self.rho, rho_star)):
            raise ValueError("fiber is not exact: anchor adjoint is not isotropic")
        object.__setattr__(self, "s_star", s_star)
        object.__setattr__(self, "rho_star", rho_star)

    @property
    def base_dim(self):
        return len(self.rho)

    def decompose(self, e):
        """(base tangent, base covector) coordinates of a fiber element."""
        return rat.mat_vec(self.rho, e), rat.mat_vec(self.s_star, e)

    def embed(self, v, beta):
        e1 = rat.mat_vec(self.s, v)
        e2 = rat.mat_vec(self.rho_star, beta)
        return tuple(a + b for a, b in zip(e1, e2))


def identification_from_anchor(pair, rho):
    """Canonical splitting of an exact anchor: start from the Gram right
    inverse and absorb half of its self pairing."""
    rho = rat.matrix(rho)
    gram = pair.d.form.gram
    rrt = rat.mat_mul(rho, rat.transpose(rho))
    c = rat.mat_mul(rat.transpose(rho), rat.invert(rrt))
    b = rat.mat_mul(rat.mat_mul(rat.transpose(c), gram), c)
    corr = rat.mat_mul(rat.mat_mul(rat.invert(gram), rat.transpose(rho)), b)
    s = rat.mat_sub(c, rat.mat_scale(Fraction(1, 2), corr))
    return ExactIdentification(pair, rho, s)


def _unit(n, k):
    return tuple(Fraction(1 if j == k else 0) for j in range(n))


def k_from_quasi(q, dJ=(), rho=(), realization=None):
    """Hamiltonian fiber of a bivector with action.

    Rows are the images of the half basis, ((rho_X(a), 0), (a, 0)), and of
    the coordinate covectors, ((i_alpha Pi, alpha), (0, -rho_X^T alpha)).
    With a ``realization`` splitting, the fiber side (a, xi) embeds into its
    pair as a + j(xi); otherwise the abstract double of the half is used.
    """
    t, r = q.t_dim, q.a_dim
    if realization is None:
        pair = abstract_double(r)

        def embed(a, xi):
            return tuple(a) + tuple(xi)

    else:
        pair = realization.pair
        jm = realization.j

        def embed(a, xi):
            ja = rat.mat_vec(jm, xi) if r else (Fraction(0),) * pair.d.dim
            av = rat.mat_vec(rat.transpose(pair.g.basis), a) if r else ja
            if not r:
                return ja
            return tuple(x + y for x, y in zip(av, ja))

    rows = []
    zt = (Fraction(0),) * t
    zr = (Fraction(0),) * r
    for i in range(r):
        a = _unit(r, i)
        u = tuple(q.rho_X[k][i] for k in range(t))
        rows.append(u + zt + tuple(embed(a, zr)))
    for k in range(t):
        alpha = _unit(t, k)
        u = q.interior(alpha)
        back = tuple(-q.rho_X[k][j] for j in range(r))
        rows.append(u + alpha + tuple(embed(zr, back)))
    K = canonicalize(rows, 2 * t + pair.d.dim)
    return HamiltonianFiber(t_dim=t, pair=pair, K=K, dJ=dJ, rho=rho)


def pi_from_k(h, splitting):
    """Bivector and action back out of a Hamiltonian fiber.

    Two independent routes: per covector, the unique element of the fiber
    Lagrangian whose half component vanishes (through the decomposition the
    splitting induces); and the relation composition of the Lagrangian with
    the embedded dual image.  Both must agree, and do on valid fibers.
    """
    t, n = h.t_dim, h.pair.d.dim
    r = h.pair.g.dim
    rho_x = extract_action(h)

    a_cols = rat.transpose(h.pair.g.basis)
    frame = rat.hstack(a_cols, splitting.j)
    frame_inv = rat.invert(frame)
    a_part = frame_inv[:r]

    bt = rat.transpose(h.K.basis)
    k = h.K.dim
    alpha_rows = bt[t : 2 * t]
    e_rows = bt[2 * t :]
    a_of_e = rat.mat_mul(a_part, e_rows)
    constraint = alpha_rows + a_of_e
    p_rows = []
    for kk in range(t):
        rhs = _unit(t, kk) + (Fraction(0),) * r
        sol = rat.solve_linear(constraint, rhs, ncols=k)
        if sol is None:
            raise ValueError("no fiber element over this covector")
        part, null = sol
        for nv in null:
            if any(x != 0 for x in rat.mat_vec(bt[:t], nv)):
                raise ValueError("bivector element is not unique: invalid fiber")
        p_rows.append(rat.mat_vec(bt[:t], part))
    pi = rat.matrix(p_rows)
    for i in range(t):
        for j in range(t):
            if pi[i][j] != -pi[j][i]:
                raise ValueError("recovered bivector is not antisymmetric")

    unique_graph = canonicalize(
        [tuple(rat.mat_vec(rat.transpose(pi), _unit(t, kk))) + _unit(t, kk) for kk in range(t)],
        2 * t,
    )
    dual_image = splitting.dual_image()
    krel = LinearRelation(2 * t, n, h.K)
    to_zero = LinearRelation(n, 0, dual_image)
    composed = compose(krel, to_zero).graph
    if composed != unique_graph:
        raise ValueError("splitting routes disagree: invalid fiber")

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
    n = ident.pair.d.dim
    rows = []
    for row in d.L.basis:
        u, alpha = row[:t], row[t:]
        e = rat.mat_vec(ident.s, rat.mat_vec(dJ, u)) if dJ else (Fraction(0),) * n
        rows.append(tuple(u) + tuple(alpha) + tuple(e))
    dj_t = rat.transpose(dJ)
    for kk in range(s_dim):
        beta = _unit(s_dim, kk)
        alpha = tuple(-x for x in rat.mat_vec(dj_t, beta)) if dJ else (Fraction(0),) * t
        e = rat.mat_vec(ident.rho_star, beta)
        rows.append((Fraction(0),) * t + tuple(alpha) + tuple(e))
    K = canonicalize(rows, 2 * t + n)
    return HamiltonianFiber(t_dim=t, pair=ident.pair, K=K, dJ=dJ, rho=ident.rho)


def dirac_from_k(h, ident):
    """Lagrangian at a point out of a Hamiltonian fiber: keep the tangent
    and covector parts, adding the pulled-back base covector leg."""
    t = h.t_dim
    dJ = h.dJ
    dj_t = rat.transpose(dJ)
    rows = []
    for row in h.K.basis:
        u, alpha, e = row[:t], row[t : 2 * t], row[2 * t :]
        beta = rat.mat_vec(ident.s_star, e)
        pulled = rat.mat_vec(dj_t, beta) if dJ else (Fraction(0),) * t
        rows.append(tuple(u) + tuple(x + y for x, y in zip(alpha, pulled)))
    return DiracPointData(canonicalize(rows, 2 * t))


def l_from_quasi(q, splitting, ident, dJ):
    """Direct Lagrangian formula for a bivector with action; cross-checked
    against the composite route through the Hamiltonian fiber."""
    if splitting.pair != ident.pair:
        raise ValueError("splitting and identification live on different pairs")
    t, r = q.t_dim, q.a_dim
    dJ = rat.matrix(dJ)
    dj_t = rat.transpose(dJ)
    a_basis_cols = rat.transpose(splitting.pair.g.basis)

    # rho_bar = (dual readout of the half) o s : base tangents -> half coords
    jg = rat.mat_mul(rat.transpose(splitting.j), splitting.pair.d.form.gram)
    rho_bar = rat.mat_mul(jg, ident.s)
    rho_bar_star = rat.transpose(rho_bar)
    s_star = ident.s_star

    rows = []
    for i in range(r):
        a = _unit(r, i)
        u = tuple(q.rho_X[k][i] for k in range(t))
        e = rat.mat_vec(a_basis_cols, a)
        beta = rat.mat_vec(s_star, e)
        alpha = rat.mat_vec(dj_t, beta) if dJ else (Fraction(0),) * t
        rows.append(u + tuple(alpha))
    rho_x_t = rat.transpose(q.rho_X)
    for kk in range(t):
        alpha = _unit(t, kk)
        u = q.interior(alpha)
        twist = (Fraction(0),) * t
        if dJ and r:
            back = rat.mat_vec(rho_x_t, alpha)
            twist = rat.mat_vec(dj_t, rat.mat_vec(rho_bar_star, back))
        rows.append(tuple(u) + tuple(a - b for a, b in zip(alpha, twist)))
    direct = DiracPointData(canonicalize(rows, 2 * t))

    fiber = k_from_quasi(q, dJ=dJ, rho=ident.rho, realization=splitting)
    composite = dirac_from_k(fiber, ident)
    if direct.L != composite.L:
        raise ValueError("direct and composite Lagrangians disagree")
    return direct


def equiv_failure_detail(h):
    """Which transversality condition a fiber violates, as text."""
    m = h.morphism_fiber()
    n1 = m.source_dim
    n2 = m.target.d.dim
    a1 = m.source.g.embed(tuple(range(n1)), n1 + n2)
    msgs = []
    if m.K.intersection(a1).dim != 0:
        msgs.append("i) the relation meets the source half nontrivially")
    full_e2 = Subspace.full(n2).embed(tuple(range(n1, n1 + n2)), n1 + n2)
    slice_ = m.K.intersection(a1 + full_e2)
    if slice_.dim != m.target.g.dim or slice_.project(
        tuple(range(n1, n1 + n2))
    ) != m.target.g:
        msgs.append("ii) the slice over the source half misses the target half")
    return "; ".join(msgs) if msgs else "conditions hold"


def pi_from_dirac(d, dJ, ident, splitting):
    """Bivector out of a Lagrangian: compose the Hamiltonian fiber with the
    embedded dual image and read the graph.  Failure reports which
    transversality condition broke."""
    fiber = k_from_dirac(d, dJ, ident)
    t, n = fiber.t_dim, fiber.pair.d.dim
    krel = LinearRelation(2 * t, n, fiber.K)
    to_zero = LinearRelation(n, 0, splitting.dual_image())
    graph = compose(krel, to_zero).graph
    tangent_over_covector = LinearRelation(t, t, graph)
    m = is_graph_over_factor(tangent_over_covector, "target")
    if m is None:
        raise ValueError(
            "composed relation is not a bivector graph: " + equiv_failure_detail(fiber)
        )
    pi = rat.transpose(m)
    for i in range(t):
        for j in range(t):
            if pi[i][j] != -pi[j][i]:
                raise ValueError("composed graph is not antisymmetric")
    rho_x = extract_action(fiber)
    return QuasiPoissonPointData(t_dim=t, a_dim=fiber.pair.g.dim, Pi=pi, rho_X=rho_x)


# ---------------------------------------------------------------------------
# forward and backward maps along a smooth map's pointwise differential


def forward_dirac(l, f):
    """{(f(u), beta) : (u, f^T beta) in L} for a tangent map ``f``."""
    f = rat.matrix(f)
    m, qd = len(f), len(f[0]) if f else 0
    if l.ambient_dim != 2 * qd:
        raise ValueError("Lagrangian has wrong ambient for the map")
    ann = rat.kernel(l.basis, ncols=2 * qd)
    lift = rat.vstack(
        rat.hstack(rat.identity(qd), rat.zeros(qd, m)),
        rat.hstack(rat.zeros(qd, qd), rat.transpose(f)),
    )
    sols = rat.kernel(rat.mat_mul(ann, lift) if ann else (), ncols=qd + m)
    rows = [
        tuple(rat.mat_vec(f, s[:qd])) + tuple(s[qd:])
        for s in sols
    ]
    return canonicalize(rows, 2 * m)


def backward_dirac(l, f):
    """{(u, f^T beta) : (f(u), beta) in L'} for a tangent map ``f``."""
    f = rat.matrix(f)
    m, qd = len(f), len(f[0]) if f else 0
    if l.ambient_dim != 2 * m:
        raise ValueError("Lagrangian has wrong ambient for the map")
    ann = rat.kernel(l.basis, ncols=2 * m)
    lift = rat.vstack(
        rat.hstack(f, rat.zeros(m, m)),
        rat.hstack(rat.zeros(m, qd), rat.identity(m)),
    )
    sols = rat.kernel(rat.mat_mul(ann, lift) if ann else (), ncols=qd + m)
    rows = [
        tuple(s[:qd]) + tuple(rat.mat_vec(rat.transpose(f), s[qd:]))
        for s in sols
    ]
    return canonicalize(rows, 2 * qd)


# ---------------------------------------------------------------------------
# nondegenerate locus predicates


def k_spans_tangents(h):
    """Projection of the fiber Lagrangian onto tangents is onto."""
    return h.K.project(tuple(range(h.t_dim))).dim == h.t_dim


def dirac_is_form_graph(d):
    """The Lagrangian is the graph of a 2-form on tangents."""
    t = d.t_dim
    return is_graph_over_factor(LinearRelation(t, t, d.L), "source") is not None


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
    return rat.matrix([[Fraction(x) for x in row] for row in rows])


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
        t_dim=int(obj["t_dim"]),
        a_dim=int(obj["a_dim"]),
        Pi=_dec_matrix(obj["pi"]),
        rho_X=_dec_matrix(obj["rho_x"]),
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
    t = int(obj["t_dim"])
    return DiracPointData(canonicalize(_dec_matrix(obj["basis"]), 2 * t))
