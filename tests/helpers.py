"""Shared generators and reference routines for the tests.

Randomness always flows through an explicit numpy generator so every test
is reproducible from its seed.  Lagrangian subspaces come from graphs of
antisymmetric matrices composed with coordinate slot swaps; both steps
preserve the standard split pairing, and the swaps break graph-ness so
the samples are not all transverse to the covector factor.
"""

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path
from types import MappingProxyType

import numpy as np

from diracpairs import rational as rat
from diracpairs import scene_dsl as sd
from diracpairs import so3
from diracpairs import splitting as sp
from diracpairs import numeric_manifold as nm
from diracpairs import quadratic_lie as ql
from diracpairs import verify
from diracpairs.dictionary import (
    DiracPointData,
    ExactIdentification,
    QuasiPoissonPointData,
    abstract_double,
    identification_from_anchor,
    k_from_dirac,
    pi_from_k,
)
from diracpairs.exact_linear import LinearRelation, SplitForm, Subspace, canonicalize, compose
from diracpairs.morphism import HamiltonianFiber, equiv_failures, integer_legs
from diracpairs.numeric_manifold import SectionField, directional_derivative
from diracpairs.quadratic_lie import (
    ManinPairPoint,
    QuadraticLieAlgebra,
    make_cotangent_double,
    structure_from_table,
)
from diracpairs.reduction import PointFiber, hamiltonian_vector, observable
from diracpairs.report import Report, worse
from diracpairs.splitting import (
    IsotropicSplitting,
    make_isotropic_splitting,
    tensor_from_function,
    tensor_get,
)


FIXTURES = Path(__file__).parent / "fixtures"

# The finite-difference step and the gate the tests run at where they pin no
# other.  They equal the step and tol of ``verify.DEFAULTS`` but are pinned
# here, so a change of the command line's defaults moves no test's gate.
STEP = 1e-4
TOL = 1e-6


# ---------------------------------------------------------------------------
# Fraction forms of the integer kernel that only the tests read


def kernel(a, ncols=None):
    """Canonical basis rows of ``{x : a @ x = 0}``.

    ``ncols`` is required when ``a`` has no rows (kernel of a zero map).
    """
    if not a:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs ncols")
        return rat.identity(ncols)
    return rat.over_pivots(rat.int_kernel(rat.over_one_denominator(a)[0], len(a[0])))


def rank(a):
    if not a:
        return 0
    return len(rat.int_rref(rat.over_one_denominator(a)[0])[0])


def solve_linear(a, rhs, ncols=None):
    """Exact solves of ``a @ x = b`` for every vector ``b`` of ``rhs``, from
    one row reduction of ``a`` beside all of them: `int_solve_linear` of
    the augmented rows over one denominator.

    Returns ``(particulars, nullspace_rows)``: ``particulars[j]`` solves the
    system of ``rhs[j]`` with every free coordinate zero, or is None when
    that system is inconsistent; the solutions of a consistent one are
    ``particulars[j] + span(nullspace_rows)``, one null row per free
    column.  ``ncols`` is required when ``a`` has no rows (no constraints).
    """
    a = rat.matrix(a)
    rhs = [rat.vec(b) for b in rhs]
    if not a:
        if ncols is None:
            raise ValueError("solve with no equations needs ncols")
        return [(Fraction(0),) * ncols for _ in rhs], rat.identity(ncols)
    n = len(a[0])
    aug, _ = rat.over_one_denominator(tuple(row + tuple(bs) for row, *bs in zip(a, *rhs)))
    parts, null = rat.int_solve_linear(aug, n, len(rhs))
    parts = [None if part is None else rat.fractions((part[0],), part[1])[0] for part in parts]
    # each null row is scaled to 1 at its free column, its last nonzero entry
    return parts, tuple(rat.fractions((v,), next(filter(None, reversed(v))))[0] for v in null)


def rotation_double_exact_anchor(x):
    """`rotation_double_integer_anchor` as a Fraction matrix."""
    return rat.fractions(*nm.rotation_double_integer_anchor(x))


def rng_for(seed):
    return np.random.default_rng(seed)


def reference_flat_points(samples, seed, dim=3):
    """``verify._flat_points`` as it drew from ``numpy.random``."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(samples, dim))
    return tuple(pts)


def reference_sample_chart_points(count, seed):
    """``so3.sample_chart_points`` as it drew from ``numpy.random``."""
    radius = np.pi - 0.2
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        p = rng.uniform(-radius, radius, size=3)
        r = float(np.linalg.norm(p))
        if 0.15 < r < radius:
            pts.append(p)
    return pts


def random_fraction(rng, lo=-4, hi=5, den=4):
    return Fraction(int(rng.integers(lo, hi)), int(rng.integers(1, den)))


def random_matrix(rng, m, n, lo=-4, hi=5, den=4):
    return rat.matrix(
        [[random_fraction(rng, lo, hi, den) for _ in range(n)] for _ in range(m)]
    )


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def random_antisymmetric(rng, t):
    rows = [[Fraction(0)] * t for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            v = random_fraction(rng)
            rows[i][j], rows[j][i] = v, -v
    return rat.matrix(rows)


def random_lagrangian(rng, t):
    """Random Lagrangian subspace of the standard split space of rank 2t."""
    b = random_antisymmetric(rng, t)
    rows = [tuple(e) + tuple(col) for e, col in zip(rat.identity(t), b)]
    out = []
    swaps = [i for i in range(t) if rng.random() < 0.4]
    for row in rows:
        row = list(row)
        for i in swaps:
            row[i], row[t + i] = row[t + i], row[i]
        out.append(tuple(row))
    return canonicalize(out, 2 * t)


def random_injective(rng, m, q):
    """Random m x q matrix of full column rank (q <= m)."""
    while True:
        f = random_matrix(rng, m, q)
        if rank(f) == q:
            return f


def random_quasi(rng, t, a_dim):
    return QuasiPoissonPointData(
        t_dim=t,
        a_dim=a_dim,
        Pi=random_antisymmetric(rng, t),
        rho_X=random_matrix(rng, t, a_dim) if a_dim else (),
    )


def cayley_rotation(rng, den=4):
    """Exact rational orthogonal 3x3 matrix with determinant one."""
    s = random_antisymmetric(rng, 3)
    i3 = rat.identity(3)
    return rat.mat_mul(add_tensors(i3, rat.mat_neg(s)), rat.invert(add_tensors(i3, s)))


def rotation_cayley_ident(rng):
    """Exact splitting of the rotation double from an orthogonal anchor.

    The anchor [-I | R] with R exactly orthogonal is coisotropic for the
    double's pairing because R R^T = I holds on the nose.
    """
    pair = catalog()["so3-double"]
    r = cayley_rotation(rng)
    rho = rat.hstack(rat.mat_neg(rat.identity(3)), r)
    return identification_from_anchor(pair, rho)


def abstract_ident(r):
    """Splitting of the abelian double of rank r with anchor [0 | I]."""
    pair = abstract_double(r)
    rho = rat.hstack(rat.zeros(r, r), rat.identity(r))
    return identification_from_anchor(pair, rho)


def moment_compatible_quasi(rng, t, r):
    """(q, dJ) whose fiber over the abelian double satisfies the support
    condition: dJ has the invertible-left-block shape, the bivector has a
    vanishing upper-left block, and the action is -Pi dJ^T."""
    assert t >= r
    while True:
        d = random_matrix(rng, r, r)
        if rank(d) == r:
            break
    dj = rat.hstack(d, rat.zeros(r, t - r))
    pi = [[Fraction(0)] * t for _ in range(t)]
    for i in range(t):
        for j in range(max(i + 1, r), t):
            v = random_fraction(rng)
            pi[i][j], pi[j][i] = v, -v
    pi = rat.matrix(pi)
    rho_x = rat.mat_neg(rat.mat_mul(pi, rat.transpose(dj)))
    q = QuasiPoissonPointData(t_dim=t, a_dim=r, Pi=pi, rho_X=rho_x)
    return q, dj


def direct_lagrangian(q, splitting, ident, dJ):
    """Lagrangian of a bivector with action by the direct formula, the
    reference for ``dictionary.l_from_quasi``'s route through the
    Hamiltonian fiber: rows (rho_X(a), dJ^T s*(a)) for the half basis and
    (i_alpha Pi, alpha - dJ^T rho_bar^T rho_X^T alpha) per covector."""
    t, r = q.t_dim, q.a_dim
    dJ = rat.matrix(dJ)
    dj_t = rat.transpose(dJ)
    a_basis_cols = rat.transpose(splitting.pair.g.basis)

    # rho_bar = (dual readout of the half) o s : base tangents -> half coords
    jg = rat.mat_mul(rat.transpose(splitting.j), splitting.pair.d.form.gram)
    rho_bar = rat.mat_mul(jg, rat.fractions(*ident.integer_s))
    rho_bar_star = rat.transpose(rho_bar)
    s_star = rat.fractions(*ident.integer_s_star)

    rows = []
    for i in range(r):
        a = rat.identity(r)[i]
        u = tuple(q.rho_X[k][i] for k in range(t))
        e = rat.mat_vec(a_basis_cols, a)
        beta = rat.mat_vec(s_star, e)
        alpha = rat.mat_vec(dj_t, beta) if dJ else (Fraction(0),) * t
        rows.append(u + tuple(alpha))
    rho_x_t = rat.transpose(q.rho_X)
    for kk in range(t):
        alpha = rat.identity(t)[kk]
        u = rat.mat_vec(rat.transpose(q.Pi), alpha)
        twist = (Fraction(0),) * t
        if dJ and r:
            back = rat.mat_vec(rho_x_t, alpha)
            twist = rat.mat_vec(dj_t, rat.mat_vec(rho_bar_star, back))
        rows.append(tuple(u) + tuple(a - b for a, b in zip(alpha, twist)))
    return DiracPointData(canonicalize(rows, 2 * t))


def hyperbolic_frame(pair):
    """Columns mapping the standard split space onto the pair's ambient:
    half basis first, then the isotropic complement dual to it."""
    sp = make_isotropic_splitting(pair)
    return rat.hstack(rat.transpose(pair.g.basis), sp.j)


def twist(splitting, w):
    """New splitting ``j'(xi) = j(xi) + i_xi w`` for a 2-vector ``w`` on A
    (components in the dual basis); isotropy is preserved."""
    # column k gains sum_l w[k][l] a_l: j + A^T w^T
    shift = rat.mat_mul(rat.transpose(splitting.a_basis), rat.transpose(rat.matrix(w)))
    return IsotropicSplitting(splitting.pair, add_tensors(splitting.j, shift))


def random_lagrangian_for_pair(rng, pair):
    """Random Lagrangian subspace for the pair's own split pairing."""
    n = pair.d.dim
    frame = hyperbolic_frame(pair)
    std = random_lagrangian(rng, n // 2)
    rows = [tuple(rat.mat_vec(frame, v)) for v in std.basis]
    return canonicalize(rows, n)


def random_relation_lagrangian(rng, pair1, pair2):
    """Random Lagrangian for the difference form on pair1 + pair2.

    The second pair's pairing enters negated, so its isotropic complement
    is flipped to keep the combined frame hyperbolic; a slot permutation
    then lines the frame up with one standard split space.
    """
    a, b = pair1.d.dim // 2, pair2.d.dim // 2
    f1 = hyperbolic_frame(pair1)
    sp2 = make_isotropic_splitting(pair2)
    f2 = rat.hstack(rat.transpose(pair2.g.basis), rat.mat_neg(sp2.j))
    frame = rat.block_diag(f1, f2)
    std = random_lagrangian(rng, a + b)
    order = (
        list(range(a))
        + list(range(2 * a, 2 * a + b))
        + list(range(a, 2 * a))
        + list(range(2 * a + b, 2 * (a + b)))
    )
    rows = []
    for v in std.basis:
        arranged = [Fraction(0)] * len(order)
        for std_slot, block_slot in enumerate(order):
            arranged[block_slot] = v[std_slot]
        rows.append(tuple(rat.mat_vec(frame, arranged)))
    return canonicalize(rows, 2 * (a + b))


# ---------------------------------------------------------------------------
# dense antisymmetric tensor utilities


def zero_tensor(dim, degree):
    if degree == 0:
        return Fraction(0)
    return tuple(zero_tensor(dim, degree - 1) for _ in range(dim))


def eval_tensor(t, degree, covectors):
    """Multilinear evaluation on ``degree`` coordinate covectors."""
    total = Fraction(0)
    dim = len(covectors[0])
    for idx in product(range(dim), repeat=degree):
        coeff = tensor_get(t, idx)
        if not coeff:
            continue
        for pos, i in enumerate(idx):
            coeff = coeff * covectors[pos][i]
            if not coeff:
                break
        total += coeff
    return total


def _shuffle_sign(left):
    # sign of the permutation sorting (left, complement) back to increasing
    sign = 1
    for rank, pos in enumerate(left):
        sign = sign if (pos - rank) % 2 == 0 else -sign
    return sign


def wedge(a, p, b, q, dim):
    """Shuffle-convention wedge of a p-vector and a q-vector."""
    if p == 0:
        return scale_tensor(a, b)
    if q == 0:
        return scale_tensor(b, a)

    def entry(idx):
        total = Fraction(0)
        for left in combinations(range(p + q), p):
            right = tuple(k for k in range(p + q) if k not in left)
            va = tensor_get(a, tuple(idx[k] for k in left))
            if not va:
                continue
            vb = tensor_get(b, tuple(idx[k] for k in right))
            if not vb:
                continue
            total += _shuffle_sign(left) * va * vb
        return total

    return tensor_from_function(dim, p + q, entry)


def scale_tensor(c, t):
    c = rat.scalar(c)
    if isinstance(t, Fraction):
        return c * t
    return tuple(scale_tensor(c, x) for x in t)


def add_tensors(a, b):
    if isinstance(a, Fraction):
        return a + b
    return tuple(add_tensors(x, y) for x, y in zip(a, b))


def tensor_is_zero(t):
    if isinstance(t, Fraction):
        return t == 0
    return all(tensor_is_zero(x) for x in t)


def is_antisymmetric(t, dim, degree):
    for idx in product(range(dim), repeat=degree):
        for k in range(degree - 1):
            swapped = list(idx)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            if tensor_get(t, idx) != -tensor_get(t, tuple(swapped)):
                return False
    return True


# ---------------------------------------------------------------------------
# dense reference for the quasi-Jacobi check
#
# The package checks coherence on sorted-key multivectors.  The routines
# below compute the same identities on dense dim^k component tensors through
# shuffle sums; tests compare the two.


def wedge_list(items, dim):
    """Wedge of ``[(tensor, degree), ...]`` left to right."""
    t, p = items[0]
    for s, q in items[1:]:
        t, p = wedge(t, p, s, q, dim), p + q
    return t, p


def ad_action(structure, a_vec, t, degree):
    """Extend ``ad_a = [a, .]`` of a Lie algebra as a derivation to a
    degree-``degree`` multivector in components."""
    dim = len(structure)
    a_vec = rat.vec(a_vec)
    # c_a[m][k]: coefficient of e_k in [a, e_m]
    c_a = [
        [
            sum(a_vec[s] * structure[s][m][k] for s in range(dim))
            for k in range(dim)
        ]
        for m in range(dim)
    ]

    def entry(idx):
        total = Fraction(0)
        for r in range(degree):
            for m in range(dim):
                c = c_a[m][idx[r]]
                if not c:
                    continue
                src = idx[:r] + (m,) + idx[r + 1 :]
                v = tensor_get(t, src)
                if v:
                    total += c * v
        return total

    return tensor_from_function(dim, degree, entry)


def apply_codifferential(t, degree, f_images, dim):
    """Degree-raising derivation determined by ``a_i -> f_images[i]`` (each a
    2-tensor) on degree-1 generators; extended by the graded Leibniz rule."""
    if degree == 0:
        return zero_tensor(dim, 1)
    basis = [tuple(Fraction(1 if k == i else 0) for k in range(dim)) for i in range(dim)]
    out = zero_tensor(dim, degree + 1)
    inv_fact = Fraction(1)
    for k in range(2, degree + 1):
        inv_fact /= k
    for idx in product(range(dim), repeat=degree):
        coeff = tensor_get(t, idx)
        if not coeff:
            continue
        for r in range(degree):
            items = [
                (f_images[i], 2) if pos == r else (basis[i], 1)
                for pos, i in enumerate(idx)
            ]
            term, _ = wedge_list(items, dim)
            sign = Fraction(1) if r % 2 == 0 else Fraction(-1)
            out = add_tensors(out, scale_tensor(coeff * sign * inv_fact, term))
    return out


def bracket_with_trivector(chi, t, degree, structure, sign):
    """[chi, t] for a 3-vector ``chi``: on degree one it is ``sign * ad_a(chi)``,
    and it extends to higher degree as an even-degree derivation."""
    dim = len(structure)
    basis = [tuple(Fraction(1 if k == i else 0) for k in range(dim)) for i in range(dim)]
    if degree == 0:
        return zero_tensor(dim, 2)
    chi_of = [scale_tensor(sign, ad_action(structure, basis[i], chi, 3)) for i in range(dim)]
    out = zero_tensor(dim, degree + 2)
    inv_fact = Fraction(1)
    for k in range(2, degree + 1):
        inv_fact /= k
    for idx in product(range(dim), repeat=degree):
        coeff = tensor_get(t, idx)
        if not coeff:
            continue
        for r in range(degree):
            items = [
                (chi_of[i], 3) if pos == r else (basis[i], 1)
                for pos, i in enumerate(idx)
            ]
            term, _ = wedge_list(items, dim)
            out = add_tensors(out, scale_tensor(coeff * inv_fact, term))
    return out


def _basis_component(idx, i):
    """Component of the basis multivector e_{idx} at multi-index ``i``:
    the sign of the permutation mapping idx to i (0 if not a permutation)."""
    if sorted(i) != list(idx):
        return 0
    perm = [idx.index(x) for x in i]
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def dense_quasi_jacobi(a_structure, data):
    """Dense twin of ``splitting.check_quasi_jacobi``: the same report,
    computed on full component tensors."""
    dim = data.a_dim
    witness = {}
    coherence = 0
    for degree in range(1, sp.COHERENCE_DEGREE + 1):
        if degree > dim:
            break
        for idx in combinations(range(dim), degree):
            t = tensor_from_function(
                dim,
                degree,
                lambda i: _basis_component(idx, i),
            )
            once = apply_codifferential(t, degree, data.F, dim)
            twice = apply_codifferential(once, degree + 1, data.F, dim)
            target = bracket_with_trivector(
                data.chi, t, degree, a_structure, sp.TOP_BRACKET_SIGN
            )
            if not tensor_is_zero(add_tensors(twice, scale_tensor(-1, target))):
                coherence += 1
                witness.setdefault("coherence", idx)
    d_chi = apply_codifferential(data.chi, 3, data.F, dim)
    defect = 0 if tensor_is_zero(d_chi) else 1
    if defect:
        witness["defect"] = "d(chi) != 0"
    return Report(
        {"coherence": coherence, "defect": defect},
        exact={"coherence", "defect"},
        witness=witness,
    )


# Probes and exact references that the package itself does not call.


def fd_convergence_probe(factory, x, h, factor=8.0):
    """Step-halving signal for the bracket's FD scheme.

    ``factory(step)`` rebuilds the bundle at a given step.  The probe
    brackets two transcendental sections at ``x`` against a much finer
    reference; for a second-order scheme the value at step ``h`` is about
    four times the value at ``h/2``.
    """
    coarse = factory(h)
    ref = factory(h / factor)
    r = coarse.rank
    eye = np.eye(r)

    def mix1(y):
        return math.sin(float(y[0])) * eye[0] + math.cos(float(y[0])) * eye[r - 1]

    def mix2(y):
        return math.cos(float(y[0])) * eye[1 % r] + math.sin(float(y[0])) * eye[r - 2]

    e1 = SectionField(r, per_point(mix1))
    e2 = SectionField(r, per_point(mix2))
    w = coarse.bracket_at(e1, e2, np.asarray(x, float))
    wr = ref.bracket_at(e1, e2, np.asarray(x, float))
    return float(np.max(np.abs(w - wr)))


def not_poisson_bivector(x):
    """Component matrix of x2 d0 ^ d1 + d1 ^ d2 + x0 d0 ^ d2, whose
    Schouten square does not vanish."""
    return np.array([[0.0, x[2], x[0]], [-x[2], 0.0, 1.0], [-x[0], -1.0, 0.0]])


def so3_linear_poisson(x):
    """Component matrix of the linear bivector on the dual of the rotation
    algebra: {x_i, x_j} = sum_k eps_ijk x_k."""
    x = np.asarray(x, dtype=float)
    return np.array(
        [
            [0.0, x[2], -x[1]],
            [-x[2], 0.0, x[0]],
            [x[1], -x[0], 0.0],
        ]
    )


def group_trace_function(x):
    """Trace of the chart rotation, the transcendental probe function, at a
    point ``(n,)`` or at every point of a stack ``(..., n)``: each stacked
    value is the single-point one bit for bit."""
    x = np.asarray(x, float)
    return 1.0 + 2.0 * np.cos(np.sqrt(nm._dot(x, x)))


def exact_flow_vector(t_dim, e_dim, rows, df):
    """Rational-arithmetic twin of the fiber matching for frozen fibers.

    Returns the flow direction as a Fraction tuple, or None when the
    system is inconsistent (the differential is not admissible).
    """
    rows_q = rat.matrix(rows)
    if rows_q and len(rows_q[0]) != 2 * t_dim + e_dim:
        raise ValueError("fiber rows do not match the declared block widths")
    a = rat.transpose([r[t_dim:] for r in rows_q])
    rhs = tuple(rat.vec(df)) + (Fraction(0),) * e_dim
    (coef,), null = solve_linear(a, [rhs], ncols=len(rows_q))
    if coef is None:
        return None
    u_map = rat.transpose([r[:t_dim] for r in rows_q])
    for z in null:
        if any(rat.mat_vec(u_map, z)):
            raise ValueError(
                "fiber matches the zero differential with a nonzero direction"
            )
    return rat.mat_vec(u_map, coef)


def orthogonal_complement(form, u):
    """``{v : gram(v, w) = 0 for all w in u}``; exact."""
    if u.ambient_dim != form.dim:
        raise ValueError("subspace does not live in the form's space")
    if form.signature()[2]:
        raise ValueError(
            f"gram is degenerate (signature {form.signature()}); "
            "orthogonal complements need a nondegenerate pairing"
        )
    rows = kernel(rat.mat_mul(u.basis, form.gram), ncols=form.dim)
    return canonicalize(rows, form.dim)


# Per-point references for the numeric tier's stacked kernels: the bodies
# the package ran one point at a time before its brackets and partial
# tables took stacks of points.  The stacked code must match them bit for
# bit.


def reference_partial_table(f, x, dim, h):
    """Partials ``P[..., m] = d f[...] / d x_m`` by central differences,
    ``(f(x + h e_m) - f(x - h e_m)) / 2h``; for a scalar ``f`` this is its
    gradient.  ``f`` is evaluated point by point on a stencil built once, in
    the order ``x + h e_0, x - h e_0, x + h e_1, ...``."""
    stencil = np.asarray(x, dtype=float) + nm._stencil_steps(dim, h)
    return nm._central_differences(np.array([f(y) for y in stencil], dtype=float), h)


def directional_derivative_partial_table(f, x, dim, h=1e-4):
    """Partials ``P[..., m] = d f[...] / d x_m`` by central differences; for
    a scalar ``f`` this is its gradient."""
    cols = []
    for m in range(dim):
        e = np.zeros(dim)
        e[m] = 1.0
        cols.append(directional_derivative(f, x, e, h))
    if np.ndim(cols[0]) == 0:
        # a gradient: np.stack of 0-d columns is several times slower
        return np.array(cols)
    return np.stack(cols, axis=-1)


def twisted_bracket_at_point(e1, e2, x, phi_field, h=1e-4):
    """Twisted bracket of tangent-plus-cotangent sections at ``x``:

        [[X + a, Y + b]] = [X, Y] + L_X b - i_Y da + phi(X, Y, .)

    from each section's jet."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    e1x, p1 = e1.jet(x, h)
    e2x, p2 = e2.jet(x, h)
    v1, a1, v2, a2 = e1x[:n], e1x[n:], e2x[:n], e2x[n:]
    vec = p2[:n] @ v1 - p1[:n] @ v2
    cov = p2[n:] @ v1 + p1[:n].T @ a2
    cov -= (p1[n:].T - p1[n:]).T @ v2
    t = np.asarray(phi_field(x), dtype=float)
    cov += np.einsum("abj,a,b->j", t, v1, v2)
    return np.concatenate([vec, cov])


def dressing_bracket_at_point(c, e1, e2, x):
    """The dressing bundle ``c``'s bracket at one point ``x``, on the data
    ``make_dressing_courant`` binds: structure constants, Gram matrix and
    its inverse, the memoized anchor and the step."""
    structure = np.array(
        [[[float(v) for v in row] for row in plane] for plane in c.pair.d.structure]
    )
    gram = c.gram
    gram_inv = np.linalg.inv(gram)
    anchor, h = c.anchor, c.step

    x = np.asarray(x, dtype=float)
    rho = anchor(x)
    e1x, p1 = e1.jet(x, h)
    e2x, p2 = e2.jet(x, h)
    val = np.einsum("ijk,i,j->k", structure, e1x, e2x)
    val += p2 @ (rho @ e1x) - p1 @ (rho @ e2x)
    w = p1.T @ (gram @ e2x)
    val += gram_inv @ rho.T @ w
    return val


# Points per block of probe brackets in ``reference_check_axioms_numeric``.
# Each stacked bracket is its single-point value bit for bit, so any block
# size gives the same report; one smaller than the tests' 73 and 74 samples
# makes them cross a block boundary.
REFERENCE_BLOCK = 32


def reference_check_axioms_numeric(c, tol):
    """``numeric_manifold.check_axioms_numeric`` as it was before its
    probes ran over stacks: the c2 to c5 readings are taken point by point,
    by ``reference_partial_table``, ``directional_derivative`` and the
    commutator of those tables, and only the probe brackets over blocks of
    ``REFERENCE_BLOCK`` points.  The stacked check must give the same
    report, repr for repr."""
    h = c.step
    pts = c.chart.sample_points
    n = c.chart.dim
    lib = nm.section_library(c.rank, n)
    funcs = nm.scalar_library(n)
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
    for start in range(0, len(pts), REFERENCE_BLOCK):
        block = pts[start : start + REFERENCE_BLOCK]
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
                want = 0.5 * (c.rho_star(x) @ reference_partial_table(norm, x, n, h))
                res["c2_selfpairing"] = worse(res["c2_selfpairing"], float(np.max(np.abs(sq[p] - want))))

            for (e1, e2), b12 in zip(metric, c34):
                # the metric dual of e2 at x, so <e2, e3> varies wherever e2
                # does and the metric axiom has a derivative to match
                e3 = nm.SectionField.constant(c.gram @ e2(x))
                scalar = lambda y, e2=e2, e3=e3: float(e2(y) @ c.gram @ e3(y))
                v = c.anchor_matrix(x) @ e1(x)
                lhs = float(nm.directional_derivative(scalar, x, v, h)) if np.any(v) else 0.0
                rhs = float(b12[p] @ c.gram @ e3(x)) + float(e2(x) @ c.gram @ c.bracket_at(e1, e3, x))
                res["c3_metric"] = worse(res["c3_metric"], abs(lhs - rhs))

                lhs4 = c.anchor_matrix(x) @ b12[p]
                v1, v2 = c.anchor_vector_field(e1), c.anchor_vector_field(e2)
                p1, p2 = (reference_partial_table(v, x, n, h) for v in (v1, v2))
                rhs4 = p2 @ np.asarray(v1(x), float) - p1 @ np.asarray(v2(x), float)
                res["c4_anchor"] = worse(res["c4_anchor"], float(np.max(np.abs(lhs4 - rhs4))))

            for (e1, e2, f), (lhs5, b12) in zip(leibniz, c5):
                v = c.anchor_matrix(x) @ e1(x)
                df = float(reference_partial_table(f, x, n, h) @ v)
                rhs5 = f(x) * b12[p] + df * e2(x)
                res["c5_leibniz"] = worse(res["c5_leibniz"], float(np.max(np.abs(lhs5[p] - rhs5))))

    return Report(res, tol=tol, data={"step": h})


def reference_check_quasi_poisson(
    pi, rho_x, chi, cobracket, points, rho_astar=None, funcs=None, *, h, tol
):
    """``numeric_manifold.check_quasi_poisson`` as it was before it ran
    over stacks: one point at a time, every gradient, inner bracket and
    partial table by ``reference_partial_table``, memoized per stencil
    point, and the sharp identity at each point.  The stacked check must
    give the same report, repr for repr."""
    if not len(points):
        raise ValueError("quasi-Poisson check needs at least one point")
    dim = np.shape(points[0])[0]
    funcs = funcs if funcs is not None else nm.scalar_library(dim)
    chi_f = np.array(chi, dtype=float)
    cob_f = np.array(cobracket, dtype=float)

    res = {"jacobiator": 0.0}
    if cob_f.size:
        res["lie_compat"] = 0.0
    if rho_astar is not None:
        res["sharp_compat"] = 0.0

    # the fields and each function's gradient once per point: every inner
    # bracket and partial table reads them at the same stencil points
    pi, rho_x = per_point(pi), per_point(rho_x)
    grad = [per_point(lambda y, f=f: reference_partial_table(f, y, dim, h)) for f in funcs]
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

                    inner[b, c] = reference_partial_table(bracket, x, dim, h)
                total += float(inner[b, c] @ px.T @ grads[a])
            rhs = 0.0
            if chi_f.size:
                vf, vg, vk = (rx.T @ grads[m] for m in (i, j, k))
                rhs = nm.JACOBIATOR_SIGN * float(np.einsum("ijk,i,j,k->", chi_f, vf, vg, vk))
            res["jacobiator"] = worse(res["jacobiator"], abs(total - rhs))

        if "lie_compat" in res:
            r = cob_f.shape[0]
            pfield = lambda y: np.asarray(pi(y), float).reshape(-1)
            pt = reference_partial_table(pfield, x, dim, h).reshape(dim, dim, dim)
            for idx in range(r):
                a = np.eye(r)[idx]
                vfield = lambda y, a=a: np.asarray(rho_x(y), float) @ a
                vt = reference_partial_table(vfield, x, dim, h)
                vx = vfield(x)
                lie = np.einsum("klm,m->kl", pt, vx)
                lie -= np.einsum("ml,km->kl", px, vt)
                lie -= np.einsum("km,lm->kl", px, vt)
                fa = np.einsum("ikl,i->kl", cob_f, a)
                want = -(rx @ fa @ rx.T)
                res["lie_compat"] = worse(res["lie_compat"], float(np.max(np.abs(lie - want))))

        if rho_astar is not None:
            ra = np.asarray(rho_astar(x), float)
            diff = float(np.max(np.abs(px.T - rx @ ra.T)))
            res["sharp_compat"] = worse(res["sharp_compat"], diff)

    return Report(res, tol=tol)


# Row reduction as it was before ``rational.rref`` became one Gauss-Jordan
# pass: Bareiss forward elimination, then back-substitution on primitive
# integer rows.  RREF is unique, so the two must agree bit for bit.


def reference_rref(rows):
    """Reduced row echelon form of the row span.

    Returns ``(rows, pivots)``: the nonzero RREF rows as Fraction tuples and
    the pivot column indices.  The forward elimination is Bareiss and the
    back-substitution clears on primitive integer rows; each nonzero output
    entry is then one ``Fraction(v, pivot)``.
    """
    work = [r for r in rat._primitive_rows(rows) if any(r)]
    if not work:
        return (), ()
    m, n = len(work), len(work[0])

    piv_cols = []
    r = 0
    prev = 1
    for c in range(n):
        p = next((i for i in range(r, m) if work[i][c]), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        piv = work[r][c]
        top = work[r]
        for i in range(r + 1, m):
            cur = work[i]
            t = cur[c]
            for j in range(c + 1, n):
                cur[j] = (piv * cur[j] - t * top[j]) // prev
            cur[c] = 0
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == m:
            break

    # Clear above each pivot on the r echelon rows, kept primitive; RREF is
    # unique, hence canonical.
    work = [rat._primitive(work[i]) for i in range(r)]
    for i in reversed(range(r)):
        top = work[i]
        piv = top[piv_cols[i]]
        for k in range(i):
            f = work[k][piv_cols[i]]
            if f:
                work[k] = rat._primitive([piv * a - f * b for a, b in zip(work[k], top)])
    return (
        tuple(
            tuple(Fraction(v, row[c]) if v else rat._ZERO for v in row)
            for row, c in zip(work, piv_cols)
        ),
        tuple(piv_cols),
    )


def per_point(fn):
    """The field of stacks of a pure function ``fn`` of one chart point: at
    a point ``(n,)`` its value, and at a stack ``(..., n)`` the stack of its
    values, one call per point.  Each point's value is memoized, a
    read-only float copy of ``fn(x)``; each wrapper has its own bounded
    memo."""
    at = nm._shared(fn)
    return lambda x: nm._at_points(at, np.asarray(x, dtype=float))


# The rotation chart's float anchor as it was before ``so3`` took stacks:
# one point at a time, the angle a Python float.  The stacked anchor must
# match it bit for bit.


def reference_hat(x):
    x = np.asarray(x, dtype=float)
    return np.array(
        [
            [0.0, -x[2], x[1]],
            [x[2], 0.0, -x[0]],
            [-x[1], x[0], 0.0],
        ]
    )


def reference_exp_rotation(x):
    """Rodrigues rotation for a chart point ``x``."""
    x = np.asarray(x, dtype=float)
    theta = float(np.linalg.norm(x))
    h = reference_hat(x)
    if theta < 1e-8:
        return np.eye(3) + h + 0.5 * (h @ h)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * h + b * (h @ h)


def reference_left_jacobian_inv(x):
    x = np.asarray(x, dtype=float)
    theta = float(np.linalg.norm(x))
    h = reference_hat(x)
    if theta < 1e-6:
        return np.eye(3) - 0.5 * h + (h @ h) / 12.0
    c = 1.0 / theta**2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))
    return np.eye(3) - 0.5 * h + c * (h @ h)


def reference_rotation_double_anchor(x):
    """Float anchor of the rotation double acting on its group chart by
    simultaneous left and inverse right translation (the conjugation
    action in exponential coordinates).  The generators of a left action
    anti-commute with the algebra bracket, so the anchor is their
    negative: that makes it a bracket homomorphism on the nose."""
    x = np.asarray(x, dtype=float)
    jinv = reference_left_jacobian_inv(x)
    r = reference_exp_rotation(x)
    return np.hstack([-jinv, jinv @ r])


def reference_rationalize_rotation(r):
    """The Cayley freeze by matrix inversion, (I - S)^{-1} (I + S): the
    reference that ``so3.rationalize_rotation``'s closed form must equal.

    Round the Cayley preimage (a skew matrix, kept exactly skew by mirroring
    the strict upper triangle) and map back; requires the rotation angle to
    stay away from a half turn, where the Cayley chart blows up.  Entries
    are rounded by ``rational.rationalize`` onto the grid of multiples of
    2^-52, each within 2^-53.
    """
    r = np.asarray(r, dtype=float)
    s = np.linalg.solve((r + np.eye(3)).T, (r - np.eye(3)).T).T
    q = [[rat.scalar(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            v = rat.rationalize(0.5 * (s[i, j] - s[j, i]))
            q[i][j] = v
            q[j][i] = -v
    sq = rat.matrix(q)
    eye = rat.identity(3)
    return rat.mat_mul(rat.invert(add_tensors(eye, rat.mat_neg(sq))), add_tensors(eye, sq))


# The exact anchor as it was before it took stacks: one point at a time,
# each entry rounded to a Fraction by ``rational.rationalize`` and brought
# back to integers.  The stacked anchor must give the same rationals.


def rationalize_matrix(m):
    return rat.matrix([[rat.rationalize(float(v)) for v in row] for row in np.asarray(m, dtype=float)])


def reference_closed_form_rotation(r):
    """The Cayley freeze of one rotation by the closed form, as integer rows
    over one denominator: ``so3.rationalize_rotation`` at one point."""
    r = np.asarray(r, dtype=float)
    s = np.linalg.solve((r + np.eye(3)).T, (r - np.eye(3)).T).T
    upper = [rat.rationalize(0.5 * (s[i, j] - s[j, i])) for i, j in ((0, 1), (0, 2), (1, 2))]
    d = math.lcm(*(v.denominator for v in upper))
    a, b, c = (v.numerator * (d // v.denominator) for v in upper)
    t = ((0, a, b), (-a, 0, c), (-b, -c, 0))
    den = d * d + a * a + b * b + c * c
    rows = [
        [
            (den if i == j else 0) + 2 * (d * t[i][j] + sum(t[i][k] * t[k][j] for k in range(3)))
            for j in range(3)
        ]
        for i in range(3)
    ]
    return rows, den


def reference_rotation_double_integer_anchor(x):
    """The exact anchor at one point ``(3,)``: ``[-jq | jq rq]`` over the
    product of the two denominators."""
    x = np.asarray(x, dtype=float)
    jq, dj = rat.over_one_denominator(rationalize_matrix(so3.left_jacobian_inv(x)))
    rq, dr = reference_closed_form_rotation(so3.exp_rotation(x))
    rows = [[-v * dr for v in j] + jr for j, jr in zip(jq, rat.int_mat_mul(jq, rq))]
    return rows, dj * dr


def reference_bracket(d, u, v):
    """The dense Fraction triple loop over the structure constants: the
    reference that ``QuadraticLieAlgebra.bracket`` must equal."""
    u, v = rat.vec(u), rat.vec(v)
    c = d.structure
    n = d.dim
    out = [Fraction(0)] * n
    for i in range(n):
        if not u[i]:
            continue
        ci = c[i]
        for j in range(n):
            if not v[j]:
                continue
            coeff = u[i] * v[j]
            cij = ci[j]
            for k in range(n):
                if cij[k]:
                    out[k] += coeff * cij[k]
    return tuple(out)


def reference_check_quadratic_lie(d):
    """The point-case axioms decided through Fraction products: the
    reference that ``quadratic_lie.check_quadratic_lie`` must equal, report
    for report.  Not memoized."""
    n = d.dim
    c = d.structure
    bad = {"antisymmetry": 0, "jacobi": 0, "ad_invariance": 0}
    witness = {}

    def violated(name, idx):
        bad[name] += 1
        witness.setdefault(name, idx)

    for i in range(n):
        for j in range(n):
            if any(c[i][j][k] != -c[j][i][k] for k in range(n)):
                violated("antisymmetry", (i, j))

    # [e_i, w] = ad_i w with ad_i = c[i]^T, and the bracket is bilinear in
    # its left slot, so Jacobi fails at (i, j, k) exactly when column k of
    # ad_i ad_j - ad_j ad_i - sum_l c[i][j][l] ad_l, that is row k of
    # c[j] c[i] - c[i] c[j] - sum_l c[i][j][l] c[l], is nonzero.  Two
    # products hold every term: block (j, i) of `prod` is c[j] c[i], and
    # row (i, j) of `comb` is sum_l c[i][j][l] c[l] flattened.
    stacked = tuple(row for plane in c for row in plane)
    prod = rat.mat_mul(stacked, tuple(sum(rows, ()) for rows in zip(*c)))
    comb = rat.mat_mul(stacked, tuple(sum(plane, ()) for plane in c))
    for i in range(n):
        for j in range(n):
            lin = comb[i * n + j]
            for k in range(n):
                ji = prod[j * n + k][i * n : (i + 1) * n]
                ij = prod[i * n + k][j * n : (j + 1) * n]
                if any(a - b != e for a, b, e in zip(ji, ij, lin[k * n :])):
                    violated("jacobi", (i, j, k))

    # <[e_i, e_j], e_k> + <e_j, [e_i, e_k]> is entry (j, k) of c_i G + G c_i^T
    gram = d.form.gram
    for i in range(n):
        m = add_tensors(rat.mat_mul(c[i], gram), rat.mat_mul(gram, rat.transpose(c[i])))
        for j in range(n):
            for k in range(n):
                if m[j][k] != 0:
                    violated("ad_invariance", (i, j, k))

    plus, minus, null = d.form.signature()
    return Report(
        {**bad, "degeneracy": null},
        exact=(*bad, "degeneracy"),
        witness=witness,
        data={"signature": (plus, minus)},
    )


def reference_transport(l, f, forward):
    """Dirac transport through the annihilator of ``l``: the reference that
    ``dictionary.forward_dirac`` and ``backward_dirac`` must equal.

    Kernel of the annihilator of ``l`` on pairs (u, beta) lifted into
    its ambient, read out in the other ambient.  The lifts are (u, f^T beta)
    and (f u, beta); ``forward`` lifts by the first and reads out by the
    second, backward the other way round."""
    f = rat.matrix(f)
    m, qd = len(f), len(f[0]) if f else 0
    covector_leg = rat.vstack(
        rat.hstack(rat.identity(qd), rat.zeros(qd, m)),
        rat.hstack(rat.zeros(qd, qd), rat.transpose(f)),
    )
    tangent_leg = rat.vstack(
        rat.hstack(f, rat.zeros(m, m)),
        rat.hstack(rat.zeros(m, qd), rat.identity(m)),
    )
    lift, readout = (covector_leg, tangent_leg) if forward else (tangent_leg, covector_leg)
    if l.ambient_dim != len(lift):
        raise ValueError("Lagrangian has wrong ambient for the map")
    ann = kernel(l.basis, ncols=len(lift))
    sols = kernel(rat.mat_mul(ann, lift) if ann else (), ncols=qd + m)
    return canonicalize([rat.mat_vec(readout, s) for s in sols], len(readout))


# Row-by-row references for the block builders: the bodies that
# ``dictionary.k_from_quasi``, ``k_from_dirac``, ``dirac_from_k`` and
# ``numeric_manifold.canonical_fiber`` ran before each fiber was assembled
# from blocks, one product per map.  The builders must give the same
# subspaces.


def _unit(n, k):
    return tuple(Fraction(1 if j == k else 0) for j in range(n))


def reference_absorb_self_pairing(form, c, adjoint):
    """``c - 1/2 adjoint (c^T G c)``: the columns of ``c`` with half their
    self pairing absorbed through ``adjoint``.  The image is isotropic when
    ``adjoint`` has isotropic image and ``adjoint^T G c`` is the identity.

    ``c = C / dc``, ``adjoint = A / da`` and the result are integer rows
    over one denominator: with G = H / dg, the result is
    ``(2 da dc dg C - A C^T H C) / (2 da dc^2 dg)``, in lowest terms."""
    (cr, dc), (ar, da) = c, adjoint
    h, dg = form.integer_gram
    ab = rat.int_mat_mul(ar, rat.int_mat_mul(rat.int_mat_mul(rat.transpose(cr), h), cr))
    k = 2 * da * dc * dg
    return rat.lowest_terms(
        [[k * x - y for x, y in zip(row, sub)] for row, sub in zip(cr, ab)], k * dc
    )


def reference_isotropic_splitting(pair):
    """Construct a splitting for any split Manin pair.

    Start from the coordinate complement of the Lagrangian half, normalize it
    to pair dually with the chosen basis, then subtract half of its self
    pairing (absorbed into A); the result has exactly isotropic image.
    """
    d = pair.d
    n, r = d.dim, pair.g.dim
    if r == 0:
        return IsotropicSplitting(pair, rat.zeros(n, 0))
    a_rows = pair.g.basis
    eye = rat.identity(n)
    free = [c for c in range(n) if c not in pair.g.pivots]
    # normalize: rows c_k with <c_k, a_i> = delta_{ki}; row c of G A^T pairs e_c with the half
    m = rat.mat_mul([d.form.gram[c] for c in free], rat.transpose(a_rows))
    c_rows = rat.mat_mul(rat.invert(m), [eye[c] for c in free])
    j = reference_absorb_self_pairing(
        d.form,
        rat.over_one_denominator(rat.transpose(c_rows)),
        rat.over_one_denominator(rat.transpose(a_rows)),
    )
    return IsotropicSplitting(pair, rat.fractions(*j))


def changed_basis(pair, p):
    """The Manin pair in the basis of the columns of the invertible ``p``:
    constants P^{-1} [P e_i, P e_j], Gram P^T G P and half rows A P^{-T}."""
    n = pair.d.dim
    p_inv, p_cols = rat.invert(p), rat.transpose(p)
    structure = [
        [rat.mat_vec(p_inv, pair.d.bracket(p_cols[i], p_cols[j])) for j in range(n)]
        for i in range(n)
    ]
    gram = rat.mat_mul(rat.mat_mul(rat.transpose(p), pair.d.form.gram), p)
    d = QuadraticLieAlgebra(n, structure, SplitForm(n, gram))
    return ManinPairPoint(d, canonicalize(rat.mat_mul(pair.g.basis, rat.transpose(p_inv)), n))


def random_invertible(rng, n):
    while True:
        p = random_matrix(rng, n, n)
        if rank(p) == n:
            return p


def random_splitting_pairs(rng, count):
    """``count`` random changes of basis of the catalog pairs, in turn, then
    ``count`` abelian doubles of rank 1 to 4 with a random Lagrangian half."""
    pairs = list(catalog().values())
    out = []
    for k in range(count):
        pair = pairs[k % len(pairs)]
        out.append(changed_basis(pair, random_invertible(rng, pair.d.dim)))
    for k in range(count):
        r = 1 + k % 4
        out.append(ManinPairPoint(abstract_double(r).d, random_lagrangian(rng, r)))
    return out


def reference_k_from_quasi(q, dJ=(), rho=(), realization=None):
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
    pair, frame = realization.pair, realization.frame()
    rows = []
    zt = (Fraction(0),) * t
    zr = (Fraction(0),) * r
    for i in range(r):
        a = _unit(r, i)
        u = tuple(q.rho_X[k][i] for k in range(t))
        rows.append(u + zt + rat.mat_vec(frame, a + zr))
    for k in range(t):
        alpha = _unit(t, k)
        back = tuple(-q.rho_X[k][j] for j in range(r))
        u = rat.mat_vec(rat.transpose(q.Pi), alpha)
        rows.append(u + alpha + rat.mat_vec(frame, zr + back))
    K = canonicalize(rows, 2 * t + pair.d.dim)
    legs = integer_legs(dJ, rat.over_one_denominator(rho))
    return HamiltonianFiber(t_dim=t, pair=pair, K=K, legs=legs)


def reference_k_from_dirac(d, dJ, ident):
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
    s, rho_star = rat.fractions(*ident.integer_s), rat.fractions(*ident.integer_rho_star)
    rows = []
    for row in d.L.basis:
        u, alpha = row[:t], row[t:]
        e = rat.mat_vec(s, rat.mat_vec(dJ, u)) if dJ else (Fraction(0),) * n
        rows.append(tuple(u) + tuple(alpha) + tuple(e))
    dj_t = rat.transpose(dJ)
    for kk in range(s_dim):
        beta = _unit(s_dim, kk)
        alpha = tuple(-x for x in rat.mat_vec(dj_t, beta)) if dJ else (Fraction(0),) * t
        e = rat.mat_vec(rho_star, beta)
        rows.append((Fraction(0),) * t + tuple(alpha) + tuple(e))
    K = canonicalize(rows, 2 * t + n)
    return HamiltonianFiber(t_dim=t, pair=ident.pair, K=K, legs=integer_legs(dJ, ident.integer_rho))


def reference_dirac_from_k(h, ident):
    """Lagrangian at a point out of a Hamiltonian fiber: keep the tangent
    and covector parts, adding the pulled-back base covector leg."""
    t = h.t_dim
    dJ, s_star = rat.fractions(*h.integer_dJ), rat.fractions(*ident.integer_s_star)
    dj_t = rat.transpose(dJ)
    rows = []
    for row in h.K.basis:
        u, alpha, e = row[:t], row[t : 2 * t], row[2 * t :]
        beta = rat.mat_vec(s_star, e)
        pulled = rat.mat_vec(dj_t, beta) if dJ else (Fraction(0),) * t
        rows.append(tuple(u) + tuple(x + y for x, y in zip(alpha, pulled)))
    return DiracPointData(canonicalize(rows, 2 * t))


def reference_bivector_graph(h, splitting):
    """Graph of the bivector of a Hamiltonian fiber, read out the second
    way ``dictionary.pi_from_k`` once did: the relation composition of the
    fiber Lagrangian with the embedded dual image of the splitting, the
    span of the columns of ``j`` (an isotropic complement of the half)."""
    t, n = h.t_dim, h.pair.d.dim
    dual_image = canonicalize(rat.transpose(splitting.j), n)
    krel = LinearRelation(2 * t, n, h.K)
    to_zero = LinearRelation(n, 0, dual_image)
    return compose(krel, to_zero).graph


def reference_canonical_fiber(pair, rho, rho_star):
    """The canonical Hamiltonian fiber K = {((rho(a), -beta), a + rho*
    beta)} of an exact rational anchor ``rho`` with its adjoint ``rho_star``
    (G^{-1} rho^T, as ``ExactIdentification`` carries it), identity moment
    map; ``HamiltonianFiber`` checks it is Lagrangian and supported."""
    n = len(rho)
    zero_t = (Fraction(0),) * n
    rows = []
    for a in pair.g.basis:
        u = rat.mat_vec(rho, a)
        rows.append(tuple(u) + zero_t + tuple(a))
    for k in range(n):
        eps = tuple(Fraction(1 if i == k else 0) for i in range(n))
        col = tuple(rho_star[i][k] for i in range(len(rho_star)))
        rows.append(zero_t + tuple(-e for e in eps) + col)
    k_space = canonicalize(rows, 2 * n + pair.d.dim)
    legs = integer_legs(rat.identity(n), rat.over_one_denominator(rho))
    return HamiltonianFiber(t_dim=n, pair=pair, K=k_space, legs=legs)


def reference_closure(generators, bracket, frames, out, family):
    """``numeric_manifold._closure`` as it solved every distance by lstsq:
    one ``lstsq_distance`` per pair of generators and point, folded into
    ``out`` with ``worse`` as each pair's brackets come."""
    for (i, g1), (j, g2) in combinations(enumerate(generators), 2):
        key = family(i, j)
        for rows, w in zip(frames, bracket(g1, g2)):
            out[key] = worse(out[key], nm.lstsq_distance(rows, w))
    return out


# the canonical scene printer: its text reparses to the same scene IR


def _fmt_rational(x):
    return str(x)


def _fmt_combo(vec, basis):
    parts = []
    for coeff, name in zip(vec, basis):
        if coeff == 0:
            continue
        mag = abs(coeff)
        term = name if mag == 1 else f"{_fmt_rational(mag)} {name}"
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    if not parts:
        return "0"
    return " ".join(parts)


def _fmt_row(row):
    return "(" + ", ".join(_fmt_rational(x) for x in row) + ")"


def _print_algebra(d):
    lines = [f"algebra {d.name} {{", f"  dim {d.dim};", "  basis " + " ".join(d.basis) + ";"]
    for left, right, rhs in d.brackets:
        lines.append(f"  bracket [{left}, {right}] = {_fmt_combo(rhs, d.basis)};")
    mode, data = d.pairing
    if mode == "diag":
        lines.append("  pairing diag(" + ", ".join(_fmt_rational(x) for x in data) + ");")
    else:
        lines.append("  pairing rows " + " ".join(_fmt_row(r) for r in data) + ";")
    lines.append("}")
    return lines


def print_scene(ir):
    """Canonical text whose reparse reproduces ``ir`` exactly."""
    named = ir.named()
    lines = []
    for d in ir.decls:
        if d.kind == "algebra":
            lines.extend(_print_algebra(d))
        elif d.kind == "subspace":
            basis = named[d.algebra].basis
            lines.append(f"subspace {d.name} in {d.algebra} {{")
            for v in d.vectors:
                lines.append(f"  span {_fmt_combo(v, basis)};")
            lines.append("}")
        elif d.kind == "maninpair":
            lines.append(f"maninpair {d.name} ({d.algebra}, {d.subspace});")
        elif d.kind == "splitting":
            lines.append(f"splitting {d.name} for {d.pair} {{")
            if d.auto:
                lines.append("  auto;")
            else:
                basis = named[named[d.pair].algebra].basis
                combos = ", ".join(_fmt_combo(v, basis) for v in d.images)
                lines.append(f"  images {combos};")
            lines.append("}")
        elif d.kind == "fiber":
            lines.append(f"fiber {d.name} {{")
            lines.append(f"  tdim {d.t_dim};")
            lines.append(f"  pair {d.pair};")
            lines.append("  k " + " ".join(_fmt_row(r) for r in d.k_rows) + ";")
            if d.dj_rows:
                lines.append("  dj " + " ".join(_fmt_row(r) for r in d.dj_rows) + ";")
                lines.append("  rho " + " ".join(_fmt_row(r) for r in d.rho_rows) + ";")
            lines.append("}")
        elif d.kind == "example":
            lines.append(f"example {d.name} {{")
            lines.append(f"  samples {d.samples};")
            lines.append(f"  seed {d.seed};")
            lines.append(f"  tol {d.tol!r};")
            lines.append(f"  step {d.step!r};")
            lines.append("}")
    for c in ir.checks:
        lines.append(f"check {c.kind} {c.target};")
    return "\n".join(lines) + "\n"


# reduction helpers with no caller in the package


def canonical_fibers(space):
    """Fiber supplier of a canonical moment geometry (identity base map)."""
    n = space.courant.chart.dim
    eye = np.eye(n)

    def fiber_at(x):
        rows = space.fiber_rows(np.asarray(x, dtype=float))
        return PointFiber(n, space.courant.rank, rows, dj=eye)

    return fiber_at


def invariant_check(f, action_field, points, h, tol):
    """Whether ``f`` is constant along the action directions, per point:
    its largest derivative along the action frame is below ``tol``."""
    f = observable(f)
    out = []
    for x in points:
        x = np.asarray(x, dtype=float)
        cols = np.asarray(action_field(x), dtype=float)
        drift = float(np.max(np.abs(f.gradient(x, h) @ cols))) if cols.size else 0.0
        out.append(drift < tol)
    return out


def admissibility_matches_invariance(f, action_field, fiber_at, points, h, tol):
    """The derivative criterion against the solvability criterion.

    Returns (invariant, admissible) pairs; the two booleans agreeing at
    every sample is the equivalence the bracket theory rests on.
    """
    inv = invariant_check(f, action_field, points, h=h, tol=tol)
    adm = [s.vector is not None for s in hamiltonian_vector(f, fiber_at, points, h=h, tol=tol)]
    return list(zip(inv, adm))


# the dictionary's conversion that names the broken transversality condition


def pi_from_dirac(d, dJ, ident, splitting):
    """Bivector and action of a Lagrangian, through its Hamiltonian fiber:
    ``pi_from_k`` of ``k_from_dirac``.  Failure reports which
    transversality condition broke."""
    fiber = k_from_dirac(d, dJ, ident)
    try:
        return pi_from_k(fiber, splitting)
    except ValueError as e:
        failures = equiv_failures(fiber.morphism_fiber())
        raise ValueError(
            "composed relation is not a bivector graph: " + ("; ".join(failures) or str(e))
        ) from None


EXAMPLE_SAMPLES = 10
EXAMPLE_SEEDS = (0, 1, 2)


def example_quantities(name, seed):
    """The ``repr`` of one `verify` example's ``quantities`` and
    ``witness`` at ``EXAMPLE_SAMPLES`` samples."""
    rep = verify.run_example(name, samples=EXAMPLE_SAMPLES, seed=seed, tol=TOL, step=STEP)
    return {"quantities": repr(rep.quantities), "witness": repr(rep.witness)}


def example_quantities_json():
    """The text of ``tests/fixtures/example_quantities.json``: every example
    at every seed of ``EXAMPLE_SEEDS``, keyed ``name@seedN``."""
    table = {
        f"{name}@seed{seed}": example_quantities(name, seed)
        for name in sorted(verify.EXAMPLES)
        for seed in EXAMPLE_SEEDS
    }
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def golden_scenes():
    """The validated golden scenes of ``tests/fixtures`` by file stem; the
    malformed one is left out."""
    scenes = {}
    for path in sorted(FIXTURES.glob("*.mp")):
        try:
            scenes[path.stem] = sd.validate_scene(sd.parse_scene(path.read_text()), verify.EXAMPLES)
        except (sd.ParseError, sd.SceneError):
            continue
    return scenes


def scene_object(stem, name):
    """The object ``name`` of the validated golden scene ``stem``."""
    ir = sd.parse_scene((FIXTURES / f"{stem}.mp").read_text())
    return sd.validate_scene(ir, {}).objects[name]


def solvable_constants():
    """Line acting on a plane by rotation plus dilation: [a0, a1] = a1 + a2,
    [a0, a2] = -a1 + a2, [a1, a2] = 0.  Not unimodular."""
    return structure_from_table(
        3, {(0, 1): (0, 1, 1), (0, 2): (0, -1, 1)}
    )


def bialgebra_double_pair():
    """Double of the 2-dim nonabelian Lie bialgebra.

    Base algebra: [x, y] = y with cobracket sending y to x^y; the dual
    algebra is again 2-dim nonabelian, and the mixed brackets are the
    coadjoint ones.  Pairing is the canonical duality pairing.
    """
    table = {
        (0, 1): (0, 1, 0, 0),  # [x, y] = y
        (2, 3): (0, 0, 0, 1),  # dual bracket of (x*, y*) is y*
        (0, 3): (0, 0, 0, -1),  # [x, y*] = -y*
        (1, 2): (0, 1, 0, 0),  # [y, x*] = y
        (1, 3): (-1, 0, 1, 0),  # [y, y*] = x* - x
    }
    structure = structure_from_table(4, table)
    gram = rat.matrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    d = QuadraticLieAlgebra(4, structure, SplitForm(4, gram))
    g = canonicalize([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    return ManinPairPoint(d, g)


@lru_cache(maxsize=None)
def catalog():
    """The six named Manin pairs the tests iterate, as one read-only mapping:
    the rotation double is the object commands read, three pairs are read
    from the golden scenes that declare them, and two are built here."""
    return MappingProxyType({
        "abelian-r2": scene_object("minimal-abelian", "p"),
        "abelian-r4": scene_object("duality-plane", "flat"),
        "so3-double": ql.catalog()["so3-double"],
        "sl2-double": scene_object("split-traceless", "tr0"),
        "bialgebra-double": bialgebra_double_pair(),
        "solvable-cotangent": make_cotangent_double(solvable_constants()),
    })
