"""Isotropic splittings over a point and the induced cobracket data.

A splitting embeds the dual of the Lagrangian half back into the ambient
algebra with isotropic image.  Pushing the ambient bracket through it yields
cobracket structure constants and a top-degree defect tensor; the coherence
checks below verify the square of the induced differential against that
defect, exactly.

Multivectors over the Lagrangian half A are stored as dense antisymmetric
component arrays: the entries of a k-vector are its evaluations on k-tuples
of dual basis vectors, so evaluation is plain multilinear contraction and no
factorial normalizations float around.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from . import rational as rat
from .exact_linear import canonicalize
from .report import Report

# ---------------------------------------------------------------------------
# dense antisymmetric tensors


def zero_tensor(dim, degree):
    if degree == 0:
        return Fraction(0)
    return tuple(zero_tensor(dim, degree - 1) for _ in range(dim))


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


def is_antisymmetric(t, dim, degree):
    for idx in product(range(dim), repeat=degree):
        for k in range(degree - 1):
            swapped = list(idx)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            if tensor_get(t, idx) != -tensor_get(t, tuple(swapped)):
                return False
    return True


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


def wedge_list(items, dim):
    """Wedge of ``[(tensor, degree), ...]`` left to right."""
    t, p = items[0]
    for s, q in items[1:]:
        t, p = wedge(t, p, s, q, dim), p + q
    return t, p


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


# ---------------------------------------------------------------------------
# splittings

# Sign convention for the top-defect bracket, frozen against the twisted
# splittings of the catalog doubles (where both sides of the coherence
# identity are nonzero): [chi, a] = TOP_BRACKET_SIGN * ad_a(chi).
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
        cols = rat.transpose(self.j)
        for k in range(r):
            for l in range(r):
                if d.pairing(cols[k], cols[l]) != 0:
                    raise ValueError("image of the splitting is not isotropic")
        a_rows = self.pair.g.basis
        for k in range(r):
            for i in range(r):
                expected = Fraction(1 if k == i else 0)
                if d.pairing(cols[k], a_rows[i]) != expected:
                    raise ValueError("splitting does not project to the identity")

    @property
    def a_basis(self):
        return self.pair.g.basis

    @property
    def half_dim(self):
        return self.pair.g.dim

    def dual_image(self):
        """Image of the splitting as a subspace (an isotropic complement)."""
        return canonicalize(rat.transpose(self.j), self.pair.d.dim)

    def _frame(self):
        a_cols = rat.transpose(self.a_basis)
        return rat.hstack(a_cols, self.j)

    def decompose(self, e):
        """Coordinates of ``e`` in the split frame: (A part, dual part)."""
        frame_inv = rat.invert(self._frame())
        coords = rat.mat_vec(frame_inv, rat.vec(e))
        r = self.half_dim
        return coords[:r], coords[r:]

    def embed_double(self, a_coords, xi_coords):
        """Ambient vector with the given A and dual-side coordinates."""
        r = self.half_dim
        coords = tuple(rat.vec(a_coords)) + tuple(rat.vec(xi_coords))
        if len(coords) != 2 * r:
            raise ValueError("coordinate blocks have wrong length")
        return rat.mat_vec(self._frame(), coords)

    def twist(self, w):
        """New splitting ``j'(xi) = j(xi) + i_xi w`` for a 2-vector ``w`` on A
        (components in the dual basis); isotropy is preserved."""
        r = self.half_dim
        a_cols = rat.transpose(self.a_basis)
        new_cols = []
        for k in range(r):
            col = [row[k] for row in self.j]
            for l in range(r):
                c = rat.scalar(tensor_get(w, (k, l)))
                if c:
                    col = [x + c * a for x, a in zip(col, [row[l] for row in a_cols])]
            new_cols.append(tuple(col))
        return IsotropicSplitting(self.pair, rat.transpose(new_cols))


def make_isotropic_splitting(pair):
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
    pivot_set = set(pair.g.pivots)
    raw = [
        tuple(Fraction(1 if j == c else 0) for j in range(n))
        for c in range(n)
        if c not in pivot_set
    ]
    # normalize: rows c_k with <c_k, a_i> = delta_{ki}
    m = tuple(
        tuple(d.pairing(rc, ai) for ai in a_rows) for rc in raw
    )
    c_rows = rat.mat_mul(rat.invert(m), raw)
    b = tuple(tuple(d.pairing(ck, cl) for cl in c_rows) for ck in c_rows)
    j_cols = []
    for k in range(r):
        col = list(c_rows[k])
        for l in range(r):
            h = b[k][l] / 2
            if h:
                col = [x - h * a for x, a in zip(col, a_rows[l])]
        j_cols.append(tuple(col))
    return IsotropicSplitting(pair, rat.transpose(j_cols))


@dataclass(frozen=True)
class QuasiBialgebraData:
    """Cobracket constants, top-degree defect, and the (point case: zero)
    anchor of the dual side."""

    a_dim: int
    F: tuple  # F[i] is the 2-tensor image of the i-th basis vector
    chi: tuple  # 3-tensor
    rho_Astar: tuple = ()  # zero rows over a point; kept for the fibered case

    def __post_init__(self):
        for i in range(self.a_dim):
            if not is_antisymmetric(self.F[i], self.a_dim, 2):
                raise ValueError("cobracket images must be antisymmetric")
        if not is_antisymmetric(self.chi, self.a_dim, 3):
            raise ValueError("defect tensor must be antisymmetric")


def subalgebra_structure(pair):
    """Structure constants of the Lagrangian half in its canonical basis."""
    g = pair.g
    r = g.dim
    pivots = g.pivots

    def coords(v):
        return tuple(v[p] for p in pivots)

    table = {}
    for i in range(r):
        for j in range(i + 1, r):
            w = pair.d.bracket(g.basis[i], g.basis[j])
            if not g.contains_vector(w):
                raise ValueError("half is not closed under the bracket")
            table[(i, j)] = coords(w)
    from .quadratic_lie import structure_from_table

    return structure_from_table(r, table)


def derive_quasi_data(pair, splitting):
    """Cobracket and defect of a splitting, from ambient pairings."""
    d = pair.d
    r = pair.g.dim
    cols = rat.transpose(splitting.j)
    a_rows = pair.g.basis
    brackets = [[d.bracket(cols[k], cols[l]) for l in range(r)] for k in range(r)]
    f = tuple(
        tensor_from_function(
            r, 2, lambda kl, i=i: d.pairing(brackets[kl[0]][kl[1]], a_rows[i])
        )
        for i in range(r)
    )
    chi = tensor_from_function(
        r, 3, lambda klm: d.pairing(brackets[klm[0]][klm[1]], cols[klm[2]])
    )
    return QuasiBialgebraData(a_dim=r, F=f, chi=chi, rho_Astar=())


def check_quasi_jacobi(a_structure, data, max_degree=3):
    """Verify, exactly on basis multivectors up to ``max_degree``, that the
    square of the induced codifferential is bracketing with the defect, and
    that the defect itself is closed.  ``coherence`` counts the basis
    multivectors where the first identity fails; ``defect`` is 1 when the
    defect is not closed."""
    dim = data.a_dim
    witness = {}
    coherence = 0
    for degree in range(1, max_degree + 1):
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
                data.chi, t, degree, a_structure, TOP_BRACKET_SIGN
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
