"""Text format for declaring algebras, pairs, splittings, fibers, and
the checks to run on them.

Scenes are read by one token pattern and a recursive descent parser, so
every failure can point at a 1-based line and column.  Numbers are ASCII
digits; any other digit is an unexpected character.  Names must be
declared before they are referenced, which keeps the reference graph
acyclic by construction.  Algebraic entries are exact rationals; floats
are only legal in example parameters.  One table, `BUILDERS`, maps each
declaration kind but ``example`` to the builder of its object; another,
`CHECKS`, maps each check directive to the kind of declaration it targets
and to the runner that checks it.  The canonical printer, whose text
reparses to the same intermediate representation, lives with the golden
round-trip tests in ``tests/helpers.py``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import rational as rat
from .dictionary import k_from_quasi, pi_from_k
from .exact_linear import SplitForm, SplitSignatureError, canonicalize, is_lagrangian
from .morphism import HamiltonianFiber, check_hamiltonian_fiber, integer_legs
from .quadratic_lie import (
    ManinPairPoint,
    QuadraticLieAlgebra,
    check_quadratic_lie,
    first_unclosed_pair,
    structure_from_table,
)
from .report import Report
from .splitting import (
    IsotropicSplitting,
    check_quasi_jacobi,
    derive_quasi_data,
    make_isotropic_splitting,
    subalgebra_structure,
)
from .verify import DEFAULTS


class ParseError(Exception):
    """Positioned syntax or resolution failure; positions are 1-based.  The
    message echoes at most `ECHO_CHARS` characters of the token, then '…'."""

    ECHO_CHARS = 32

    def __init__(self, line, col, message, token):
        self.line = line
        self.col = col
        self.message = message
        self.token = token
        if len(token) > self.ECHO_CHARS:
            token = token[: self.ECHO_CHARS] + "…"
        at = f" (at {token!r})" if token else ""
        super().__init__(f"line {line}, col {col}: {message}{at}")


class SceneError(Exception):
    """Semantic failure while building objects out of a parsed scene."""

    def __init__(self, decl, reason):
        self.decl = decl
        self.reason = reason
        super().__init__(f"{decl}: {reason}")


@dataclass(frozen=True)
class Token:
    kind: str  # ident, int, float, punct, eof
    text: str
    line: int
    col: int


_PUNCT = set("{}()[];,=+-*/")

# One alternative per lexeme, the last one any single character, so the
# lexemes tile the text.  ``\w`` is ``str.isalnum()`` or "_": a word is an
# identifier only when it starts like one, with a letter or "_".
_LEXEME = re.compile(r"\n|[ \t\r]+|#[^\n]*|[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\w+|.")


def tokenize(text):
    """Token list with positions; comments run from '#' to end of line."""
    toks, line, col = [], 1, 1
    for word in _LEXEME.findall(text):
        head = word[0]
        if head == "\n":
            line, col = line + 1, 1
            continue
        if head == "#":  # a comment leaves the column at its '#'
            continue
        if head in _PUNCT:
            toks.append(Token("punct", word, line, col))
        elif "0" <= head <= "9":
            toks.append(Token("int" if word.isdigit() else "float", word, line, col))
        elif head.isalpha() or head == "_":
            toks.append(Token("ident", word, line, col))
        elif head not in " \t\r":
            raise ParseError(line, col, "unexpected character", head)
        col += len(word)
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass(frozen=True)
class AlgebraDecl:
    kind = "algebra"
    name: str
    dim: int
    basis: tuple
    brackets: tuple  # (left name, right name, coefficient vector)
    pairing: tuple  # ("diag", entries) or ("rows", matrix)


@dataclass(frozen=True)
class SubspaceDecl:
    kind = "subspace"
    name: str
    algebra: str
    vectors: tuple


@dataclass(frozen=True)
class PairDecl:
    kind = "maninpair"
    name: str
    algebra: str
    subspace: str


@dataclass(frozen=True)
class SplittingDecl:
    kind = "splitting"
    name: str
    pair: str
    auto: bool
    images: tuple


@dataclass(frozen=True)
class FiberDecl:
    kind = "fiber"
    name: str
    t_dim: int
    pair: str
    k_rows: tuple
    dj_rows: tuple
    rho_rows: tuple


@dataclass(frozen=True)
class ExampleDecl:
    kind = "example"
    name: str
    samples: int
    seed: int
    tol: float
    step: float


@dataclass(frozen=True)
class CheckDecl:
    kind: str
    target: str


@dataclass(frozen=True)
class SceneIR:
    """Declarations in source order plus the ordered check directives.

    Construction happens through `parse_scene`; names are unique across
    every declaration kind and references always point at earlier
    declarations.
    """

    decls: tuple
    checks: tuple

    def named(self):
        return {d.name: d for d in self.decls}


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.names = {}
        self.decls = []
        self.checks = []

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok if tok is not None else self.peek()
        raise ParseError(tok.line, tok.col, message, tok.text)

    def at(self, kind, text=None):
        """Whether the next token has ``kind`` and, if given, ``text``."""
        tok = self.toks[self.i]
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind, text=None, what=None):
        """The next token, consumed, if it is ``at(kind, text)``; else fail
        with "expected", then ``text`` quoted, then ``what``, each if given."""
        if not self.at(kind, text):
            quoted = f" '{text}'" if text else ""
            self.fail(f"expected{quoted}" + (f" {what}" if what else ""))
        return self.advance()

    def expect_int(self, what):
        """The next token, which must be an int, and its value; a literal
        longer than ``int`` converts fails at its position."""
        tok = self.expect("int", what=what)
        try:
            return tok, int(tok.text)
        except ValueError:
            self.fail("integer literal too long", tok)

    def declare(self, name_tok, decl):
        if name_tok.text in self.names:
            self.fail("duplicate name", name_tok)
        self.names[name_tok.text] = decl
        self.decls.append(decl)

    def resolve(self, name_tok, kind, what):
        decl = self.names.get(name_tok.text)
        if decl is None:
            self.fail("unknown identifier", name_tok)
        if decl.kind != kind:
            self.fail(f"expected {what}", name_tok)
        return decl

    # numbers and linear combinations

    def parse_rational(self, allow_sign=True):
        sign = 1
        if allow_sign and self.at("punct", "-"):
            self.advance()
            sign = -1
        _, num = self.expect_int("a rational number")
        if not self.at("punct", "/"):
            return Fraction(sign * num)
        self.advance()
        den_tok, den = self.expect_int("a denominator")
        if den == 0:
            self.fail("zero denominator", den_tok)
        return Fraction(sign * num, den)

    def parse_positive_float(self, what):
        tok = self.peek()
        if tok.kind not in ("int", "float"):
            self.fail(f"expected {what}")
        value = float(tok.text)
        if not (math.isfinite(value) and value > 0):
            self.fail(f"{what} must be finite and positive", tok)
        self.advance()
        return value

    def parse_combo(self, basis_index, dim):
        vec = [Fraction(0)] * dim
        sign = Fraction(1)
        if self.at("punct", "-"):
            self.advance()
            sign = Fraction(-1)
        while True:
            self._parse_term(vec, sign, basis_index)
            if not (self.at("punct", "+") or self.at("punct", "-")):
                return tuple(vec)
            sign = Fraction(-1 if self.advance().text == "-" else 1)

    def _parse_term(self, vec, sign, basis_index):
        tok = self.peek()
        coeff = sign
        if tok.kind == "float":
            self.fail("expected a rational coefficient")
        if tok.kind == "int":
            coeff = sign * self.parse_rational(allow_sign=False)
            if self.at("punct", "*"):
                self.advance()
            if not self.at("ident"):
                if coeff != 0:
                    self.fail("scalar term in a vector expression", tok)
                return
        elif tok.kind != "ident":
            self.fail("expected a vector expression")
        name = self.advance()
        if name.text not in basis_index:
            self.fail("unknown identifier", name)
        vec[basis_index[name.text]] += coeff

    def parse_paren_rationals(self):
        self.expect("punct", "(", "to open a row")
        entries = [self.parse_rational()]
        while self.at("punct", ","):
            self.advance()
            entries.append(self.parse_rational())
        self.expect("punct", ")", "to close the row")
        return tuple(entries)

    def parse_row_block(self, width, width_what):
        rows = []
        while self.at("punct", "("):
            open_tok = self.peek()
            row = self.parse_paren_rationals()
            if len(row) != width:
                self.fail(
                    f"dimension mismatch: row of width {len(row)}, expected {width_what}",
                    open_tok,
                )
            rows.append(row)
        if not rows:
            self.fail("expected at least one parenthesized row")
        return tuple(rows)

    # declarations

    def parse_scene(self):
        # the keyword that opens each statement, and the method reading it
        statements = {
            "algebra": self.parse_algebra,
            "subspace": self.parse_subspace,
            "maninpair": self.parse_maninpair,
            "splitting": self.parse_splitting,
            "fiber": self.parse_fiber,
            "example": self.parse_example,
            "check": self.parse_check,
        }
        while not self.at("eof"):
            # only an identifier's text can spell a keyword
            parse = statements.get(self.peek().text)
            if parse is None:
                self.fail("expected a declaration or check directive")
            self.advance()
            parse()
        return SceneIR(decls=tuple(self.decls), checks=tuple(self.checks))

    def parse_algebra(self):
        name_tok = self.expect("ident", what="an algebra name")
        self.expect("punct", "{", "to open the algebra body")
        self.expect("ident", "dim")
        dim_tok, dim = self.expect_int("the dimension")
        if dim <= 0:
            self.fail("dimension must be positive", dim_tok)
        self.expect("punct", ";", "after the dimension")

        basis = tuple(f"e{i + 1}" for i in range(dim))
        if self.at("ident", "basis"):
            kw = self.advance()
            names = []
            while self.at("ident"):
                names.append(self.advance().text)
            if not names:
                self.fail("expected at least one basis name")
            self.expect("punct", ";", "after the basis names")
            if len(names) != dim:
                self.fail(
                    f"dimension mismatch: {len(names)} basis names for dim {dim}", kw
                )
            if len(set(names)) != len(names):
                self.fail("duplicate name", kw)
            basis = tuple(names)
        basis_index = {b: i for i, b in enumerate(basis)}

        brackets = []
        seen = set()
        while self.at("ident", "bracket"):
            self.advance()
            self.expect("punct", "[", "to open the bracket arguments")
            left = self.expect("ident", what="a basis name")
            if left.text not in basis_index:
                self.fail("unknown identifier", left)
            self.expect("punct", ",", "between the bracket arguments")
            right = self.expect("ident", what="a basis name")
            if right.text not in basis_index:
                self.fail("unknown identifier", right)
            self.expect("punct", "]", "to close the bracket arguments")
            if left.text == right.text:
                self.fail("bracket of a basis vector with itself", left)
            key = frozenset((left.text, right.text))
            if key in seen:
                self.fail("bracket declared twice", left)
            seen.add(key)
            self.expect("punct", "=", "before the bracket value")
            rhs = self.parse_combo(basis_index, dim)
            self.expect("punct", ";", "after the bracket value")
            brackets.append((left.text, right.text, rhs))

        pairing_tok = self.expect("ident", "pairing")
        if self.at("ident", "diag"):
            self.advance()
            entries = self.parse_paren_rationals()
            if len(entries) != dim:
                self.fail(
                    f"dimension mismatch: {len(entries)} diagonal entries for dim {dim}",
                    pairing_tok,
                )
            pairing = ("diag", entries)
        elif self.at("ident", "rows"):
            self.advance()
            rows = self.parse_row_block(dim, f"dim {dim}")
            if len(rows) != dim:
                self.fail(
                    f"dimension mismatch: {len(rows)} pairing rows for dim {dim}",
                    pairing_tok,
                )
            if rows != tuple(zip(*rows)):
                self.fail("non-symmetric pairing rows", pairing_tok)
            pairing = ("rows", rows)
        else:
            self.fail("expected 'diag' or 'rows'")
        self.expect("punct", ";", "after the pairing")
        self.expect("punct", "}", "to close the algebra body")
        self.declare(
            name_tok,
            AlgebraDecl(
                name=name_tok.text,
                dim=dim,
                basis=basis,
                brackets=tuple(brackets),
                pairing=pairing,
            ),
        )

    def _algebra_of(self, name_tok):
        return self.resolve(name_tok, "algebra", "an algebra name")

    def parse_subspace(self):
        name_tok = self.expect("ident", what="a subspace name")
        self.expect("ident", "in")
        alg_tok = self.expect("ident", what="an algebra name")
        alg = self._algebra_of(alg_tok)
        index = {b: i for i, b in enumerate(alg.basis)}
        self.expect("punct", "{", "to open the subspace body")
        vectors = []
        while self.at("ident", "span"):
            self.advance()
            vectors.append(self.parse_combo(index, alg.dim))
            self.expect("punct", ";", "after the span expression")
        self.expect("punct", "}", "to close the subspace body")
        self.declare(
            name_tok,
            SubspaceDecl(name=name_tok.text, algebra=alg.name, vectors=tuple(vectors)),
        )

    def parse_maninpair(self):
        name_tok = self.expect("ident", what="a pair name")
        self.expect("punct", "(", "to open the pair arguments")
        alg_tok = self.expect("ident", what="an algebra name")
        alg = self._algebra_of(alg_tok)
        self.expect("punct", ",", "between the pair arguments")
        sub_tok = self.expect("ident", what="a subspace name")
        sub = self.resolve(sub_tok, "subspace", "a subspace name")
        if sub.algebra != alg.name:
            self.fail("subspace was declared in a different algebra", sub_tok)
        self.expect("punct", ")", "to close the pair arguments")
        self.expect("punct", ";", "after the pair declaration")
        self.declare(
            name_tok,
            PairDecl(name=name_tok.text, algebra=alg.name, subspace=sub.name),
        )

    def parse_splitting(self):
        name_tok = self.expect("ident", what="a splitting name")
        self.expect("ident", "for")
        pair_tok = self.expect("ident", what="a pair name")
        pair = self.resolve(pair_tok, "maninpair", "a pair name")
        alg = self.names[pair.algebra]
        index = {b: i for i, b in enumerate(alg.basis)}
        self.expect("punct", "{", "to open the splitting body")
        if self.at("ident", "auto"):
            self.advance()
            self.expect("punct", ";", "after 'auto'")
            auto, images = True, ()
        elif self.at("ident", "images"):
            self.advance()
            images = [self.parse_combo(index, alg.dim)]
            while self.at("punct", ","):
                self.advance()
                images.append(self.parse_combo(index, alg.dim))
            self.expect("punct", ";", "after the image list")
            auto, images = False, tuple(images)
        else:
            self.fail("expected 'auto' or 'images'")
        self.expect("punct", "}", "to close the splitting body")
        self.declare(
            name_tok,
            SplittingDecl(
                name=name_tok.text, pair=pair.name, auto=auto, images=images
            ),
        )

    def parse_fiber(self):
        name_tok = self.expect("ident", what="a fiber name")
        self.expect("punct", "{", "to open the fiber body")
        self.expect("ident", "tdim")
        t_tok, t_dim = self.expect_int("the tangent dimension")
        if t_dim < 0:
            self.fail("tangent dimension must be nonnegative", t_tok)
        self.expect("punct", ";", "after the tangent dimension")
        self.expect("ident", "pair")
        pair_tok = self.expect("ident", what="a pair name")
        pair = self.resolve(pair_tok, "maninpair", "a pair name")
        alg = self.names[pair.algebra]
        self.expect("punct", ";", "after the pair reference")
        self.expect("ident", "k")
        width = 2 * t_dim + alg.dim
        k_rows = self.parse_row_block(width, f"2*tdim + dim = {width}")
        self.expect("punct", ";", "after the Lagrangian rows")
        dj_rows, rho_rows = (), ()
        if self.at("ident", "dj"):
            dj_kw = self.advance()
            dj_rows = self.parse_row_block(t_dim, f"tdim = {t_dim}")
            self.expect("punct", ";", "after the dj rows")
            self.expect("ident", "rho")
            rho_rows = self.parse_row_block(alg.dim, f"dim = {alg.dim}")
            self.expect("punct", ";", "after the rho rows")
            if len(dj_rows) != len(rho_rows):
                self.fail("dimension mismatch between dj and rho rows", dj_kw)
        self.expect("punct", "}", "to close the fiber body")
        self.declare(
            name_tok,
            FiberDecl(
                name=name_tok.text,
                t_dim=t_dim,
                pair=pair.name,
                k_rows=k_rows,
                dj_rows=dj_rows,
                rho_rows=rho_rows,
            ),
        )

    def parse_example(self):
        name_tok = self.expect("ident", what="an example name")
        self.expect("punct", "{", "to open the example body")
        samples, seed, tol, step = (DEFAULTS[k] for k in ("samples", "seed", "tol", "step"))
        if self.at("ident", "samples"):
            self.advance()
            count_tok, samples = self.expect_int("the sample count")
            if samples < 1:
                self.fail("sample count must be at least 1", count_tok)
            self.expect("punct", ";", "after the sample count")
        if self.at("ident", "seed"):
            self.advance()
            _, seed = self.expect_int("the seed")
            self.expect("punct", ";", "after the seed")
        if self.at("ident", "tol"):
            self.advance()
            tol = self.parse_positive_float("a tolerance")
            self.expect("punct", ";", "after the tolerance")
        if self.at("ident", "step"):
            self.advance()
            step = self.parse_positive_float("a step size")
            self.expect("punct", ";", "after the step size")
        self.expect("punct", "}", "to close the example body")
        self.declare(
            name_tok,
            ExampleDecl(
                name=name_tok.text, samples=samples, seed=seed, tol=tol, step=step
            ),
        )

    def parse_check(self):
        kind_tok = self.expect("ident", what="a check directive")
        if kind_tok.text not in CHECKS:
            self.fail("expected a check directive", kind_tok)
        target_kind = CHECKS[kind_tok.text][0]
        target_tok = self.expect("ident", what=f"a {target_kind} name")
        self.resolve(target_tok, target_kind, f"a {target_kind} name")
        self.expect("punct", ";", "after the check directive")
        self.checks.append(CheckDecl(kind=kind_tok.text, target=target_tok.text))


def parse_scene(text):
    """Scene intermediate representation of ``text``; raises ParseError."""
    return _Parser(tokenize(text)).parse_scene()


# validation: IR to constructed objects plus a run plan


@dataclass(frozen=True)
class PlanStep:
    name: str
    run: Callable


@dataclass(frozen=True, eq=False)
class ValidatedScene:
    objects: dict  # declared name -> object; an example's -> its callable
    plan: tuple


# Builders.  ``build(built, d)`` constructs the object of the declaration
# ``d`` from ``built``, the objects of earlier declarations by name; a
# ValueError refuses the declaration.


def _build_algebra(built, d):
    index = {b: i for i, b in enumerate(d.basis)}
    table = {}
    for left, right, rhs in d.brackets:
        i, j = index[left], index[right]
        table[(min(i, j), max(i, j))] = rhs if i < j else tuple(-x for x in rhs)
    mode, data = d.pairing
    form = SplitForm.diagonal(data) if mode == "diag" else SplitForm(d.dim, data)
    return QuadraticLieAlgebra(d.dim, structure_from_table(d.dim, table), form)


def _build_splitting(built, d):
    pair = built[d.pair]
    if d.auto:
        return make_isotropic_splitting(pair)
    if len(d.images) != pair.g.dim:
        raise ValueError(f"{len(d.images)} images for a half of dimension {pair.g.dim}")
    return IsotropicSplitting(pair, rat.transpose(d.images))


def _build_fiber(built, d):
    pair = built[d.pair]
    k = canonicalize(d.k_rows, 2 * d.t_dim + pair.d.dim)
    legs = integer_legs(d.dj_rows, rat.over_one_denominator(d.rho_rows))
    return HamiltonianFiber(t_dim=d.t_dim, pair=pair, K=k, legs=legs)


# declaration kind -> its builder; an example is looked up in the registry
BUILDERS = {
    "algebra": _build_algebra,
    "subspace": lambda built, d: canonicalize(d.vectors, built[d.algebra].dim),
    "maninpair": lambda built, d: ManinPairPoint(built[d.algebra], built[d.subspace]),
    "splitting": _build_splitting,
    "fiber": _build_fiber,
}


# Check runners.  ``run(built, d)`` checks what the declaration ``d`` built.


def _lagrangian(built, d):
    sub = built[d.name]
    try:
        ok = is_lagrangian(built[d.algebra].form, sub)
    except SplitSignatureError as e:
        return Report.verdict("lagrangian", False, str(e))
    return Report.verdict("lagrangian", ok, f"dim {sub.dim} in ambient {sub.ambient_dim}")


def _subalgebra(built, d):
    bad = first_unclosed_pair(built[d.algebra].bracket, built[d.name])
    return Report.verdict("closure", bad is None, f"basis pair {bad}")


def _roundtrip(built, d):
    fib = built[d.name]
    sp = make_isotropic_splitting(fib.pair)
    try:
        q = pi_from_k(fib, sp)
    except ValueError as e:
        # a fiber with no bivector picture fails the round trip
        return Report.verdict("roundtrip", False, str(e))
    back = k_from_quasi(q, fib.legs, realization=sp)
    return Report.verdict("roundtrip", back.K == fib.K, "round trip moved the Lagrangian")


def _splitting(built, d):
    sp = built[d.name]
    data = derive_quasi_data(sp.pair, sp)
    return check_quasi_jacobi(subalgebra_structure(sp.pair), data)


def _example(built, d):
    try:
        return built[d.name](samples=d.samples, seed=d.seed, tol=d.tol, step=d.step)
    except ValueError as e:
        # the scene's parameters are input, like verify-example's options
        raise SceneError(d.name, f"example rejected its arguments: {e}")


# check directive -> (kind of declaration it targets, its runner)
CHECKS = {
    "lagrangian": ("subspace", _lagrangian),
    "subalgebra": ("subspace", _subalgebra),
    "quadratic": ("algebra", lambda built, d: check_quadratic_lie(built[d.name])),
    "morphism": ("fiber", lambda built, d: check_hamiltonian_fiber(built[d.name])),
    "roundtrip": ("fiber", _roundtrip),
    "splitting": ("splitting", _splitting),
    "example": ("example", _example),
}


def validate_scene(ir, example_registry):
    """Construct the exact objects a scene declares and compile its checks.

    Each declaration is built by its `BUILDERS` row, eagerly: a Manin pair
    on an algebra failing the bracket axioms, a non-Lagrangian fiber, or a
    bad splitting image raise SceneError naming the declaration; an algebra
    is built as declared, for ``check quadratic`` to judge.
    ``example_registry`` maps example names to callables ``fn(samples,
    seed, tol, step) -> Report``.  Every plan step runs to a `Report`, or
    raises SceneError when an example rejects the scene's arguments.
    """
    built = {}
    for d in ir.decls:
        if d.kind == "example":
            if d.name not in example_registry:
                raise SceneError(d.name, "not a registered example")
            built[d.name] = example_registry[d.name]
            continue
        try:
            built[d.name] = BUILDERS[d.kind](built, d)
        except ValueError as e:
            raise SceneError(d.name, str(e))
    named = ir.named()
    plan = tuple(
        PlanStep(f"{c.kind} {c.target}", partial(CHECKS[c.kind][1], built, named[c.target]))
        for c in ir.checks
    )
    return ValidatedScene(objects=built, plan=plan)
