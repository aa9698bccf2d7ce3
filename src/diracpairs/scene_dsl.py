"""Text format for declaring algebras, pairs, splittings, fibers, and
the checks to run on them.

Scenes are parsed by a hand-rolled tokenizer and recursive descent so
every failure can point at a 1-based line and column.  Names must be
declared before they are referenced, which keeps the reference graph
acyclic by construction.  Algebraic entries are exact rationals; floats
are only legal in example parameters.  `print_scene` emits a canonical
text whose reparse reproduces the intermediate representation verbatim,
which is the round-trip contract the golden tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import rational as rat
from .dictionary import k_from_quasi, pi_from_k
from .exact_linear import SplitForm, SplitSignatureError, canonicalize, is_lagrangian
from .morphism import HamiltonianFiber, check_hamiltonian_fiber
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


class ParseError(Exception):
    """Positioned syntax or resolution failure; positions are 1-based."""

    def __init__(self, line, col, message, token):
        self.line = line
        self.col = col
        self.message = message
        self.token = token
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


def tokenize(text):
    """Token list with positions; comments run from '#' to end of line."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            kind = "int"
            if j < n and text[j] == ".":
                kind = "float"
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    kind = "float"
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            toks.append(Token(kind, text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            toks.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(line, col, "unexpected character", ch)
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


# directive -> kind of declaration it applies to
CHECK_KINDS = {
    "lagrangian": "subspace",
    "subalgebra": "subspace",
    "quadratic": "algebra",
    "morphism": "fiber",
    "roundtrip": "fiber",
    "splitting": "splitting",
    "example": "example",
}


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

    def expect_punct(self, ch, what):
        tok = self.peek()
        if tok.kind != "punct" or tok.text != ch:
            self.fail(f"expected '{ch}' {what}")
        return self.advance()

    def expect_ident(self, what):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected {what}")
        return self.advance()

    def expect_keyword(self, kw):
        tok = self.peek()
        if tok.kind != "ident" or tok.text != kw:
            self.fail(f"expected '{kw}'")
        return self.advance()

    def expect_int(self, what):
        tok = self.peek()
        if tok.kind != "int":
            self.fail(f"expected {what}")
        self.advance()
        return int(tok.text)

    def at_punct(self, ch):
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    def at_ident(self, text):
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

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
        if allow_sign and self.at_punct("-"):
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind == "float":
            self.fail("expected a rational number")
        if tok.kind != "int":
            self.fail("expected a rational number")
        self.advance()
        num = int(tok.text)
        if self.at_punct("/"):
            self.advance()
            den_tok = self.peek()
            if den_tok.kind != "int":
                self.fail("expected a denominator")
            self.advance()
            den = int(den_tok.text)
            if den == 0:
                self.fail("zero denominator", den_tok)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

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
        if self.at_punct("-"):
            self.advance()
            sign = Fraction(-1)
        while True:
            self._parse_term(vec, sign, basis_index)
            if self.at_punct("+"):
                self.advance()
                sign = Fraction(1)
            elif self.at_punct("-"):
                self.advance()
                sign = Fraction(-1)
            else:
                break
        return tuple(vec)

    def _parse_term(self, vec, sign, basis_index):
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            idx = basis_index.get(tok.text)
            if idx is None:
                self.fail("unknown identifier", tok)
            vec[idx] += sign
            return
        if tok.kind == "float":
            self.fail("expected a rational coefficient")
        if tok.kind == "int":
            coeff = self.parse_rational(allow_sign=False)
            if self.at_punct("*"):
                self.advance()
            nxt = self.peek()
            if nxt.kind == "ident":
                self.advance()
                idx = basis_index.get(nxt.text)
                if idx is None:
                    self.fail("unknown identifier", nxt)
                vec[idx] += sign * coeff
                return
            if coeff != 0:
                self.fail("scalar term in a vector expression", tok)
            return
        self.fail("expected a vector expression")

    def parse_paren_rationals(self):
        self.expect_punct("(", "to open a row")
        entries = [self.parse_rational()]
        while self.at_punct(","):
            self.advance()
            entries.append(self.parse_rational())
        self.expect_punct(")", "to close the row")
        return tuple(entries)

    def parse_row_block(self, width, width_what):
        rows = []
        while self.at_punct("("):
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
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "ident":
                self.fail("expected a declaration or check directive")
            if tok.text == "algebra":
                self.parse_algebra()
            elif tok.text == "subspace":
                self.parse_subspace()
            elif tok.text == "maninpair":
                self.parse_maninpair()
            elif tok.text == "splitting":
                self.parse_splitting()
            elif tok.text == "fiber":
                self.parse_fiber()
            elif tok.text == "example":
                self.parse_example()
            elif tok.text == "check":
                self.parse_check()
            else:
                self.fail("expected a declaration or check directive")
        return SceneIR(decls=tuple(self.decls), checks=tuple(self.checks))

    def parse_algebra(self):
        self.advance()
        name_tok = self.expect_ident("an algebra name")
        self.expect_punct("{", "to open the algebra body")
        self.expect_keyword("dim")
        dim_tok = self.peek()
        dim = self.expect_int("the dimension")
        if dim <= 0:
            self.fail("dimension must be positive", dim_tok)
        self.expect_punct(";", "after the dimension")

        basis = tuple(f"e{i + 1}" for i in range(dim))
        if self.at_ident("basis"):
            kw = self.advance()
            names = []
            while self.peek().kind == "ident":
                names.append(self.advance().text)
            if not names:
                self.fail("expected at least one basis name")
            self.expect_punct(";", "after the basis names")
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
        while self.at_ident("bracket"):
            self.advance()
            self.expect_punct("[", "to open the bracket arguments")
            left = self.expect_ident("a basis name")
            if left.text not in basis_index:
                self.fail("unknown identifier", left)
            self.expect_punct(",", "between the bracket arguments")
            right = self.expect_ident("a basis name")
            if right.text not in basis_index:
                self.fail("unknown identifier", right)
            self.expect_punct("]", "to close the bracket arguments")
            if left.text == right.text:
                self.fail("bracket of a basis vector with itself", left)
            key = frozenset((left.text, right.text))
            if key in seen:
                self.fail("bracket declared twice", left)
            seen.add(key)
            self.expect_punct("=", "before the bracket value")
            rhs = self.parse_combo(basis_index, dim)
            self.expect_punct(";", "after the bracket value")
            brackets.append((left.text, right.text, rhs))

        pairing_tok = self.peek()
        self.expect_keyword("pairing")
        mode = self.peek()
        if mode.kind == "ident" and mode.text == "diag":
            self.advance()
            entries = self.parse_paren_rationals()
            if len(entries) != dim:
                self.fail(
                    f"dimension mismatch: {len(entries)} diagonal entries for dim {dim}",
                    pairing_tok,
                )
            pairing = ("diag", entries)
        elif mode.kind == "ident" and mode.text == "rows":
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
        self.expect_punct(";", "after the pairing")
        self.expect_punct("}", "to close the algebra body")
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
        self.advance()
        name_tok = self.expect_ident("a subspace name")
        self.expect_keyword("in")
        alg_tok = self.expect_ident("an algebra name")
        alg = self._algebra_of(alg_tok)
        index = {b: i for i, b in enumerate(alg.basis)}
        self.expect_punct("{", "to open the subspace body")
        vectors = []
        while self.at_ident("span"):
            self.advance()
            vectors.append(self.parse_combo(index, alg.dim))
            self.expect_punct(";", "after the span expression")
        self.expect_punct("}", "to close the subspace body")
        self.declare(
            name_tok,
            SubspaceDecl(name=name_tok.text, algebra=alg.name, vectors=tuple(vectors)),
        )

    def parse_maninpair(self):
        self.advance()
        name_tok = self.expect_ident("a pair name")
        self.expect_punct("(", "to open the pair arguments")
        alg_tok = self.expect_ident("an algebra name")
        alg = self._algebra_of(alg_tok)
        self.expect_punct(",", "between the pair arguments")
        sub_tok = self.expect_ident("a subspace name")
        sub = self.resolve(sub_tok, "subspace", "a subspace name")
        if sub.algebra != alg.name:
            self.fail("subspace was declared in a different algebra", sub_tok)
        self.expect_punct(")", "to close the pair arguments")
        self.expect_punct(";", "after the pair declaration")
        self.declare(
            name_tok,
            PairDecl(name=name_tok.text, algebra=alg.name, subspace=sub.name),
        )

    def parse_splitting(self):
        self.advance()
        name_tok = self.expect_ident("a splitting name")
        self.expect_keyword("for")
        pair_tok = self.expect_ident("a pair name")
        pair = self.resolve(pair_tok, "maninpair", "a pair name")
        alg = self.names[pair.algebra]
        index = {b: i for i, b in enumerate(alg.basis)}
        self.expect_punct("{", "to open the splitting body")
        if self.at_ident("auto"):
            self.advance()
            self.expect_punct(";", "after 'auto'")
            auto, images = True, ()
        elif self.at_ident("images"):
            self.advance()
            images = [self.parse_combo(index, alg.dim)]
            while self.at_punct(","):
                self.advance()
                images.append(self.parse_combo(index, alg.dim))
            self.expect_punct(";", "after the image list")
            auto, images = False, tuple(images)
        else:
            self.fail("expected 'auto' or 'images'")
        self.expect_punct("}", "to close the splitting body")
        self.declare(
            name_tok,
            SplittingDecl(
                name=name_tok.text, pair=pair.name, auto=auto, images=images
            ),
        )

    def parse_fiber(self):
        self.advance()
        name_tok = self.expect_ident("a fiber name")
        self.expect_punct("{", "to open the fiber body")
        self.expect_keyword("tdim")
        t_tok = self.peek()
        t_dim = self.expect_int("the tangent dimension")
        if t_dim < 0:
            self.fail("tangent dimension must be nonnegative", t_tok)
        self.expect_punct(";", "after the tangent dimension")
        self.expect_keyword("pair")
        pair_tok = self.expect_ident("a pair name")
        pair = self.resolve(pair_tok, "maninpair", "a pair name")
        alg = self.names[pair.algebra]
        self.expect_punct(";", "after the pair reference")
        self.expect_keyword("k")
        width = 2 * t_dim + alg.dim
        k_rows = self.parse_row_block(width, f"2*tdim + dim = {width}")
        self.expect_punct(";", "after the Lagrangian rows")
        dj_rows, rho_rows = (), ()
        if self.at_ident("dj"):
            dj_kw = self.advance()
            dj_rows = self.parse_row_block(t_dim, f"tdim = {t_dim}")
            self.expect_punct(";", "after the dj rows")
            self.expect_keyword("rho")
            rho_rows = self.parse_row_block(alg.dim, f"dim = {alg.dim}")
            self.expect_punct(";", "after the rho rows")
            if len(dj_rows) != len(rho_rows):
                self.fail("dimension mismatch between dj and rho rows", dj_kw)
        self.expect_punct("}", "to close the fiber body")
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
        self.advance()
        name_tok = self.expect_ident("an example name")
        self.expect_punct("{", "to open the example body")
        samples, seed, tol, step = 50, 0, 1e-6, 1e-4
        if self.at_ident("samples"):
            self.advance()
            count_tok = self.peek()
            samples = self.expect_int("the sample count")
            if samples < 1:
                self.fail("sample count must be at least 1", count_tok)
            self.expect_punct(";", "after the sample count")
        if self.at_ident("seed"):
            self.advance()
            seed = self.expect_int("the seed")
            self.expect_punct(";", "after the seed")
        if self.at_ident("tol"):
            self.advance()
            tol = self.parse_positive_float("a tolerance")
            self.expect_punct(";", "after the tolerance")
        if self.at_ident("step"):
            self.advance()
            step = self.parse_positive_float("a step size")
            self.expect_punct(";", "after the step size")
        self.expect_punct("}", "to close the example body")
        self.declare(
            name_tok,
            ExampleDecl(
                name=name_tok.text, samples=samples, seed=seed, tol=tol, step=step
            ),
        )

    def parse_check(self):
        self.advance()
        kind_tok = self.expect_ident("a check directive")
        kind = kind_tok.text
        if kind not in CHECK_KINDS:
            self.fail("expected a check directive", kind_tok)
        target_tok = self.expect_ident(f"a {CHECK_KINDS[kind]} name")
        self.resolve(target_tok, CHECK_KINDS[kind], f"a {CHECK_KINDS[kind]} name")
        self.expect_punct(";", "after the check directive")
        self.checks.append(CheckDecl(kind=kind, target=target_tok.text))


def parse_scene(text):
    """Scene intermediate representation of ``text``; raises ParseError."""
    return _Parser(tokenize(text)).parse_scene()


# canonical printing


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


# validation: IR to constructed objects plus a run plan


@dataclass(frozen=True)
class PlanStep:
    name: str
    kind: str
    target: str
    run: Callable


@dataclass(frozen=True, eq=False)
class ValidatedScene:
    algebras: dict
    subspaces: dict
    pairs: dict
    splittings: dict
    fibers: dict
    examples: dict
    plan: tuple


def validate_scene(ir, example_registry=None):
    """Construct the exact objects a scene declares and compile its checks.

    Construction-time invariants run eagerly: a declared algebra failing
    the bracket axioms, a non-Lagrangian fiber, or a bad splitting image
    raise SceneError naming the declaration.  ``example_registry`` maps
    example names to callables ``fn(samples, seed, tol, step) -> Report``.
    Every plan step runs to a `Report`.
    """
    algebras = {}
    subspaces = {}
    sub_algebra = {}
    pairs = {}
    splittings = {}
    fibers = {}
    examples = {}
    plan = []

    for d in ir.decls:
        if d.kind == "algebra":
            index = {b: i for i, b in enumerate(d.basis)}
            table = {}
            for left, right, rhs in d.brackets:
                i, j = index[left], index[right]
                if i < j:
                    table[(i, j)] = rhs
                else:
                    table[(j, i)] = tuple(-x for x in rhs)
            mode, data = d.pairing
            form = (
                SplitForm.diagonal(data)
                if mode == "diag"
                else SplitForm(d.dim, data)
            )
            try:
                alg = QuadraticLieAlgebra(d.dim, structure_from_table(d.dim, table), form)
            except ValueError as e:
                raise SceneError(d.name, str(e))
            report = check_quadratic_lie(alg)
            if not report.passed:
                raise SceneError(d.name, f"bracket axioms fail: {report.describe()}")
            algebras[d.name] = alg
        elif d.kind == "subspace":
            alg = algebras[d.algebra]
            subspaces[d.name] = canonicalize(d.vectors, alg.dim)
            sub_algebra[d.name] = d.algebra
        elif d.kind == "maninpair":
            try:
                pairs[d.name] = ManinPairPoint(algebras[d.algebra], subspaces[d.subspace])
            except Exception as e:
                raise SceneError(d.name, str(e))
        elif d.kind == "splitting":
            pair = pairs[d.pair]
            if d.auto:
                splittings[d.name] = make_isotropic_splitting(pair)
            else:
                if len(d.images) != pair.g.dim:
                    raise SceneError(
                        d.name,
                        f"{len(d.images)} images for a half of dimension {pair.g.dim}",
                    )
                try:
                    splittings[d.name] = IsotropicSplitting(pair, rat.transpose(d.images))
                except ValueError as e:
                    raise SceneError(d.name, str(e))
        elif d.kind == "fiber":
            pair = pairs[d.pair]
            try:
                fibers[d.name] = HamiltonianFiber(
                    t_dim=d.t_dim,
                    pair=pair,
                    K=canonicalize(d.k_rows, 2 * d.t_dim + pair.d.dim),
                    dJ=d.dj_rows,
                    rho=d.rho_rows,
                )
            except ValueError as e:
                raise SceneError(d.name, str(e))
        elif d.kind == "example":
            if example_registry is not None and d.name not in example_registry:
                raise SceneError(d.name, "not a registered example")
            examples[d.name] = d

    def step_for(check):
        target = check.target
        if check.kind == "lagrangian":
            sub = subspaces[target]
            form = algebras[sub_algebra[target]].form

            def run():
                try:
                    ok = is_lagrangian(form, sub)
                except SplitSignatureError as e:
                    return Report.verdict("lagrangian", False, str(e))
                return Report.verdict(
                    "lagrangian", ok, f"dim {sub.dim} in ambient {sub.ambient_dim}"
                )

        elif check.kind == "subalgebra":
            sub = subspaces[target]
            alg = algebras[sub_algebra[target]]

            def run():
                bad = first_unclosed_pair(alg.bracket, sub)
                return Report.verdict("closure", bad is None, f"basis pair {bad}")

        elif check.kind == "quadratic":
            alg = algebras[target]

            def run():
                return check_quadratic_lie(alg)

        elif check.kind == "morphism":
            fib = fibers[target]

            def run():
                return check_hamiltonian_fiber(fib)

        elif check.kind == "roundtrip":
            fib = fibers[target]
            pair = fib.pair

            def run():
                sp = make_isotropic_splitting(pair)
                try:
                    q = pi_from_k(fib, sp)
                except ValueError as e:
                    # a fiber with no bivector picture fails the round trip
                    return Report.verdict("roundtrip", False, str(e))
                back = k_from_quasi(q, dJ=fib.dJ, rho=fib.rho, realization=sp)
                ok = back.K == fib.K
                return Report.verdict("roundtrip", ok, "round trip moved the Lagrangian")

        elif check.kind == "splitting":
            sp = splittings[target]

            def run():
                data = derive_quasi_data(sp.pair, sp)
                return check_quasi_jacobi(subalgebra_structure(sp.pair), data)

        else:  # example
            decl = examples[target]
            if example_registry is None:
                raise SceneError(target, "no example registry supplied")
            fn = example_registry[target]

            def run():
                return fn(
                    samples=decl.samples, seed=decl.seed, tol=decl.tol, step=decl.step
                )

        return PlanStep(name=f"{check.kind} {target}", kind=check.kind, target=target, run=run)

    for check in ir.checks:
        plan.append(step_for(check))

    return ValidatedScene(
        algebras=algebras,
        subspaces=subspaces,
        pairs=pairs,
        splittings=splittings,
        fibers=fibers,
        examples=examples,
        plan=tuple(plan),
    )
