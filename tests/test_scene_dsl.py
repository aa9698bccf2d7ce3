import random
import string
from fractions import Fraction
from pathlib import Path

import helpers
import pytest

from diracpairs import scene_dsl as sd
from diracpairs import verify
from diracpairs.quadratic_lie import catalog
from diracpairs.report import Report

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = sorted(FIXTURES.glob("*.mp"))
GOLDEN = [p for p in GOLDEN if p.name != "broken.mp"]

MINIMAL = """
algebra a { dim 2; pairing diag(1, -1); }
subspace l in a { span e1 + e2; }
maninpair p (a, l);
check lagrangian l;
check subalgebra l;
"""


def test_ten_golden_fixtures_exist():
    assert len(GOLDEN) == 10


def test_tokenizer_positions_and_comments():
    toks = sd.tokenize("algebra a { # trailing words\n  dim 2;\n}")
    kinds = [(t.kind, t.text) for t in toks]
    assert kinds[0] == ("ident", "algebra")
    assert kinds[1] == ("ident", "a")
    assert kinds[2] == ("punct", "{")
    assert ("ident", "trailing") not in kinds
    dim_tok = next(t for t in toks if t.text == "dim")
    assert (dim_tok.line, dim_tok.col) == (2, 3)
    assert toks[-1].kind == "eof"
    assert [t.kind for t in sd.tokenize("3.5 2e-4 7")][:3] == ["float", "float", "int"]


def test_numbers_are_ascii_digits_and_words_any_alphanumerics():
    toks = sd.tokenize("e² _٣ 12 # note")
    assert [(t.kind, t.text) for t in toks] == [
        ("ident", "e²"), ("ident", "_٣"), ("int", "12"), ("eof", ""),
    ]
    # the end token after a trailing comment keeps the column of its '#'
    assert (toks[-1].line, toks[-1].col) == (1, 10)
    for text, col in (("dim ٣", 5), ("1²", 2), ("1.5²", 4)):
        with pytest.raises(sd.ParseError, match="unexpected character") as info:
            sd.tokenize(text)
        assert (info.value.line, info.value.col) == (1, col), text


def test_minimal_scene_parses_validates_and_passes():
    ir = sd.parse_scene(MINIMAL)
    assert len(ir.decls) == 3
    assert len(ir.checks) == 2
    scene = sd.validate_scene(ir, {})
    kinds = {name: type(obj).__name__ for name, obj in scene.objects.items()}
    assert kinds == {"a": "QuadraticLieAlgebra", "l": "Subspace", "p": "ManinPairPoint"}
    for step in scene.plan:
        out = step.run()
        assert out.passed, (step.name, out)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_round_trip_is_byte_exact(path):
    text = path.read_text()
    ir = sd.parse_scene(text)
    assert helpers.print_scene(ir) == text
    assert sd.parse_scene(helpers.print_scene(ir)) == ir


def test_every_check_kind_runs_in_a_golden_scene():
    # a new row of the check table comes with a golden scene that runs it
    kinds = {c.kind for p in GOLDEN for c in sd.parse_scene(p.read_text()).checks}
    assert kinds == set(sd.CHECKS)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_scenes_run_clean(path):
    ir = sd.parse_scene(path.read_text())
    scene = sd.validate_scene(ir, example_registry=verify.EXAMPLES)
    assert scene.plan
    for step in scene.plan:
        out = step.run()
        assert out.passed, (path.name, step.name, out)


def test_rotation_scene_reconstructs_the_catalog_double():
    ir = sd.parse_scene((FIXTURES / "rotation-double.mp").read_text())
    scene = sd.validate_scene(ir, {})
    ref = catalog()["so3-double"]
    assert scene.objects["dd"].structure == ref.d.structure
    assert scene.objects["dd"].form.gram == ref.d.form.gram
    assert scene.objects["rot"].g == ref.g


def test_canonical_printing_is_idempotent():
    ir = sd.parse_scene(MINIMAL)
    once = helpers.print_scene(ir)
    assert helpers.print_scene(sd.parse_scene(once)) == once


def test_fraction_coefficients_survive_parsing():
    ir = sd.parse_scene(
        "algebra a { dim 3; pairing diag(1, 1, -1); }\n"
        "subspace w in a { span 1/2 e1 - 3 e2 + e3; span - e1 + 2/7 e3; }\n"
    )
    sub = ir.decls[1]
    assert sub.vectors[0] == (Fraction(1, 2), Fraction(-3), Fraction(1))
    assert sub.vectors[1] == (Fraction(-1), Fraction(0), Fraction(2, 7))
    assert sd.parse_scene(helpers.print_scene(ir)) == ir


@pytest.mark.parametrize(
    "text,line,col,fragment",
    [
        ("algebra a { dim 2; pairing diag(1, -1); ", 1, 41, "expected '}'"),
        ("algebra a { dim 2; pairing diag(1.5, -1); }", 1, 33, "rational"),
        (
            "algebra a { dim 2; pairing diag(1, -1); }\nsubspace l in a { span e9; }",
            2,
            24,
            "unknown identifier",
        ),
        (
            "algebra a { dim 2; pairing diag(1, -1); }\n"
            "algebra a { dim 2; pairing diag(1, -1); }",
            2,
            9,
            "duplicate name",
        ),
        ("algebra a { dim 2; pairing diag(1, -1, 3); }", 1, 20, "dimension mismatch"),
        (
            "algebra a { dim 2; pairing rows (0, 1) (1, 1); }\ncheck lagrangian a;",
            2,
            18,
            "expected a subspace name",
        ),
        ("fiber f { tdim 1; pair q; }", 1, 24, "unknown identifier"),
        ("algebra a @ dim 2;", 1, 11, "unexpected character"),
        ("algebra a { dim ²; pairing diag(); }", 1, 17, "unexpected character"),
        ("example e { tol 1²; }", 1, 18, "unexpected character"),
        ("algebra a { dim 0; pairing diag(); }", 1, 17, "dimension must be positive"),
        ("algebra a { dim 2; pairing diag(1, 1/0); }", 1, 38, "zero denominator"),
        (
            "algebra a { dim 2; pairing diag(1, -1); }\n"
            "subspace l in a { span e1; }\n"
            "check wiggle l;",
            3,
            7,
            "check directive",
        ),
        ("example e { samples 0; }", 1, 21, "at least 1"),
        ("example e { tol 0; }", 1, 17, "finite and positive"),
        ("example e { tol 1e999; }", 1, 17, "finite and positive"),
        ("example e { step 0; }", 1, 18, "finite and positive"),
    ],
)
def test_parse_errors_carry_positions(text, line, col, fragment):
    with pytest.raises(sd.ParseError) as info:
        sd.parse_scene(text)
    err = info.value
    assert (err.line, err.col) == (line, col)
    assert fragment in err.message


def test_validation_names_the_broken_declaration():
    bad = """
algebra bad {
  dim 6;
  bracket [e1, e2] = e3;
  bracket [e2, e3] = e1;
  bracket [e3, e1] = e2;
  bracket [e3, e4] = - e5;
  bracket [e3, e5] = e4;
  bracket [e4, e5] = e3;
  pairing diag(1, 1, 1, -1, -1, -1);
}
subspace l in bad { span e1 + e4; span e2 + e5; span e3 + e6; }
maninpair pair (bad, l);
"""
    # the algebra is built as declared; the pair on it is refused
    with pytest.raises(sd.SceneError) as info:
        sd.validate_scene(sd.parse_scene(bad), {})
    assert info.value.decl == "pair"
    assert "ambient algebra fails checks: jacobi" in info.value.reason


def test_every_declaration_kind_has_a_builder():
    # examples come from the registry; every other kind from `BUILDERS`
    kinds = {d.kind for p in GOLDEN for d in sd.parse_scene(p.read_text()).decls}
    assert kinds == set(sd.BUILDERS) | {"example"}


PAIR_PREFIX = (
    "algebra a { dim 2; pairing rows (0, 1) (1, 0); }\n"
    "subspace l in a { span e1; }\n"
    "maninpair p (a, l);\n"
)

# (scene, declaration refused, fragment of the reason), one per refusal kind
REFUSED_DECLARATIONS = {
    "maninpair-on-bad-algebra": (
        "algebra bad { dim 3; bracket [e1, e2] = e1; pairing diag(1, 1, -1); }\n"
        "subspace l in bad { span e1 + e3; }\n"
        "maninpair p (bad, l);\n",
        "p",
        "ambient algebra fails checks: ad_invariance",
    ),
    "maninpair": (
        "algebra a { dim 2; pairing diag(1, -1); }\n"
        "subspace l in a { span e1; }\n"
        "maninpair p (a, l);\n",
        "p",
        "not a Lagrangian subalgebra",
    ),
    "splitting-count": (
        PAIR_PREFIX + "splitting s for p { images e1, e2; }\n",
        "s",
        "2 images for a half of dimension 1",
    ),
    "splitting-image": (
        PAIR_PREFIX + "splitting s for p { images e1; }\n",
        "s",
        "splitting does not project to the identity",
    ),
    "fiber": (
        PAIR_PREFIX + "fiber f { tdim 1; pair p; k (1, 0, 0, 0); }\n",
        "f",
        "not Lagrangian for the sum pairing",
    ),
}


@pytest.mark.parametrize(
    "text, decl, reason", REFUSED_DECLARATIONS.values(), ids=list(REFUSED_DECLARATIONS)
)
def test_a_refused_declaration_names_itself_and_its_reason(text, decl, reason):
    with pytest.raises(sd.SceneError) as info:
        sd.validate_scene(sd.parse_scene(text), {})
    assert info.value.decl == decl
    assert reason in info.value.reason


# Manin pair refusals are ValueErrors, which the one refusal path of
# `validate_scene` turns into bad input
REFUSED_PAIRS = {
    "not-lagrangian": ("dim 4; pairing diag(1, -1, 1, -1);", "span e1;", "not a Lagrangian subalgebra"),
    "not-closed": (
        "dim 6; bracket [e1, e2] = e3; bracket [e2, e3] = e1; bracket [e3, e1] = e2; "
        "pairing diag(1, 1, 1, -1, -1, -1);",
        "span e1 + e4; span e2 + e5; span e3 - e6;",
        "not a Lagrangian subalgebra",
    ),
    "non-split": ("dim 4; pairing diag(1, 1, 1, 1);", "span e1; span e2;", "split signature"),
}


@pytest.mark.parametrize(
    "algebra, span, reason", REFUSED_PAIRS.values(), ids=list(REFUSED_PAIRS)
)
def test_each_manin_pair_refusal_is_a_value_error(algebra, span, reason):
    a, l, p = sd.parse_scene(
        f"algebra a {{ {algebra} }}\nsubspace l in a {{ {span} }}\nmaninpair p (a, l);\n"
    ).decls
    built = {"a": sd.BUILDERS["algebra"]({}, a)}
    built["l"] = sd.BUILDERS["subspace"](built, l)
    with pytest.raises(ValueError, match=reason):
        sd.BUILDERS["maninpair"](built, p)


def test_example_checks_route_through_the_registry():
    text = "example spin_probe { samples 7; seed 3; tol 1e-05; }\ncheck example spin_probe;\n"
    seen = {}

    def fake(samples, seed, tol, step):
        seen.update(samples=samples, seed=seed, tol=tol, step=step)
        return Report({"probe": 1.25e-9}, tol=tol)

    ir = sd.parse_scene(text)
    scene = sd.validate_scene(ir, example_registry={"spin_probe": fake})
    out = scene.plan[0].run()
    assert out.passed
    assert out.residual == 1.25e-9
    assert seen == {"samples": 7, "seed": 3, "tol": 1e-05, "step": 1e-4}
    with pytest.raises(sd.SceneError):
        sd.validate_scene(ir, example_registry={})


def test_failed_checks_report_a_witness():
    text = (
        "algebra a { dim 2; pairing diag(1, -1); }\n"
        "subspace tilt in a { span e1; }\n"
        "check lagrangian tilt;\n"
    )
    scene = sd.validate_scene(sd.parse_scene(text), {})
    out = scene.plan[0].run()
    assert not out.passed
    assert out.witness


ZERO_TANGENT_FIBER = """
algebra a { dim 2; pairing diag(1, -1); }
subspace l in a { span e1 + e2; }
maninpair p (a, l);
fiber id0 { tdim 0; pair p; k (1, 1); }
check roundtrip id0;
"""


def test_a_fiber_over_a_zero_dimensional_tangent_space_round_trips():
    scene = sd.validate_scene(sd.parse_scene(ZERO_TANGENT_FIBER), {})
    assert scene.plan[0].run().passed


# scenes whose check answers "no" by an error of the construction it runs:
# the answer is a failing verdict carrying the error text
REFUSING_CHECKS = [
    (
        "algebra a { dim 2; pairing diag(1, 1); }\n"
        "subspace l in a { span e1; }\n"
        "check lagrangian l;\n",
        "split signature",
    ),
    (
        "algebra a { dim 2; pairing rows (0, 1) (1, 0); }\n"
        "subspace l in a { span e1; }\n"
        "maninpair p (a, l);\n"
        "fiber f { tdim 1; pair p; k (1, 0, 0, 0) (0, 0, 1, 0); }\n"
        "check roundtrip f;\n",
        "tangent lift is not unique",
    ),
]


@pytest.mark.parametrize("text, reason", REFUSING_CHECKS, ids=["lagrangian", "roundtrip"])
def test_a_check_that_answers_no_reports_a_failing_verdict(text, reason):
    scene = sd.validate_scene(sd.parse_scene(text), {})
    out = scene.plan[-1].run()
    assert not out.passed
    assert reason in out.describe()


def fuzz_inputs(count, seed):
    rng = random.Random(seed)
    vocab = [
        "algebra", "subspace", "maninpair", "splitting", "fiber", "example",
        "check", "span", "dim", "pairing", "diag", "rows", "bracket", "basis",
        "auto", "images", "tdim", "pair", "k", "dj", "rho", "lagrangian",
        "subalgebra", "quadratic", "morphism", "roundtrip",
        "{", "}", "(", ")", "[", "]", ";", ",", "=", "+", "-", "*", "/",
        "e1", "e2", "f1", "1", "2", "-3", "1/2", "0.5", "1e-4", "\n", " ",
    ]
    golden_texts = [p.read_text() for p in GOLDEN[:3]]
    out = []
    for _ in range(count):
        mode = rng.random()
        if mode < 0.4:
            out.append("".join(rng.choice(vocab) + " " for _ in range(rng.randrange(0, 40))))
        elif mode < 0.7:
            chars = string.printable + "éα€²٣"
            out.append("".join(rng.choice(chars) for _ in range(rng.randrange(0, 120))))
        else:
            base = list(rng.choice(golden_texts))
            for _ in range(rng.randrange(1, 8)):
                pos = rng.randrange(len(base))
                action = rng.random()
                if action < 0.4:
                    base[pos] = rng.choice(string.printable)
                elif action < 0.7:
                    del base[pos]
                else:
                    base.insert(pos, rng.choice(string.printable))
            out.append("".join(base))
    return out


def test_fuzzed_text_never_crashes_the_parser():
    crashed = []
    for text in fuzz_inputs(400, seed=20240817):
        try:
            ir = sd.parse_scene(text)
        except sd.ParseError:
            continue
        try:
            sd.validate_scene(ir, example_registry=verify.EXAMPLES)
        except (sd.SceneError, sd.ParseError):
            continue
        except Exception as e:  # noqa: BLE001 - the point of the fuzz probe
            crashed.append((text, repr(e)))
    assert not crashed
