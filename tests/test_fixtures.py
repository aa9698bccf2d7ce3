"""The committed fixtures are reproducible from the sources below.

`write_fixtures` is the generator of everything in ``tests/fixtures``: the
golden scenes in canonical printed form, one malformed scene, the fiber
records of the ``dict`` subcommand, and the golden reports of the `verify`
examples (``example_quantities.json``, see `tests/test_example_golden.py`).  To change a fixture, edit its source
here and rewrite the committed files with ``write_fixtures(FIXTURES)``.
"""

import json
from fractions import Fraction
from pathlib import Path

import helpers

from diracpairs import dictionary as dc
from diracpairs import scene_dsl as sd
from diracpairs.exact_linear import canonicalize

FIXTURES = Path(__file__).parent / "fixtures"

ROTATION_ALGEBRA = """
algebra dd {
  dim 6;
  basis e1 e2 e3 f1 f2 f3;
  bracket [e1, e2] = e3;
  bracket [e2, e3] = e1;
  bracket [e3, e1] = e2;
  bracket [f1, f2] = f3;
  bracket [f2, f3] = f1;
  bracket [f3, f1] = f2;
  pairing diag(1, 1, 1, -1, -1, -1);
}
subspace diag_half in dd {
  span e1 + f1;
  span e2 + f2;
  span e3 + f3;
}
maninpair rot (dd, diag_half);
"""

SOURCES = {
    "minimal-abelian": """
algebra a { dim 2; pairing diag(1, -1); }
subspace l in a { span e1 + e2; }
maninpair p (a, l);
check lagrangian l;
check subalgebra l;
""",
    "rotation-double": ROTATION_ALGEBRA
    + """
splitting s for rot { auto; }
check quadratic dd;
check lagrangian diag_half;
check subalgebra diag_half;
check splitting s;
""",
    "rotation-images": ROTATION_ALGEBRA
    + """
splitting explicit for rot {
  images 1/2 e1 - 1/2 f1, 1/2 e2 - 1/2 f2, 1/2 e3 - 1/2 f3;
}
check splitting explicit;
""",
    "graph-fibers": """
algebra a { dim 2; pairing diag(1, -1); }
subspace l in a { span e1 + e2; }
maninpair p (a, l);
fiber id0 { tdim 0; pair p; k (1, 1); }
fiber lift {
  tdim 1;
  pair p;
  k (1, 0, 1, 1) (0, 1, -1/2, 1/2);
}
check morphism id0;
check morphism lift;
check roundtrip lift;
""",
    "fraction-spans": """
algebra a { dim 3; pairing diag(1, 1, -1); }
subspace w in a { span 1/2 e1 - 3 e2 + e3; span - e1 + 2/7 e3; }
check subalgebra w;
""",
    "split-traceless": """
algebra dd {
  dim 6;
  basis h1 x1 y1 h2 x2 y2;
  bracket [h1, x1] = 2 x1;
  bracket [h1, y1] = - 2 y1;
  bracket [x1, y1] = h1;
  bracket [h2, x2] = 2 x2;
  bracket [h2, y2] = - 2 y2;
  bracket [x2, y2] = h2;
  pairing rows (2, 0, 0, 0, 0, 0) (0, 0, 1, 0, 0, 0) (0, 1, 0, 0, 0, 0)
               (0, 0, 0, -2, 0, 0) (0, 0, 0, 0, 0, -1) (0, 0, 0, 0, -1, 0);
}
subspace diag_half in dd { span h1 + h2; span x1 + x2; span y1 + y2; }
maninpair tr0 (dd, diag_half);
splitting s for tr0 { auto; }
check quadratic dd;
check lagrangian diag_half;
check subalgebra diag_half;
check splitting s;
""",
    "cotangent-solvable": """
algebra td {
  dim 4;
  basis a1 a2 b1 b2;
  bracket [a1, a2] = a2;
  bracket [a1, b2] = - b2;
  bracket [a2, b2] = b1;
  pairing rows (0, 0, 1, 0) (0, 0, 0, 1) (1, 0, 0, 0) (0, 1, 0, 0);
}
subspace base in td { span a1; span a2; }
subspace dual_leaf in td { span b1; span b2; }
maninpair shear (td, base);
check quadratic td;
check lagrangian base;
check subalgebra base;
check lagrangian dual_leaf;
check subalgebra dual_leaf;
""",
    "registry-example": """
example planar_symplectic_reduction { samples 4; seed 2; tol 1e-4; }
check example planar_symplectic_reduction;
""",
    "quadratic-rotations": """
algebra rot3 {
  dim 3;
  bracket [e1, e2] = e3;
  bracket [e2, e3] = e1;
  bracket [e3, e1] = e2;
  pairing diag(1, 1, 1);
}
check quadratic rot3;
""",
    "duality-plane": """
algebra dp { dim 4; pairing diag(1, 1, -1, -1); }
subspace graph12 in dp { span e1 + e3; span e2 + e4; }
maninpair flat (dp, graph12);
check quadratic dp;
check lagrangian graph12;
check subalgebra graph12;
""",
}


def _record(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_fixtures(directory):
    """Write every fixture file into ``directory``."""
    for name, src in SOURCES.items():
        ir = sd.parse_scene(src)
        canonical = helpers.print_scene(ir)
        assert sd.parse_scene(canonical) == ir, name
        (directory / f"{name}.mp").write_text(canonical)

    # deliberately malformed scene for the CLI input-error path
    (directory / "broken.mp").write_text("algebra a { dim 2; pairing diag(1, -1); \n")

    planar = dc.QuasiPoissonPointData(
        t_dim=2,
        a_dim=0,
        Pi=((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))),
        rho_X=((), ()),
    )
    acted = dc.QuasiPoissonPointData(
        t_dim=1, a_dim=1, Pi=((Fraction(0),),), rho_X=((Fraction(2),),)
    )
    covector = dc.DiracPointData(canonicalize([(0, 0, 1, 0), (0, 0, 0, 1)], 4))
    tangent = dc.DiracPointData(canonicalize([(1, 0, 0, 0), (0, 1, 0, 0)], 4))
    records = {
        "planar-quasi.json": _record(dc.quasi_to_dict(planar)),
        "action-quasi.json": _record(dc.quasi_to_dict(acted)),
        "covector-dirac.json": _record(dc.dirac_to_dict(covector)),
        "tangent-dirac.json": _record(dc.dirac_to_dict(tangent)),
        "bad-kind.json": '{"kind": "nope"}\n',
        "garbage.json": "{not json\n",
    }
    for name, text in records.items():
        (directory / name).write_text(text)
    (directory / "example_quantities.json").write_text(helpers.example_quantities_json())


def test_fixtures_regenerate_byte_for_byte(tmp_path):
    write_fixtures(tmp_path)
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == sorted(p.name for p in FIXTURES.iterdir())
    for name in made:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
