import argparse
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from diracpairs import cli
from diracpairs import numeric_manifold as nm

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_exit_codes_are_pinned():
    assert cli.EXIT_PASS == 0
    assert cli.EXIT_FAIL == 1
    assert cli.EXIT_INPUT == 2
    assert cli.EXIT_INTERNAL == 3


def test_check_runs_a_passing_scene():
    code, out, err = run_cli("check", str(FIXTURES / "rotation-double.mp"))
    assert code == 0
    assert err == ""
    assert "4 passed, 0 failed, 0 errored" in out
    assert out.count("PASS ") == 4


def test_check_json_report_is_deterministic():
    args = ("check", "--json", str(FIXTURES / "rotation-double.mp"))
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    rep1, rep2 = json.loads(out1), json.loads(out2)
    assert rep1["determinism_hash"] == rep2["determinism_hash"]
    assert rep1["schema"] == 1
    assert rep1["scene"] == "rotation-double.mp"
    assert rep1["summary"] == {"pass": 4, "fail": 0, "error": 0}
    assert all(c["status"] == "pass" for c in rep1["checks"])
    assert rep1["tool"]["name"] == "diracpairs"
    stripped1 = {k: v for k, v in rep1.items() if k != "determinism_hash"}
    stripped2 = {k: v for k, v in rep2.items() if k != "determinism_hash"}
    timeless = json.dumps(cli._strip_elapsed(stripped1), sort_keys=True)
    assert timeless == json.dumps(cli._strip_elapsed(stripped2), sort_keys=True)


def test_check_reports_failures_with_exit_one(tmp_path):
    scene = tmp_path / "tilted.mp"
    scene.write_text(
        "algebra a { dim 2; pairing diag(1, -1); }\n"
        "subspace tilt in a { span e1; }\n"
        "check lagrangian tilt;\n"
        "check subalgebra tilt;\n"
    )
    code, out, err = run_cli("check", str(scene))
    assert code == 1
    assert "FAIL" in out
    assert "1 failed" in out

    code_json, out_json, _ = run_cli("check", "--json", str(scene))
    assert code_json == 1
    rep = json.loads(out_json)
    assert rep["summary"]["fail"] == 1
    assert rep["summary"]["pass"] == 1


EXACT_KINDS = {"lagrangian", "subalgebra", "quadratic", "morphism", "roundtrip", "splitting"}


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(FIXTURES.glob("*.mp")) if p.name != "broken.mp"],
    ids=lambda p: p.stem,
)
def test_check_entries_keep_the_schema_one_shape(path):
    code, out, _ = run_cli("check", "--json", str(path))
    assert code == 0
    for entry in json.loads(out)["checks"]:
        assert set(entry) == {"name", "status", "residual", "witness", "elapsed_ms"}
        kind = entry["name"].split()[0]
        if kind in EXACT_KINDS:
            assert entry["residual"] is None, entry
        else:
            assert kind == "example"
            assert isinstance(entry["residual"], float), entry
        assert entry["status"] == "pass" and entry["witness"] is None, entry


REFERENCE_HASHES = SRC.parent / "perfbench" / "reference_hashes.json"

# Exit code of ``dict`` per fiber file, in the order qp-to-dirac,
# dirac-to-qp, roundtrip.
DICT_EXITS = {
    "action-quasi.json": (1, 1, 1),
    "bad-kind.json": (2, 2, 2),
    "covector-dirac.json": (1, 0, 0),
    "garbage.json": (2, 2, 2),
    "planar-quasi.json": (0, 1, 0),
    "tangent-dirac.json": (1, 1, 1),
}

# (id, reference key, argv, exit code) of every exact-scenes invocation, with
# paths relative to the repository root as the benchmark passes them
GOLDEN_CALLS = [
    (p.stem, f"check:{p.name}", ["check", f"tests/fixtures/{p.name}", "--json"],
     2 if p.name == "broken.mp" else 0)
    for p in sorted(FIXTURES.glob("*.mp"))
] + [
    (f"{mode}-{Path(name).stem}", f"dict:{mode}:{name}",
     ["dict", "--mode", mode, "--fiber", f"tests/fixtures/{name}", "--json"], code)
    for name, codes in DICT_EXITS.items()
    for mode, code in zip(("qp-to-dirac", "dirac-to-qp", "roundtrip"), codes)
]


@pytest.mark.parametrize(
    "key, argv, expected", [c[1:] for c in GOLDEN_CALLS], ids=[c[0] for c in GOLDEN_CALLS]
)
def test_golden_scene_hashes_match_the_benchmark_reference(monkeypatch, key, argv, expected):
    # the benchmark's digest: the report's determinism_hash, else the sha256
    # of stdout on exit 0 or 1, else of stderr (which names the scene path)
    monkeypatch.chdir(SRC.parent)
    code, out, err = run_cli(*argv)
    assert code == expected
    if code in (0, 1):
        report = json.loads(out)
        digest = report.get("determinism_hash", hashlib.sha256(out.encode()).hexdigest())
    else:
        digest = hashlib.sha256(err.encode()).hexdigest()
    reference = json.loads(REFERENCE_HASHES.read_text())["hashes"]
    assert digest == reference[key]


# The flat examples are left out until the reference is refreshed: the 20
# flat_twisted_axioms keys predate a fix that moved its residuals on purpose
# (ROADMAP item 16).
ROTATION_EXAMPLES = (
    "rotation_dressing_axioms",
    "rotation_strong_section",
    "rotation_quasi_poisson",
    "rotation_canonical_fibers",
)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ROTATION_EXAMPLES)
def test_rotation_example_hashes_match_the_benchmark_reference(name, seed):
    argv = ["verify-example", name, "--samples", "20", "--seed", str(seed), "--json"]
    code, out, _ = run_cli(*argv)
    assert code == 0
    reference = json.loads(REFERENCE_HASHES.read_text())["hashes"]
    key = f"verify-example:{name}@samples20@seed{seed}"
    assert json.loads(out)["determinism_hash"] == reference[key]


def test_check_rejects_unreadable_and_unparseable_input(tmp_path):
    code, out, err = run_cli("check", str(tmp_path / "missing.mp"))
    assert code == 2
    assert "cannot read scene" in err

    code, out, err = run_cli("check", str(FIXTURES / "broken.mp"))
    assert code == 2
    assert "1:41" in err or "expected" in err


@pytest.mark.parametrize(
    "text, position",
    [
        ("algebra a { dim ²; pairing diag(); }\n", "line 1, col 17"),
        ("example e { tol 1²; }\n", "line 1, col 18"),
    ],
)
def test_check_reports_a_non_ascii_digit_as_bad_input(tmp_path, text, position):
    scene = tmp_path / "digit.mp"
    scene.write_text(text, encoding="utf-8")
    code, out, err = run_cli("check", str(scene))
    assert code == 2
    assert out == ""
    assert f"{position}: unexpected character" in err


LONG_LITERAL = "1" * 5000


@pytest.mark.parametrize(
    "text, position",
    [
        (f"algebra a {{ dim {LONG_LITERAL}; pairing diag(1); }}\n", "line 1, col 17"),
        (f"algebra a {{ dim 1; pairing diag({LONG_LITERAL}); }}\n", "line 1, col 33"),
        (f"example e {{ seed {LONG_LITERAL}; }}\n", "line 1, col 18"),
    ],
    ids=["dim", "pairing", "seed"],
)
def test_check_reports_an_over_long_integer_as_bad_input(tmp_path, monkeypatch, text, position):
    # past Python's default digit limit for int(); the limit itself stays
    (tmp_path / "long.mp").write_text(text)
    monkeypatch.chdir(tmp_path)  # a short path, so the size below is the echo's
    code, out, err = run_cli("check", "long.mp")
    assert code == 2
    assert out == ""
    assert f"{position}: integer literal too long" in err
    # the message echoes a clipped prefix of the literal, not all of it
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "record",
    [
        f'{{"kind": "quasi", "t_dim": {LONG_LITERAL}, "a_dim": 0, "pi": [], "rho_x": []}}',
        f'{{"kind": "quasi", "t_dim": 1, "a_dim": 0, "pi": [[{LONG_LITERAL}]], "rho_x": [[]]}}',
    ],
    ids=["t_dim", "entry"],
)
def test_dict_reports_an_over_long_number_as_bad_input(tmp_path, record):
    path = tmp_path / "fiber.json"
    path.write_text(record)
    code, out, err = run_cli("dict", "--mode", "qp-to-dirac", "--fiber", str(path))
    assert code == 2
    assert out == ""
    assert "cannot read fiber file" in err


def test_check_quiet_suppresses_text():
    code, out, err = run_cli("check", "--quiet", str(FIXTURES / "minimal-abelian.mp"))
    assert code == 0
    assert out == ""


def test_dict_converts_a_bivector_record_to_a_fiber():
    code, out, err = run_cli(
        "dict", "--mode", "qp-to-dirac", "--fiber", str(FIXTURES / "planar-quasi.json")
    )
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "dirac"
    assert record["t_dim"] == 2


def test_dict_converts_a_fiber_record_to_a_bivector():
    code, out, err = run_cli(
        "dict", "--mode", "dirac-to-qp", "--fiber", str(FIXTURES / "covector-dirac.json")
    )
    assert code == 0
    record = json.loads(out)
    assert record["kind"] == "quasi"
    assert record["pi"] == [["0", "0"], ["0", "0"]]
    assert record["a_dim"] == 0


def test_dict_round_trips_both_pictures_exactly():
    for name in ("planar-quasi.json", "covector-dirac.json"):
        code, out, err = run_cli(
            "dict", "--mode", "roundtrip", "--json", "--fiber", str(FIXTURES / name)
        )
        assert code == 0, name
        assert json.loads(out) == {"kind": "roundtrip", "exact": True}
        code, out, err = run_cli(
            "dict", "--mode", "roundtrip", "--fiber", str(FIXTURES / name)
        )
        assert code == 0, name
        assert out.strip() == "round trip exact"


def test_dict_rejects_fibers_with_an_action_leg():
    code, out, err = run_cli(
        "dict", "--mode", "qp-to-dirac", "--fiber", str(FIXTURES / "action-quasi.json")
    )
    assert code == 1
    assert "action leg" in out

    code, out, _ = run_cli(
        "dict",
        "--mode",
        "qp-to-dirac",
        "--json",
        "--fiber",
        str(FIXTURES / "action-quasi.json"),
    )
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_dict_rejects_non_graph_conversions():
    code, out, err = run_cli(
        "dict", "--mode", "dirac-to-qp", "--fiber", str(FIXTURES / "tangent-dirac.json")
    )
    assert code == 1
    assert "FAIL" in out


def test_dict_rejects_malformed_files():
    code, _, err = run_cli(
        "dict", "--mode", "roundtrip", "--fiber", str(FIXTURES / "bad-kind.json")
    )
    assert code == 2
    assert "quasi or dirac" in err

    code, _, err = run_cli(
        "dict", "--mode", "roundtrip", "--fiber", str(FIXTURES / "garbage.json")
    )
    assert code == 2
    assert "cannot read fiber file" in err


MALFORMED_RECORDS = [
    ("qp-to-dirac", {"kind": "quasi", "t_dim": 1, "a_dim": 0, "rho_x": [[]]}, "pi"),
    ("dirac-to-qp", {"kind": "dirac", "t_dim": 1, "basis": [["1/0", "0"]]}, "basis"),
    ("roundtrip", {"kind": "dirac", "t_dim": 1, "basis": [["1/0", "0"]]}, "basis"),
    ("qp-to-dirac", {"kind": "quasi", "t_dim": 1, "a_dim": 0, "pi": [["x"]], "rho_x": [[]]}, "pi"),
    ("qp-to-dirac", {"kind": "quasi", "t_dim": 2, "a_dim": 0, "pi": ["00", "00"], "rho_x": [[], []]}, "pi"),
    ("roundtrip", {"kind": "quasi", "t_dim": "one", "a_dim": 0, "pi": [], "rho_x": []}, "t_dim"),
    ("dirac-to-qp", {"kind": "dirac", "t_dim": 0.5, "basis": [["1"]]}, "t_dim"),
    ("dirac-to-qp", {"kind": "dirac", "t_dim": 1, "basis": [[float("inf"), 0]]}, "basis"),
    ("qp-to-dirac", {"kind": "quasi", "t_dim": 0, "a_dim": -1, "pi": [], "rho_x": []}, "a_dim"),
    ("dirac-to-qp", {"kind": "dirac", "t_dim": -1, "basis": []}, "t_dim"),
    # a float or a boolean is no rational: rational.rationalize is the only float gate
    ("qp-to-dirac", {"kind": "quasi", "t_dim": 2, "a_dim": 0, "pi": [["0", 0.1], [-0.1, "0"]], "rho_x": [[], []]}, "pi"),
    ("dirac-to-qp", {"kind": "dirac", "t_dim": 1, "basis": [[True, "0"]]}, "basis"),
    ("qp-to-dirac", {"kind": "quasi", "t_dim": 0, "a_dim": False, "pi": [], "rho_x": []}, "a_dim"),
    ("dirac-to-qp", {"kind": "dirac", "t_dim": 1.0, "basis": [["1", "0"]]}, "t_dim"),
]


@pytest.mark.parametrize("mode, record, field", MALFORMED_RECORDS)
def test_dict_reports_a_malformed_record_as_bad_input(tmp_path, mode, record, field):
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(record))
    code, out, err = run_cli("dict", "--mode", mode, "--json", "--fiber", str(path))
    assert code == 2
    assert out == ""
    assert repr(field) in err


def test_dict_takes_an_action_on_a_zero_dimensional_tangent_space(tmp_path):
    # a 0 x 1 action matrix is well formed; file conversion refuses the
    # action leg, as it does in higher dimensions
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps({"kind": "quasi", "t_dim": 0, "a_dim": 1, "pi": [], "rho_x": []}))
    for mode in ("qp-to-dirac", "roundtrip"):
        code, out, err = run_cli("dict", "--mode", mode, "--fiber", str(path))
        assert code == 1
        assert "action leg" in out and err == ""


def test_dict_keeps_exit_one_for_a_well_formed_record_that_fails(tmp_path):
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps({"kind": "quasi", "t_dim": 1, "a_dim": 0, "pi": [["1"]], "rho_x": [[]]}))
    code, out, err = run_cli("dict", "--mode", "qp-to-dirac", "--fiber", str(path))
    assert code == 1
    assert "not antisymmetric" in out
    assert err == ""


def test_verify_example_runs_and_reports():
    code, out, err = run_cli(
        "verify-example",
        "planar_symplectic_reduction",
        "--samples",
        "4",
        "--seed",
        "1",
    )
    assert code == 0
    assert "1 passed" in out


def test_verify_example_json_is_deterministic():
    args = (
        "verify-example",
        "rotation_quasi_poisson",
        "--json",
        "--samples",
        "2",
        "--seed",
        "3",
        "--tol",
        "1e-4",
    )
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    rep1, rep2 = json.loads(out1), json.loads(out2)
    assert rep1["determinism_hash"] == rep2["determinism_hash"]
    assert rep1["example"] == "rotation_quasi_poisson"
    assert rep1["seed"] == 3
    assert rep1["samples"] == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_non_finite_residual_is_valid_json():
    def no_constants(name):
        raise ValueError(f"non-JSON constant {name}")

    code, out, _ = run_cli(
        "verify-example", "flat_twisted_axioms", "--samples", "2",
        "--fd-step", "1e200", "--json",
    )
    assert code == 1
    (check,) = json.loads(out, parse_constant=no_constants)["checks"]
    assert check["status"] == "fail"
    assert check["residual"] is None
    assert "c1_jacobi = nan" in check["witness"]


BAD_ARGUMENTS = [
    # argparse rejects these before any example runs
    ("planar_symplectic_reduction", "--samples", "0", "argument --samples"),
    ("planar_symplectic_reduction", "--samples", "-3", "argument --samples"),
    ("flat_twisted_axioms", "--seed", "-1", "argument --seed: must be at least 0, got -1"),
    ("planar_symplectic_reduction", "--fd-step", "0", "argument --fd-step"),
    ("planar_symplectic_reduction", "--tol", "inf", "argument --tol"),
    ("planar_symplectic_reduction", "--tol", "nan", "argument --tol"),
    ("planar_symplectic_reduction", "--tol", "-1", "argument --tol"),
    # a valid float that the dressing bundle's construction gate rejects
    ("rotation_dressing_axioms", "--fd-step", "1e-12", "example rotation_dressing_axioms"),
]


@pytest.mark.parametrize(
    "name,flag,value,message",
    BAD_ARGUMENTS,
    ids=[f"{flag}-{value}" for _, flag, value, _ in BAD_ARGUMENTS],
)
def test_verify_example_rejects_bad_numeric_arguments(name, flag, value, message, capsys):
    code, out, err = run_cli("verify-example", name, flag, value)
    assert code == 2
    assert out == ""
    assert message in err
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_output_stream(capsys):
    code, out, err = run_cli("verify-example", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: diracpairs verify-example")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "name,message",
    [
        ("rotation_canonical_fibers", "not Lagrangian for the sum pairing"),
        ("rotation_strong_section", "fiber is not exact: anchor adjoint is not isotropic"),
    ],
)
def test_a_broken_frozen_fiber_fails_its_check(monkeypatch, name, message):
    # doubling the first three columns of every exact anchor row breaks the
    # geometry of each frozen fiber, not the example's arguments
    exact = nm.rotation_double_integer_anchor

    def broken(xs):
        return [
            ([[2 * v if k < 3 else v for k, v in enumerate(row)] for row in rows], d)
            for rows, d in exact(xs)
        ]

    monkeypatch.setattr(nm, "rotation_double_integer_anchor", broken)
    code, out, err = run_cli("verify-example", name, "--samples", "2", "--json")
    assert (code, err) == (1, "")
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "fail"
    assert check["witness"] == f"frozen_fiber = 1, witness point 0: {message}"


@pytest.mark.parametrize(
    "name,message",
    [
        ("rotation_canonical_fibers", "not Lagrangian for the sum pairing"),
        ("rotation_strong_section", "fiber is not exact: anchor adjoint is not isotropic"),
    ],
)
def test_the_witness_is_the_first_point_whose_frozen_fiber_fails(monkeypatch, name, message):
    # the stacked anchor is exact at points 0, 1, 2 and 4 of 5 and moved off
    # exactness at point 3 alone, so the witness names point 3, and no
    # fiber past it is built
    exact = nm.rotation_double_integer_anchor
    built = []

    def broken_at_3(xs):
        anchors = exact(xs)
        rows, d = anchors[3]
        anchors[3] = ([[v + (k == 0) for k, v in enumerate(row)] for row in rows], d)
        return anchors

    def counted(*args, **kwargs):
        built.append(args)
        return canonical_fiber(*args, **kwargs)

    canonical_fiber = nm.canonical_fiber
    monkeypatch.setattr(nm, "rotation_double_integer_anchor", broken_at_3)
    monkeypatch.setattr(nm, "canonical_fiber", counted)
    code, out, err = run_cli("verify-example", name, "--samples", "5", "--json")
    assert (code, err) == (1, "")
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "fail"
    assert check["witness"] == f"frozen_fiber = 1, witness point 3: {message}"
    # the strong section's identification refuses point 3 before its fiber
    assert len(built) == (4 if name == "rotation_canonical_fibers" else 3)


REUSE_SEQUENCE = [
    [],
    ["--help"],
    ["verify-example", "--help"],
    ["verify-example", "planar_symplectic_reduction", "--samples", "0"],
    ["verify-example", "planar_symplectic_reduction", "--tol", "nan"],
    ["dict", "--mode", "bogus", "--fiber", str(FIXTURES / "planar-quasi.json")],
    ["list-examples"],
    ["list-examples", "--json"],
    ["verify-example", "planar_symplectic_reduction", "--samples", "2", "--json"],
    ["check", str(FIXTURES / "rotation-double.mp")],
]


def _timeless(out):
    try:
        return json.dumps(cli._strip_elapsed(json.loads(out)), sort_keys=True)
    except ValueError:
        return out


def test_reusing_the_parser_keeps_no_state():
    # the first call builds the parser; every later one, in either order, reuses it
    cli.build_parser.cache_clear()
    forward = [run_cli(*argv) for argv in REUSE_SEQUENCE]
    backward = [run_cli(*argv) for argv in reversed(REUSE_SEQUENCE)][::-1]
    for argv, first, again in zip(REUSE_SEQUENCE, forward, backward):
        first = (first[0], _timeless(first[1]), first[2])
        again = (again[0], _timeless(again[1]), again[2])
        assert first == again, argv
    assert [code for code, _, _ in forward] == [2, 0, 0, 2, 2, 2, 0, 0, 0, 0]


def test_no_parser_action_has_a_mutable_default():
    parsers = [cli.build_parser()]
    for parser in parsers:
        for action in parser._actions:
            assert not isinstance(action.default, (list, dict, set)), action.dest
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert len(parsers) == 5


def test_the_parser_is_built_once_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run_cli("list-examples")[0] == 0
    assert built  # the counter sees the first build
    built.clear()
    assert run_cli("check", "--quiet", str(FIXTURES / "minimal-abelian.mp"))[0] == 0
    assert run_cli(
        "dict", "--mode", "roundtrip", "--fiber", str(FIXTURES / "planar-quasi.json")
    )[0] == 0
    assert run_cli("verify-example", "--help")[0] == 0
    assert built == []


def test_verify_example_rejects_unknown_names():
    code, _, err = run_cli("verify-example", "no_such_example")
    assert code == 2
    assert "unknown example" in err


def test_list_examples_names_the_registry():
    code, out, err = run_cli("list-examples")
    assert code == 0
    names = out.split()
    assert names == sorted(names)
    assert "planar_symplectic_reduction" in names
    assert "rotation_dressing_axioms" in names

    code, out, _ = run_cli("list-examples", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["examples"] == names


def test_module_entry_point_lists_examples():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "diracpairs.cli", "list-examples"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "flat_twisted_axioms",
        "planar_symplectic_reduction",
        "rotation_canonical_fibers",
        "rotation_dressing_axioms",
        "rotation_quasi_poisson",
        "rotation_strong_section",
    ]


def test_no_command_imports_numpy_random():
    # the sample points come from so3.uniform_stream; importing numpy.random
    # would cost every process 7-10 ms for a few hundred numbers
    code = (
        "import io, sys\n"
        "from diracpairs import cli, verify\n"
        "def run(*argv):\n"
        "    assert cli.run(list(argv), out=io.StringIO(), err=io.StringIO()) == 0, argv\n"
        "for name in verify.EXAMPLES:\n"
        "    run('verify-example', name, '--samples', '2')\n"
        f"run('check', {str(FIXTURES / 'registry-example.mp')!r})\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_missing_subcommand_is_a_usage_error(capsys):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run([], out=out, err=err)
    capsys.readouterr()
    assert code == 2


def test_scene_example_checks_share_the_registry():
    code, out, err = run_cli("check", "--json", str(FIXTURES / "registry-example.mp"))
    assert code == 0
    rep = json.loads(out)
    assert rep["seeds"] == {"planar_symplectic_reduction": 2}
    assert rep["summary"]["pass"] == 1


def test_a_scene_example_that_rejects_its_arguments_is_bad_input(tmp_path):
    # the same rejection verify-example reports for --fd-step 1e-12
    scene = tmp_path / "tiny-step.mp"
    scene.write_text(
        "example rotation_dressing_axioms { samples 2; step 1e-12; }\n"
        "check example rotation_dressing_axioms;\n"
    )
    code, out, err = run_cli("check", "--json", str(scene))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{scene}: rotation_dressing_axioms: ")
    assert "rejected its arguments: anchor is not bracket-compatible" in err


# Lexemes of the scene and fiber fixtures: a JSON string, a number, a word,
# a run of white space, or any other single character.
MUTATION_TOKEN = re.compile(r'"[^"\n]*"|[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\w+|\s+|.')
MUTATION_NUMBERS = ("0", "1", "2", "3", "7", "-1", "1/2", "-2/3", "0.5", "1e-3")
MUTATED_FIXTURES = sorted(
    p for p in FIXTURES.iterdir() if p.suffix in (".mp", ".json") and p.name != "example_quantities.json"
)


def _mutate(text, rng):
    """``text`` with one token changed: mostly a number replaced by another
    (kept a JSON string where it was one), which keeps the syntax and so
    reaches validation; else a word or string replaced by another of the
    same file, or a token dropped or repeated."""
    toks = MUTATION_TOKEN.findall(text)
    solid = [i for i, t in enumerate(toks) if not t.isspace()]
    numbers = [i for i in solid if re.fullmatch(r'"?-?[0-9][0-9./eE+-]*"?', toks[i])]
    kind = rng.choices(("number", "word", "drop", "repeat"), weights=(6, 2, 1, 1))[0]
    if kind == "number" and numbers:
        i = rng.choice(numbers)
        value = rng.choice(MUTATION_NUMBERS)
        toks[i] = f'"{value}"' if toks[i].startswith('"') else value
        return "".join(toks)
    i = rng.choice(solid)
    if kind == "drop":
        toks[i] = ""
    elif kind == "repeat":
        toks[i] += " " + toks[i]
    else:
        toks[i] = rng.choice(sorted({t for t in toks if t[0].isalpha() or t[0] in '_"'}))
    return "".join(toks)


def test_token_mutations_of_the_fixtures_exit_zero_one_or_two(tmp_path):
    # the exit-code contract under seeded mutation of the 17 scene and fiber
    # fixtures: a pass, a fail or bad input, never an internal error
    assert len(MUTATED_FIXTURES) == 17
    rng = random.Random(0)
    stages = {"parse": 0, "validate": 0, "run": 0}
    for draw in range(300):
        source = rng.choice(MUTATED_FIXTURES)
        path = tmp_path / f"{draw}{source.suffix}"
        path.write_text(_mutate(source.read_text(), rng))
        if source.suffix == ".mp":
            argv = ["check", str(path), "--json"]
        else:
            mode = rng.choice(("qp-to-dirac", "dirac-to-qp", "roundtrip"))
            argv = ["dict", "--mode", mode, "--fiber", str(path), "--json"]
        code, _, err = run_cli(*argv)
        assert code in (0, 1, 2), (source.name, path.read_text(), err)
        unparsed = re.search(r": line [0-9]+, col [0-9]+: ", err) or err.startswith("cannot read fiber")
        stages["parse" if code == 2 and unparsed else "validate" if code == 2 else "run"] += 1
    # most draws keep the syntax, so many get past the parser and some run
    assert stages["validate"] + stages["run"] >= 75 and stages["run"] >= 30, stages
