import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diracpairs import cli

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


def test_check_rejects_unreadable_and_unparseable_input(tmp_path):
    code, out, err = run_cli("check", str(tmp_path / "missing.mp"))
    assert code == 2
    assert "cannot read scene" in err

    code, out, err = run_cli("check", str(FIXTURES / "broken.mp"))
    assert code == 2
    assert "1:41" in err or "expected" in err


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
    assert message in err + capsys.readouterr().err


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
