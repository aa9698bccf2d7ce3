"""The benchmark's own tests, negative controls included.

    python3 -m pytest perfbench -q

They run rounds in this process, which is fine for checking answers and
wiring; only the benchmark's fresh worker processes give clean timings.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, stale_sites  # noqa: E402

SAMPLES = run.DEFAULT_SAMPLES


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    # Workloads name their fixture files relative to the checkout root.
    monkeypatch.chdir(ROOT)


@pytest.fixture(scope="module")
def scenes_round():
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        return worker.run_round("exact-scenes", SAMPLES, 0)


def test_exact_scenes_answers_match_expectations(scenes_round):
    attempted, failed, notes, _, _ = run.verdicts([scenes_round], SAMPLES, 0)
    assert attempted == 29
    assert (failed, notes) == (0, [])


def test_wrong_expectation_raises_error_rate(monkeypatch):
    # The dressing axioms measure about 1.4e-8 at this size; a tolerance
    # below that must fail, so expecting a pass is a wrong expectation.
    argv = [
        "verify-example", "rotation_dressing_axioms",
        "--samples", str(SAMPLES), "--seed", "0", "--tol", "1e-9", "--json",
    ]
    call = ("verify-example:rotation_dressing_axioms", argv, 0)
    monkeypatch.setattr(worker, "invocations", lambda *args: [call])
    result = worker.run_round("rotation-fibers", SAMPLES, 0)
    attempted, failed, notes, worst, _ = run.verdicts([result], SAMPLES, 0)
    assert (attempted, failed) == (1, 1)
    assert notes == ["verify-example:rotation_dressing_axioms: exit 1, expected 0"]
    assert worst > 1e-9


def test_judge_rejects_a_verdict_that_contradicts_the_exit_code():
    report = json.dumps({"determinism_hash": "x", "summary": {"pass": 0, "fail": 1, "error": 0}, "checks": []})
    ok, _, _, why = worker.judge(0, 0, report, "")
    assert not ok and "disagrees" in why


def test_reference_matches_and_a_tampered_one_is_reported(scenes_round):
    *_, digests = run.verdicts([scenes_round], SAMPLES, 0)
    observed = {k: next(iter(d)) for k, d in digests.items()}
    reference = run.load_reference()
    assert run.compare_hashes(observed, reference) == ([], [])
    key = "check:rotation-double.mp"
    tampered = dict(reference, **{key: "0" * 64})
    assert run.compare_hashes(observed, tampered) == ([key], [])


def test_wrapper_at_one_import_site_is_caught(monkeypatch):
    from diracpairs import numeric_manifold, quadratic_lie, verify

    original = quadratic_lie.catalog
    assert numeric_manifold.catalog is original and verify.catalog is original
    tracer = Tracer()
    monkeypatch.setattr(quadratic_lie, "catalog", tracer.spanning("quadratic_lie.catalog", original))
    assert stale_sites({"quadratic_lie.catalog": original}) == [
        "diracpairs.numeric_manifold.catalog",
        "diracpairs.verify.catalog",
    ]


def test_install_wraps_every_site_and_uninstall_restores():
    from diracpairs import numeric_manifold, quadratic_lie, verify

    original = quadratic_lie.catalog
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.catalog is numeric_manifold.catalog is quadratic_lie.catalog
        assert quadratic_lie.catalog is not original
        verify.catalog()
        numeric_manifold.catalog()
    finally:
        tracer.uninstall()
    assert verify.catalog is numeric_manifold.catalog is quadratic_lie.catalog is original
    assert tracer.summary()["quadratic_lie.catalog.calls"][0] == 2


def test_self_times_add_up_to_the_root_spans():
    from diracpairs import cli

    tracer = Tracer()
    tracer.install()
    try:
        argv = ["check", "tests/fixtures/split-traceless.mp", "--json"]
        assert cli.run(argv, io.StringIO(), io.StringIO()) == 0
    finally:
        tracer.uninstall()
    layers = tracer.summary()
    roots = sum(end - start for _, _, parent, start, end in tracer.spans if parent < 0)
    self_total = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(roots, rel=1e-9)
    assert layers["cli.run.calls"][0] == 1
    assert layers["quadratic_lie.check_quadratic_lie.calls"][0] > 0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = {"setup_s": 1.0, "round_s": 1.0, "round_cpu_s": 1.0, "peak_rss_mb": 1.0}
    fake.update({f"raw_{k}": 1.0 for k in ("setup_s", "round_s", "round_cpu_s")})
    plain = [dict(fake, calls=[{"seconds": 1.0}] * 11)]
    e2e, _ = run.end_to_end(plain)
    traced = [dict(fake, layers=Tracer().summary())]
    layers = run.per_layer(plain, traced, 0.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WHY)


def test_tail_is_the_slowest_call_with_ten_beyond_it():
    values = list(range(1, 31))
    assert run.tail(values) == (20, pytest.approx(100 * 20 / 30))
    with pytest.raises(run.BenchError):
        run.tail(values[:10])
