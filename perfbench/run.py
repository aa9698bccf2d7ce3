"""Benchmark runner for diracpairs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client, closed loop: the runner runs
rounds one after another, each in a fresh worker process
(``perfbench/worker.py``), until ``--seconds`` have passed and the
workload's minimum round count is met.  A fresh process per round keeps the
package's ``lru_cache``s from carrying over, as they would not for a CLI
user.

With ``--trace 0`` the rounds are untraced and the runner reports the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  Every metric is printed by name with its unit; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it starting with ``#`` are
diagnostics: versions, CPU count, load, calibration times, the tail's
percentile and sample count, error rate, worst residual, and the
determinism hashes that differ from ``reference_hashes.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import MIN_ROUNDS, WHY, seed_dependent  # noqa: E402

WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference_hashes.json"
SPANS_DIR = HERE / "out"
DEFAULT_SAMPLES = 20

# The whole run must end within 180 s; stop starting rounds well before.
DEADLINE_S = 150.0
# The tail is the slowest call with at least this many calls beyond it.
TAIL_BEYOND = 10
# Traced runs make at least this many rounds of each kind.
MIN_TRACE_PAIRS = 2


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Import the package as an installed CLI would: from cached bytecode
    # once the first round has written it, not recompiled every round.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_round(workload, samples, seed, traced=False, timeout=DEADLINE_S):
    """Run one round in a fresh worker process and return its result."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", workload, "--samples", str(samples), "--seed", str(seed),
    ]
    if traced:
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(SPANS_DIR / f"spans-{workload}.json")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed and reaped the worker by now.
        raise BenchError(f"worker exceeded {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = (ROOT / "src" / "diracpairs").resolve()
    if Path(result["package"]) != expected:
        raise BenchError(f"worker imported {result['package']}, not {expected}")
    return result


def check_layout():
    for need in (ROOT / "src" / "diracpairs" / "cli.py", ROOT / "tests" / "fixtures"):
        if not need.exists():
            raise BenchError(f"not a diracpairs checkout: {need.relative_to(ROOT)} is missing")


def tail(values):
    """The slowest value with at least TAIL_BEYOND values beyond it, and its
    percentile.  With too few values there is no such tail."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} calls are too few for a tail with {TAIL_BEYOND} beyond it")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def hash_key(call_id, samples, seed):
    return f"{call_id}@samples{samples}@seed{seed}" if seed_dependent(call_id) else call_id


def compare_hashes(observed, reference):
    """Split observed ``{key: digest}`` into keys whose digest differs from
    the reference and keys the reference does not cover."""
    changed = sorted(k for k, d in observed.items() if k in reference and reference[k] != d)
    unreferenced = sorted(k for k in observed if k not in reference)
    return changed, unreferenced


def load_reference():
    return json.loads(REFERENCE.read_text())["hashes"]


def rounds(workload, samples, seed, seconds, trace):
    """Run rounds until the time is up; returns (untraced, traced) results."""
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACE_PAIRS
        else:
            enough = len(plain) >= MIN_ROUNDS[workload]
        if elapsed >= seconds and enough:
            break
        if elapsed + 1.5 * longest > DEADLINE_S:
            if not (plain or traced):
                raise BenchError("no round fits in the deadline")
            print(f"# stopped early at {elapsed:.1f} s to meet the deadline", flush=True)
            break
        as_traced = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        result = run_round(workload, samples, seed, as_traced, DEADLINE_S - elapsed)
        longest = max(longest, time.perf_counter() - t0)
        (traced if as_traced else plain).append(result)
    return plain, traced


def verdicts(results, samples, seed):
    """Attempted and failed invocation counts, failure notes, worst residual
    and digest per invocation over all rounds."""
    attempted = failed = 0
    notes, digests, residuals = [], {}, [0.0]
    for r in results:
        for c in r["calls"]:
            attempted += 1
            if not c["ok"]:
                failed += 1
                notes.append(f"{c['id']}: {c['why']}")
            residuals += c["residuals"]
            digests.setdefault(hash_key(c["id"], samples, seed), set()).add(c["digest"])
    return attempted, failed, sorted(set(notes)), max(residuals), digests


def end_to_end(plain):
    calls = [c["seconds"] for r in plain for c in r["calls"]]
    tail_s, tail_pct = tail(calls)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "round_s": (statistics.median(r["round_s"] for r in plain), "s"),
        "round_cpu_s": (statistics.median(r["round_cpu_s"] for r in plain), "s"),
        # Median of each round's median: a pooled median of a workload with
        # two kinds of invocation would sit between them, on the extremes.
        "call_s.p50": (
            statistics.median(statistics.median(c["seconds"] for c in r["calls"]) for r in plain),
            "s",
        ),
        "call_s.tail": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
    }
    raw = {
        "setup_s": statistics.median(r["raw_setup_s"] for r in plain),
        "round_s": statistics.median(r["raw_round_s"] for r in plain),
        "round_cpu_s": statistics.median(r["raw_round_cpu_s"] for r in plain),
    }
    lines = [
        f"# call_s.tail is p{tail_pct:.1f} of {len(calls)} calls in {len(plain)} rounds",
        "# unscaled medians: " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items()),
    ]
    return metrics, lines


def per_layer(plain, traced, worst_residual):
    names = traced[0]["layers"]
    metrics = {
        name: (statistics.median_low(r["layers"][name][0] for r in traced), unit)
        for name, (_, unit) in names.items()
    }
    plain_s = statistics.median(r["round_s"] for r in plain)
    traced_s = statistics.median(r["round_s"] for r in traced)
    metrics["trace.round_s"] = (traced_s, "s")
    metrics["trace.untraced_round_s"] = (plain_s, "s")
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0, "ratio")
    metrics["verify.worst_residual"] = (worst_residual, "residual")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description="diracpairs benchmark runner")
    p.add_argument("--workload", required=True, choices=sorted(WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    args = p.parse_args(argv)

    try:
        check_layout()
        load_before = os.getloadavg()
        plain, traced = rounds(args.workload, args.samples, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    first = plain[0]
    print(f"# workload {args.workload}: {WHY[args.workload]}")
    print(
        f"# python {first['python']}, numpy {first['numpy']}, nproc {os.cpu_count()}, "
        f"affinity {len(os.sched_getaffinity(0))}, samples {args.samples}, seed {args.seed}"
    )
    print(f"# loadavg before {load_before[0]:.2f}, after {os.getloadavg()[0]:.2f}")
    for label, results in (("untraced", plain), ("traced", traced)):
        if results:
            cal = ", ".join(f"{statistics.median(r['slices_s']) * 1e3:.1f}" for r in results)
            print(f"# median calibration slice ms per {label} round: {cal}")
            raw = ", ".join(f"{r['raw_round_s']:.3f}" for r in results)
            print(f"# raw round_s per {label} round: {raw}")

    attempted, failed, notes, worst, digests = verdicts(plain + traced, args.samples, args.seed)
    for note in notes:
        print(f"# wrong answer: {note}")
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} invocations)")
    print(f"# worst_residual {worst:.6g}")
    for key in sorted(k for k, d in digests.items() if len(d) > 1):
        print(f"# determinism_hash differs between rounds: {key}")
    observed = {k: next(iter(d)) for k, d in digests.items() if len(d) == 1}
    changed, unreferenced = compare_hashes(observed, load_reference())
    print(
        f"# determinism_hash: {len(observed) - len(unreferenced)} compared, "
        f"{len(changed)} changed, {len(unreferenced)} without a reference"
    )
    for key in changed:
        print(f"# determinism_hash changed: {key}")

    if args.trace:
        metrics = per_layer(plain, traced, worst)
    else:
        metrics, lines = end_to_end(plain)
        print("\n".join(lines))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
