"""One benchmark round, in a fresh process.

Imports ``diracpairs.cli`` (timed: that is the set-up a CLI user pays),
then calls ``cli.run`` once per invocation of the workload, in order.  Each
exit code and verdict is judged against the expected one after the timed
loop.  Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --samples N --seed N [--spans PATH]

With ``--spans`` the round is traced: per-layer metrics join the result and
the spans are written to PATH at the end.

The CPU speed of a shared machine drifts by up to a factor of two within
minutes, with CPU time following wall time.  So the worker times a fixed
calibration slice right after the import, between invocations
whenever ``SLICE_EVERY_S`` of work has passed, and after the last one.
Each time is reported raw and scaled to a reference CPU on which the slice
takes ``REFERENCE_SLICE_S``: an invocation is scaled by the mean of the two
slices around it, the import by the slice after it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import invocations  # noqa: E402


# Seconds one calibration slice takes on the reference CPU.
REFERENCE_SLICE_S = 0.02
# Work between two calibration slices, at most one invocation more.
SLICE_EVERY_S = 0.25


def calibrate():
    """Seconds for one calibration slice: a fixed mix of the work the tool
    does, namely integer arithmetic, Fraction arithmetic, small numpy
    products and allocation of small Python objects."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
    q, total = Fraction(1, 3), Fraction(0)
    for i in range(1, 600):
        total += q * Fraction(i, i + 7) - Fraction(1, i)
    m, x = np.eye(3), np.ones(3)
    for _ in range(2_500):
        x = (m @ x) * 0.5 + np.asarray(x, dtype=float) * 0.25
    for _ in range(8):
        objects = [(i, str(i), {i: i}) for i in range(1_000)]
    del objects
    return time.perf_counter() - t0


def judge(expected, code, stdout, stderr):
    """Compare one invocation's answer with the expected one.

    Returns ``(ok, digest, residuals, why)``.  The digest is the report's
    ``determinism_hash`` where the command emits a report, else a hash of
    what it printed.
    """
    residuals = []
    if code not in (0, 1):
        digest = hashlib.sha256(stderr.encode()).hexdigest()
        why = "" if stderr and not stdout else f"exit {code} without a message on stderr alone"
    else:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return False, None, [], f"exit {code} and stdout is not a JSON report"
        if "determinism_hash" in report:
            digest = report["determinism_hash"]
            s = report["summary"]
            passed = s["fail"] == 0 and s["error"] == 0 and s["pass"] > 0
            residuals = [c["residual"] for c in report["checks"] if c.get("residual") is not None]
        else:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            passed = report["exact"] if "exact" in report else report.get("status") != "fail"
        why = "" if passed == (code == 0) else f"verdict {'pass' if passed else 'fail'} disagrees with exit {code}"
        if not all(math.isfinite(r) for r in residuals):
            why = "non-finite residual"
    if code != expected:
        why = f"exit {code}, expected {expected}"
    return not why, digest, residuals, why


def run_round(workload, samples, seed, spans_path=None):
    t0 = time.perf_counter()
    from diracpairs import cli

    setup_s = time.perf_counter() - t0
    import diracpairs
    import numpy

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    calls = invocations(workload, samples, seed)
    calibrate()  # the first slice of a process runs cold; discard it
    slices = [calibrate()]
    answers = []
    since_slice = 0.0
    for index, (_, argv, _) in enumerate(calls):
        if tracer is not None:
            tracer.invocation = index
        out, err = io.StringIO(), io.StringIO()
        cpu, wall = time.process_time(), time.perf_counter()
        code = cli.run(argv, out, err)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        answers.append((wall, cpu, len(slices) - 1, code, out.getvalue(), err.getvalue()))
        since_slice += wall
        if since_slice >= SLICE_EVERY_S or index == len(calls) - 1:
            slices.append(calibrate())
            since_slice = 0.0

    results = []
    for (call_id, _, expected), (wall, cpu, j, code, stdout, stderr) in zip(calls, answers):
        scale = 2.0 * REFERENCE_SLICE_S / (slices[j] + slices[j + 1])
        ok, digest, residuals, why = judge(expected, code, stdout, stderr)
        results.append(
            {
                "id": call_id,
                "seconds": wall * scale,
                "cpu_seconds": cpu * scale,
                "raw_seconds": wall,
                "exit": code,
                "ok": ok,
                "digest": digest,
                "residuals": residuals,
                "why": why,
            }
        )
    result = {
        "package": str(Path(diracpairs.__file__).resolve().parent),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "setup_s": setup_s * REFERENCE_SLICE_S / slices[0],
        "raw_setup_s": setup_s,
        "slices_s": slices,
        "round_s": sum(r["seconds"] for r in results),
        "round_cpu_s": sum(r["cpu_seconds"] for r in results),
        "raw_round_s": sum(r["raw_seconds"] for r in results),
        "raw_round_cpu_s": sum(cpu for _, cpu, *_ in answers),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": results,
    }
    if tracer is not None:
        tracer.uninstall()
        # Self times are scaled like the round they ran in.
        scale = result["round_s"] / result["raw_round_s"]
        result["layers"] = {
            name: (value * scale if name.endswith(".self_s") else value, unit)
            for name, (value, unit) in tracer.summary().items()
        }
        tracer.write(spans_path)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    result = run_round(args.workload, args.samples, args.seed, args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
