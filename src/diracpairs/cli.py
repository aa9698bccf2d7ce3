"""Command line front end: run scene files, convert point fibers,
verify named examples, emit machine-readable reports.

Exit codes: 0 every check passed, 1 at least one check failed, 2 usage,
parse, or input errors, 3 unexpected internal failure.  Reports carry
``schema: 1`` and a determinism hash over everything except elapsed
times, so repeated runs with the same inputs and seeds are comparable
byte-for-byte.

The argument parser is built on the first `run` and reused for every later
call in the process: parsing reads it and changes nothing in it, and no
option has a mutable default.  A one-shot shell call still builds it once;
callers that run several commands in one process pay for it once.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from . import __version__, verify
from . import dictionary as dc
from .scene_dsl import ParseError, SceneError, parse_scene, validate_scene
from .splitting import make_isotropic_splitting

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _positive_float(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


@functools.cache
def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="print a machine report to stdout"
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress per-check text output"
    )

    p = argparse.ArgumentParser(
        prog="diracpairs",
        description="exact and numeric checks for bracket geometry",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "check", parents=[common], help="parse, validate, and run a scene file"
    )
    c.add_argument("scene", help="path to a .mp scene file")

    d = sub.add_parser(
        "dict", parents=[common], help="convert a point fiber between pictures"
    )
    d.add_argument(
        "--mode",
        required=True,
        choices=("qp-to-dirac", "dirac-to-qp", "roundtrip"),
    )
    d.add_argument("--fiber", required=True, help="path to a fiber JSON file")

    v = sub.add_parser(
        "verify-example", parents=[common], help="run one bundled example"
    )
    v.add_argument("name")
    defaults = verify.DEFAULTS
    v.add_argument("--samples", type=_positive_int, default=defaults["samples"])
    v.add_argument("--seed", type=_nonnegative_int, default=defaults["seed"])
    v.add_argument("--tol", type=_positive_float, default=defaults["tol"])
    v.add_argument("--fd-step", type=_positive_float, default=defaults["step"], dest="fd_step")

    sub.add_parser("list-examples", parents=[common], help="list example names")
    return p


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def _finish_report(report):
    payload = json.dumps(_strip_elapsed(report), sort_keys=True, separators=(",", ":"), allow_nan=False)
    report["determinism_hash"] = hashlib.sha256(payload.encode()).hexdigest()
    return report


def _report_skeleton(**extra):
    rep = {
        "schema": 1,
        "tool": {"name": "diracpairs", "version": __version__},
    }
    rep.update(extra)
    return rep


def _summarize(checks):
    summary = {"pass": 0, "fail": 0, "error": 0}
    for c in checks:
        summary[c["status"]] += 1
    return summary


def _exit_for(summary):
    if summary["error"]:
        return EXIT_INTERNAL
    if summary["fail"]:
        return EXIT_FAIL
    return EXIT_PASS


def _emit(report, checks, args, out):
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False), file=out)
    elif not args.quiet:
        for c in checks:
            line = f"{c['status'].upper():5s} {c['name']}"
            if c.get("residual") is not None:
                line += f" (residual {c['residual']:.3e})"
            if c["status"] != "pass" and c.get("witness"):
                line += f" [{c['witness']}]"
            print(line, file=out)
        s = report["summary"]
        print(
            f"{s['pass']} passed, {s['fail']} failed, {s['error']} errored",
            file=out,
        )


def _check_entry(name, report, t0):
    """Schema-1 check entry of a report; ``t0`` is when the check started.
    JSON has no NaN, so a non-finite residual is null; the witness names it."""
    residual = report.residual
    return {
        "name": name,
        "status": "pass" if report.passed else "fail",
        "residual": residual if residual is None or math.isfinite(residual) else None,
        "witness": None if report.passed else report.describe(),
        "elapsed_ms": round(1000.0 * (time.perf_counter() - t0), 3),
    }


def _run_plan(plan):
    checks = []
    for step in plan:
        t0 = time.perf_counter()
        try:
            entry = _check_entry(step.name, step.run(), t0)
        except SceneError:
            raise  # an example refused the scene's arguments: bad input
        except Exception as e:
            entry = {
                "name": step.name,
                "status": "error",
                "residual": None,
                "witness": str(e),
                "elapsed_ms": round(1000.0 * (time.perf_counter() - t0), 3),
            }
        checks.append(entry)
    return checks


def run_check(args, out, err):
    path = Path(args.scene)
    try:
        text = path.read_text()
    except OSError as e:
        print(f"cannot read scene: {e}", file=err)
        return EXIT_INPUT
    try:
        ir = parse_scene(text)
        checks = _run_plan(validate_scene(ir, verify.EXAMPLES).plan)
    except (ParseError, SceneError) as e:
        print(f"{path}: {e}", file=err)
        return EXIT_INPUT

    report = _report_skeleton(
        scene=path.name,
        scene_hash=hashlib.sha256(text.encode()).hexdigest(),
        seeds={d.name: d.seed for d in ir.decls if d.kind == "example"},
        checks=checks,
        summary=_summarize(checks),
    )
    _finish_report(report)
    _emit(report, checks, args, out)
    return _exit_for(report["summary"])


def _convert_fiber(mode, record):
    """Convert over a point: the pair is the zero-dimensional double, so
    both conversions go through a Hamiltonian fiber with no algebra leg."""
    pair = dc.abstract_double(0)
    splitting = make_isotropic_splitting(pair)
    ident = dc.identification_from_anchor(pair, ())

    def to_dirac(q):
        if q.a_dim:
            raise ValueError(
                "file conversion handles fibers without an action leg; "
                "declare a scene with a realization for the rest"
            )
        return dc.l_from_quasi(q, splitting, ident, ())

    def to_quasi(d):
        # refused by pi_from_k itself: naming which transversality condition
        # broke would build a morphism fiber, about 0.4 ms more per refusal
        return dc.pi_from_k(dc.k_from_dirac(d, (), ident), splitting)

    kind = record.get("kind")
    if mode == "qp-to-dirac":
        return dc.dirac_to_dict(to_dirac(dc.quasi_from_dict(record)))
    if mode == "dirac-to-qp":
        return dc.quasi_to_dict(to_quasi(dc.dirac_from_dict(record)))
    # round trip: through the other picture and back, compared exactly
    if kind == "quasi":
        q = dc.quasi_from_dict(record)
        back = to_quasi(to_dirac(q))
        return {"kind": "roundtrip", "exact": back == q}
    d = dc.dirac_from_dict(record)
    back = to_dirac(to_quasi(d))
    return {"kind": "roundtrip", "exact": back == d}


def run_dict(args, out, err):
    try:
        record = json.loads(Path(args.fiber).read_text())
    except (OSError, ValueError) as e:
        # a ValueError that is not a JSONDecodeError: a number past int's digit limit
        print(f"cannot read fiber file: {e}", file=err)
        return EXIT_INPUT
    if not isinstance(record, dict) or record.get("kind") not in ("quasi", "dirac"):
        print("fiber file must hold a quasi or dirac record", file=err)
        return EXIT_INPUT
    try:
        result = _convert_fiber(args.mode, record)
    except dc.RecordError as e:
        print(f"malformed fiber file: {e}", file=err)
        return EXIT_INPUT
    except ValueError as e:
        if args.json:
            print(json.dumps({"status": "fail", "witness": str(e)}), file=out)
        elif not args.quiet:
            print(f"FAIL {args.mode}: {e}", file=out)
        return EXIT_FAIL
    if result.get("kind") == "roundtrip":
        ok = result["exact"]
        if args.json:
            print(json.dumps(result, sort_keys=True), file=out)
        elif not args.quiet:
            print("round trip exact" if ok else "round trip moved the fiber", file=out)
        return EXIT_PASS if ok else EXIT_FAIL
    print(json.dumps(result, sort_keys=True), file=out)
    return EXIT_PASS


def run_verify_example(args, out, err):
    if args.name not in verify.EXAMPLES:
        print(f"unknown example {args.name!r}; try list-examples", file=err)
        return EXIT_INPUT
    t0 = time.perf_counter()
    try:
        result = verify.run_example(
            args.name,
            samples=args.samples,
            seed=args.seed,
            tol=args.tol,
            step=args.fd_step,
        )
    except ValueError as e:
        print(f"example {args.name} rejected its arguments: {e}", file=err)
        return EXIT_INPUT
    except Exception as e:
        print(f"example {args.name} raised: {e}", file=err)
        return EXIT_INTERNAL
    check = _check_entry(f"example {args.name}", result, t0)
    report = _report_skeleton(
        example=args.name,
        seed=args.seed,
        samples=args.samples,
        tol=args.tol,
        fd_step=args.fd_step,
        checks=[check],
        summary=_summarize([check]),
    )
    _finish_report(report)
    _emit(report, [check], args, out)
    return _exit_for(report["summary"])


def run_list_examples(args, out, err):
    names = sorted(verify.EXAMPLES)
    if args.json:
        print(json.dumps({"schema": 1, "examples": names}, sort_keys=True), file=out)
    else:
        for name in names:
            print(name, file=out)
    return EXIT_PASS


def run(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # argparse prints usage errors and --help to the process streams
        with redirect_stdout(out), redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_PASS
    try:
        if args.command == "check":
            return run_check(args, out, err)
        if args.command == "dict":
            return run_dict(args, out, err)
        if args.command == "verify-example":
            return run_verify_example(args, out, err)
        return run_list_examples(args, out, err)
    except Exception as e:  # pragma: no cover - last-resort guard
        print(f"internal error: {e}", file=err)
        return EXIT_INTERNAL


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
