"""One cold process of the benchmark: set up a workload, run it, report.

run.py starts this script in a fresh interpreter for every sample:

    python3 perfbench/child.py --workload W --seed N --mode M --spawned-at T
        [--toy] [--trace-out PATH]

M is "setup" (stop before the first timed call), "timed" or "traced"
(timed under the tracer, then a round of small CLI commands).  T is the
parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, importing autorec.cli and building
the inputs.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from speedprobe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
MAX_ERRORS = 20


def _parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--trace-out", default=None)
    return ap.parse_args()


def _import_program():
    """Import autorec.cli from this checkout's src/; return the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import autorec.cli  # noqa: F401  (the import is what is timed)

    took = time.perf_counter() - started
    import autorec

    if not Path(autorec.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"autorec was imported from {autorec.__file__}, not from {src}")
    return took


def _cli_round(errors: list) -> None:
    from autorec import cli
    from workloads import CLI_ROUND

    for argv, expected in CLI_ROUND:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0 or expected not in out.getvalue():
            errors.append(f"cli {' '.join(argv)}: exit {code}, missing {expected!r}")


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    args = _parse_args()
    import_s = _import_program()
    tracer = None
    if args.mode == "traced":
        import autorec
        from autorec import automaton, cli, numberfield, polymatrix, recurrence, thuemorse
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([autorec, numberfield, automaton, polymatrix, recurrence, thuemorse, cli])
    # imported after the tracer is installed so that it binds the wrappers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    items = WORKLOADS[args.workload](args.seed, args.toy)
    result = {"mode": args.mode, "import_s": import_s}
    started = time.monotonic()
    result["setup_s"] = started - args.spawned_at
    result["setup_ref_s"] = probe.adjusted(args.spawned_at, started)
    if args.mode == "setup":
        probe.stop()
        print(json.dumps(result))
        return 0

    outputs, bounds, errors = [], [started], []
    for item in items:
        try:
            outputs.append(item.run())
        except Exception as exc:  # a failing item is counted, the run goes on
            outputs.append(exc)
        bounds.append(time.monotonic())
    probe.stop()
    result["wall_s"] = bounds[-1] - started
    result["wall_ref_s"] = probe.adjusted(started, bounds[-1])
    result["items_s"] = [b - a for a, b in zip(bounds, bounds[1:])]
    result["items_ref_s"] = [probe.adjusted(a, b) for a, b in zip(bounds, bounds[1:])]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        _cli_round(errors)
        tracer.uninstall()
        tracer.dump(args.trace_out)

    failed = 0
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            problem = f"raised {type(out).__name__}: {out}"
        else:
            try:
                problem = item.check(out)
            except Exception as exc:  # the checks also call into autorec
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            errors.append(f"{item.label}: {problem}")
    result.update(
        attempted=len(items), failed=failed, errors=errors[:MAX_ERRORS],
        cli_failed=len(errors) - failed,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
