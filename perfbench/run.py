"""The autorec benchmark: one workload per invocation, each sample a cold process.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout; the package is imported from src/.
With --trace 0 the run starts set-up-only children, then timed children
until --seconds is used up (at least one), and reports the end-to-end
metrics as medians over children.  With --trace 1 it runs one untraced
and one traced child and reports the per-layer metrics, including the
tracing overhead.  Item failures are counted, never fatal.  The last
line of stdout is a JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid", "tmscan", "bigfield", "machines")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, so that it ends inside 180 s
TRACE_DIR = ROOT / ".perfbench"

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> (span name, field of the span summary), summed.
# rat_poly_xgcd is only called by CycloElement.inverse and is its work.
SPAN_METRICS = {
    "numberfield.reduce.calls": (("numberfield.CycloField.reduce", "calls"),),
    "numberfield.reduce.self_s": (("numberfield.CycloField.reduce", "self_s"),),
    "numberfield.mul.calls": (("numberfield.CycloElement.__mul__", "calls"),),
    "numberfield.mul.self_s": (("numberfield.CycloElement.__mul__", "self_s"),),
    "numberfield.inverse.calls": (("numberfield.CycloElement.inverse", "calls"),),
    "numberfield.inverse.self_s": (
        ("numberfield.CycloElement.inverse", "self_s"),
        ("numberfield.rat_poly_xgcd", "self_s"),
    ),
    "numberfield.galois.calls": (("numberfield.GaloisMap.__call__", "calls"),),
    "numberfield.galois.self_s": (("numberfield.GaloisMap.__call__", "self_s"),),
    "numberfield.fields_built": (("numberfield.CycloField.__init__", "calls"),),
    "automaton.parse_dfao.self_s": (("automaton.parse_dfao", "self_s"),),
    "automaton.reverse_dfao.self_s": (("automaton.reverse_dfao", "self_s"),),
    "polymatrix.span_analysis.calls": (("polymatrix.span_analysis", "calls"),),
    "polymatrix.span_analysis.self_s": (("polymatrix.span_analysis", "self_s"),),
    "polymatrix.transition_matrix.self_s": (("polymatrix.transition_matrix", "self_s"),),
    "polymatrix.reduced_matrix.self_s": (("polymatrix.reduced_matrix", "self_s"),),
    "recurrence.synthesize.s": (("recurrence.synthesize", "total_s"),),
    "recurrence.reduced_product_at_root.self_s": (
        ("recurrence.reduced_product_at_root", "self_s"),
    ),
    "recurrence.char_poly.self_s": (("recurrence.char_poly", "self_s"),),
    "recurrence.verify.calls": (("recurrence.verify", "calls"),),
    "recurrence.verify.self_s": (("recurrence.verify", "self_s"),),
    "recurrence.block_sums.calls": (("recurrence.block_sums", "calls"),),
    "recurrence.integer_recurrence.s": (("recurrence.integer_recurrence", "total_s"),),
    "thuemorse.tm_table.s": (("thuemorse.tm_table", "total_s"),),
    "thuemorse.tm_table.self_s": (("thuemorse.tm_table", "self_s"),),
    "cli.main.s": (("cli.main", "total_s"),),
}


def per_layer_units() -> dict[str, str]:
    units = {
        name: "count" if sources[0][1] == "calls" else "s" for name, sources in SPAN_METRICS.items()
    }
    units["polymatrix.span_analysis.useful_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def calibration_s() -> float:
    """Median of three runs of a fixed stdlib-only integer and Fraction loop.

    It never touches autorec; it records how fast the machine runs the
    kind of exact arithmetic the package does, so that rows taken on
    different machines can be compared.  It is reported, never gated.
    """
    runs = []
    for _ in range(3):
        started = time.perf_counter()
        acc, x = Fraction(0), 1
        for i in range(1, 40001):
            x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 127)
            acc += Fraction(x % 97 - 48, i % 12 + 1)
        runs.append(time.perf_counter() - started)
    return statistics.median(runs)


def spawn(workload: str, seed: int, mode: str, deadline: float, toy=False, trace_out=None) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode,
    ]
    if toy:
        cmd.append("--toy")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left in the run for another child")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(started)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {workload} ran past the run deadline") from None
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} child for {workload} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    return result


def percentile_ms(seconds: list[float], pct: int) -> float:
    if len(seconds) == 1:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=100, method="inclusive")[pct - 1] * 1e3


def counts(children: list[dict]) -> tuple[int, int, bool]:
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    clean = all(c["failed"] == 0 and c["cli_failed"] == 0 for c in children)
    return attempted, failed, clean


def report_errors(children: list[dict]) -> None:
    for c in children:
        for line in c["errors"]:
            print(f"  error: {line}")


def timing_metrics(setups: list[dict], timed: list[dict], kind: str) -> dict[str, float]:
    items = [t for c in timed for t in c[f"items{kind}_s"]]
    return {
        "setup_s": statistics.median(c[f"setup{kind}_s"] for c in setups + timed),
        "wall_s": statistics.median(c[f"wall{kind}_s"] for c in timed),
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_p99_ms": percentile_ms(items, 99),
    }


def measure(workload: str, seed: int, seconds: float, deadline: float, toy=False) -> dict:
    """Untraced run: end-to-end metrics as medians over cold children."""
    setups = [spawn(workload, seed, "setup", deadline, toy) for _ in range(SETUP_SAMPLES)]
    timed = []
    started = time.monotonic()
    while True:
        child = spawn(workload, seed, "timed", deadline, toy)
        timed.append(child)
        used = time.monotonic() - started
        if used + child["elapsed"] > seconds or deadline - time.monotonic() < 2 * child["elapsed"]:
            break
    attempted, failed, clean = counts(timed)
    raw = timing_metrics(setups, timed, "")
    metrics = timing_metrics(setups, timed, "_ref")
    metrics["peak_rss_mb"] = statistics.median(c["rss_mb"] for c in timed)
    print(
        f"workload {workload}  seed {seed}  {len(timed)} timed and {len(setups)} set-up-only "
        f"children  {attempted} items"
    )
    units = dict(END_TO_END)
    for name, value in metrics.items():
        extra = f"   (wall clock {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<14} {value:12.4f} {units[name]}{extra}")
    print(f"  {'error_rate':<14} {failed / attempted:12.4f} ratio  ({failed}/{attempted} items)")
    report_errors(timed)
    return {
        "correct": clean,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def layer_metrics(spans: dict, untraced: dict, traced: dict) -> dict[str, float]:
    values = {}
    for name, sources in SPAN_METRICS.items():
        values[name] = sum(spans.get(span, {}).get(field, 0) for span, field in sources)
    span = spans.get("polymatrix.span_analysis", {})
    values["polymatrix.span_analysis.useful_ratio"] = (
        span["distinct"] / span["calls"] if span else 0.0
    )
    values["cli.import_s"] = statistics.median([untraced["import_s"], traced["import_s"]])
    values["trace.overhead_s"] = traced["wall_ref_s"] - untraced["wall_ref_s"]
    return values


def trace(workload: str, seed: int, deadline: float, toy=False) -> dict:
    """Traced run: per-layer metrics from one traced child next to an untraced one."""
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"spans-{workload}-{seed}{'-toy' if toy else ''}.json"
    untraced = spawn(workload, seed, "timed", deadline, toy)
    traced = spawn(workload, seed, "traced", deadline, toy, trace_out=out)
    spans = json.loads(out.read_text())
    values = layer_metrics(spans, untraced, traced)
    units = per_layer_units()
    print(
        f"workload {workload}  seed {seed}  traced wall {traced['wall_ref_s']:.4f} s, "
        f"untraced {untraced['wall_ref_s']:.4f} s (reference seconds); "
        f"all spans in {out.relative_to(ROOT)}"
    )
    for name, value in values.items():
        print(f"  {name:<42} {value:14.6g} {units[name]}")
    print("  top spans by self time (s, calls):")
    top = sorted(spans.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    for name, row in top:
        print(f"    {name:<44} {row['self_s']:10.4f} {row['calls']:>9}")
    report_errors([untraced, traced])
    attempted, failed, clean = counts([untraced, traced])
    return {
        "correct": clean,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def selfcheck() -> int:
    """Toy-sized end-to-end check of the harness; takes well under a minute."""
    import reference

    problems = []
    for bound, want in reference.FROZEN_TM_TABLES.items():
        got = reference.tm_table_reference(bound)
        if any(got[k] != v for k, v in want.items()):
            problems.append(f"reference tm table at {bound} disagrees with the frozen grid")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if declared != dict(END_TO_END):
            problems.append("BENCHMARK.json end_to_end differs from run.py")
        if {m["name"]: m["unit"] for m in spec["per_layer"]} != per_layer_units():
            problems.append("BENCHMARK.json per_layer differs from run.py")
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        deadline = time.monotonic() + DEADLINE_S
        for result in (
            measure(workload, DEFAULT_SEED, 0, deadline, toy=True),
            trace(workload, DEFAULT_SEED, deadline, toy=True),
        ):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: toy run is not correct")
            for name, m in result["metrics"].items():
                if not m["value"] and name != "trace.overhead_s":
                    problems.append(f"{workload}: {name} reads 0")
        spans = json.loads((TRACE_DIR / f"spans-{workload}-{DEFAULT_SEED}-toy.json").read_text())
        for name, row in spans.items():
            if not 0 <= row["self_s"] <= row["total_s"] + 1e-9:
                problems.append(f"{workload}: span {name} has self time outside [0, total]")
    for line in problems:
        print(f"SELFCHECK FAIL: {line}")
    print("SELFCHECK " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true", help="toy-sized harness check")
    args = ap.parse_args()
    if not (ROOT / "src" / "autorec" / "cli.py").is_file():
        print(f"error: no autorec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        ap.error("--workload is required")
    deadline = time.monotonic() + DEADLINE_S
    calibration = calibration_s()
    try:
        if args.trace:
            result = trace(args.workload, args.seed, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"  {'calibration_s':<14} {calibration:12.4f} s  (machine reference, not gated)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
