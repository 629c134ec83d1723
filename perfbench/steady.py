"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steady.py --workloads grid machines --seeds 1-10
    python3 perfbench/steady.py --seeds 1-10 --record "seed commit 9981286"

For every workload it runs run.py once per seed (--trace 0), then prints
per end-to-end metric the median, the quartiles and the spread, i.e.
(Q3 - Q1) / median with statistics.quantiles(values, n=4), next to the
metric's bound from BENCHMARK.json.  A spread at or above a third of
the bound is flagged, except for setup_s, whose bound is checked only
against later medians.  With --record the medians and quartiles, the
calibration times and one traced run per workload are appended to
trajectory.jsonl as one entry.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIBRATION = re.compile(r"calibration_s\s+([0-9.]+) s")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    calibration = CALIBRATION.search(proc.stdout)
    return json.loads(lines[-1]), float(calibration.group(1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record", default=None, help="label of a trajectory entry to append")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {
        "label": args.record,
        "date": time.strftime("%Y-%m-%d"),
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
        f"{platform.python_version()}",
        "seeds": args.seeds,
        "workloads": {},
    }
    flagged = 0
    for workload in args.workloads:
        results, calibrations = [], []
        for seed in seed_list(args.seeds):
            result, calibration = run_once(workload, seed, spec["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed} is not correct: {result}")
            results.append(result)
            calibrations.append(calibration)
        rows = {}
        print(f"{workload}: {len(results)} runs, calibration median "
              f"{statistics.median(calibrations):.4f} s")
        for name, bound in bounds.items():
            row = summarize([r["metrics"][name]["value"] for r in results])
            rows[name] = row
            bad = name != "setup_s" and row["spread"] >= bound / 3
            flagged += bad
            print(
                f"  {name:<13} median {row['median']:11.4f}  q1 {row['q1']:11.4f}  "
                f"q3 {row['q3']:11.4f}  spread {row['spread']:.4f}  bound {bound}"
                + ("  <-- spread >= bound/3" if bad else "")
            )
        record = {"end_to_end": rows, "calibration_s": summarize(calibrations)}
        if args.record:
            traced, _ = run_once(workload, seed_list(args.seeds)[0], spec["run_seconds"], 1)
            record["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        entry["workloads"][workload] = record
    if args.record:
        with open(HERE / "trajectory.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
