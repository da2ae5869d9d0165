"""Run the benchmark over seeds 1-10, twice, and summarise each metric's spread.

From the repository root:

    python3 perfbench/collect.py

For both workloads it makes two sets of ten untraced runs with seeds 1-10
and prints, per end-to-end metric and set, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json, and how much worse the second
set's median is than the first's.  It then makes one traced run at seed 12,
whose ``trace.count_mismatches`` compares two traced passes of that run.
Everything, plus the machine context, goes to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = HERE / "baseline.json"
WORKLOADS = ("rolling", "pipeline")
SETS = 2
SEEDS = range(1, 11)
TRACE_SEED = 12


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """One benchmark run: (result line, context, wall seconds)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    context = {}
    for line in proc.stderr.splitlines():
        if line.startswith("context: "):
            context = json.loads(line[len("context: "):])
    return result, context, wall


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {"sets": []}
        for set_no in range(SETS):
            runs = []
            for seed in SEEDS:
                result, context, wall = run_once(workload, seed, seconds, 0)
                runs.append({"seed": seed, "wall_s": wall, "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{workload} set {set_no + 1} seed {seed}: {wall:.1f} s, "
                      f"correct={result['correct']}, "
                      + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                      file=sys.stderr)
            report["context"] = {k: v for k, v in context.items() if k != "workload"}
            entry["sizes"] = context.get("workload")
            stats = {name: summarise([r["metrics"][name] for r in runs]) | {"bound": bound}
                     for name, bound in bounds.items()}
            entry["sets"].append({"runs": runs, "end_to_end": stats})
            print(f"\n{workload} set {set_no + 1}: {len(runs)} runs, "
                  f"wall {sum(r['wall_s'] for r in runs):.0f} s")
            for name, s in stats.items():
                flag = ("ok" if s["spread"] < s["bound"] / 3
                        else "within" if s["spread"] <= s["bound"] else "OVER")
                print(f"  {name:16s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                      f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  bound {s['bound']}  {flag}")
        first, second = (e["end_to_end"] for e in entry["sets"][:2])
        entry["second_vs_first"] = {name: second[name]["median"] / first[name]["median"] - 1.0
                                    for name in bounds}
        print(f"\n{workload}: second set's median over the first's, -1 (bound in brackets)")
        for name, worse in entry["second_vs_first"].items():
            print(f"  {name:16s} {worse:+.4f} ({bounds[name]})")

        result, _, wall = run_once(workload, TRACE_SEED, seconds, 1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        entry["traced"] = {"seed": TRACE_SEED, "wall_s": wall, "correct": result["correct"],
                           "metrics": metrics}
        print(f"  traced run at seed {TRACE_SEED}: {wall:.1f} s, counts differing between "
              f"its two traced passes: {metrics['trace.count_mismatches']:.0f}")
        report["workloads"][workload] = entry
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
