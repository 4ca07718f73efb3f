"""Run the benchmark once per seed on each workload and report, for every
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) against the metric's bound
in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 10 [--trace] [--out results.json]

Seeds are run in turn across the workloads, so slow phases of a shared
machine fall on all of them. ``--trace`` makes traced runs instead and only
lists their per-layer metrics, which have no bounds. With ``--out`` the raw
results, each with its environment stamp, and the summary are written as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: bool) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))], cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    calls = next(json.loads(line.split(": ", 1)[1]) for line in lines
                 if line.startswith("  wall_s of "))
    return {"workload": workload, "seed": seed, "env": env, "call_wall_s": calls,
            "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bench: dict) -> dict:
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        rows = {"runs": len(mine), "all_correct": all(r["correct"] for r in mine)}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in mine]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"], "values": values}
        out[workload] = rows
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in range(args.seeds):
        for workload in (w["name"] for w in bench["workloads"]):
            runs.append(run_once(bench["command"], workload, seed, bench["run_seconds"],
                                 args.trace))
            m = runs[-1]["result"]["metrics"]
            print(f"{workload} seed {seed}: correct {runs[-1]['result']['correct']}, " + ", ".join(
                f"{k} {v['value']:.4g} {v['unit']}" for k, v in m.items()), flush=True)
    summary = summarize(runs, bench) if args.seeds > 1 and not args.trace else {}
    for workload, rows in summary.items():
        for name, row in rows.items():
            if isinstance(row, dict):
                flag = ("below a third of the bound" if row["spread"] < row["bound"] / 3
                        else "within the bound" if row["spread"] <= row["bound"]
                        else "OVER the bound")
                print(f"{workload:14s} {name:12s} median {row['median']:.4g} {row['unit']} "
                      f"spread {row['spread']:.3f} (bound {row['bound']}) {flag}")
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
