"""Run the benchmark over several seeds and summarise its spread.

From the root of a checkout:

    python3 bench/prove.py --seeds 1-10 --out bench/baseline.json

For every workload in BENCHMARK.json this makes one untraced run per seed
(each of ``run_seconds``), then one traced run at the first seed. It prints,
per end-to-end metric, the median over seeds and the quartile spread
(``statistics.quantiles(values, n=4)``, distance between the first and third
quartile as a share of the median) next to the metric's bound, and writes
everything, with the Python version, core count, seeds and input sizes, to
``--out``. Runs are made one after another, never two at once.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - t0
    result["log"] = lines[:-1]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--out", type=Path, help="write the summary here")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    summary = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "sizes": {
            "cli_lines": workloads.CLI_LINES,
            "census_rows": f"one Left set of {workloads.CENSUS_POPCOUNT} day-2 forms and its complement",
            "order_pool_draw": workloads.POOL_DRAW,
            "order_queries": workloads.ORDER_QUERIES,
            "selftest": " ".join(workloads.SELFTEST_ARGV),
        },
        "workloads": {},
    }
    worst = 0.0
    for name in names:
        runs = []
        for seed in args.seeds:
            r = bench(spec, name, seed, 0)
            runs.append(r)
            values = {k: round(v["value"], 6) for k, v in r["metrics"].items()}
            print(f"{name} seed {seed}: correct {r['correct']}, failed {r['failed']}, "
                  f"{r['run_s']:.1f} s, {values}", flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            metrics[m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values), "spread": s,
                "bound": m["bound"], "values": values,
            }
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            flag = "OVER BOUND" if s > m["bound"] else ("over a third" if s > m["bound"] / 3 else "ok")
            print(f"  {m['name']:<16} median {statistics.median(values):.6g} {m['unit']}, "
                  f"spread {s:.3f} (bound {m['bound']}): {flag}")
        traced = bench(spec, name, args.seeds[0], 1)
        split = [line for line in traced["log"] if line.startswith("  ")]
        print("\n".join(split), flush=True)
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "run_s": [round(r["run_s"], 1) for r in runs],
            "end_to_end": metrics,
            "per_process_passes": {
                seed: [line for line in r["log"] if line.startswith("process ")]
                for seed, r in zip(args.seeds, runs)
            },
            "traced": {
                "seed": args.seeds[0],
                "layer_split": split,
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
