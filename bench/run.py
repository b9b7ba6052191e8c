"""Benchmark of the dicots package: end-to-end workloads and per-layer costs.

Run from the root of a checkout:

    python3 bench/run.py --workload census-slice --seed 1 --seconds 60 --trace 0

Workloads: selftest-full, cli-batch, census-slice, order-sums (see
bench/README.md for why each was chosen and which layers it stresses).

A run starts worker processes one after another, never two at once, until
the next would overrun ``--seconds`` (at least TRACE_WORKERS when traced).
Each imports the package from ``src/``, generates the inputs from the seed
(that is ``setup_s``), then runs timed passes for a 1/WORKERS share of
``--seconds`` (1/TRACE_WORKERS when traced),
each pass on a fresh ``Store``, one input at a time. A run reports the mean
(the median for ``item_p99_us``) over all passes of its processes; the
per-pass times of every process are printed so a slow stretch shows. Only
after timing does the run compute reference answers and check every pass.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones and reports the per-layer metrics: time in
each public call, self time and calls per module, deterministic work counts,
and the tracing overhead. Spans of the last traced pass are written to
``.bench_out/trace-<workload>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from api import SourceMissing, load, store_counters
from tracing import Tracer, summarize, traced
from workloads import DEFAULT_SEED, PINNED_DIGESTS, SELFTEST_CHECKS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKERS = 12
TRACE_WORKERS = 3  # a traced cycle costs about three passes; per-layer metrics have no bound
WORKER_TIMEOUT_S = 100

END_TO_END = [
    ("wall_s", "s"),
    ("item_p50_us", "us"),
    ("item_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("forms_per_input", "forms/input"),
    ("setup_s", "s"),
]

STEP_KINDS = (
    "DominationL",
    "DominationR",
    "NonAtomicReverseL",
    "NonAtomicReverseR",
    "AtomicReverseDropL",
    "AtomicReverseStarL",
    "AtomicReverseDropR",
    "AtomicReverseStarR",
    "Substitution",
)
CALL_SPANS = (
    "forms.parse",
    "forms.notation",
    "forms.enumerate",
    "forms.sum",
    "forms.conjugate",
    "outcomes.outcome",
    "order.geq",
    "order.eq_zero",
    "order.compare",
    "canonical.canonical",
    "invert.is_invertible",
    "invert.oracle",
    "cli.main",
)
LAYERS = ("forms", "outcomes", "order", "canonical", "invert", "cli", "selftest")
COUNTERS = (
    ["forms.interned", "forms.sum_memo", "forms.conjugate_memo", "forms.followers_memo"]
    + ["outcomes.first_wins_memo", "order.geq_memo", "canonical.memo", "canonical.steps"]
    + [f"canonical.steps.{k}" for k in STEP_KINDS]
    + ["canonical.steps_per_follower"]
)

# Layers every workload in BENCHMARK.json exercises, so their times never
# read a constant 0 there. The other call times (parse, notation, geq,
# compare, cli.main, each selftest check) are printed on every traced run.
SHARED_SPANS = (
    "forms.enumerate",
    "forms.sum",
    "forms.conjugate",
    "outcomes.outcome",
    "order.eq_zero",
    "canonical.canonical",
    "invert.is_invertible",
    "invert.oracle",
)
SHARED_LAYERS = ("forms", "outcomes", "order", "canonical", "invert")

PER_LAYER = (
    [(f"{name}_s", "s") for name in SHARED_SPANS]
    + [(f"{layer}.self_s", "s") for layer in SHARED_LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(name, "steps/follower" if name.endswith("per_follower") else "count") for name in COUNTERS]
    + [("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"), ("trace.spans", "count")]
)


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def spread(xs: list[float], what: str) -> str:
    med = statistics.median(xs)
    if len(xs) < 2:
        return f"median {med:.4f} s (1 {what})"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (
        f"median {med:.4f} s over {len(xs)} {what}, quartile spread "
        f"{(q3 - q1) / med:.1%}, range {min(xs):.4f}-{max(xs):.4f} s "
        f"({(max(xs) - min(xs)) / med:.1%})"
    )


def replay_counters(workload, api, inputs, tracer=None) -> dict:
    store, extra = workload.replay(api, inputs, tracer)
    return {**store_counters(store, api.StepKind), **extra}


# ---------------------------------------------------------------- worker


def worker(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up once, then time passes for about ``seconds`` (at least one);
    returns a JSON-able record of everything the parent needs to report and
    check."""
    t0 = time.perf_counter()
    api = load(ROOT)
    inputs = workload.setup(api, seed, workdir)
    setup_s = time.perf_counter() - t0

    passes, traced_passes, last_spans = [], [], []
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        passes.append(workload.run_pass(api, inputs))
        if trace:
            tracer = Tracer()
            tapi = traced(api, tracer)
            p = workload.run_pass(tapi, inputs)
            counters = p.counters
            if hasattr(workload, "replay"):
                counters = replay_counters(workload, tapi, inputs, tracer)
            by_name, by_module = summarize(tracer.spans)
            traced_passes.append(
                {"wall": p.wall, "digest": workload.digest(p.outputs), "counters": counters,
                 "by_name": by_name, "by_module": by_module, "spans": len(tracer.spans)}
            )
            last_spans = tracer.spans
        # Stop before a pass that would overrun the share, so a run lasts
        # about --seconds however long a pass is.
        now = time.perf_counter()
        if now - t_start + (now - t_cycle) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if last_spans:
        write_spans(workload.name, seed, last_spans)
    return {
        "pid": os.getpid(),
        "setup_s": setup_s,
        "inputs_digest": hashlib.sha256(repr(inputs).encode()).hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "passes": [
            {"wall": p.wall, "items": len(p.items), "p50": percentile(p.items, 50),
             "p99": percentile(p.items, 99), "digest": workload.digest(p.outputs),
             "start_forms": p.start_forms, "forms": p.forms}
            for p in passes
        ],
        "traced": traced_passes,
        "outputs": passes[0].outputs,
    }


def write_spans(workload: str, seed: int, spans) -> Path:
    t0 = spans[0][1] if spans else 0
    path = OUT_DIR / f"trace-{workload}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["name", "start_ns", "end_ns", "parent"],
        "spans": [[n, s - t0, e - t0, p] for n, s, e, p in spans],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------- parent


def run_workers(args, workdir: Path) -> list[dict]:
    """Workers one after another until the next would overrun ``--seconds``.

    A worker whose single pass outlasts its share (selftest-full) still runs
    one pass, so the count of workers, not their share, fills the run.
    """
    workers = TRACE_WORKERS if args.trace else WORKERS
    share = args.seconds / workers
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(share), "--trace", str(args.trace),
           "--worker", str(workdir)]
    records = []
    t_start = time.perf_counter()
    while True:
        t = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
        records.append(json.loads(proc.stdout.splitlines()[-1]))
        now = time.perf_counter()
        if len(records) >= (workers if args.trace else 1) and now - t_start + (now - t) > args.seconds:
            return records


def check_answers(workload, api, inputs, seed: int, records: list[dict]) -> tuple[int, int]:
    """Check the first pass in full; every other pass must repeat its digest
    (and, at the default seed, the pinned one) or all its answers fail."""
    expected = workload.reference(api, inputs)
    first = records[0]["passes"][0]["digest"]
    pinned = PINNED_DIGESTS.get(workload.name) if (seed == DEFAULT_SEED or not workload.seeded) else None
    if pinned is not None:
        verdict = "matches" if first == pinned else "DIFFERS from"
        print(f"output digest {first} ({verdict} the pinned one)")
    else:
        print(f"output digest {first} (pinned only at seed {DEFAULT_SEED})")
    own_inputs = hashlib.sha256(repr(inputs).encode()).hexdigest()
    attempted = failed = 0
    for rec in records:
        a, f = workload.check(inputs, expected, rec["outputs"])
        if rec["inputs_digest"] != own_inputs:
            print(f"error: worker {rec['pid']} generated different inputs")
            f = a
        for p in rec["passes"] + rec["traced"]:
            attempted += a
            bad = p["digest"] != first or (pinned and p["digest"] != pinned)
            failed += a if bad else f
    for line in workload.describe(inputs, records[0]["outputs"]):
        print(line)
    return attempted, failed


def over_passes(records: list[dict], key: str, how) -> float:
    return how(p[key] for r in records for p in r["passes"])


def end_to_end(workload, api, inputs, records: list[dict]) -> dict:
    fresh = len(api.Store())
    if any(p["start_forms"] not in (None, fresh) for r in records for p in r["passes"]):
        raise RuntimeError("a timed pass did not start on a fresh Store")
    if hasattr(workload, "replay"):
        forms = replay_counters(workload, api, inputs)["forms.interned"]
    else:
        forms = records[-1]["passes"][-1]["forms"]
    passes = sum(len(r["passes"]) for r in records)
    items = sum(p["items"] for r in records for p in r["passes"])
    print(f"timed: {passes} passes, {items} closed-loop inputs, {len(records)} processes")
    return {
        # A shared host switches between a fast and a slow speed for tens
        # of seconds at a time, so pass times and per-pass median items fall
        # into two clusters: their median jumps to whichever holds more
        # passes, while the mean moves in proportion. A pass's 99th
        # percentile rests on about 20 inputs and jumps when a host stall
        # hits them, which the median ignores. See bench/README.md.
        "wall_s": over_passes(records, "wall", statistics.fmean),
        "item_p50_us": over_passes(records, "p50", statistics.fmean) * 1e6,
        "item_p99_us": over_passes(records, "p99", statistics.median) * 1e6,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "forms_per_input": forms / workload.n_inputs(inputs),
        "setup_s": statistics.median(r["setup_s"] for r in records),
    }


def per_layer(records: list[dict]) -> dict:
    runs = [t for r in records for t in r["traced"]]
    med = statistics.median
    out = {}
    for span in CALL_SPANS:
        out[f"{span}_s"] = med(t["by_name"].get(span, (0.0, 0))[0] for t in runs)
    for check in SELFTEST_CHECKS:
        name = f"selftest.{check}_s"
        out[name] = med(t["counters"].get(name, 0.0) for t in runs)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = med(t["by_module"].get(layer, (0.0, 0))[0] for t in runs)
        out[f"{layer}.calls"] = runs[-1]["by_module"].get(layer, (0.0, 0))[1]
    for name in COUNTERS:
        out[name] = runs[-1]["counters"].get(name)
    # Traced and untraced passes alternate within each process, so compare
    # them there and take the median over processes.
    plain = [med(p["wall"] for p in r["passes"]) for r in records]
    overhead = med(med(t["wall"] for t in r["traced"]) - w for r, w in zip(records, plain))
    out["trace.overhead_s"] = overhead
    out["trace.overhead_share"] = overhead / med(plain)
    out["trace.spans"] = runs[-1]["spans"]

    by_module = runs[-1]["by_module"]
    total = sum(s for s, _ in by_module.values()) or 1.0
    print("layer self time in the last traced pass:")
    for layer in LAYERS:
        s, n = by_module.get(layer, (0.0, 0))
        print(f"  {layer:<10} {s:9.4f} s  {s / total:6.1%}  {n:8d} calls")
    print("time in each public call and selftest check, median over traced passes:")
    for name, value in out.items():
        if name.endswith("_s") and value and name not in dict(PER_LAYER):
            print(f"  {name}: {value:.6g} s")
    return out


def report(workload, api, args, records: list[dict], workdir: Path) -> int:
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"python {platform.python_version()}, {len(os.sched_getaffinity(0))} usable cores, "
          f"{len(records)} worker processes run one after another")
    if not workload.seeded:
        print("the seed has no effect: the library pins this workload's populations")
    for r in records:
        walls = [p["wall"] for p in r["passes"]]
        line = f"process {r['pid']}: setup {r['setup_s']:.4f} s, passes " + " ".join(f"{w:.4f}" for w in walls)
        if r["traced"]:
            line += " | traced " + " ".join(f"{t['wall']:.4f}" for t in r["traced"])
        print(line)
    print("all passes: " + spread([p["wall"] for r in records for p in r["passes"]], "passes"))
    medians = [statistics.median(p["wall"] for p in r["passes"]) for r in records]
    print("per-process medians: " + spread(medians, "processes"))

    inputs = workload.setup(api, args.seed, workdir)
    attempted, failed = check_answers(workload, api, inputs, args.seed, records)
    print(f"answers: {attempted} attempted, {failed} failed, error_rate {failed / attempted:.6f}")

    if args.trace:
        metrics, units = per_layer(records), dict(PER_LAYER)
        print(f"spans of the last traced pass: {OUT_DIR / f'trace-{workload.name}.json'}")
    else:
        metrics, units = end_to_end(workload, api, inputs, records), dict(END_TO_END)

    out = {}
    for name, unit in units.items():
        value = metrics.get(name)
        if value is None:
            print(f"{name}: absent (the store does not expose this table)")
            continue
        print(f"{name}: {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.worker:
        rec = worker(workload, args.seed, args.seconds, bool(args.trace), Path(args.worker))
        print(json.dumps(rec))
        return 0
    try:
        api = load(ROOT)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        return report(workload, api, args, run_workers(args, workdir), workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
