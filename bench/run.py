"""Run one benchmark workload against the package in ../src.

    python3 bench/run.py --workload box-audit --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1

One run imports `hardybox` from the checkout, generates its inputs from the
seed, measures set-up twice more in fresh processes, then runs the
workload as a closed loop (one client, one thread) for ``--seconds``.
Every operation's output is checked; a failed check or an exception
counts as a failed operation and is never timed as a success.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full result, with provenance, is written to ``--out``
(default ``.bench_out/``).  ``--workload all`` runs every workload
untraced and traced, prints every metric with its unit and the tracing
overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = {
    "box-audit": "box_audit",
    "quantum-search": "quantum_search",
    "trial-simulation": "trial_simulation",
}
SETUP_PROBES = 2
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "cli_s": "s", "op1_ms": "ms", "op2_ms": "ms", "op3_ms": "ms"}


def import_hardybox() -> None:
    """Import the package from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("HARDYBOX_DATA_DIR", None)
    import hardybox

    where = Path(hardybox.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"hardybox was imported from {where}, not from {SRC}")


def setup(workload: str, seed: int, workdir: Path):
    """Import the package, then generate the inputs; both are set-up time."""
    t0 = perf_counter()
    import_hardybox()
    t1 = perf_counter()
    sys.path.insert(0, str(BENCH))
    mod = importlib.import_module(WORKLOADS[workload])
    inputs = mod.generate(seed, workdir)
    t2 = perf_counter()
    return mod, inputs, t1 - t0, t2 - t0


def probe_setup(workload: str, seed: int) -> dict:
    """Set-up time in a fresh process (the same code path as a real run)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def op_summary(rec) -> dict:
    from harness import quartiles

    out = {}
    for kind in sorted(rec.attempted):
        s = sorted(rec.samples.get(kind, []))
        q1, q2, q3 = quartiles([1e3 * x for x in s])
        row = {
            "attempted": rec.attempted[kind],
            "failed": rec.failed[kind],
            "timed": len(s),
            "p25_ms": finite(q1),
            "median_ms": finite(q2),
            "p75_ms": finite(q3),
        }
        # highest percentile with at least ten samples beyond it
        for pct in (99.9, 99.0, 90.0):
            if len(s) * (1 - pct / 100) >= 10:
                row[f"p{pct:g}_ms"] = 1e3 * s[min(len(s) - 1, math.ceil(pct / 100 * len(s)) - 1)]
                break
        out[kind] = row
    return out


def run_one(args) -> int:
    loadavg = os.getloadavg()
    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        mod, inputs, import_s, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
            return 0
        import harness

        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        setups = [setup_s] + [p["setup_s"] for p in probes]
        imports = [import_s] + [p["import_s"] for p in probes]

        tracer = harness.Tracer() if args.trace else harness.NullTracer()
        rec = harness.Recorder(tracer)
        wall = harness.run_schedule(mod.steps(inputs, rec, tracer.call), args.seconds, rec)
        slots = mod.slots(rec)
        unscaled = mod.slots(rec, scaled=False)
        e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": harness.peak_rss_mb(), **slots}
        e2e = {k: (e2e[k], UNITS[k]) for k in UNITS}
        named = mod.named(rec, slots)
        spans, layers = {}, {}
        out = Path(args.out) if args.out else ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        if args.trace:
            spans, layers = tracer.summary(wall)
            layers["cli.import_s"] = (statistics.median(imports), "s")
            tracer.write(out.with_suffix(".spans.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = layers if args.trace else e2e
    values_ok = all(finite(v) is not None for v, _ in metrics.values())
    result = {
        "correct": rec.total_failed == 0 and values_ok,
        "attempted": rec.total_attempted,
        "failed": rec.total_failed,
        "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": harness.provenance(args.seed, mod.SIZES, loadavg),
        "result": result,
        "end_to_end": {k: {"value": finite(v), "unit": u} for k, (v, u) in e2e.items()},
        "named": {k: {"value": finite(v), "unit": u} for k, (v, u) in named.items()},
        "ops": op_summary(rec),
        "setup": {"setup_s": setups, "import_s": imports},
        "unscaled_slots": {k: finite(v) for k, v in unscaled.items()},
        "reference_ms": dict(zip(("p25", "median", "p75"), harness.quartiles([1e3 * d for _, d in rec.references]))),
        "loop_wall_s": wall,
        "problems": rec.problems,
    }
    if args.trace:
        doc["layers"] = result["metrics"]
        doc["spans"] = spans
        doc["spans_file"] = str(out.with_suffix(".spans.json"))
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {result['attempted']} operations, "
          f"{result['failed']} failed, loop {wall:.1f}s")
    for problem in rec.problems[:5]:
        print(f"  failed: {problem}")
    print_table("end-to-end (this workload's slots)", doc["end_to_end"])
    print_table("named metrics", doc["named"])
    if args.trace:
        print_table("per-layer", doc["layers"])
        print(f"  {'span':42s} {'calls':>8s} {'failed':>6s} {'median_us':>12s} {'self_s':>9s}")
        for name, row in spans.items():
            print(f"  {name:42s} {row['calls']:8d} {row['failures']:6d} {row['median_us']:12.1f} {row['self_s']:9.3f}")
    print(f"result written to {out}")
    print(json.dumps(result))
    return 0


def print_table(title: str, rows: dict) -> None:
    print(f"{title}:")
    for name, m in rows.items():
        v = m["value"]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:42s} {shown:>14s} {m['unit']}")


def run_all(args) -> int:
    """Every workload untraced then traced; prints every metric and the overhead."""
    outdir = ROOT / ".bench_out" / f"all-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    docs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = outdir / f"{workload}-trace{trace}.json"
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            docs[workload, trace] = json.loads(out.read_text(encoding="utf-8"))
    summary = {}
    for workload in WORKLOADS:
        plain, traced = docs[workload, 0], docs[workload, 1]
        print(f"\n== {workload} (seed {args.seed}, {args.seconds:g}s)")
        print_table("end-to-end", plain["end_to_end"])
        print_table("named", plain["named"])
        print_table("per-layer (traced run)", traced["layers"])
        print("tracing overhead (traced / untraced - 1):")
        for name in ("op1_ms", "op2_ms", "op3_ms", "cli_s"):
            a, b = plain["end_to_end"][name]["value"], traced["end_to_end"][name]["value"]
            if a and b:
                print(f"  {name:42s} {100 * (b / a - 1):+13.1f} %")
        summary[workload] = {k: plain["result"][k] for k in ("correct", "attempted", "failed")}
        summary[workload]["traced_failed"] = traced["result"]["failed"]
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="where to write the full result (JSON)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
