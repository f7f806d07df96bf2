"""Shared machinery of the benchmark: operation accounting, the closed-loop
scheduler, span tracing, CLI processes, statistics and provenance.

Imported only after `hardybox` itself, so that the import time measured by
`run.py` is the package's own.
"""

from __future__ import annotations

import io
import json
import os
import platform
import statistics
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Modules of the package; each is one layer of the per-layer metrics.
LAYERS = ("behavior", "locality", "bell", "quantum", "montecarlo", "boxes", "cli")

# What a user types as `hardybox ...`: the console script calls cli.entry().
_CLI_BOOT = "from hardybox.cli import entry; entry()"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(ok: bool, message: str) -> None:
    """Raise `CheckFailed` with ``message`` unless ``ok``."""
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


class NullTracer:
    """Calls straight through; used for the untraced runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Keeps one span per call in memory: name, start, end and parent span.

    Spans are stored flat as four int64 per span (name id, start ns, end ns,
    parent index, -1 for a root span) so a run of a few hundred thousand
    calls stays a few megabytes.
    """

    def __init__(self) -> None:
        self.names: dict[str, int] = {}
        self.rows = array("q")
        self.stack: list[int] = []
        self.failed: set[int] = set()

    def call(self, name, fn, *args, **kwargs):
        nid = self.names.get(name)
        if nid is None:
            nid = self.names[name] = len(self.names)
        idx = len(self.rows) // 4
        self.rows.extend((nid, 0, 0, self.stack[-1] if self.stack else -1))
        self.stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed.add(idx)
            raise
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            self.rows[4 * idx + 1] = start
            self.rows[4 * idx + 2] = end

    def table(self) -> np.ndarray:
        return np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 4)

    def write(self, path: Path) -> None:
        spans = self.table()
        t0 = int(spans[:, 1].min()) if len(spans) else 0
        rel = spans.copy()
        rel[:, 1:3] -= t0
        doc = {
            "clock": "perf_counter_ns, relative to the first span",
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "names": sorted(self.names, key=self.names.get),
            "failed": sorted(self.failed),
            "spans": rel.tolist(),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")

    def summary(self, wall_s: float) -> tuple[dict, dict]:
        """Per-name rows and per-layer metrics derived from the spans.

        A span's self time is its duration minus the durations of its child
        spans.  Layer ``x`` gathers the spans named ``x.*``; spans named
        ``op.*`` are the benchmark's own operations around those calls.
        """
        spans = self.table()
        if not len(spans):
            return {}, {}
        dur = (spans[:, 2] - spans[:, 1]).astype(np.float64)
        parent = spans[:, 3]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
        self_ns = dur - child
        failed = np.zeros(len(spans), dtype=bool)
        failed[list(self.failed)] = True
        rows = {}
        for name, nid in sorted(self.names.items()):
            mask = spans[:, 0] == nid
            d = dur[mask]
            q1, q2, q3 = quartiles(d / 1e3)
            rows[name] = {
                "calls": int(mask.sum()),
                "failures": int(failed[mask].sum()),
                "median_us": q2,
                "p25_us": q1,
                "p75_us": q3,
                "total_s": float(d.sum() / 1e9),
                "self_s": float(self_ns[mask].sum() / 1e9),
            }
        layers = {}
        for layer in LAYERS:
            calls = sum(r["calls"] for n, r in rows.items() if n.startswith(layer + "."))
            self_s = sum(r["self_s"] for n, r in rows.items() if n.startswith(layer + "."))
            layers[f"{layer}.self_pct"] = (100.0 * self_s / wall_s, "%")
            layers[f"{layer}.us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
            layers[f"{layer}.calls"] = (calls, "count")
        return rows, layers


@dataclass(frozen=True)
class _Cell:
    value: float
    index: int


def reference_kernel() -> float:
    """Fixed interpreter-bound work that never changes with the program.

    Small objects, generator expressions and small numpy arithmetic, like
    the package's own code.  Timed between the workload's steps, it tells
    how fast this shared machine runs at that moment.
    """
    acc = 0.0
    v = np.linspace(0.0, 1.0, 16)
    for _ in range(400):
        cells = tuple(_Cell(float(x), k) for k, x in enumerate(v))
        acc += sum(c.value for c in cells if c.index % 3) + float((v * v).sum())
    return acc


#: Timings are scaled to the speed at which the reference kernel takes this long.
REFERENCE_MS = 5.0
#: Reference samples within this many seconds of a step give its speed.
SPEED_WINDOW_S = 5.0


class Recorder:
    """Counts every operation against the number attempted.

    An operation fails when its work raises or its check raises; only
    operations that pass their check contribute a timing sample.  Samples
    are also summed per scheduler step, so that each step's time can be
    scaled by the machine's speed around it (see `per_op`).
    """

    def __init__(self, tracer) -> None:
        self.T = tracer.call
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        # per scheduler step: (start, end, {kind: [seconds, ok, attempted]})
        self.steps: list[tuple[float, float, dict]] = []
        self._step: dict = {}
        self.references: list[tuple[float, float]] = []  # (start, seconds)

    def op(self, kind: str, work, check=None):
        """Time ``work()``, then run ``check(result)`` untimed.

        Returns the result, or None when the operation failed.
        """
        self.attempted[kind] += 1
        acc = self._step.setdefault(kind, [0.0, 0, 0])
        acc[2] += 1
        try:
            t0 = perf_counter()
            out = self.T("op." + kind, work)
            elapsed = perf_counter() - t0
            if check is not None:
                check(out)
        except Exception as exc:  # a failed operation is counted, never fatal
            self.failed[kind] += 1
            if len(self.problems) < 20:
                self.problems.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.samples[kind].append(elapsed)
        acc[0] += elapsed
        acc[1] += 1
        return out

    def step(self, fn) -> float:
        """Run one scheduler step; returns its wall time."""
        self._step = {}
        start = perf_counter()
        fn()
        end = perf_counter()
        self.steps.append((start, end, self._step))
        self._step = {}
        return end - start

    def reference(self, after_s: float = 0.0) -> None:
        """Time the reference kernel: once, or up to ten times after a long
        step, so that a step of seconds has enough samples near it."""
        for _ in range(max(1, min(10, int(after_s / 0.3)))):
            t0 = perf_counter()
            reference_kernel()
            self.references.append((t0, perf_counter() - t0))

    def slowdown(self, start: float, end: float) -> float:
        """Median reference time near [start, end] over REFERENCE_MS."""
        near = [d for t, d in self.references if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        return 1e3 * statistics.median(near) / REFERENCE_MS if near else 1.0

    def per_op(self, kind: str, scaled: bool = True) -> list[float]:
        """Seconds per operation of each step whose ``kind`` operations all
        passed; ``scaled`` divides by the slowdown around the step."""
        out = []
        for start, end, kinds in self.steps:
            seconds, ok, attempted = kinds.get(kind, (0.0, 0, 0))
            if ok and ok == attempted:
                out.append(seconds / ok / (self.slowdown(start, end) if scaled else 1.0))
        return out

    def median(self, kind: str, scaled: bool = True) -> float:
        """Median over the run's steps of the time per ``kind`` operation."""
        s = self.per_op(kind, scaled)
        return statistics.median(s) if s else float("nan")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def run_schedule(steps, seconds: float, rec: Recorder) -> float:
    """Closed loop over ``steps`` = [(name, share, fn), ...] for ``seconds``.

    Every step runs once first, so each kind of operation has a sample.
    After that the step furthest behind its share of the elapsed time runs
    next, and a step is started only when its median duration so far still
    fits before the deadline.  The reference kernel runs before the first
    step and after every step.  Returns the loop's wall time.
    """
    durations: dict[str, list[float]] = {name: [] for name, _, _ in steps}
    spent = dict.fromkeys(durations, 0.0)
    start = perf_counter()
    rec.reference()

    def run(name, fn):
        d = rec.step(fn)
        rec.reference(d)
        durations[name].append(d)
        spent[name] += d

    for name, _, fn in steps:
        run(name, fn)
    while True:
        elapsed = perf_counter() - start
        fits = [
            (share * elapsed - spent[name], name, fn)
            for name, share, fn in steps
            if elapsed + statistics.median(durations[name]) <= seconds
        ]
        if not fits:
            break
        _, name, fn = max(fits, key=lambda t: t[0])
        run(name, fn)
    return perf_counter() - start


def quartiles(values) -> tuple[float, float, float]:
    v = [float(x) for x in values]
    if not v:
        return (float("nan"),) * 3
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env["PYTHONPATH"]]) if env.get("PYTHONPATH") else str(SRC)
    env.pop("HARDYBOX_DATA_DIR", None)
    return env


def run_cli_process(args: list[str]) -> dict:
    """Run ``hardybox <args>`` as a fresh process; return its parsed JSON.

    Raises `CheckFailed` on a non-zero exit or output that is not JSON.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_BOOT, *args],
        capture_output=True,
        text=True,
        env=cli_env(),
        cwd=ROOT,
        timeout=120,
    )
    expect(proc.returncode == 0, f"hardybox {' '.join(args)} exited {proc.returncode}: {proc.stderr[-300:]}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"hardybox {args[0]} printed no JSON: {exc}") from exc


def run_cli_main(main, args: list[str]) -> dict:
    """Call ``cli.main(args)`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    expect(code == 0, f"cli.main({args[0]}) returned {code}: {err.getvalue()[-300:]}")
    return json.loads(out.getvalue())


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown (git not available)"
    return proc.stdout.strip() or "unknown"


def provenance(seed: int, sizes: dict, loadavg: tuple) -> dict:
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "input_sizes": sizes,
        "loadavg_at_start": list(loadavg),
    }
