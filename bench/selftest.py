"""Self-test of the benchmark's failure accounting and compare rule.

    python3 bench/selftest.py

Shows that a wrong answer from the program is counted as a failed
operation and never timed as a success, that an exception is counted the
same way, and that the compare rule gives the verdicts bench/README.md
describes.  Prints one line per case and exits 0 when every case holds.
"""

from __future__ import annotations

import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import import_hardybox  # noqa: E402

import_hardybox()

import box_audit  # noqa: E402
import compare  # noqa: E402
import harness  # noqa: E402
from hardybox import behavior, bell, locality  # noqa: E402

failures = []


def case(name: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


def recorder_cases() -> None:
    rec = harness.Recorder(harness.NullTracer())
    rec.op("good", lambda: 2, lambda out: harness.expect(out == 2, "two"))
    rec.op("wrong", lambda: 3, lambda out: harness.expect(out == 2, "two"))
    rec.op("raises", lambda: 1 / 0)
    case("a correct answer is timed", len(rec.samples["good"]) == 1 and rec.failed["good"] == 0)
    case("a wrong answer is a failure, not a sample", rec.failed["wrong"] == 1 and not rec.samples["wrong"])
    case("an exception is a failure, not a sample", rec.failed["raises"] == 1 and not rec.samples["raises"])
    case("failures count against attempts", (rec.total_attempted, rec.total_failed) == (3, 2))


def audit_steps(workdir: Path, tracer):
    rec = harness.Recorder(tracer)
    steps = dict((n, fn) for n, _, fn in box_audit.steps(box_audit.generate(7, workdir), rec, tracer.call))
    for _ in range(2):
        rec.step(steps["audit"])
    rec.step(steps["ns"])
    return rec


def wrong_program_cases() -> None:
    workdir = harness.ROOT / ".bench_run" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    real_check, real_ns = bell.hardy_check, locality.random_no_signaling_behavior

    def wrong_check(b, tol=1e-9):
        # shifts the first inequality's lower slack: a wrong answer that a
        # benchmark timing only the call would happily report
        rep = real_check(b, tol)
        first = rep.checks[0]
        return replace(rep, checks=(replace(first, lower_slack=first.lower_slack + 0.25),) + rep.checks[1:])

    def signaling_sample(rng, variant=locality.FreeSetId.S1, max_tries=100000):
        b = real_ns(rng, variant, max_tries)
        return behavior.Behavior(b.probs[:4] + b.probs[6:8] + b.probs[4:6] + b.probs[8:])

    try:
        rec = audit_steps(workdir, harness.NullTracer())
        case("unchanged program: no failures", rec.total_failed == 0 and rec.total_attempted > 0)
        case("unchanged program: the slot has a value", not math.isnan(rec.median("audit")))
        bell.hardy_check, locality.random_no_signaling_behavior = wrong_check, signaling_sample
        tracer = harness.Tracer()
        rec = audit_steps(workdir, tracer)
        audits = rec.attempted["audit"]
        case("every wrong audit counted failed", audits > 0 and rec.failed["audit"] == audits)
        case("no wrong audit timed", not rec.samples["audit"])
        case("a signaling sample counted failed", rec.failed["ns"] == rec.attempted["ns"] > 0)
        case("failed slot has no value", math.isnan(rec.median("audit")))
        rows, _ = tracer.summary(1.0)
        case("spans still recorded for failed operations", rows["bell.hardy_check"]["calls"] == audits)
    finally:
        bell.hardy_check, locality.random_no_signaling_behavior = real_check, real_ns
        shutil.rmtree(workdir, ignore_errors=True)


def compare_cases() -> None:
    seeds = range(10)
    parent = {s: 100.0 + s for s in seeds}

    def verdict(change, bound=0.2, better="lower"):
        return compare.classify(parent, change, better, bound)["verdict"]

    case("clear gain is better", verdict({s: 50.0 + s for s in seeds}) == "better")
    case("gain in 8/10 pairs is not better", verdict({s: 90.0 + s + 30 * (s < 2) for s in seeds}) == "same")
    case("small change is same", verdict({s: 101.0 + s for s in seeds}) == "same")
    case("regression past the bound is worse", verdict({s: 140.0 + s for s in seeds}) == "worse")
    noisy = {s: 100.0 * (1 + s % 2) for s in seeds}
    case("wide parent spread is unresolved", compare.classify(noisy, parent, "lower", 0.2)["verdict"] == "unresolved")
    case("higher-is-better direction", verdict({s: 150.0 + s for s in seeds}, better="higher") == "better")


if __name__ == "__main__":
    recorder_cases()
    wrong_program_cases()
    compare_cases()
    print(f"{len(failures)} case(s) failed" if failures else "all cases hold")
    sys.exit(1 if failures else 0)
