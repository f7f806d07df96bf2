"""trial-simulation: `montecarlo` used three ways, plus `hardybox simulate`.

* One large experiment at a time: a violating box, millions of trials,
  `simulate` unsharded and sharded (the two logs must be equal), then
  `estimate`, all 64 `test_inequality` calls and `test_signaling`.
* Many small calibration experiments: 500 trials on local-vertex mixtures,
  64 tests plus the signaling test each, so per-call overhead dominates.
* A CSV write and read round trip of part of the latest large log.
* `cli.main simulate` in-process and as a fresh process; the two outputs
  must be equal.

Slots: op1 = one large experiment, op2 = one calibration experiment,
op3 = one CSV round trip, cli = one `hardybox simulate` process.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from harness import close, expect, run_cli_main, run_cli_process
from box_audit import local_vertices, mixture
from hardybox import behavior, bell, boxes, cli, locality, montecarlo, quantum

BIG_N = 4_000_000
BIG_SHARDS = 16
BIG_ALPHA = 1e-6  # no chance false alarm in a run; real violations have |z| > 100
DECIDED = 0.01  # exact slacks at least this far from zero must be decided right
SMALL_N = 500
SMALL_ALPHA = 0.01
CSV_ROWS = 25_000
CLI_N = 1_000_000

SIZES = {
    "large_trials": BIG_N,
    "large_shards": BIG_SHARDS,
    "calibration_trials": SMALL_N,
    "calibration_batch": 20,
    "calibration_sets": 4,
    "csv_rows": CSV_ROWS,
    "cli_trials": CLI_N,
    "violating_boxes": "alternating: a seeded bundled one (mermin, hardy_pattern_a, hardy_pattern_b or pr) and a Tsirelson Born box",
}

SHARES = {"experiment": 0.35, "calibration": 0.25, "csv": 0.12, "cli_main": 0.08, "cli": 0.20}

QUADS = bell.HARDY_QUADRUPLES
_J = np.array([q.j - 1 for q in QUADS])
_KLM = np.array([[q.k - 1, q.l - 1, q.m - 1] for q in QUADS])
# signaling rows of `test_signaling`, in its order: (party, near setting, outcome)
_SIGNAL_ROWS = [(party, s, o) for party in "AB" for s in (0, 1) for o in (0, 1)]


def generate(seed: int, workdir) -> dict:
    rng = np.random.default_rng([seed, 4])
    name = ("mermin", "hardy_pattern_a", "hardy_pattern_b", "pr")[int(rng.integers(4))]
    # (|++> + |-->)/sqrt2 measured in the x-z plane at the CHSH angles, all
    # turned by one seeded offset
    r = 1.0 / math.sqrt(2.0)
    turn = float(rng.uniform(0, 2 * math.pi))
    angles = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
    tsirelson = {
        "kind": "born",
        "state": quantum.TwoQubitState((r, 0.0, 0.0, r)),
        "settings": quantum.MeasurementSettings(
            *(quantum.BlochDirection((a + turn) % (2 * math.pi)) for a in angles)
        ),
    }
    verts = local_vertices()
    n_small = SIZES["calibration_batch"] * SIZES["calibration_sets"]
    return {
        "big": [{"kind": "bundled", "name": name}, tsirelson],
        "mixtures": [mixture(rng, verts)[0] for _ in range(n_small)],
        "small_seeds": rng.integers(0, 2**31, size=n_small).tolist(),
        "big_seeds": rng.integers(0, 2**31, size=2).tolist(),
        "pick": int(rng.integers(1 << 30)),
        "box_file": workdir / "box.json",
    }


def counts_of(log) -> np.ndarray:
    """4x4 outcome counts of a trial log, tabulated here independently."""
    block = (log.settings_a.astype(np.int64) - 1) * 2 + (log.settings_b - 1)
    offset = (log.outcomes_a < 0) * 2 + (log.outcomes_b < 0)
    return np.bincount(block * 4 + offset, minlength=16).reshape(4, 4)


def check_tests(counts: np.ndarray, tests, signal, alpha: float) -> None:
    """Each z-test and signaling row recomputed from the counts."""
    n_block = counts.sum(axis=1)
    freq = (counts / n_block[:, None]).reshape(16)
    z_alpha = NormalDist().inv_cdf(1 - alpha)
    for t, j, klm in zip(tests, _J, _KLM):
        lower = freq[klm].sum() - freq[j]
        expect(close(t.lower_slack, lower) and close(t.upper_slack, 1 - lower), "test slack disagrees")
        expect(close(t.z_lower * t.stderr, t.lower_slack, 1e-9), "z is not slack / stderr")
        expect(t.violated_lower == (t.z_lower < -z_alpha), "violation flag disagrees with z")
    t = counts.reshape(2, 2, 2, 2)  # settingA, settingB, outcomeA, outcomeB
    for row, (party, s, o) in zip(signal.rows, _SIGNAL_ROWS):
        if party == "A":
            x1, x2 = t[s, 0, o].sum(), t[s, 1, o].sum()
            n1, n2 = t[s, 0].sum(), t[s, 1].sum()
        else:
            x1, x2 = t[0, s, :, o].sum(), t[1, s, :, o].sum()
            n1, n2 = t[0, s].sum(), t[1, s].sum()
        pooled = (x1 + x2) / (n1 + n2)
        var = pooled * (1 - pooled) * (1 / n1 + 1 / n2)
        z = 0.0 if var == 0 else (x1 / n1 - x2 / n2) / math.sqrt(var)
        expect(close(row.z, z, 1e-9), "signaling z disagrees")
        if abs(abs(z) - NormalDist().inv_cdf(1 - alpha / 16)) > 1e-6:
            expect(row.significant == (2 * NormalDist().cdf(-abs(z)) < alpha / 8), "signaling flag")


def steps(inp: dict, rec, T) -> list:
    state = {"log": None, "b": None, "big": 0, "small": 0, "cli_doc": None, "args": None}

    def load_big(big):
        if big["kind"] == "bundled":
            return T("boxes.load_box", boxes.load_box, big["name"]).behavior
        return T("quantum.born_behavior", quantum.born_behavior, big["state"], big["settings"])

    # The large experiments alternate between the two boxes, each with its
    # own seed; the calibration batches cycle through fixed sets of
    # mixtures and seeds.
    def experiment_step():
        ident = state["big"] % len(inp["big"])
        state["big"] += 1
        big, seed = inp["big"][ident], inp["big_seeds"][ident]
        state["log"] = None  # let the previous large log go before drawing the next

        def work():
            b = load_big(big)
            residual = T("locality.constraint_residuals", locality.constraint_residuals, b).max_abs()
            exact = T("bell.hardy_check", bell.hardy_check, b)
            whole = T("montecarlo.simulate", montecarlo.simulate, b, BIG_N, seed)
            sharded = T("montecarlo.simulate_sharded", montecarlo.simulate, b, BIG_N, seed, "uniform", BIG_SHARDS)
            stats = T("montecarlo.estimate", montecarlo.estimate, whole)
            tests = [T("montecarlo.test_inequality", montecarlo.test_inequality, stats, q, BIG_ALPHA) for q in QUADS]
            signal = T("montecarlo.test_signaling", montecarlo.test_signaling, stats, BIG_ALPHA)
            return b, residual, exact, whole, sharded, stats, tests, signal

        def check(out):
            b, residual, exact, whole, sharded, stats, tests, signal = out
            expect(residual <= 1e-12, "violating box is not no-signaling")
            for col in ("settings_a", "settings_b", "outcomes_a", "outcomes_b"):
                expect(np.array_equal(getattr(whole, col), getattr(sharded, col)), f"sharded log differs: {col}")
            counts = counts_of(whole)
            expect(counts.sum() == BIG_N, "log length")
            expect(np.array_equal(np.array(stats.counts), counts), "estimate counts disagree")
            check_tests(counts, tests, signal, BIG_ALPHA)
            p = np.asarray(b.probs)
            lower = p[_KLM].sum(axis=1) - p[_J]
            expect(
                np.allclose([c.lower_slack for c in exact.checks], lower, rtol=0, atol=1e-12),
                "exact inequality scan disagrees",
            )
            for t, lo in zip(tests, lower):
                if abs(lo) >= DECIDED:
                    expect(t.violated_lower == (lo < 0), "large experiment misses a lower-bound decision")
                if abs(1 - lo) >= DECIDED:
                    expect(t.violated_upper == (lo > 1), "large experiment misses an upper-bound decision")
            expect(any(t.violated for t in tests), "no violation found in a violating box")
            expect(not signal.detected, "signaling detected in a no-signaling box")
            state["log"], state["b"] = whole, b

        rec.op("experiment", work, check)

    def calibration_step():
        batch = SIZES["calibration_batch"]
        ident = state["small"] % SIZES["calibration_sets"]
        state["small"] += 1
        for i in range(ident * batch, (ident + 1) * batch):
            calibration_one(inp["mixtures"][i], inp["small_seeds"][i])

    def calibration_one(p, seed):
        def work():
            b = T("behavior.Behavior", behavior.Behavior, tuple(p))
            log = T("montecarlo.small_simulate", montecarlo.simulate, b, SMALL_N, seed)
            stats = T("montecarlo.small_estimate", montecarlo.estimate, log)
            tests = [
                T("montecarlo.test_inequality", montecarlo.test_inequality, stats, q, SMALL_ALPHA)
                for q in QUADS
            ]
            signal = T("montecarlo.test_signaling", montecarlo.test_signaling, stats, SMALL_ALPHA)
            return log, stats, tests, signal

        def check(out):
            log, stats, tests, signal = out
            counts = counts_of(log)
            expect(counts.sum() == SMALL_N, "log length")
            expect(np.array_equal(np.array(stats.counts), counts), "estimate counts disagree")
            decided = [t for t in tests if not t.inconclusive]
            if counts.sum(axis=1).all():
                check_tests(counts, tests, signal, SMALL_ALPHA)
            # local boxes: every alarm is a false positive, reported not failed
            rec.counts["calibration_tests"] += len(decided)
            rec.counts["calibration_false_alarms"] += sum(t.violated for t in decided)
            rec.counts["calibration_signal_alarms"] += signal.detected

        rec.op("calibration", work, check)

    def csv_step():
        log = state["log"]
        path = inp["box_file"].with_name("trials.csv")

        def work():
            part = log[:CSV_ROWS]
            T("montecarlo.TrialLog.to_csv", part.to_csv, path)
            back = T("montecarlo.TrialLog.from_csv", montecarlo.TrialLog.from_csv, path)
            return part, back

        def check(out):
            part, back = out
            for col in ("settings_a", "settings_b", "outcomes_a", "outcomes_b"):
                expect(np.array_equal(getattr(part, col), getattr(back, col)), f"CSV round trip changes {col}")
            expect(len(back) == CSV_ROWS, "CSV round trip length")

        rec.op("csv", work, check)

    def cli_args() -> list[str]:
        if state["args"] is None:
            b = state["b"]
            p = np.asarray(b.probs)
            lower = p[_KLM].sum(axis=1) - p[_J]
            violated = [q for q, lo in zip(QUADS, lower) if lo <= -DECIDED or lo >= 1 + DECIDED]
            q = violated[inp["pick"] % len(violated)]
            T("behavior.save_behavior", behavior.save_behavior, b, inp["box_file"], "violating box")
            state["args"] = [
                "simulate", "--input", str(inp["box_file"]), "--n", str(CLI_N),
                "--seed", str(inp["big_seeds"][0]), "--quadruple", f"{q.family}:{q.j}",
                "--alpha", str(BIG_ALPHA), "--shards", "4",
            ]  # fmt: skip
        return state["args"]

    def cli_main_step():
        def check(doc):
            counts = np.array(doc["stats"]["counts"])
            expect(counts.sum() == CLI_N, "simulate: counts do not add up to n")
            expect(not doc["signaling"]["detected"], "simulate: signaling in a no-signaling box")
            ineq = doc["inequality"]
            expect(ineq["violated_lower"] or ineq["violated_upper"], "simulate: violation not found")
            state["cli_doc"] = doc

        rec.op("cli_main", lambda: T("cli.main", run_cli_main, cli.main, cli_args()), check)

    def cli_step():
        want = state["cli_doc"]

        def check(doc):
            expect(want is not None, "no in-process result to compare with")
            expect(doc == want, "simulate process output differs from in-process cli.main")

        rec.op("cli", lambda: T("cli.process", run_cli_process, cli_args()), check)

    return [
        ("experiment", SHARES["experiment"], experiment_step),
        ("calibration", SHARES["calibration"], calibration_step),
        ("csv", SHARES["csv"], csv_step),
        ("cli_main", SHARES["cli_main"], cli_main_step),
        ("cli", SHARES["cli"], cli_step),
    ]


def slots(rec, scaled: bool = True) -> dict:
    """The four workload slots (see module docstring) in their units.

    A CLI process is never scaled: its time is start-up in a new
    interpreter, which the in-process reference kernel does not follow.
    """
    return {
        "op1_ms": 1e3 * rec.median("experiment", scaled),
        "op2_ms": 1e3 * rec.median("calibration", scaled),
        "op3_ms": 1e3 * rec.median("csv", scaled),
        "cli_s": rec.median("cli", scaled=False),
    }


def named(rec, s: dict) -> dict:
    c = rec.counts
    return {
        "simulate_trials_per_s": (BIG_N / (s["op1_ms"] / 1e3), "1/s"),
        "calibration_experiments_per_s": (1e3 / s["op2_ms"], "1/s"),
        "csv_rows_per_s": (CSV_ROWS / (s["op3_ms"] / 1e3), "1/s"),
        "cli_simulate_s": (s["cli_s"], "s"),
        "cli.main_simulate_ms": (1e3 * rec.median("cli_main"), "ms"),
        "calibration_false_alarm_rate": (c["calibration_false_alarms"] / max(c["calibration_tests"], 1), "ratio"),
        "calibration_signal_alarm_rate": (
            c["calibration_signal_alarms"] / max(rec.attempted["calibration"], 1),
            "ratio",
        ),
    }

