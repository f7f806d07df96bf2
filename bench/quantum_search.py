"""quantum-search: the extremal searches over two-qubit models.

Runs with the default `OptimizerConfig`, which the CLI uses and the
acceptance bounds are stated for.  The seed picks the Hardy quadruples and
the sigma index; the singlet search runs on 1:13, as acceptance criterion 6
does.  Each Hardy optimum is verified (its Born box, constraint
residuals, inequality scan and a finite-statistics confirmation of the
violation) and checked once more by a `hardybox check` process.  Box
analysis and simulation do almost nothing here.

Slots: op1 = one `maximize_hardy`, op2 = one `maximize_sigma` (each step
runs the max and the min), op3 = one singlet-fixed `maximize_hardy` plus
`singlet_perfect_correlation_check`, cli = one `hardybox check` process on
the latest optimum.
"""

from __future__ import annotations

import numpy as np

from harness import close, expect, run_cli_process
from hardybox import behavior, bell, boxes, locality, montecarlo, quantum

CONFIRM_N = 200_000  # trials that confirm each Hardy optimum's violation
CONFIRM_ALPHA = 1e-6

SIZES = {
    "optimizer": "OptimizerConfig() defaults",
    "quadruples": "seeded order of all 64; the singlet search uses 1:13",
    "sigma_index": "seeded, 1..4",
    "confirm_trials": CONFIRM_N,
}

SHARES = {"hardy": 0.45, "sigma": 0.25, "singlet": 0.18, "cli": 0.12}

# the quadruple of acceptance criterion 6; a fixed one keeps the singlet
# search's cost independent of the seed
SINGLET_QUADRUPLE = bell.quadruple_for(1, 13)

# bundled three-zero boxes: their witness pj (0.09) sits just below golden^-5
REFERENCE_BOXES = ("mermin", "hardy_pattern_a", "hardy_pattern_b")


def generate(seed: int, workdir) -> dict:
    rng = np.random.default_rng([seed, 3])
    quads = bell.HARDY_QUADRUPLES
    return {
        "hardy": [quads[i] for i in rng.permutation(len(quads))],
        "sigma_index": int(rng.integers(1, 5)),
        "confirm_seeds": rng.integers(0, 2**31, size=64).tolist(),
        "optimum_file": workdir / "optimum.json",
    }


def steps(inp: dict, rec, T) -> list:
    state = {"hardy": 0, "violated": None}

    def verify(q, opt):
        """Recompute the optimum's box and confirm its violation by sampling."""
        seed = inp["confirm_seeds"][state["hardy"] % 64]

        def work():
            b = T("quantum.born_behavior", quantum.born_behavior, opt.state, opt.settings)
            r = {
                "b": b,
                "valid": T("behavior.is_valid", behavior.is_valid, b),
                "residual": T("locality.constraint_residuals", locality.constraint_residuals, b).max_abs(),
                "hardy": T("bell.hardy_check", bell.hardy_check, b),
            }
            log = T("montecarlo.simulate", montecarlo.simulate, b, CONFIRM_N, seed)
            stats = T("montecarlo.estimate", montecarlo.estimate, log)
            r["test"] = T("montecarlo.test_inequality", montecarlo.test_inequality, stats, q, CONFIRM_ALPHA)
            r["refs"] = [T("boxes.load_box", boxes.load_box, name) for name in REFERENCE_BOXES]
            T("behavior.save_behavior", behavior.save_behavior, b, inp["optimum_file"], "hardy optimum")
            return r

        def check(r):
            b = r["b"]
            expect(close(b.p(q.j), opt.pj_value), "optimum pj does not recompute")
            expect(r["valid"] and r["residual"] <= 1e-12, "optimum box is not a no-signaling table")
            lower = r["hardy"].checks[bell.HARDY_QUADRUPLES.index(q)].lower_slack
            expect(r["hardy"].n_violated == 16 and lower < 0, "optimum box: wrong violation pattern")
            expect(r["test"].violated_lower and not r["test"].inconclusive, "sampled violation not found")
            for ref in r["refs"]:
                gap = abs(ref.expected["witness_pj"] - opt.pj_value)
                expect(gap <= 1e-3, f"{ref.name}: witness pj {gap:.1e} away from the optimum")
            state["violated"] = r["hardy"].n_violated

        rec.op("verify", work, check)

    def hardy_step():
        q = inp["hardy"][state["hardy"] % 64]
        state["hardy"] += 1

        def check(opt):
            expect(0.0897 <= opt.pj_value <= 0.0907, f"{q}: pj = {opt.pj_value}")
            expect(opt.zero_residual <= 1e-7, f"{q}: zero residual {opt.zero_residual:.1e}")
            rec.values["hardy_pj_abs_err"].append(abs(opt.pj_value - quantum.HARDY_MAX_PROBABILITY))
            rec.values["hardy_zero_residual"].append(opt.zero_residual)

        opt = rec.op("hardy", lambda: T("quantum.maximize_hardy", quantum.maximize_hardy, q), check)
        if opt is not None:
            verify(q, opt)

    def sigma_step():
        for minimize in (False, True):
            sigma_one(inp["sigma_index"], minimize)

    def sigma_one(i, minimize):
        target = quantum.SIGMA_QUANTUM_MIN if minimize else quantum.SIGMA_QUANTUM_MAX

        def check(opt):
            expect(abs(opt.value - target) <= 1e-3, f"sigma_{i}: {opt.value} vs {target}")
            rec.values["sigma_abs_err"].append(abs(opt.value - target))

        rec.op(
            "sigma",
            lambda: T("quantum.maximize_sigma", quantum.maximize_sigma, i, None, minimize),
            check,
        )

    def singlet_step():
        q = SINGLET_QUADRUPLE

        def work():
            opt = T("quantum.maximize_hardy", quantum.maximize_hardy, q, None, quantum.singlet())
            rep = T(
                "quantum.singlet_perfect_correlation_check",
                quantum.singlet_perfect_correlation_check,
                opt.settings,
            )
            return opt, rep

        def check(out):
            opt, rep = out
            expect(opt.pj_value <= 1e-6, f"singlet {q}: pj = {opt.pj_value:.2e}")
            expect(opt.zero_residual <= 1e-7, f"singlet {q}: zero residual {opt.zero_residual:.1e}")
            expect(rep.passed, f"singlet {q}: perfect-correlation check failed")

        rec.op("singlet", work, check)

    def cli_step():
        violated = state["violated"]

        def check(doc):
            expect(violated is not None, "no verified optimum to check")
            expect(doc["valid"] and doc["normalized"] and doc["no_signaling"], "optimum box flagged")
            expect(doc["hardy"]["summary"]["violated"] == violated, "check process: violation count")
            expect(bool(doc["witnesses"]), "check process: optimum has no three-zero witness")

        args = ["check", "--input", str(inp["optimum_file"])]
        rec.op("cli", lambda: T("cli.process", run_cli_process, args), check)

    return [
        ("hardy", SHARES["hardy"], hardy_step),
        ("sigma", SHARES["sigma"], sigma_step),
        ("singlet", SHARES["singlet"], singlet_step),
        ("cli", SHARES["cli"], cli_step),
    ]


def slots(rec, scaled: bool = True) -> dict:
    """The four workload slots (see module docstring) in their units.

    A CLI process is never scaled: its time is start-up in a new
    interpreter, which the in-process reference kernel does not follow.
    """
    return {
        "op1_ms": 1e3 * rec.median("hardy", scaled),
        "op2_ms": 1e3 * rec.median("sigma", scaled),
        "op3_ms": 1e3 * rec.median("singlet", scaled),
        "cli_s": rec.median("cli", scaled=False),
    }


def named(rec, s: dict) -> dict:
    v = rec.values
    out = {
        "hardy_search_s": (s["op1_ms"] / 1e3, "s"),
        "sigma_search_s": (s["op2_ms"] / 1e3, "s"),
        "singlet_search_s": (s["op3_ms"] / 1e3, "s"),
        "cli_check_s": (s["cli_s"], "s"),
    }
    for key in ("hardy_pj_abs_err", "hardy_zero_residual", "sigma_abs_err"):
        if v.get(key):
            out[f"quantum.{key}"] = (max(v[key]), "1")
    return out
