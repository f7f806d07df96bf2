"""The JSON of every printed record, and the CLI's stdout, pinned byte for byte.

Each record below is built by hand and its `to_json_dict()` compared with a
dict literal written out in full.  Comparing the `json.dumps` text as well
pins the key order at every level and tells ``1`` from ``1.0``.

The files under ``tests/data/cli`` are the stdout of the commands in
`GOLDEN`; regenerate one with, e.g.,
``python -m hardybox enumerate > tests/data/cli/enumerate.json``.  Every
number in them is a dyadic rational or a literal of `hardybox.boxes`, so no
difference in summation order or libm rounding between platforms can change
them.
"""

import json
import math
from pathlib import Path

import pytest

from hardybox.behavior import Party
from hardybox.bell import ChReport, ChshReport, quadruple_for
from hardybox.cli import main
from hardybox.montecarlo import (
    InequalityTestResult,
    SampleStats,
    SignalingReport,
    SignalingTestRow,
)
from hardybox.quantum import (
    BlochDirection,
    MeasurementSettings,
    OptimizerConfig,
    PerfectCorrelationReport,
    SearchDiagnostics,
    SigmaOptimum,
    TwoQubitState,
)

NAN, INF = math.nan, math.inf

Q113 = quadruple_for(1, 13)
Q113_JSON = {"family": 1, "j": 13, "k": 4, "l": 5, "m": 9}

STATE = TwoQubitState((0.5, 0.5j, -0.5, 0.5 - 0.25j))
STATE_JSON = {"amplitudes": [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.5, -0.25]]}

SETTINGS = MeasurementSettings(
    BlochDirection(0.25), BlochDirection(0.5, 1.5), BlochDirection(1.0, -2.0), BlochDirection(0.0)
)
SETTINGS_JSON = {
    "a1": {"theta": 0.25, "phi": 0.0},
    "a2": {"theta": 0.5, "phi": 1.5},
    "b1": {"theta": 1.0, "phi": -2.0},
    "b2": {"theta": 0.0, "phi": 0.0},
}

DIAGNOSTICS = SearchDiagnostics(
    starts_tried=3,
    starts_feasible=2,
    winning_start=1,
    kernel_evaluations=40,
    max_constrained_cell=1.5e-12,
    stationarity_residual=2.5e-9,
)
DIAGNOSTICS_JSON = {
    "starts_tried": 3,
    "starts_feasible": 2,
    "winning_start": 1,
    "kernel_evaluations": 40,
    "max_constrained_cell": 1.5e-12,
    "stationarity_residual": 2.5e-9,
}

ROW_A = SignalingTestRow(Party.A, 1, -1, NAN, NAN, False, True)
ROW_A_JSON = {
    "party": "A",
    "setting": 1,
    "outcome": -1,
    "z": None,
    "p_value": None,
    "significant": False,
    "inconclusive": True,
}

CASES = {
    "ChshReport": (
        ChshReport(
            tol=1e-9,
            sigma=(1.0, 2.0, 3.0, 4.0),
            sigma_prime=(3.0, 2.0, 1.0, 0.0),
            delta=(-2.0, 0.0, 2.0, 4.0),
            sigma_violations=(False, False, False, True),
            delta_violations=(False, False, False, True),
            consistency_residuals=(0.0, -0.5, 0.25, 0.0),
        ),
        {
            "tol": 1e-9,
            "sigma": [1.0, 2.0, 3.0, 4.0],
            "sigma_prime": [3.0, 2.0, 1.0, 0.0],
            "delta": [-2.0, 0.0, 2.0, 4.0],
            "sigma_violations": [False, False, False, True],
            "delta_violations": [False, False, False, True],
            "consistency_residuals": [0.0, -0.5, 0.25, 0.0],
        },
    ),
    "ChReport": (
        ChReport(
            tol=0.0,
            b_four_term=(-1.0, 0.5, 0.0, -0.25),
            b_full=(-1.0, 0.25, 0.0, -0.25),
            four_term_violations=(False, True, False, False),
            full_violations=(False, True, False, False),
        ),
        {
            "tol": 0.0,
            "b_four_term": [-1.0, 0.5, 0.0, -0.25],
            "b_full": [-1.0, 0.25, 0.0, -0.25],
            "four_term_violations": [False, True, False, False],
            "full_violations": [False, True, False, False],
        },
    ),
    "SampleStats": (
        SampleStats(
            counts=((1, 0, 0, 1), (0, 0, 0, 0), (2, 0, 0, 0), (0, 1, 1, 0)),
            trials_per_block=(2, 0, 2, 2),
            freq=(0.5, 0.0, 0.0, 0.5) + (0.0,) * 4 + (1.0, 0.0, 0.0, 0.0) + (0.0, 0.5, 0.5, 0.0),
            stderr=(0.25,) * 4 + (INF,) * 4 + (0.125,) * 4 + (NAN, 0.25, 0.25, -INF),
        ),
        {
            "counts": [[1, 0, 0, 1], [0, 0, 0, 0], [2, 0, 0, 0], [0, 1, 1, 0]],
            "trials_per_block": [2, 0, 2, 2],
            "freq": [0.5, 0.0, 0.0, 0.5] + [0.0] * 4 + [1.0, 0.0, 0.0, 0.0] + [0.0, 0.5, 0.5, 0.0],
            "stderr": [0.25] * 4 + [None] * 4 + [0.125] * 4 + [None, 0.25, 0.25, None],
        },
    ),
    "InequalityTestResult": (
        InequalityTestResult(
            quadruple=Q113,
            alpha=0.01,
            lower_slack=-0.25,
            upper_slack=NAN,
            stderr=INF,
            z_lower=-INF,
            z_upper=NAN,
            violated_lower=True,
            violated_upper=False,
            inconclusive=False,
        ),
        {
            "quadruple": Q113_JSON,
            "alpha": 0.01,
            "lower_slack": -0.25,
            "upper_slack": None,
            "stderr": None,
            "z_lower": None,
            "z_upper": None,
            "violated_lower": True,
            "violated_upper": False,
            "inconclusive": False,
        },
    ),
    "SignalingTestRow": (ROW_A, ROW_A_JSON),
    "SignalingReport": (
        SignalingReport(
            rows=(ROW_A, SignalingTestRow(Party.B, 2, 1, -2.5, 0.0125, True, False)), alpha=0.05
        ),
        {
            "alpha": 0.05,
            "detected": True,
            "inconclusive": True,
            "rows": [
                ROW_A_JSON,
                {
                    "party": "B",
                    "setting": 2,
                    "outcome": 1,
                    "z": -2.5,
                    "p_value": 0.0125,
                    "significant": True,
                    "inconclusive": False,
                },
            ],
        },
    ),
    "TwoQubitState": (STATE, STATE_JSON),
    "BlochDirection": (BlochDirection(2.0, -0.5), {"theta": 2.0, "phi": -0.5}),
    "MeasurementSettings": (SETTINGS, SETTINGS_JSON),
    "OptimizerConfig": (
        OptimizerConfig(starts=3, constraint_tol=1e-8, seed=7, real_mode=False, product_mode=True),
        {
            "starts": 3,
            "constraint_tol": 1e-8,
            "seed": 7,
            "real_mode": False,
            "product_mode": True,
        },
    ),
    "OptimizerConfig-int-tol": (
        OptimizerConfig(constraint_tol=1),
        {
            "starts": 64,
            "constraint_tol": 1.0,
            "seed": 20201,
            "real_mode": True,
            "product_mode": False,
        },
    ),
    "SearchDiagnostics": (DIAGNOSTICS, DIAGNOSTICS_JSON),
    "SigmaOptimum": (
        SigmaOptimum(
            sigma_index=2,
            minimize=True,
            value=0.5,
            state=STATE,
            settings=SETTINGS,
            diagnostics=DIAGNOSTICS,
        ),
        {
            "sigma_index": 2,
            "minimize": True,
            "value": 0.5,
            "state": STATE_JSON,
            "settings": SETTINGS_JSON,
            "diagnostics": DIAGNOSTICS_JSON,
        },
    ),
    "PerfectCorrelationReport": (
        PerfectCorrelationReport(
            patterns=(Q113, quadruple_for(3, 6)),
            correlations=(1.0, -1.0, 1.0, 1.0),
            deltas=(2.0, 0.0, 0.0, 2.0),
            correlations_ok=True,
            deltas_ok=False,
        ),
        {
            "patterns": [Q113_JSON, {"family": 3, "j": 6, "k": 1, "l": 10, "m": 16}],
            "correlations": [1.0, -1.0, 1.0, 1.0],
            "deltas": [2.0, 0.0, 0.0, 2.0],
            "correlations_ok": True,
            "deltas_ok": False,
            "passed": False,
        },
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_record_json(name):
    record, expected = CASES[name]
    doc = record.to_json_dict()
    assert doc == expected  # lists, not tuples: [1] != (1,)
    # key order at every level, 1 against 1.0, and no NaN or Infinity
    assert json.dumps(doc, allow_nan=False) == json.dumps(expected)


GOLDEN_DIR = Path(__file__).parent / "data" / "cli"

GOLDEN = {
    "enumerate.json": ["enumerate"],
    "examples.json": ["examples"],
    "examples_dump_pr.json": ["examples", "--dump", "pr"],
    "complete_s1.json": ["complete", "--variant", "s1", "--free", ",".join(["0.5"] * 8)],
    "complete_s2p.json": [
        "complete", "--variant", "s2p", "--free", "0.125,0.25,0.375,0.125,0.25,0.375,0.125,0.25",
    ],
    "check_pr.json": ["check", "--box", "pr"],
    "check_kwiat_hardy.json": ["check", "--box", "kwiat_hardy"],
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_stdout(capsys, name):
    code = main(GOLDEN[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
