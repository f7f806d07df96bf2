"""The JSON of every printed record, and the CLI's stdout, pinned byte for byte.

Each record below is built by hand and its `to_json_dict()` compared with a
dict literal written out in full.  Comparing the `json.dumps` text as well
pins the key order at every level and tells ``1`` from ``1.0``.

The files under ``tests/data/cli`` are the stdout of the commands in
`GOLDEN` and `HELP`; regenerate one with, e.g.,
``python -m hardybox enumerate > tests/data/cli/enumerate.json`` or
``COLUMNS=80 python -m hardybox check --help > tests/data/cli/help_check.txt``.
Every number in them is a dyadic rational or a literal of `hardybox.boxes`
or of the command line, so no difference in summation order or libm rounding
between platforms can change them; `simulate`'s trials come from the pinned
Philox streams.

`json_text` writes every document; `json.dumps(value, indent=2,
allow_nan=False)` is its oracle here.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hardybox import cli
from hardybox.behavior import Party, json_text
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
    "check_mermin.json": ["check", "--box", "mermin"],
    "check_hardy_pattern_a.json": ["check", "--box", "hardy_pattern_a"],
    "check_hardy_pattern_b.json": ["check", "--box", "hardy_pattern_b"],
    # two trials: blocks (1,1) and (1,2) empty, the two A2 rows of zero pooled variance
    "simulate_empty_blocks.json": [
        "simulate", "--box", "mermin", "--n", "2", "--seed", "1", "--quadruple", "1:13",
    ],
}


#: the stdout of ``hardybox [COMMAND] --help`` at 80 columns
HELP = {"help.txt": ["--help"]} | {
    f"help_{command.replace('-', '_')}.txt": [command, "--help"]
    for command in (
        "check", "enumerate", "complete", "quantum-max", "tsirelson", "simulate", "examples",
    )
}
PINNED = {**GOLDEN, **HELP}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's exits: 2 on a bad argument, 0 after --help
        return exc.code


@pytest.mark.parametrize("name", PINNED)
def test_golden_stdout(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code = _exit_code(PINNED[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()



def test_reused_parser_prints_every_pinned_stdout(capsys, monkeypatch, tmp_path):
    # `main` keeps one parser for the process; a call that failed before it,
    # or a different subcommand, must not change what the next call prints
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "refused.json"
    config.write_text(json.dumps({"starts": 1, "constraint_tol": 1e-300}))
    failing = [
        (["check", "--box", "mermin", "--tol", "nan"], 2),  # argparse refuses the value
        (["complete", "--variant", "s1", "--free", "0.5,0.5"], 2),  # SchemaError at free
        (["quantum-max", "--quadruple", "1:13", "--config", str(config)], 1),  # no start qualifies
    ]
    parser = cli._parser()
    for name in [*PINNED, *reversed(PINNED)]:
        for argv, code in failing:
            assert _exit_code(argv) == code, argv
            assert capsys.readouterr().out == ""
        assert _exit_code(PINNED[name]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes(), name
    assert cli._parser() is parser


_TEXT = st.text(st.characters(exclude_categories=()))  # control, non-ASCII, lone surrogates
_KEYS = st.one_of(
    _TEXT, st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.none()
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 10**400) | st.integers(-(10**400), -(2**64)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    _TEXT,
)
#: what json.dumps refuses: NaN and infinities (ValueError), values and keys
#: of no JSON type (TypeError)
_REFUSED = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64(math.nan), np.bool_(True), np.int64(7), {1, 2}]
)
_REFUSED_KEYS = st.sampled_from([math.nan, math.inf, -math.inf, np.int64(7), (1, 2)])


def _json_values(scalars, keys):
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=5).map(tuple),
            st.dictionaries(keys, inner, max_size=5),
        ),
        max_leaves=30,
    )


def _written(write, value):
    """The text ``write`` makes of ``value``, or the type and args of what it raises."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), exc.args


def _dumps(value):
    return json.dumps(value, indent=2, allow_nan=False)


@given(_json_values(_SCALARS, _KEYS))
def test_json_text_is_json_dumps(value):
    assert json_text(value) == _dumps(value)


@given(_json_values(_SCALARS | _REFUSED, _KEYS | _REFUSED_KEYS))
@example({"a": [math.nan], (1, 2): 0})  # a value's ValueError before a later key's TypeError
@example({np.int64(7): math.nan})  # a key's TypeError before its value's ValueError
def test_json_text_refuses_as_json_dumps(value):
    # the first offending item in document order decides the exception
    assert _written(json_text, value) == _written(_dumps, value)


@pytest.mark.parametrize(
    "value, error",
    [
        (math.nan, ValueError),
        (math.inf, ValueError),
        (-math.inf, ValueError),
        (np.float64(-math.inf), ValueError),
        (np.bool_(False), TypeError),
        (np.int64(1), TypeError),
        ({1.0}, TypeError),
    ],
)
@pytest.mark.parametrize(
    "place",
    [lambda v: v, lambda v: [1.0, v], lambda v: {"a": ({"b": [v]},)}],
    ids=["alone", "in-list", "nested"],
)
def test_json_text_refusals(value, error, place):
    doc = place(value)
    with pytest.raises(error) as want:
        _dumps(doc)
    with pytest.raises(error) as got:
        json_text(doc)
    assert got.value.args == want.value.args
