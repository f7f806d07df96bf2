"""The JSON of every printed record, and the CLI's stdout, pinned byte for byte.

Each record below is built by hand and its `to_json_dict()` compared with a
dict literal written out in full.  Comparing the `json.dumps` text as well
pins the key order at every level and tells ``1`` from ``1.0``.  Each record
also survives `copy.copy` and `pickle`, and refuses to have a field set.

The files under ``tests/data/cli`` are the stdout of the commands in
`GOLDEN` and `HELP`; regenerate one with, e.g.,
``python -m hardybox enumerate > tests/data/cli/enumerate.json`` or
``COLUMNS=80 python -m hardybox check --help > tests/data/cli/help_check.txt``.
Every number in them is a dyadic rational or a literal of `hardybox.boxes`
or of the command line, so no difference in summation order or libm rounding
between platforms can change them; `simulate`'s trials come from the pinned
Philox streams.  The one exception is ``simulate_calibration.json``: its
frequencies, standard errors and z-scores are IEEE divisions and square
roots, but its signaling p-values come from the C library's ``erfc``.

`json_text` writes every document; `json.dumps(value, indent=2,
allow_nan=False)` is its oracle here.  `ViolationReport` writes its own text
through `json_text`'s one hook, ``__json_text__``; on 2,000 seeded boxes of
five kinds that text is the ``json.dumps`` of its ``to_json_dict``, at three
depths, and so is ``check``'s whole stdout.
"""

import copy
import dataclasses
import functools
import importlib
import inspect
import json
import math
import pickle
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hardybox
from hardybox import cli
from hardybox.behavior import Behavior, Party, cell_of, json_text, to_json
from hardybox.bell import (
    ChReport,
    ChshReport,
    EquivalenceAudit,
    HardyQuadruple,
    InequalityCheck,
    ViolationReport,
    hardy_check,
    local_vertices,
    quadruple_for,
    sigma_values,
)
from hardybox.boxes import mermin_box
from hardybox.cli import main
from hardybox.montecarlo import (
    InequalityTestResult,
    SampleStats,
    SignalingReport,
    SignalingTestRow,
)
from hardybox.quantum import (
    BlochDirection,
    HardyOptimum,
    MeasurementSettings,
    OptimizerConfig,
    PerfectCorrelationReport,
    SearchDiagnostics,
    SigmaOptimum,
    TwoQubitState,
    born_behavior,
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
    "EquivalenceAudit": (
        EquivalenceAudit(
            tol=0.125,
            no_signaling=False,
            delta_sigma=(0.0, -0.0, 0.0, 0.0),
            sigma_pair=(0.0, 0.0, 0.0625, 0.0),
            ch_four_term=(0.0, -0.5, 0.0, 0.0),
            ch_full=(0.25, 0.0, 0.0, -0.125),
        ),
        {
            "tol": 0.125,
            "no_signaling": False,
            "delta_sigma_residuals": [0.0, -0.0, 0.0, 0.0],
            "sigma_pair_residuals": [0.0, 0.0, 0.0625, 0.0],
            "ch_four_term_residuals": [0.0, -0.5, 0.0, 0.0],
            "ch_full_residuals": [0.25, 0.0, 0.0, -0.125],
            "ch_identities_ok": False,
            "flagged": True,
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
    "HardyOptimum": (
        HardyOptimum(
            quadruple=Q113,
            state=STATE,
            settings=SETTINGS,
            pj_value=0.09375,
            zero_residual=1e-20,
            diagnostics=DIAGNOSTICS,
        ),
        {
            "quadruple": Q113_JSON,
            "pj": 0.09375,
            "zero_residual": 1e-20,
            "state": STATE_JSON,
            "settings": SETTINGS_JSON,
            "diagnostics": DIAGNOSTICS_JSON,
        },
    ),
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
    # a copy and a pickle round trip give a record of the same type and value
    for again in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is type(record)
        assert repr(again) == repr(record)
        assert again.to_json_dict() == expected
        if "nan" not in repr(record):  # NaN != NaN, so an unpickled NaN differs
            assert again == record
    assert copy.copy(record) == record  # the same NaN objects compare equal
    first = next(iter(inspect.signature(type(record)).parameters))
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))


def test_six_dataclasses_are_left():
    # four validate in __post_init__; InequalityCheck and ViolationReport stay
    # dataclasses for the benchmark's self-test, which calls dataclasses.replace
    found = {}
    for module in pkgutil.iter_modules(hardybox.__path__):
        if module.name == "__main__":  # runs the command line
            continue
        namespace = vars(importlib.import_module(f"hardybox.{module.name}"))
        for obj in namespace.values():
            if isinstance(obj, type) and obj.__module__ == f"hardybox.{module.name}":
                found[obj.__name__] = obj
    kept = {name for name, cls in found.items() if dataclasses.is_dataclass(cls)}
    assert kept == {
        "Behavior", "NsBoundTriple", "TwoQubitState", "OptimizerConfig", "InequalityCheck", "ViolationReport",
    }
    for name in kept:
        assert found[name].__dataclass_params__.frozen, name
    records = {name for name, cls in found.items() if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert records >= {
        "Marginals", "CorrelationVector", "SigmaValues", "DeltaValues", "ChValues", "HardyQuadruple",
        "ChshReport", "ChReport", "EquivalenceAudit", "SigmaShift", "NamedBox", "ConstraintResiduals",
        "NsBoundResult", "SideCheck", "SampleStats", "InequalityTestResult", "SignalingTestRow",
        "SignalingReport", "BlochDirection", "MeasurementSettings", "SearchDiagnostics", "HardyOptimum",
        "SigmaOptimum", "PerfectCorrelationReport",
    }


def test_record_reprs():
    assert repr(Q113) == "HardyQuadruple(j=13, k=4, l=5, m=9, family=1, sigma_index=1, primed=False)"
    assert repr(DIAGNOSTICS) == (
        "SearchDiagnostics(starts_tried=3, starts_feasible=2, winning_start=1, "
        "kernel_evaluations=40, max_constrained_cell=1.5e-12, stationarity_residual=2.5e-09)"
    )


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
    # the size of one calibration experiment: every block full, the tests conclusive
    "simulate_calibration.json": [
        "simulate", "--box", "mermin", "--n", "500", "--seed", "7", "--quadruple", "3:6", "--alpha", "0.01",
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


def test_to_json_names_the_fields_of_a_record_without_to_json_dict():
    sv = sigma_values(mermin_box())
    doc = to_json(sv)
    assert doc == {"sigma": list(sv.sigma), "sigma_prime": list(sv.sigma_prime)}
    assert json_text(doc) == _dumps({"sigma": sv.sigma, "sigma_prime": sv.sigma_prime})
    assert to_json([sv, (sv,)]) == [doc, [doc]]  # inside arrays too
    report = hardy_check(mermin_box())
    assert to_json(report) == report.to_json_dict()  # a record with its own dict form keeps it


def _pr_boxes():
    """The eight PR boxes: outcome bits a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma."""
    boxes = []
    for n in range(8):
        alpha, beta, gamma = n >> 2, (n >> 1) & 1, n & 1
        cells = [0.0] * 16
        for c in range(1, 17):
            setting_a, setting_b, outcome_a, outcome_b = cell_of(c)
            x, y, a, b = setting_a - 1, setting_b - 1, (1 - outcome_a) // 2, (1 - outcome_b) // 2
            if a ^ b == (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma:
                cells[c - 1] = 0.5
        boxes.append(cells)
    return np.array(boxes)


@functools.cache
def _writer_boxes():
    """2,000 seeded boxes, 400 of each kind: no-signaling mixtures of local
    vertices and PR boxes, block-normalized tables that signal, valid tables
    that are not normalized, Born boxes, and boxes of those four kinds with
    -0.0 and subnormal cells put in."""
    rng = np.random.default_rng(3401)
    extremal = np.vstack([np.array([v.probs for v in local_vertices()]), _pr_boxes()])
    boxes = []
    for _ in range(400):  # a few extremal boxes each, so some cells are exact zeros
        chosen = rng.choice(len(extremal), size=rng.integers(1, 5), replace=False)
        boxes.append(rng.dirichlet(np.ones(len(chosen))) @ extremal[chosen])
    for _ in range(400):
        boxes.append(rng.dirichlet(np.ones(4), size=4).ravel())
    for _ in range(400):
        boxes.append(rng.uniform(0.0, 1.0, 16))
    for _ in range(400):
        amplitudes = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoQubitState(tuple(complex(a) for a in amplitudes / np.linalg.norm(amplitudes)))
        directions = [BlochDirection(*rng.uniform(0.0, math.pi, 2)) for _ in range(4)]
        boxes.append(born_behavior(state, MeasurementSettings(*directions)).probs)
    for i in range(400):
        probs = np.array(boxes[i % 4 * 400 + i // 4], dtype=float)
        cells = rng.choice(16, size=rng.integers(1, 6), replace=False)
        probs[cells] = rng.choice([-0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e-310], size=len(cells))
        boxes.append(probs)
    return [Behavior(tuple(float(x) for x in probs)) for probs in boxes]


def test_writer_boxes_cover_each_kind():
    probs = np.array([b.probs for b in _writer_boxes()])
    blocks = probs.reshape(-1, 4, 4).sum(axis=2)
    marginal_gap = np.abs(probs[:, [0, 1]].sum(axis=1) - probs[:, [4, 5]].sum(axis=1))
    assert len(_writer_boxes()) == 2000
    assert (np.abs(blocks[:400] - 1) < 1e-12).all() and (marginal_gap[:400] < 1e-12).all()
    assert (np.abs(blocks[400:800] - 1) < 1e-12).all() and (marginal_gap[400:800] > 1e-6).mean() > 0.9
    assert (np.abs(blocks[800:1200] - 1) > 1e-6).all()
    assert (probs[:400] == 0).any(axis=1).mean() > 0.5  # exact zeros: Hardy patterns and ties
    tail = probs[1600:]
    assert (np.signbit(tail) & (tail == 0)).any() and ((tail != 0) & (np.abs(tail) < 2.3e-308)).any()
    assert sum(hardy_check(b).summary()["violated"] > 0 for b in _writer_boxes()) > 200


@pytest.mark.parametrize("part", range(4))
def test_report_text_is_json_dumps_of_its_dict(part):
    # the report alone, then at depths 1 and 3 in one document
    for i, b in enumerate(_writer_boxes()[part::4]):
        report = hardy_check(b, (1e-9, 0.0, 0.125)[i % 3])
        doc = report.to_json_dict()
        assert json_text(report) == _dumps(doc)
        assert json_text({"hardy": report, "a": [{"b": report}]}) == _dumps({"hardy": doc, "a": [{"b": doc}]})


def test_check_stdout_is_json_dumps_of_its_dict(capsys, monkeypatch, tmp_path):
    printed = []

    def write(doc):
        printed.append(doc)
        return json_text(doc)

    monkeypatch.setattr(cli, "json_text", write)
    for i, b in enumerate(_writer_boxes()[::10]):
        path = tmp_path / f"box{i}.json"
        path.write_text(json.dumps({"probs": list(b.probs)}), encoding="utf-8")
        assert main(["check", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        doc = printed.pop()
        assert isinstance(doc["hardy"], ViolationReport)
        assert captured.out == _dumps({**doc, "hardy": doc["hardy"].to_json_dict()}) + "\n"
        assert captured.err.endswith(f"hardy_violations={doc['hardy'].summary()['violated']}\n")


MERMIN_CHECKS = hardy_check(mermin_box()).checks
with np.errstate(over="ignore", invalid="ignore"):
    OVERFLOWED = hardy_check(Behavior((1e308,) * 16))  # finite cells, slacks of infinity


@dataclasses.dataclass(frozen=True)
class _OwnRow(InequalityCheck):
    """A check that writes a row of its own."""

    def to_json_dict(self) -> dict:
        return {"slack": self.lower_slack}


def _with_first(**fields):
    return (dataclasses.replace(MERMIN_CHECKS[0], **fields),) + MERMIN_CHECKS[1:]


@pytest.mark.parametrize(
    "report",
    [
        ViolationReport(MERMIN_CHECKS, math.nan),
        ViolationReport(MERMIN_CHECKS, -math.inf),
        ViolationReport(MERMIN_CHECKS, np.float64(1e-9)),
        ViolationReport(MERMIN_CHECKS, 0),
        ViolationReport((), 1e-9),
        ViolationReport(_with_first(lower_slack=np.float64(0.1), upper_slack=np.float64(-0.0)), 1e-9),
        ViolationReport(_with_first(lower_slack=math.inf), math.nan),  # the tol is refused first
        ViolationReport(_with_first(upper_slack=math.inf), 1e-9),
        ViolationReport(_with_first(lower_slack=math.nan), 1e-9),
        OVERFLOWED,
        ViolationReport((_OwnRow(*vars(MERMIN_CHECKS[0]).values()),) + MERMIN_CHECKS[1:], 1e-9),
        ViolationReport(_with_first(lower_slack=np.int64(0)), 1e-9),
        ViolationReport(_with_first(violated_lower=np.bool_(False)), 1e-9),
        ViolationReport(_with_first(violated_upper=1), 1e-9),
        ViolationReport(_with_first(lower_slack=[0.5, {"x": 1}]), 1e-9),  # nested at its line
        # a quadruple equal to a canonical one but not one of its objects, and reversed order
        ViolationReport(_with_first(quadruple=HardyQuadruple(*MERMIN_CHECKS[0].quadruple)), 1e-9),
        ViolationReport(MERMIN_CHECKS[::-1], 1e-9),
        ViolationReport((InequalityCheck(HardyQuadruple(1, 2, 3, 4, 8, 4, True), 0.5, 0.5, False, False),), 1e-9),
    ],
    ids=[
        "nan-tol", "inf-tol", "np-tol", "int-tol", "empty", "np-slacks", "nan-tol-and-slack", "inf-slack", "nan-slack",
        "overflow", "own-row",
        "np-int-slack", "np-bool-flag", "int-flag", "list-slack", "copied-quadruple", "reversed",
        "other-quadruple",
    ],
)
def test_hand_built_report_is_written_or_refused_as_json_dumps(report):
    for place in (lambda r: r, lambda r: {"a": [r]}):
        want = _written(_dumps, place(report.to_json_dict()))
        assert _written(json_text, place(report)) == want
    if isinstance(report.tol, float) and math.isnan(report.tol):
        assert want[0] is ValueError
