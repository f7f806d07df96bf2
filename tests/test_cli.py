"""Command-line interface: JSON contracts, exit codes, file handling."""

import importlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import hardybox
from hardybox import cli, montecarlo
from hardybox.behavior import save_behavior, uniform_behavior
from hardybox.boxes import load_box
from hardybox.cli import main
from hardybox.montecarlo import MAX_TRIALS, simulate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCheck:
    def test_named_box(self, capsys):
        doc = run_json(capsys, "check", "--box", "mermin")
        assert doc["valid"] and doc["normalized"] and doc["no_signaling"]
        assert doc["sigma"][0] == pytest.approx(0.82, abs=1e-12)
        assert doc["hardy"]["summary"]["violated"] == 16
        assert any(w["j"] == 13 and w["family"] == 1 for w in doc["witnesses"])

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        save_behavior(uniform_behavior(), path, label="flat")
        doc = run_json(capsys, "check", "--input", str(path))
        assert doc["input"] == "flat"
        assert doc["hardy"]["summary"]["violated"] == 0

    def test_strict_failure(self, capsys):
        code, _, err = run(capsys, "check", "--box", "kwiat_hardy", "--strict")
        assert code == 1
        assert "strict" in err

    def test_strict_pass(self, capsys):
        code, _, _ = run(capsys, "check", "--box", "pr", "--strict")
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--input", "/no/such/file.json")
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"probs": [1, 2]}')
        code, _, err = run(capsys, "check", "--input", str(path))
        assert code == 2
        assert "probs" in err

    def test_integer_beyond_float_range(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"probs": [1' + "0" * 400 + ", 0" * 15 + "]}")
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "error in probs[0]:" in err

    def test_huge_cells_rejected(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"probs": [1e308] * 16}))
        code, out, err = run(capsys, "check", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "error in probs[0]:" in err

    def test_emit_refuses_nan_before_writing(self, capsys):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                cli._emit({"ok": 1.0, "bad": [value]})
            assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("flag", ["--tol", "--eps"])
    def test_bad_tolerance_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--box", "mermin", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_signaling_box_has_null_witnesses(self, capsys):
        doc = run_json(capsys, "check", "--box", "kwiat_hardy")
        assert doc["witnesses"] is None
        assert doc["audit"]["flagged"] is True


class TestEnumerate:
    def test_all(self, capsys):
        doc = run_json(capsys, "enumerate")
        assert doc["count"] == 64
        assert doc["inequalities"][0]["text"].startswith("p")

    def test_family_filter(self, capsys):
        doc = run_json(capsys, "enumerate", "--family", "3")
        assert doc["count"] == 8
        assert all(q["family"] == 3 for q in doc["inequalities"])
        assert all(q["sigma_index"] == 2 for q in doc["inequalities"])


class TestComplete:
    def test_reproduces_pr(self, capsys):
        doc = run_json(
            capsys, "complete", "--variant", "s1", "--free", ",".join(["0.5"] * 8)
        )
        assert doc["probs"] == list(load_box("pr").behavior.probs)

    def test_wrong_count(self, capsys):
        code, _, err = run(capsys, "complete", "--variant", "s1", "--free", "0.5,0.5")
        assert code == 2
        assert "8" in err

    def test_not_numbers(self, capsys):
        code, _, _ = run(capsys, "complete", "--variant", "s1", "--free", "a,b,c,d,e,f,g,h")
        assert code == 2

    @pytest.mark.parametrize(
        "free, index, got",
        [
            ("nan,0,0,0,0,0,0,0", 0, "nan"),
            ("0,1e400,0,0,0,0,0,0", 1, "inf"),
            ("0,0,0,0,0,0,0,-inf", 7, "-inf"),
            # each value is finite, but a completion summing them would not be
            ("1e308,1e308,1e308,0,0,0,0,0", 0, "1e+308"),
        ],
    )
    def test_unbounded_value_names_free(self, capsys, free, index, got):
        code, out, err = run(capsys, "complete", "--variant", "s1", f"--free={free}")
        assert code == 2
        assert out == ""
        assert err == (
            f"error in free: 'free[{index}]' must be a finite number of magnitude "
            f"at most 1e300, got {got}\n"
        )

    @pytest.mark.parametrize("free", ["-0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5", "0.5,-0.25,0,0,0,0,0,0"])
    def test_free_value_as_separate_token(self, capsys, free):
        # a list starting with a minus sign is the value, not an option
        spaced = run(capsys, "complete", "--variant", "s1", "--free", free)
        joined = run(capsys, "complete", "--variant", "s1", f"--free={free}")
        assert spaced == joined
        assert spaced[0] == 0 and json.loads(spaced[1])["probs"]

    def test_bare_trailing_free_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["complete", "--variant", "s1", "--free"])
        assert exc.value.code == 2
        assert "--free: expected one argument" in capsys.readouterr().err

    def test_values_at_the_bound_complete(self, capsys):
        free = ",".join(["-1e300"] * 8)
        doc = run_json(capsys, "complete", "--variant", "s1", f"--free={free}")
        assert all(math.isfinite(p) for p in doc["probs"])


class TestSimulate:
    def test_basic(self, capsys, tmp_path):
        csv_path = tmp_path / "log.csv"
        doc = run_json(
            capsys,
            "simulate", "--box", "mermin", "--n", "20000", "--seed", "7",
            "--quadruple", "1:13", "--alpha", "0.001", "--out-csv", str(csv_path),
        )
        assert doc["inequality"]["violated_lower"] is True
        assert doc["signaling"]["detected"] is False
        assert sum(doc["stats"]["trials_per_block"]) == 20000
        assert csv_path.read_text().count("\n") == 20001

    def test_detects_signaling(self, capsys):
        doc = run_json(capsys, "simulate", "--box", "kwiat_hardy", "--n", "4000", "--seed", "3")
        assert doc["signaling"]["detected"] is True
        assert doc["inequality"] is None

    def test_shards_do_not_change_output(self, capsys):
        a = run_json(capsys, "simulate", "--box", "pr", "--n", "999", "--seed", "5")
        b = run_json(
            capsys, "simulate", "--box", "pr", "--n", "999", "--seed", "5", "--shards", "4"
        )
        assert a == b

    def test_bad_quadruple(self, capsys):
        code, _, _ = run(capsys, "simulate", "--box", "pr", "--n", "10", "--quadruple", "1-13")
        assert code == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--quadruple", "0:0", "error in quadruple: bad quadruple '0:0'"),
        ("--quadruple", "1-13", "error in quadruple: bad quadruple '1-13'"),
        ("--alpha", "0.7", "error: alpha must be in (0, 0.5)"),
        ("--alpha", "0", "error: alpha must be in (0, 0.5)"),
        ("--alpha", "nan", "error: alpha must be in (0, 0.5)"),
    ])
    def test_bad_arguments_rejected_before_drawing(
        self, capsys, monkeypatch, tmp_path, flag, value, message
    ):
        drawn = []

        def recording_simulate(*args, **kwargs):
            drawn.append(args[1])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "simulate", recording_simulate)
        csv_path = tmp_path / "bad.csv"
        argv = ("simulate", "--box", "pr", "--n", "1000", flag, value, "--out-csv", str(csv_path))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(message), err
        assert drawn == [] and not csv_path.exists()

    @pytest.mark.parametrize("name", ["no_such_dir/x.csv", "a_file/x.csv", ""])
    def test_unopenable_out_csv_rejected_before_drawing(self, capsys, monkeypatch, tmp_path, name):
        # a path in a missing directory, one under a file, and a directory:
        # the message opening the file gives, and neither a draw nor a file
        def refuse(*args, **kwargs):
            raise AssertionError("trials were drawn")

        monkeypatch.setattr(montecarlo, "simulate", refuse)
        (tmp_path / "a_file").write_bytes(b"")
        path = tmp_path / name
        with pytest.raises(OSError) as opened:
            open(path, "wb")
        code, out, err = run(capsys, "simulate", "--box", "pr", "--n", "1000", "--out-csv", str(path))
        assert code == 2 and out == ""
        assert err == f"cannot open {path}: {opened.value.strerror}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a_file"]

    @pytest.mark.parametrize("name", ["new_dir", "a_file", "no_such_dir/x", ""])
    def test_out_csv_ending_in_separator_rejected_before_drawing(
        self, capsys, monkeypatch, tmp_path, name
    ):
        # a trailing separator names a directory, which open refuses even when
        # nothing is there yet; the folder it lies in is still checked first
        def refuse(*args, **kwargs):
            raise AssertionError("trials were drawn")

        monkeypatch.setattr(montecarlo, "simulate", refuse)
        (tmp_path / "a_file").write_bytes(b"")
        path = os.path.join(tmp_path, name, "")
        with pytest.raises(OSError) as opened:
            open(path, "wb")
        code, out, err = run(capsys, "simulate", "--box", "pr", "--n", "1000", "--out-csv", path)
        assert code == 2 and out == ""
        assert err == f"cannot open {path}: {opened.value.strerror}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a_file"]

    def test_empty_out_csv_rejected_before_drawing(self, capsys, monkeypatch, tmp_path):
        # an empty path names no file: open("") refuses it, so it is an error,
        # not a request for no log
        def refuse(*args, **kwargs):
            raise AssertionError("trials were drawn")

        monkeypatch.setattr(montecarlo, "simulate", refuse)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(OSError) as opened:
            open("", "wb")
        code, out, err = run(capsys, "simulate", "--box", "mermin", "--n", "1000", "--out-csv", "")
        assert code == 2 and out == ""
        assert err == f"cannot open : {opened.value.strerror}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed(self, capsys, seed):
        code, out, err = run(capsys, "simulate", "--box", "mermin", "--n", "1000", "--seed", seed)
        assert code == 2
        assert err.startswith("error: seed") and out == ""

    def test_too_many_trials(self, capsys):
        code, out, err = run(capsys, "simulate", "--box", "mermin", "--n", str(MAX_TRIALS + 1))
        assert code == 2
        assert err.startswith("error: n ") and out == ""

    def test_empty_blocks_print_valid_json(self, capsys):
        # two trials leave blocks empty: the slacks are undefined and the
        # standard error unbounded, and JSON has only null for them
        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        code, out, err = run(
            capsys, "simulate", "--box", "mermin", "--n", "2", "--seed", "1", "--quadruple", "1:13"
        )
        assert code == 0, err
        ineq = json.loads(out, parse_constant=refuse)["inequality"]
        assert ineq["inconclusive"] is True
        assert [ineq[k] for k in ("lower_slack", "upper_slack", "stderr")] == [None] * 3


class TestExamples:
    def test_list(self, capsys):
        doc = run_json(capsys, "examples")
        names = [b["name"] for b in doc["boxes"]]
        assert names == ["pr", "mermin", "kwiat_hardy", "hardy_pattern_a", "hardy_pattern_b"]
        mermin = next(b for b in doc["boxes"] if b["name"] == "mermin")
        assert mermin["expected"]["sigma_1"] == pytest.approx(0.82)

    def test_dump_matches_box(self, capsys):
        doc = run_json(capsys, "examples", "--dump", "pr")
        assert doc["probs"] == list(load_box("pr").behavior.probs)


class TestQuantumCommands:
    def test_quantum_max_small_budget(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"starts": 12, "seed": 4})
        )
        doc = run_json(capsys, "quantum-max", "--quadruple", "2:5", "--config", str(cfg))
        assert doc["zero_residual"] <= 1e-7
        assert 0.085 <= doc["pj"] <= 0.095
        assert doc["quadruple"] == {"family": 2, "j": 5, "k": 2, "l": 11, "m": 13}
        assert doc["config"]["starts"] == 12
        assert doc["diagnostics"]["starts_tried"] == 12
        assert doc["diagnostics"]["max_constrained_cell"] <= 1e-7

    def test_singlet_only(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"starts": 8, "seed": 4})
        )
        doc = run_json(
            capsys, "quantum-max", "--quadruple", "1:13", "--config", str(cfg), "--singlet-only"
        )
        assert doc["pj"] <= 1e-6
        assert doc["singlet_only"] is True

    def test_tsirelson(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"starts": 12, "seed": 4})
        )
        doc = run_json(capsys, "tsirelson", "--i", "1", "--config", str(cfg))
        assert doc["value"] == pytest.approx(doc["reference"], abs=1e-4)
        assert doc["diagnostics"]["starts_tried"] == 12
        doc = run_json(capsys, "tsirelson", "--i", "1", "--minimize", "--config", str(cfg))
        assert doc["value"] == pytest.approx(2.0 - 2.0**0.5, abs=1e-4)

    def test_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"starts": 2, "budget": 4}))
        code, _, err = run(capsys, "quantum-max", "--config", str(cfg))
        assert code == 2
        assert "config" in err

    @pytest.mark.parametrize("command", ["quantum-max", "tsirelson"])
    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"real_mode": "false"}', "real_mode"),
            ('{"product_mode": 0}', "product_mode"),
            ('{"starts": 2.7}', "starts"),
            ('{"starts": 100000}', "starts"),
            ('{"constraint_tol": NaN}', "constraint_tol"),
            ('{"rounds": 3}', "rounds"),
            ('{"penalty_weights": [100.0]}', "penalty_weights"),
        ],
    )
    def test_bad_config_field_named(self, capsys, tmp_path, command, text, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"error in {field}:" in err

    def test_bad_quadruple_format(self, capsys):
        code, _, _ = run(capsys, "quantum-max", "--quadruple", "13")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--input", "{dir}"],
        ["tsirelson", "--config", "{dir}"],
        ["simulate", "--box", "mermin", "--n", "100", "--out-csv", "{dir}"],
    ],
)
def test_path_that_cannot_be_opened(capsys, tmp_path, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot open {tmp_path}: ")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["check", "--input", "{path}"], '{"probs": [1' + "0" * 5000 + ", 0" * 15 + "]}"),
        (["tsirelson", "--config", "{path}"], '{"starts": 1' + "0" * 5000 + "}"),
    ],
)
def test_integer_past_digit_limit(capsys, tmp_path, argv, text):
    # json.loads refuses such a literal with a plain ValueError, not JSONDecodeError
    path = tmp_path / "doc.json"
    path.write_text(text)
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error in ")
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv", [["check", "--input", "{path}"], ["tsirelson", "--config", "{path}"]]
)
def test_not_utf8_names_root(capsys, tmp_path, argv):
    path = tmp_path / "doc.json"
    path.write_bytes(b'\xff\xfe{"probs": []}')
    code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error in $: ")
    assert "not valid UTF-8" in err


def test_all_holds_every_public_name():
    names = hardybox.__all__
    module = type(hardybox)
    assert len(names) == len(set(names)) == 105
    assert [n for n in names if n.startswith("_")] == ["__version__"]
    assert not [n for n in names if isinstance(getattr(hardybox, n), module)]
    public = {n for n, v in vars(hardybox).items() if not n.startswith("_") and type(v) is not module}
    assert public <= set(names)
    star: dict = {}
    exec("from hardybox import *", star)
    assert set(star) - {"__builtins__"} == set(names)


#: `hardybox.__all__`, pinned: names loaded on first use keep their places
_PUBLIC_NAMES = """
__version__ DEFAULT_TOL OUTCOME_ORDER Behavior CorrelationVector Marginals Party
SchemaError behavior_from_json_dict behavior_to_json_dict block_sums cell_of
correlation correlation_vector index_of is_no_signaling is_normalized is_valid
load_behavior marginals save_behavior uniform_behavior HARDY_QUADRUPLES
SIGMA_PRIME_SUPPORTS SIGMA_SUPPORTS ChReport ChshReport ChValues DeltaValues
EquivalenceAudit HardyQuadruple InequalityCheck SigmaShift SigmaValues
ViolationReport ch_check ch_values ch_values_full chsh_check delta_values
enumerate_hardy_inequalities equivalence_audit hardy_check hardy_witness
local_deterministic_behavior local_vertices quadruple_for sigma_shift_of_hardy
sigma_values BOX_NAMES NamedBox available_boxes hardy_pattern_a_box
hardy_pattern_b_box kwiat_hardy_box load_box mermin_box pr_box ConstraintResiduals
FreeSetId NsBoundResult NsBoundTriple SideCheck complete_from_free_set
completion_roundtrip completion_signs constraint_matrix constraint_residuals
constraint_rhs free_values_of nonneg_side_checks ns_bound_check
random_no_signaling_behavior system_rank SETTINGS_SUBSTREAM InequalityTestResult
SampleStats SignalingReport SignalingTestRow TrialLog TrialRecord block_rng estimate
settings_sequence simulate test_inequality test_signaling HARDY_MAX_PROBABILITY
SIGMA_QUANTUM_MAX SIGMA_QUANTUM_MIN BlochDirection ConvergenceError HardyOptimum
MeasurementSettings OptimizerConfig PerfectCorrelationReport SearchDiagnostics
SigmaOptimum TwoQubitState all_z_settings born_behavior maximize_hardy
maximize_sigma singlet singlet_perfect_correlation_check
""".split()

#: what only the simulator and the searches need
_HEAVY = ["csv", "fractions", "hardybox.montecarlo", "hardybox.quantum", "statistics"]

# Runs cli.main on the arguments, then prints its status and which of HEAVY loaded.
_LOADED_BY_MAIN = """
import contextlib, io, json, sys
from hardybox.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    status = main(sys.argv[2:])
print(json.dumps([status, [m for m in json.loads(sys.argv[1]) if m in sys.modules]]))
"""


class TestLazyLoading:
    def test_import_loads_neither_simulator_nor_searches(self):
        proc = _python(
            "-c",
            "import json, sys, hardybox; print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))",
            *_HEAVY,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--box", "mermin"],
            ["check", "--input", "INPUT"],
            ["enumerate"],
            ["complete", "--variant", "s1", "--free", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5"],
            ["examples"],
            ["examples", "--dump", "pr"],
        ],
    )
    def test_command_loads_neither_simulator_nor_searches(self, tmp_path, argv):
        path = tmp_path / "u.json"
        save_behavior(uniform_behavior(), path)
        argv = [str(path) if a == "INPUT" else a for a in argv]
        proc = _python("-c", _LOADED_BY_MAIN, json.dumps(_HEAVY), *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, []]

    def test_simulate_loads_no_searches(self):
        argv = ["simulate", "--box", "mermin", "--n", "1000", "--quadruple", "1:13"]
        proc = _python("-c", _LOADED_BY_MAIN, json.dumps(_HEAVY), *argv)
        assert proc.returncode == 0, proc.stderr
        status, loaded = json.loads(proc.stdout)
        assert status == 0 and "hardybox.montecarlo" in loaded
        assert "hardybox.quantum" not in loaded

    def test_names_are_the_submodules_own(self):
        lazy = hardybox._LAZY
        assert list(lazy) == _PUBLIC_NAMES[-31:]
        assert set(lazy.values()) == {"montecarlo", "quantum"}
        for name, sub in lazy.items():
            assert getattr(hardybox, name) is getattr(importlib.import_module("hardybox." + sub), name)

    def test_all_and_dir_unchanged(self):
        assert hardybox.__all__ == _PUBLIC_NAMES
        # before any name of montecarlo or quantum is looked up, too
        proc = _python(
            "-c",
            "import sys, hardybox; names = set(dir(hardybox)); "
            "assert names >= set(hardybox.__all__), set(hardybox.__all__) - names; "
            "assert 'hardybox.montecarlo' not in sys.modules and 'hardybox.quantum' not in sys.modules",
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError) as missing:
            hardybox.no_such_name
        assert str(missing.value) == "module 'hardybox' has no attribute 'no_such_name'"
        with pytest.raises(ImportError):
            exec("from hardybox import no_such_name", {})

    def test_from_import_binds_the_submodules(self):
        proc = _python(
            "-c",
            "import sys; from hardybox import montecarlo, quantum; "
            "assert montecarlo is sys.modules['hardybox.montecarlo'], montecarlo; "
            "assert quantum is sys.modules['hardybox.quantum'], quantum",
        )
        assert proc.returncode == 0, proc.stderr

    def test_one_convergence_error(self):
        from hardybox import behavior, quantum

        assert hardybox.ConvergenceError is quantum.ConvergenceError is behavior.ConvergenceError
        with pytest.raises(hardybox.ConvergenceError) as raised:
            raise quantum.ConvergenceError("no start converged")
        again = pickle.loads(pickle.dumps(raised.value))
        assert type(again) is behavior.ConvergenceError and again.args == ("no start converged",)


def test_argparse_exit_code_on_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("module", ["hardybox", "hardybox.cli"])
def test_python_dash_m_entry_point(module):
    src = str(Path(hardybox.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "check", "--box", "pr"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["input"] == "pr"


# Runs the command line with the import of REFUSED and its submodules refused.
_REFUSING = """
import runpy, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if (name + ".").startswith(REFUSED + "."):
            raise ModuleNotFoundError("scipy import refused: " + name, name=name)

sys.meta_path.insert(0, Refuse())
sys.argv[0] = "hardybox"
runpy.run_module("hardybox", run_name="__main__")
"""
_WITHOUT_SCIPY = 'REFUSED = "scipy"' + _REFUSING
# scipy before 1.16, which has no SLSQP kernel module
_WITHOUT_SLSQP_KERNEL = 'REFUSED = "scipy.optimize._slsqplib"' + _REFUSING


def _python(*args):
    src = str(Path(hardybox.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


class TestWithoutScipy:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--box", "mermin"],
            ["enumerate"],
            ["complete", "--variant", "s1", "--free", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5"],
            ["examples"],
            ["simulate", "--box", "mermin", "--n", "10000", "--seed", "7"],
        ],
    )
    def test_command_runs_without_scipy(self, argv):
        blocked = _python("-c", _WITHOUT_SCIPY, *argv)
        assert blocked.returncode == 0, blocked.stderr
        plain = _python("-m", "hardybox", *argv)
        assert plain.returncode == 0, plain.stderr
        assert blocked.stdout == plain.stdout

    @pytest.mark.parametrize("argv", [["tsirelson", "--i", "1"], ["quantum-max"]])
    def test_search_needs_scipy(self, argv):
        # the blocker works: a search imports scipy first, and fails cleanly without it
        proc = _python("-c", _WITHOUT_SCIPY, *argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "search failed: scipy import refused" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_search_names_the_scipy_it_needs(self):
        # a scipy without the SLSQP kernel fails the search cleanly, naming the floor
        proc = _python("-c", _WITHOUT_SLSQP_KERNEL, "quantum-max")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "search failed: scipy import refused: scipy.optimize._slsqplib" in proc.stderr
        assert "(the searches need scipy >= 1.16)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_only_missing_scipy_is_reported(self, capsys, monkeypatch):
        def missing(name):
            def cmd(args):
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)

            return cmd

        monkeypatch.setattr(cli, "cmd_examples", missing("scipy.optimize"))
        code, out, err = run(capsys, "examples")
        assert code == 1 and out == "" and err.startswith("search failed: No module named")
        monkeypatch.setattr(cli, "cmd_examples", missing("yaml"))
        with pytest.raises(ModuleNotFoundError):
            main(["examples"])

    def test_import_loads_no_scipy(self):
        proc = _python(
            "-c",
            "import sys, hardybox; print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [["enumerate"], ["check", "--box", "mermin"]])
def test_closed_stdout_exits_quietly(argv):
    # the read end is closed before the process starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(hardybox.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hardybox", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == b""
