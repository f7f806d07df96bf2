"""Command-line interface: JSON contracts, exit codes, file handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardybox
from hardybox.behavior import save_behavior, uniform_behavior
from hardybox.boxes import build_box, load_box
from hardybox.cli import main


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
        assert doc["probs"] == list(build_box("pr").behavior.probs)

    def test_wrong_count(self, capsys):
        code, _, err = run(capsys, "complete", "--variant", "s1", "--free", "0.5,0.5")
        assert code == 2
        assert "8" in err

    def test_not_numbers(self, capsys):
        code, _, _ = run(capsys, "complete", "--variant", "s1", "--free", "a,b,c,d,e,f,g,h")
        assert code == 2


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
