"""Named boxes: the JSON dump reproduces each box, expected values recompute."""

import json

import pytest

from hardybox.behavior import behavior_from_json_dict, correlation_vector
from hardybox.bell import ch_values, ch_values_full, hardy_check, hardy_witness, sigma_values
from hardybox.boxes import BOX_NAMES, available_boxes, load_box
from hardybox.cli import main
from hardybox.locality import constraint_residuals


def dumped(capsys, name):
    """The JSON document `examples --dump NAME` prints."""
    assert main(["examples", "--dump", name]) == 0
    return json.loads(capsys.readouterr().out)


class TestRegistry:
    def test_names(self):
        assert available_boxes() == BOX_NAMES
        assert set(BOX_NAMES) == {
            "pr",
            "mermin",
            "kwiat_hardy",
            "hardy_pattern_a",
            "hardy_pattern_b",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown box 'nonlocal9000'; available: pr, mermin,"):
            load_box("nonlocal9000")


class TestDataFiles:
    """A box written as a JSON file by `examples --dump` reads back unchanged."""

    @pytest.mark.parametrize("name", BOX_NAMES)
    def test_file_matches_constructor(self, capsys, name):
        # bitwise equality: the JSON form carries every bit of the constructor's box
        behavior, _ = behavior_from_json_dict(dumped(capsys, name))
        assert behavior == load_box(name).behavior

    @pytest.mark.parametrize("name", BOX_NAMES)
    def test_titles(self, capsys, name):
        _, label = behavior_from_json_dict(dumped(capsys, name))
        assert label == load_box(name).title


def recompute(box, key):
    b = box.behavior
    if key == "sigma_1":
        return sigma_values(b).sigma[0]
    if key == "sigma_1_prime":
        return sigma_values(b).sigma_prime[0]
    if key == "ch_b1":
        return ch_values(b).b[0]
    if key == "ch_b1_four_term":
        return ch_values(b).b[0]
    if key == "ch_b1_full":
        return ch_values_full(b).b[0]
    if key == "correlation_11":
        return correlation_vector(b).c11
    if key == "max_signaling_residual":
        return max(abs(r) for r in constraint_residuals(b).signaling)
    if key == "hardy_violations":
        return hardy_check(b).n_violated
    if key in ("witness_family", "witness_j", "witness_pj"):
        wits = hardy_witness(b)
        expected_fam = box.expected["witness_family"]
        expected_j = box.expected["witness_j"]
        w = next(
            w for w in wits if w.family == expected_fam and w.j == expected_j
        )
        if key == "witness_family":
            return w.family
        if key == "witness_j":
            return w.j
        return b.p(w.j)
    raise KeyError(key)


class TestExpectedValues:
    @pytest.mark.parametrize("name", BOX_NAMES)
    def test_every_expected_entry_recomputes(self, name):
        box = load_box(name)
        assert box.expected, name
        for key, want in box.expected.items():
            assert recompute(box, key) == pytest.approx(want, abs=1e-12), (name, key)

    def test_expected_is_read_only(self):
        box = load_box("pr")
        with pytest.raises(TypeError):
            box.expected["sigma_1"] = 0.0


class TestFileContents:
    @pytest.mark.parametrize("name", BOX_NAMES)
    def test_raw_schema(self, capsys, name):
        doc = dumped(capsys, name)
        assert set(doc) == {"probs", "label"}
        assert len(doc["probs"]) == 16
