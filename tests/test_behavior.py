"""Cell indexing, behavior validation, marginals and JSON round-trips."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardybox.behavior import (
    DEFAULT_TOL,
    OUTCOME_ORDER,
    Behavior,
    SIGNALING_ROWS,
    Party,
    SchemaError,
    SignalingRow,
    behavior_from_json_dict,
    behavior_to_json_dict,
    block_sums,
    cell_of,
    correlation,
    correlation_vector,
    index_of,
    is_no_signaling,
    is_normalized,
    is_valid,
    load_behavior,
    marginals,
    save_behavior,
    uniform_behavior,
)
from hardybox.boxes import kwiat_hardy_box, mermin_box, pr_box


class TestIndexing:
    def test_corner_cells(self):
        assert index_of(1, 1, 1, 1) == 1
        assert index_of(1, 2, -1, 1) == 7
        assert index_of(2, 2, -1, -1) == 16

    def test_block_layout(self):
        # blocks of four cells in setting-pair order
        assert [index_of(1, 1, *o) for o in OUTCOME_ORDER] == [1, 2, 3, 4]
        assert [index_of(1, 2, *o) for o in OUTCOME_ORDER] == [5, 6, 7, 8]
        assert [index_of(2, 1, *o) for o in OUTCOME_ORDER] == [9, 10, 11, 12]
        assert [index_of(2, 2, *o) for o in OUTCOME_ORDER] == [13, 14, 15, 16]

    def test_cell_of_inverts_index_of(self):
        for i in range(1, 17):
            assert index_of(*cell_of(i)) == i

    @pytest.mark.parametrize("bad", [(0, 1, 1, 1), (1, 3, 1, 1), (1, 1, 0, 1), (1, 1, 1, 2)])
    def test_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            index_of(*bad)

    def test_cell_of_range(self):
        with pytest.raises(ValueError):
            cell_of(0)
        with pytest.raises(ValueError):
            cell_of(17)


class TestBehavior:
    def test_accessors_agree(self):
        b = mermin_box()
        for i in range(1, 17):
            j, k, m, n = cell_of(i)
            assert b.p(i) == b.prob(j, k, m, n)
            assert b.block(j, k)[(i - 1) % 4] == b.p(i)

    @pytest.mark.parametrize("settings", [(0, 1), (1, 3), (3, 1), (1, 0), (2, 3)])
    def test_block_rejects_bad_settings(self, settings):
        b = mermin_box()
        with pytest.raises(ValueError, match=r"settings must be 1 or 2, got \(\d, \d\)"):
            b.block(*settings)
        with pytest.raises(ValueError, match="settings must be 1 or 2"):
            correlation(b, *settings)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            Behavior((0.5,) * 15)

    def test_finite_validation(self):
        probs = [0.0625] * 16
        probs[3] = math.nan
        with pytest.raises(ValueError):
            Behavior(tuple(probs))

    def test_coerces_to_float(self):
        b = Behavior((1,) + (0,) * 15)
        assert all(isinstance(p, float) for p in b.probs)

    def test_p_is_one_based(self):
        b = Behavior(tuple(i / 100 for i in range(16)))
        assert b.p(1) == 0.0
        assert b.p(16) == 0.15
        with pytest.raises(ValueError):
            b.p(0)

    def test_uniform(self):
        b = uniform_behavior()
        assert is_valid(b)
        assert is_normalized(b)
        assert is_no_signaling(b)
        assert block_sums(b) == (1.0, 1.0, 1.0, 1.0)

    def test_is_valid_boundaries(self):
        assert is_valid(Behavior((1.0, 0.0) + (0.0,) * 14))
        assert not is_valid(Behavior((-1e-12,) + (0.0,) * 15))
        assert not is_valid(Behavior((1.0 + 1e-12,) + (0.0,) * 15))

    def test_is_normalized_tolerance(self):
        probs = [0.25, 0.25, 0.25, 0.25 + 5e-9] + [0.25] * 12
        assert not is_normalized(Behavior(tuple(probs)))
        assert is_normalized(Behavior(tuple(probs)), tol=1e-8)


class TestMarginals:
    def test_uniform_marginals(self):
        m = marginals(uniform_behavior())
        assert m.p_a == ((0.5, 0.5), (0.5, 0.5))
        assert m.p_b == ((0.5, 0.5), (0.5, 0.5))

    def test_mermin_marginals_consistent(self):
        # no-signaling: each near-setting marginal is independent of the far setting
        m = marginals(mermin_box())
        for j in range(2):
            assert m.p_a[j][0] == pytest.approx(m.p_a[j][1], abs=1e-12)
        for k in range(2):
            assert m.p_b[k][0] == pytest.approx(m.p_b[k][1], abs=1e-12)

    def test_signaling_detected(self):
        assert not is_no_signaling(kwiat_hardy_box())
        assert is_no_signaling(pr_box())

    def test_marginal_values(self):
        b = kwiat_hardy_box()
        m = marginals(b)
        # block (2,2) puts all weight on (+1, -1)
        assert m.p_a[1][1] == 1.0
        assert m.p_b[1][1] == 0.0

    def test_party_enum(self):
        assert Party.A.value != Party.B.value


# The eight no-signaling rows typed out cell by cell: the derived table must
# keep their cells and their order (constraint rows, test_signaling rows, JSON).
TYPED_SIGNALING_ROWS = (
    SignalingRow(Party.A, 1, 1, (1, 2), (5, 6)),
    SignalingRow(Party.A, 1, -1, (3, 4), (7, 8)),
    SignalingRow(Party.A, 2, 1, (9, 10), (13, 14)),
    SignalingRow(Party.A, 2, -1, (11, 12), (15, 16)),
    SignalingRow(Party.B, 1, 1, (1, 3), (9, 11)),
    SignalingRow(Party.B, 1, -1, (2, 4), (10, 12)),
    SignalingRow(Party.B, 2, 1, (5, 7), (13, 15)),
    SignalingRow(Party.B, 2, -1, (6, 8), (14, 16)),
)


def test_signaling_rows_match_typed_table():
    assert SIGNALING_ROWS == TYPED_SIGNALING_ROWS
    assert repr(SIGNALING_ROWS) == repr(TYPED_SIGNALING_ROWS)


class TestCorrelation:
    def test_pr_correlations(self):
        cv = correlation_vector(pr_box())
        assert cv.as_tuple() == (1.0, 1.0, 1.0, -1.0)

    def test_correlation_matches_definition(self):
        b = mermin_box()
        c = b.p(1) + b.p(4) - b.p(2) - b.p(3)
        assert correlation(b, 1, 1) == pytest.approx(c, abs=1e-15)
        assert correlation_vector(b).c11 == pytest.approx(-0.5, abs=1e-12)


class TestJson:
    def test_round_trip_exact(self):
        b = mermin_box()
        doc = behavior_to_json_dict(b, label="x")
        again, label = behavior_from_json_dict(json.loads(json.dumps(doc)))
        assert again == b
        assert label == "x"

    def test_label_optional(self):
        doc = behavior_to_json_dict(uniform_behavior())
        assert "label" not in doc
        _, label = behavior_from_json_dict(doc)
        assert label is None

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"probs": [0.0625] * 15},
            {"probs": [0.0625] * 15 + ["x"]},
            {"probs": [0.0625] * 15 + [True]},
            {"probs": [0.0625] * 16, "label": 3},
            {"probs": [0.0625] * 16, "extra": 1},
        ],
    )
    def test_schema_errors(self, doc):
        with pytest.raises(SchemaError):
            behavior_from_json_dict(doc)

    def test_schema_error_names_field(self):
        with pytest.raises(SchemaError) as exc:
            behavior_from_json_dict({"label": "x"})
        assert exc.value.field_name == "probs"

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["plus", "minus"])
    def test_integer_beyond_float_range(self, big):
        with pytest.raises(SchemaError) as exc:
            behavior_from_json_dict({"probs": [big] + [0] * 15})
        assert exc.value.field_name == "probs[0]"

    @pytest.mark.parametrize(
        "big",
        [1e301, -1e301, 1.0000000000000002e300, 10**301, 1e308],
        ids=["1e301", "-1e301", "next-float-above-1e300", "integer-10**301", "1e308"],
    )
    def test_magnitude_beyond_1e300_rejected(self, big):
        with pytest.raises(SchemaError) as exc:
            behavior_from_json_dict({"probs": [0.0] * 5 + [big] + [0.0] * 10})
        assert exc.value.field_name == "probs[5]"

    def test_magnitude_1e300_accepted(self):
        b, _ = behavior_from_json_dict({"probs": [1e300, -1e300] * 8})
        assert b.probs == (1e300, -1e300) * 8

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "box.json"
        save_behavior(pr_box(), path, label="pr")
        b, label = load_behavior(path)
        assert b == pr_box()
        assert label == "pr"

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            load_behavior(path)
        assert exc.value.field_name == "$"


@given(st.integers(min_value=1, max_value=16))
def test_index_round_trip_property(i):
    assert index_of(*cell_of(i)) == i


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=16,
        max_size=16,
    )
)
def test_json_round_trip_property(probs):
    b = Behavior(tuple(probs))
    text = json.dumps(behavior_to_json_dict(b))
    again, _ = behavior_from_json_dict(json.loads(text))
    assert again == b


def test_default_tol_value():
    assert DEFAULT_TOL == 1e-9
