"""Cell indexing, behavior validation, marginals and JSON round-trips."""

import enum
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardybox import bell, locality
from hardybox.behavior import (
    DEFAULT_TOL,
    OUTCOME_ORDER,
    Behavior,
    SIGNALING_ROWS,
    Party,
    SchemaError,
    SignalingRow,
    as_int,
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
    to_json,
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


class TestIntegerCellsAndSettings:
    """Cells and settings follow `as_int`: Python or numpy integers, not bools or floats."""

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.0, np.True_, np.float64(1.0)])
    def test_settings_refused(self, bad):
        b = mermin_box()
        calls = (lambda s: index_of(*s, 1, 1), lambda s: b.block(*s), lambda s: b.prob(*s, 1, 1))
        for settings in ((bad, 1), (1, bad)):
            for call in calls:
                with pytest.raises(ValueError) as exc:
                    call(settings)
                assert str(exc.value) == f"settings must be 1 or 2, got ({settings[0]!r}, {settings[1]!r})"

    @pytest.mark.parametrize("bad", [True, False, 1.0, 16.0, np.True_, np.float64(1.0)])
    def test_cells_refused(self, bad):
        b = uniform_behavior()
        for read in (b.p, cell_of):
            with pytest.raises(ValueError) as exc:
                read(bad)
            assert str(exc.value) == f"cell index must be in 1..16, got {bad!r}"

    @pytest.mark.parametrize("bad", [True, False, 1.0, -1.0, np.True_, np.float64(1.0), 0, 2])
    def test_outcomes_refused(self, bad):
        b = mermin_box()
        for outcomes in ((bad, 1), (1, bad), (-1, bad)):
            for call in (index_of, b.prob):
                with pytest.raises(ValueError) as exc:
                    call(1, 2, *outcomes)
                assert str(exc.value) == f"outcomes must be +1 or -1, got ({outcomes[0]!r}, {outcomes[1]!r})"

    @pytest.mark.parametrize("integer", [np.int64, np.int8])
    def test_numpy_outcomes_accepted(self, integer):
        b = mermin_box()
        for i in range(1, 17):
            j, k, m, n = cell_of(i)
            got = index_of(j, k, integer(m), integer(n))
            assert type(got) is int and got == i
            assert b.prob(j, k, integer(m), integer(n)) == b.p(i)

    @pytest.mark.parametrize("integer", [np.int64, np.int8, np.uint64])
    def test_numpy_integers_accepted(self, integer):
        b = mermin_box()
        for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
            got = index_of(integer(j), integer(k), 1, -1)
            assert type(got) is int and got == index_of(j, k, 1, -1)
            assert b.block(integer(j), integer(k)) == b.block(j, k)
        for i in range(1, 17):
            assert b.p(integer(i)) == b.p(i)
            assert cell_of(integer(i)) == cell_of(i)


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
        for n in (0, 1, 15, 17, 32):
            message = rf"^behavior needs 16 probabilities, got {n}$"
            with pytest.raises(ValueError, match=message):
                Behavior((0.0625,) * n)
            with pytest.raises(ValueError, match=message):  # before finiteness
                Behavior((math.nan,) * n)

    def test_finite_validation(self):
        for bad in (math.nan, math.inf, -math.inf, np.float32("inf")):
            for position in (0, 7, 15):
                probs = [0.0625] * 16
                probs[position] = bad
                with pytest.raises(ValueError, match=r"^behavior entries must be finite$"):
                    Behavior(tuple(probs))

    def test_magnitude_bound(self):
        for big in (math.nextafter(1e306, math.inf), -math.nextafter(1e306, math.inf), 1e308):
            probs = [0.0625] * 16
            probs[9] = big
            with pytest.raises(ValueError, match=r"^behavior entries must be at most 1e306 in magnitude$"):
                Behavior(tuple(probs))

    @pytest.mark.parametrize("cells", [(1e306, -1e306) * 8, (-1e306, 1e306) * 8, (1e306,) * 16])
    def test_every_report_is_finite_at_the_bound(self, cells):
        # no report adds up more than 32 cells' worth of coefficients
        b = Behavior(cells)
        with np.errstate(all="raise"):
            reports = [
                marginals(b), correlation_vector(b), block_sums(b), is_no_signaling(b),
                bell.sigma_values(b), bell.delta_values(b), bell.hardy_check(b), bell.ch_check(b),
                bell.equivalence_audit(b), locality.constraint_residuals(b),
                locality.nonneg_side_checks(b),
                *(bell.ch_values_full(b, *via) for via in ((1, 1), (1, 2), (2, 1), (2, 2))),
                *(locality.ns_bound_check(b, q) for q in bell.HARDY_QUADRUPLES),
            ]
        json.dumps([to_json(r) for r in reports], allow_nan=False)  # refuses a NaN or an infinity

    def test_coerces_to_float(self):
        b = Behavior((1,) + (0,) * 15)
        assert all(isinstance(p, float) for p in b.probs)
        cells = (
            [np.float64(0.1), np.float32(0.1), np.int64(1), np.uint8(0), True]
            + [1, 0, Fraction(1, 3), Fraction(-2, 7), 2**60, -3]
            + [0.25, np.float16(0.5), Fraction(10**30, 3), 1e300, -0.0]
        )
        b = Behavior(cells)
        assert [type(p) for p in b.probs] == [float] * 16
        assert list(b.probs) == [float(x) for x in cells]
        assert Behavior(np.arange(16) / 16).probs == tuple(i / 16 for i in range(16))
        assert Behavior(iter([0.25] * 16)) == uniform_behavior()

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


class _Small(enum.IntEnum):
    # an int subclass: not an exact int, so it takes the general path
    SEVEN = 7
    EIGHT = 8


class TestAsInt:
    """The one rule for integer arguments: Python or numpy integers, not bools."""

    @pytest.mark.parametrize("value", [0, 7, np.int8(7), np.int64(3), np.uint64(7), pytest.param(_Small.SEVEN, id="int_enum")])
    def test_integers_in_range_come_back_as_python_ints(self, value):
        got = as_int(value, 0, 7, "x must be 0..7")
        assert type(got) is int and got == int(value)

    @pytest.mark.parametrize(
        "value",
        [
            True, False, np.True_, np.False_, 7.0, 3.5, "7", None, -1, 8, np.int64(-1), np.uint64(2**64 - 1),
            1.0, 2**100, -(2**100), pytest.param(_Small.EIGHT, id="int_enum"),
        ],
    )
    def test_everything_else_refused_naming_the_value(self, value):
        with pytest.raises(ValueError) as exc:
            as_int(value, 0, 7, "x must be 0..7")
        assert str(exc.value) == f"x must be 0..7, got {value!r}"

    def test_unbounded_above(self):
        assert as_int(2**100, 1, math.inf, "w must be an integer >= 1") == 2**100
        assert as_int(np.uint64(2**64 - 1), 0, 2**64 - 1, "w") == 2**64 - 1
