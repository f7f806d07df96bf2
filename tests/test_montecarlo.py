"""Stream determinism, sharding, estimation and the frequency tests.

The pinned stream vectors freeze the exact Philox keying and word layout;
any change to the substream scheme or the skip rule breaks them.
"""

import concurrent.futures
import csv
import hashlib
import io
import math
import os
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardybox import montecarlo
from hardybox.behavior import Behavior, uniform_behavior
from hardybox.bell import HardyQuadruple, quadruple_for
from hardybox.boxes import kwiat_hardy_box, mermin_box, pr_box
from hardybox.montecarlo import (
    MAX_TRIALS,
    SETTINGS_SUBSTREAM,
    SampleStats,
    TrialLog,
    TrialRecord,
    block_rng,
    estimate,
    settings_sequence,
    simulate,
    test_inequality as run_inequality_test,
    test_signaling as run_signaling_test,
)

# first doubles of two substreams under seed 2024
PINNED_SUB0 = (
    0.7539532404108791,
    0.6536530412806927,
    0.8305111850799092,
    0.8281398158238606,
)
PINNED_SUB4 = (
    7.088975559521593e-05,
    0.1872246530291728,
    0.5400308260458145,
    0.8700963871187821,
)
PINNED_UNIFORM_IDS = [0, 0, 2, 3, 2, 2, 0, 3, 1, 0, 1, 1]


class TestStreams:
    def test_pinned_vectors(self):
        assert block_rng(2024, 0).random(4) == pytest.approx(PINNED_SUB0, abs=0.0)
        assert block_rng(2024, SETTINGS_SUBSTREAM).random(4) == pytest.approx(
            PINNED_SUB4, abs=0.0
        )

    def test_substreams_differ(self):
        draws = [block_rng(7, s).random(1)[0] for s in range(5)]
        assert len(set(draws)) == 5

    def test_skip_rule_continues_stream(self):
        # skipping k doubles must land exactly where sequential draws do
        for k in range(10):
            full = block_rng(99, 2).random(k + 8)
            skipped = block_rng(99, 2, skip=k).random(8)
            assert skipped == pytest.approx(full[k:], abs=0.0)

    def test_settings_sequence_pinned(self):
        assert settings_sequence(12, 2024).tolist() == PINNED_UNIFORM_IDS

    def test_roundrobin_cycles(self):
        assert settings_sequence(10, 0, "roundrobin").tolist() == [0, 1, 2, 3] * 2 + [0, 1]

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            settings_sequence(10, 0, "alternate")

    def test_negative_n(self):
        with pytest.raises(ValueError):
            settings_sequence(-1, 0)


class TestTrialLog:
    def test_sequence_protocol(self):
        log = TrialLog.from_records([(1, 1, 1, -1), (2, 1, -1, -1)])
        assert len(log) == 2
        assert log[0] == TrialRecord(1, 1, 1, -1)
        assert list(log)[1].setting_a == 2
        assert isinstance(log[0:1], TrialLog)
        assert len(log[1:]) == 1

    def test_value_validation(self):
        with pytest.raises(ValueError):
            TrialLog.from_records([(3, 1, 1, 1)])
        with pytest.raises(ValueError):
            TrialLog.from_records([(1, 1, 0, 1)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TrialLog(np.array([1]), np.array([1, 2]), np.array([1]), np.array([1]))

    def test_concat_and_equality(self):
        a = TrialLog.from_records([(1, 1, 1, 1)])
        b = TrialLog.from_records([(2, 2, -1, -1)])
        merged = TrialLog.concat([a, b])
        assert len(merged) == 2
        assert merged == TrialLog.from_records([(1, 1, 1, 1), (2, 2, -1, -1)])
        assert (merged == object()) is False
        assert TrialLog.concat([]) == TrialLog.empty()

    def test_block_ids(self):
        log = TrialLog.from_records([(1, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1)])
        assert log.block_ids().tolist() == [0, 1, 2, 3]

    def test_csv_round_trip(self, tmp_path):
        log = simulate(mermin_box(), 200, seed=5)
        path = tmp_path / "trials.csv"
        log.to_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == "settingA,settingB,outcomeA,outcomeB"
        # outcomes always carry an explicit sign
        assert all(line.split(",")[2] in ("+1", "-1") for line in text[1:])
        assert TrialLog.from_csv(path) == log

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,1,+1,+1\n")
        with pytest.raises(ValueError):
            TrialLog.from_csv(path)


class TestSimulate:
    def test_deterministic(self):
        assert simulate(pr_box(), 500, seed=3) == simulate(pr_box(), 500, seed=3)
        assert simulate(pr_box(), 500, seed=3) != simulate(pr_box(), 500, seed=4)

    @pytest.mark.parametrize("policy", ["uniform", "roundrobin"])
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_shard_invariance(self, policy, shards):
        base = simulate(mermin_box(), 997, seed=11, policy=policy)
        assert simulate(mermin_box(), 997, seed=11, policy=policy, n_shards=shards) == base

    def test_prefix_stability(self):
        # extending the run leaves earlier trials untouched
        short = simulate(mermin_box(), 300, seed=21)
        long = simulate(mermin_box(), 600, seed=21)
        assert long[:300] == short

    def test_respects_support(self):
        log = simulate(pr_box(), 400, seed=9)
        stats = estimate(log)
        # anti-correlated cells of block (1,1) never occur
        assert stats.counts[0][1] == 0
        assert stats.counts[0][2] == 0

    def test_invalid_behavior_rejected(self):
        probs = [0.3] * 16
        probs[0] = -0.1
        with pytest.raises(ValueError):
            simulate(Behavior(tuple(probs)), 10, seed=0)

    def test_zero_block_rejected(self):
        probs = [0.0] * 16
        probs[0] = 1.0  # only block (1,1) carries probability
        with pytest.raises(ValueError):
            simulate(Behavior(tuple(probs)), 8, seed=0, policy="roundrobin")

    def test_zero_trials(self):
        log = simulate(pr_box(), 0, seed=1)
        assert len(log) == 0

    def test_bad_shards(self):
        with pytest.raises(ValueError):
            simulate(pr_box(), 10, seed=0, n_shards=0)

    @staticmethod
    def _forbid_drawing(monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(montecarlo, "settings_sequence", no_draw)
        monkeypatch.setattr(montecarlo, "block_rng", no_draw)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 7.0, True, "7", None])
    def test_bad_seed_rejected_before_drawing(self, monkeypatch, seed):
        self._forbid_drawing(monkeypatch)
        with pytest.raises(ValueError, match="^seed"):
            simulate(pr_box(), 10, seed=seed)

    @pytest.mark.parametrize("n", [MAX_TRIALS + 1, -1, 10.0, True])
    def test_bad_n_rejected_before_allocating(self, monkeypatch, n):
        self._forbid_drawing(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^n "):
                simulate(pr_box(), n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limits_accepted(self, monkeypatch):
        # the largest n and seed pass validation and reach the draw
        self._forbid_drawing(monkeypatch)
        with pytest.raises(AssertionError, match="drawn"):
            simulate(pr_box(), MAX_TRIALS, seed=2**64 - 1)
        with pytest.raises(AssertionError, match="drawn"):
            simulate(pr_box(), np.int64(10), seed=np.uint64(5))

    def test_largest_seed_draws(self):
        log = simulate(pr_box(), 100, seed=2**64 - 1)
        assert len(log) == 100


class TestEstimate:
    def test_counts_from_handmade_log(self):
        log = TrialLog.from_records(
            [
                (1, 1, 1, 1),
                (1, 1, 1, -1),
                (1, 1, 1, -1),
                (2, 2, -1, -1),
            ]
        )
        stats = estimate(log)
        assert stats.counts[0] == (1, 2, 0, 0)
        assert stats.counts[3] == (0, 0, 0, 1)
        assert stats.trials_per_block == (3, 0, 0, 1)
        assert stats.p_hat(1) == pytest.approx(1 / 3)
        assert stats.p_hat(2) == pytest.approx(2 / 3)
        assert stats.p_hat(16) == 1.0

    def test_cell_index_range(self):
        stats = SampleStats.from_counts([[1, 2, 3, 4]] * 4)
        for cell in range(1, 17):
            assert stats.p_hat(cell) == stats.freq[cell - 1]
            assert stats.stderr_of(cell) == stats.stderr[cell - 1]
        for cell in (0, 17, -1):
            with pytest.raises(ValueError) as behavior_error:
                uniform_behavior().p(cell)
            for read in (stats.p_hat, stats.stderr_of):
                with pytest.raises(ValueError, match=r"cell index must be in 1\.\.16") as error:
                    read(cell)
                assert str(error.value) == str(behavior_error.value)

    def test_wilson_stderr_arithmetic(self):
        counts = [[9, 91, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]
        stats = SampleStats.from_counts(counts)
        expected = math.sqrt(0.09 * 0.91 / 100 + 1 / 40000) / 1.01
        assert stats.stderr_of(1) == pytest.approx(expected, abs=1e-15)

    def test_stderr_positive_at_extremes(self):
        stats = SampleStats.from_counts([[50, 0, 0, 0]] * 4)
        assert stats.stderr_of(1) > 0.0
        assert stats.stderr_of(2) > 0.0
        assert stats.stderr_of(1) == stats.stderr_of(2)

    def test_empty_block_markers(self):
        stats = SampleStats.from_counts([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
        assert stats.freq[4] == 0.0
        assert math.isinf(stats.stderr[4])
        with pytest.raises(ValueError):
            stats.derived_behavior()

    def test_derived_behavior(self):
        stats = estimate(simulate(mermin_box(), 5000, seed=2))
        b = stats.derived_behavior()
        assert b.p(13) == pytest.approx(0.09, abs=0.03)

    def test_from_counts_validation(self):
        with pytest.raises(ValueError):
            SampleStats.from_counts([[1, 2, 3]])
        with pytest.raises(ValueError):
            SampleStats.from_counts([[-1, 0, 0, 0]] * 4)
        # non-integer tables are refused, not truncated or cast
        with pytest.raises(ValueError, match="4x4 table of nonnegative integers"):
            SampleStats.from_counts([[1.5, 0.5, 0, 0]] * 4)
        with pytest.raises(ValueError, match="4x4 table of nonnegative integers"):
            SampleStats.from_counts([[True, False, False, False]] * 4)


class TestInequalityTest:
    def test_mermin_violation_detected(self):
        stats = estimate(simulate(mermin_box(), 400_000, seed=8))
        res = run_inequality_test(stats, quadruple_for(1, 13), alpha=0.001)
        assert res.violated_lower
        assert not res.violated_upper
        assert res.lower_slack == pytest.approx(-0.09, abs=0.01)
        assert res.z_lower < -3.0
        assert not res.inconclusive

    def test_no_violation_on_uniform(self):
        stats = estimate(simulate(uniform_behavior(), 50_000, seed=8))
        res = run_inequality_test(stats, quadruple_for(1, 13), alpha=0.01)
        assert not res.violated
        assert res.lower_slack > 0.0

    def test_z_arithmetic(self):
        counts = [[0, 25, 25, 0], [0, 25, 25, 0], [0, 25, 25, 0], [10, 20, 20, 0]]
        stats = SampleStats.from_counts(counts)
        q = quadruple_for(1, 13)  # p13 <= p4 + p5 + p9
        res = run_inequality_test(stats, q, alpha=0.01)
        slack = stats.p_hat(4) + stats.p_hat(5) + stats.p_hat(9) - stats.p_hat(13)
        se = math.sqrt(
            sum(stats.stderr_of(c) ** 2 for c in (13, 4, 5, 9))
        )
        assert res.lower_slack == pytest.approx(slack, abs=1e-15)
        assert res.z_lower == pytest.approx(slack / se, abs=1e-12)

    def test_inconclusive_on_empty_block(self):
        stats = SampleStats.from_counts(
            [[5, 5, 5, 5], [0, 0, 0, 0], [5, 5, 5, 5], [5, 5, 5, 5]]
        )
        res = run_inequality_test(stats, quadruple_for(1, 13), alpha=0.01)
        assert math.isnan(res.lower_slack) and math.isnan(res.upper_slack)
        assert res.stderr == math.inf
        assert math.isnan(res.z_lower) and math.isnan(res.z_upper)
        assert res.violated_lower is False and res.violated_upper is False
        assert res.inconclusive is True
        assert not res.violated

    @pytest.mark.parametrize("cells", [(0, 5, 9, 13), (1, 5, 9, 17), (-3, 5, 9, 13), (1, 2, 9, 13)])
    def test_cells_outside_the_four_blocks_rejected(self, cells):
        # cell 0 or -3 would index from the end of the frequency table
        stats = SampleStats.from_counts([[1, 2, 3, 4]] * 4)
        q = HardyQuadruple(*cells, family=1, sigma_index=1, primed=False)
        with pytest.raises(AssertionError, match="span all four blocks"):
            run_inequality_test(stats, q)

    def test_alpha_validation(self):
        stats = estimate(simulate(pr_box(), 100, seed=1))
        with pytest.raises(ValueError):
            run_inequality_test(stats, quadruple_for(1, 13), alpha=0.7)

    def test_json_shape(self):
        stats = estimate(simulate(mermin_box(), 1000, seed=1))
        doc = run_inequality_test(stats, quadruple_for(1, 13)).to_json_dict()
        assert doc["quadruple"]["j"] == 13
        assert isinstance(doc["violated_lower"], bool)


class TestSignalingTest:
    def test_detects_kwiat(self):
        stats = estimate(simulate(kwiat_hardy_box(), 4000, seed=6))
        report = run_signaling_test(stats, alpha=0.01)
        assert report.detected
        assert not report.inconclusive

    def test_clean_on_no_signaling(self):
        stats = estimate(simulate(mermin_box(), 100_000, seed=6))
        report = run_signaling_test(stats, alpha=0.01)
        assert not report.detected

    def test_row_structure(self):
        stats = estimate(simulate(pr_box(), 1000, seed=2))
        report = run_signaling_test(stats)
        assert len(report.rows) == 8
        keys = [(r.party.value, r.setting, r.outcome) for r in report.rows]
        assert keys == [
            ("A", 1, 1), ("A", 1, -1), ("A", 2, 1), ("A", 2, -1),
            ("B", 1, 1), ("B", 1, -1), ("B", 2, 1), ("B", 2, -1),
        ]

    def test_degenerate_pooled_proportion(self):
        # every trial lands in the same outcome: no evidence either way
        counts = [[10, 0, 0, 0]] * 4
        report = run_signaling_test(SampleStats.from_counts(counts))
        assert not report.detected
        for r in report.rows:
            assert r.z == 0.0 and r.p_value == 1.0
            assert r.significant is False and r.inconclusive is False

    def test_inconclusive_on_empty_block(self):
        # block a1b2 is empty: the A1 and B2 rows read it, the A2 and B1
        # rows compare two blocks with every trial in one outcome
        counts = [[10, 0, 0, 0], [0, 0, 0, 0], [10, 0, 0, 0], [10, 0, 0, 0]]
        report = run_signaling_test(SampleStats.from_counts(counts))
        assert report.inconclusive and not report.detected
        for r in report.rows:
            assert r.significant is False
            if (r.party.value, r.setting) in {("A", 1), ("B", 2)}:
                assert math.isnan(r.z) and math.isnan(r.p_value)
                assert r.inconclusive is True
            else:
                assert r.z == 0.0 and r.p_value == 1.0
                assert r.inconclusive is False

    def test_calibration_on_no_signaling_mixture(self):
        # family-wise false detection stays at or below the nominal level
        false_hits = 0
        runs = 60
        for seed in range(runs):
            stats = estimate(simulate(uniform_behavior(), 2000, seed=seed))
            if run_signaling_test(stats, alpha=0.05).detected:
                false_hits += 1
        assert false_hits / runs <= 2 * 0.05


class TestNormalDistribution:
    """The standard-library normal quantile and tail against scipy's."""

    def test_quantile_matches_scipy(self):
        norm = pytest.importorskip("scipy.stats").norm
        for alpha in np.logspace(-12, math.log10(0.5), 400):
            want = norm.ppf(1.0 - alpha)
            assert abs(NormalDist().inv_cdf(1.0 - alpha) - want) <= 1e-12, alpha

    def test_two_sided_tail_matches_scipy(self):
        norm = pytest.importorskip("scipy.stats").norm
        for z in np.linspace(0.0, 37.0, 3701):
            want = 2.0 * norm.sf(z)
            assert math.erfc(z / math.sqrt(2.0)) == pytest.approx(want, rel=1e-12, abs=0.0), z

    def test_signaling_p_values_match_scipy(self):
        norm = pytest.importorskip("scipy.stats").norm
        rows = [
            row
            for box, seed in ((kwiat_hardy_box(), 6), (mermin_box(), 1), (kwiat_hardy_box(), 9))
            for row in run_signaling_test(estimate(simulate(box, 4000, seed=seed))).rows
        ]
        assert any(row.z != 0.0 for row in rows)
        for row in rows:
            want = 2.0 * norm.sf(abs(row.z))
            assert row.p_value == pytest.approx(want, rel=1e-12, abs=0.0)


def _fingerprint(log: TrialLog) -> str:
    h = hashlib.sha256()
    for col in (log.settings_a, log.settings_b, log.outcomes_a, log.outcomes_b):
        h.update(col.tobytes())
    return h.hexdigest()


class TestPinnedLog:
    """The exact log and counts of one simulation, recorded before the
    sort-and-scatter draw replaced the per-block searchsorted one."""

    UNIFORM = "be63a157c5ea85ead6b17520c2b0ad56029f09069f68399549d36b13e4e58f29"
    ROUNDROBIN = "3b7966e12f6425ffe933cb52b942042befcf3af7d618eec3df153992429b7340"
    UNIFORM_COUNTS = (
        (635, 887, 907, 0),
        (0, 1585, 587, 360),
        (0, 581, 1576, 369),
        (233, 356, 327, 1604),
    )
    ROUNDROBIN_COUNTS = (
        (657, 913, 932, 0),
        (0, 1570, 576, 356),
        (0, 578, 1559, 365),
        (233, 352, 327, 1589),
    )

    @pytest.mark.parametrize("shards", [1, 7])
    def test_uniform(self, shards):
        log = simulate(mermin_box(), 10_007, seed=2024, n_shards=shards)
        columns = (log.settings_a, log.settings_b, log.outcomes_a, log.outcomes_b)
        assert [c.dtype for c in columns] == [np.uint8, np.uint8, np.int8, np.int8]
        assert _fingerprint(log) == self.UNIFORM
        assert estimate(log).counts == self.UNIFORM_COUNTS

    def test_roundrobin(self):
        log = simulate(mermin_box(), 10_007, seed=2024, policy="roundrobin")
        assert _fingerprint(log) == self.ROUNDROBIN
        assert estimate(log).counts == self.ROUNDROBIN_COUNTS

    @pytest.mark.parametrize("box", [mermin_box, kwiat_hardy_box, pr_box])
    @pytest.mark.parametrize("n", [400, 2**18 + 3, 3 * 2**18 - 1])
    def test_block_stream_reference(self, box, n):
        # the definition: the i-th trial of block g takes the i-th double u of
        # substream g and lands on searchsorted(cumulative probabilities, u)
        b, seed = box(), 17
        ids = settings_sequence(n, seed)
        outcome = np.empty(n, dtype=np.int64)
        for g in range(4):
            where = np.flatnonzero(ids == g)
            cells = np.array(b.block(1 + g // 2, 1 + g % 2))
            cum = np.cumsum(cells / cells.sum())
            cum[-1] = 1.0
            outcome[where] = np.searchsorted(cum, block_rng(seed, g).random(len(where)), "right")
        want = TrialLog(1 + ids // 2, 1 + ids % 2, 1 - 2 * (outcome // 2), 1 - 2 * (outcome % 2))
        for shards in (1, 3):
            assert simulate(b, n, seed, n_shards=shards) == want

_records = st.lists(
    st.tuples(
        st.sampled_from([1, 2]),
        st.sampled_from([1, 2]),
        st.sampled_from([-1, 1]),
        st.sampled_from([-1, 1]),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(_records)
def test_estimate_matches_counter(records):
    log = TrialLog.from_records(records)
    tally = Counter(list(log))
    stats = estimate(log)
    for g, (sa, sb) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
        for o, (oa, ob) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)]):
            assert stats.counts[g][o] == tally[TrialRecord(sa, sb, oa, ob)]
    assert sum(stats.trials_per_block) == len(records)


class TestTrialLogRange:
    """Values are checked before the narrowing cast, in every integer type."""

    @pytest.mark.parametrize(
        "record, column",
        [
            ((257, 1, 1, 1), "settings_a"),
            ((1, 258, 1, 1), "settings_b"),
            ((1, 1, 255, 1), "outcomes_a"),
            ((1, 1, 1, -255), "outcomes_b"),
            ((1, 1, 1, 257), "outcomes_b"),
            ((-255, 1, 1, 1), "settings_a"),
            ((0, 1, 1, 1), "settings_a"),
            ((1, 1, -129, 1), "outcomes_a"),
            ((2**63 - 1, 1, 1, 1), "settings_a"),
            ((1, 1, 1, -(2**63)), "outcomes_b"),
        ],
    )
    def test_wrapping_values_rejected(self, record, column):
        with pytest.raises(ValueError, match=f"^{column} "):
            TrialLog.from_records([(1, 1, 1, 1), record])

    @pytest.mark.parametrize(
        "dtype",
        [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64],
    )
    def test_accepts_exactly_the_allowed_values(self, dtype):
        info = np.iinfo(dtype)
        candidates = {info.min, info.min + 1, info.max - 1, info.max, 255, 256, 257, 65537}
        candidates |= set(range(-3, 4))
        for v in sorted(c for c in candidates if info.min <= c <= info.max):
            x = np.array([v], dtype=dtype)
            one = np.ones(1, dtype=dtype)
            for name, args, allowed in (
                ("settings_a", (x, one, one, one), (1, 2)),
                ("outcomes_b", (one, one, one, x), (-1, 1)),
            ):
                if v in allowed:
                    assert TrialLog(*args)[0] == TrialRecord(*(int(a[0]) for a in args))
                else:
                    with pytest.raises(ValueError, match=f"^{name} "):
                        TrialLog(*args)

    def test_non_integer_columns_rejected(self):
        one = np.ones(1, dtype=np.int64)
        with pytest.raises(ValueError, match="^settings_b "):
            TrialLog(one, np.array([1.5]), one, one)
        with pytest.raises(ValueError, match="^outcomes_a "):
            TrialLog(one, one, np.array([True]), one)

    def test_csv_wrapping_row_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("settingA,settingB,outcomeA,outcomeB\n1,1,+1,+1\n257,1,+1,-255\n")
        with pytest.raises(ValueError, match="^settings_a holds 257 at row 1"):
            TrialLog.from_csv(path)
        path.write_text("settingA,settingB,outcomeA,outcomeB\n1,1,+1,-255\n")
        with pytest.raises(ValueError, match="^outcomes_b "):
            TrialLog.from_csv(path)

    @pytest.mark.parametrize(
        "row", ["1,1,+1", "1,1,+1,+1,1", "1,x,+1,+1", "1,1,+1.0,+1", "", "1,1,,+1"]
    )
    def test_csv_malformed_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "trials.csv"
        rows = ["settingA,settingB,outcomeA,outcomeB", "1,1,+1,+1", "2,2,-1,-1", row, "1,1,+1,+1"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="^line 4: "):
            TrialLog.from_csv(path)


class TestHelperValidation:
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, None])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="^seed"):
            settings_sequence(10, seed)
        with pytest.raises(ValueError, match="^seed"):
            block_rng(seed, 0)

    @pytest.mark.parametrize("n", [10.5, -1, MAX_TRIALS + 1, True, "10"])
    def test_bad_n(self, n):
        with pytest.raises(ValueError, match="^n "):
            settings_sequence(n, 1)

    def test_limits_accepted(self):
        assert len(settings_sequence(3, 2**64 - 1)) == 3
        assert block_rng(2**64 - 1, 0).random() == block_rng(2**64 - 1, 0).random()

    @pytest.mark.parametrize("shards", [2.5, 0, -3, True, "4", None])
    def test_bad_shards_rejected_before_drawing(self, monkeypatch, shards):
        TestSimulate._forbid_drawing(monkeypatch)
        with pytest.raises(ValueError, match="^n_shards"):
            simulate(pr_box(), 10, seed=0, n_shards=shards)

    def test_shards_beyond_n_are_skipped(self):
        # 37 one-trial shards take milliseconds; a pass over all 10**7 would take seconds
        base = simulate(mermin_box(), 37, seed=4)
        start = time.perf_counter()
        assert simulate(mermin_box(), 37, seed=4, n_shards=10**7) == base
        assert len(simulate(mermin_box(), 0, seed=4, n_shards=10**7)) == 0
        assert time.perf_counter() - start < 0.5
        assert simulate(mermin_box(), 37, seed=4, n_shards=37) == base


def _log_with_codes(codes) -> TrialLog:
    """The log whose trials have the codes 4 * block + outcome pair."""
    codes = np.asarray(codes, dtype=np.int64)
    return TrialLog(
        1 + codes // 8, 1 + codes // 4 % 2, 1 - 2 * (codes // 2 % 2), 1 - 2 * (codes % 2)
    )


def _csv_writer_bytes(log: TrialLog) -> bytes:
    """What `csv.writer` writes for a log: the reference for `to_csv`."""
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["settingA", "settingB", "outcomeA", "outcomeB"])
    for sa, sb, oa, ob in log:
        w.writerow([sa, sb, f"{oa:+d}", f"{ob:+d}"])
    return out.getvalue().encode()


def _reference_from_csv(path) -> TrialLog:
    """The row-by-row `csv.reader` parse: the reference `from_csv` must match."""
    header_want = ["settingA", "settingB", "outcomeA", "outcomeB"]
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header != header_want:
            raise ValueError(f"bad header {header!r}, expected {header_want!r}")
        try:
            rows = [(int(sa), int(sb), int(oa), int(ob)) for sa, sb, oa, ob in r]
        except ValueError as exc:
            msg = f"line {r.line_num}: expected four integer fields ({exc})"
            raise ValueError(msg) from None
    return TrialLog.from_records(rows)


def _outcome(read, path):
    """The log a reader returns, or the type and text of what it raises."""
    try:
        return read(path)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _general_reads():
    """Records the files `from_csv` hands to the row-by-row `csv.reader` path."""
    return mock.patch.object(montecarlo, "_read_csv", wraps=montecarlo._read_csv)


class TestCsvTable:
    """`to_csv` writes the 16-row byte table; `from_csv` decodes it, or parses."""

    def test_to_csv_matches_csv_writer(self, tmp_path):
        log = simulate(mermin_box(), 2000, seed=9)
        path = tmp_path / "trials.csv"
        log.to_csv(path)
        assert path.read_bytes() == _csv_writer_bytes(log)
        every = _log_with_codes(range(16))
        every.to_csv(path)
        assert path.read_bytes() == _csv_writer_bytes(every)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.one_of(
            st.just(0),
            st.just(1),
            st.integers(2, 500),
            st.integers(montecarlo._PIECE + 1, montecarlo._PIECE + 40),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, n, seed):
        codes = np.random.default_rng(seed).integers(0, 16, size=n).astype(np.uint8)
        log = _log_with_codes(codes)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trials.csv"
            log.to_csv(path)
            assert path.stat().st_size == 37 + 11 * n
            with _general_reads() as general:
                back = TrialLog.from_csv(path)
            lf = Path(tmp) / "trials_lf.csv"
            lf.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
            with _general_reads() as general_lf:
                back_lf = TrialLog.from_csv(lf)
        assert back == log
        assert [c.dtype for c in (back.settings_a, back.outcomes_b)] == [np.uint8, np.int8]
        assert general.call_count == 0  # a file `to_csv` wrote is decoded as a table
        assert back_lf == log
        assert general_lf.call_count == 0  # and so is the same file with \n line ends

    @pytest.mark.parametrize(
        "text",
        [
            "settingA,settingB,outcomeA,outcomeB\r\n1,2,+1,-1\n2,1,-1,+1\n",
            "settingA,settingB,outcomeA,outcomeB\n1,2,+1,-1\r\n2,1,-1,+1\n",
            "settingA,settingB,outcomeA,outcomeB\r\n1,2,1,-1\r\n2,1,-1,1\r\n",
            "settingA,settingB,outcomeA,outcomeB\r\n1, 2,+1 ,-1\r\n 2,1,-1,+1\r\n",
            'settingA,settingB,outcomeA,outcomeB\r\n"1",2,"+1",-1\r\n2,"1",-1,+1\r\n',
            '"settingA","settingB","outcomeA","outcomeB"\r\n1,2,+1,-1\r\n2,1,-1,+1\r\n',
            "settingA,settingB,outcomeA,outcomeB\r\n1,2,+1,-1\r\n2,1,-1,+1",
            "settingA,settingB,outcomeA,outcomeB\r\n1,2,+1,-1\r\n2,1,-1,+01\r\n",
        ],
        ids=["lf-rows", "mixed-eol", "unsigned", "padded", "quoted", "quoted-header", "no-final-eol", "zero-pad"],
    )
    def test_non_canonical_files_load_through_csv_reader(self, tmp_path, text):
        path = tmp_path / "trials.csv"
        path.write_bytes(text.encode())
        want = TrialLog.from_records([(1, 2, 1, -1), (2, 1, -1, 1)])
        with _general_reads() as general:
            assert TrialLog.from_csv(path) == want
        assert general.call_count == 1

    def test_lf_file_decodes_as_table(self, tmp_path):
        # a log of two pieces with \n line ends reads back through the byte
        # table, in no more memory than the \r\n file `to_csv` wrote
        n = 2**18 + 1
        log = _log_with_codes(np.random.default_rng(5).integers(0, 16, size=n).astype(np.uint8))
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        log.to_csv(crlf)
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        assert lf.stat().st_size == 36 + 10 * n
        peaks = []
        for path in (crlf, lf):
            tracemalloc.start()
            try:
                with _general_reads() as general:
                    back = TrialLog.from_csv(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert back == log
            assert general.call_count == 0
        assert peaks[1] <= peaks[0], peaks

    def test_one_corrupted_byte_reads_as_before(self, tmp_path):
        # every single-byte substitution in a canonical file is read exactly
        # as the row-by-row parse reads it: the same log or the same error
        log = _log_with_codes([0, 6, 9, 15])
        base = _csv_writer_bytes(log)
        path = tmp_path / "trials.csv"
        replacements = b"0123+-, \"\r\nx\x00\xff"
        cases = 0
        for pos in range(len(base)):
            for byte in replacements:
                if byte == base[pos]:
                    continue
                data = base[:pos] + bytes([byte]) + base[pos + 1 :]
                path.write_bytes(data)
                with _general_reads() as general:
                    got = _outcome(TrialLog.from_csv, path)
                want = _outcome(_reference_from_csv, path)
                assert got == want, (pos, byte)
                canonical = isinstance(want, TrialLog) and _csv_writer_bytes(want) == data
                assert general.call_count == (0 if canonical else 1), (pos, byte)
                cases += 1
        assert cases > 1000

    def test_writing_takes_memory_of_one_piece(self, tmp_path):
        n = 8 * montecarlo._PIECE
        log = _log_with_codes(np.arange(n, dtype=np.uint8) % 16)
        path = tmp_path / "trials.csv"
        tracemalloc.start()
        try:
            log.to_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == 37 + 11 * n
        # a row table of the whole log would take 11 * n bytes
        assert peak < 24 * montecarlo._PIECE


def test_settings_drawn_in_pieces_match_one_draw():
    n, seed = 2 * montecarlo._PIECE + 7, 31
    whole = block_rng(seed, SETTINGS_SUBSTREAM).random(n) * 4.0
    assert np.array_equal(settings_sequence(n, seed), whole.astype(np.uint8))


class TestCodeByte:
    """The code byte 4 * block + outcome pair is the log; columns are views of it."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=300))
    def test_columns_round_trip_through_the_code(self, codes):
        code = np.array(codes, dtype=np.uint8)
        log = TrialLog._of_codes(code)
        columns = (log.settings_a, log.settings_b, log.outcomes_a, log.outcomes_b)
        assert [c.dtype for c in columns] == [np.uint8, np.uint8, np.int8, np.int8]
        rebuilt = TrialLog(*columns)
        assert rebuilt.code.dtype == np.uint8
        assert np.array_equal(rebuilt.code, code)
        assert rebuilt == log
        assert np.array_equal(log.block_ids(), code >> 2)
        for i, c in enumerate(codes):
            want = TrialRecord(*(int(col[i]) for col in columns))
            assert log[i] == want
            assert want == (1 + c // 8, 1 + c // 4 % 2, 1 - 2 * (c // 2 % 2), 1 - 2 * (c % 2))
        assert list(log) == [log[i] for i in range(len(codes))]

    def test_code_above_15_rejected(self):
        for bad in (16, 17, 255):
            with pytest.raises(ValueError, match=f"^trial codes must lie in 0..15, got {bad}"):
                TrialLog._of_codes(np.array([0, 15, bad, 3], dtype=np.uint8))
        assert len(TrialLog._of_codes(np.array([15, 0], dtype=np.uint8))) == 2

    def test_columns_are_read_only(self):
        log = TrialLog.from_records([(1, 2, -1, 1)])
        for name in ("settings_a", "settings_b", "outcomes_a", "outcomes_b"):
            with pytest.raises(AttributeError):
                setattr(log, name, np.ones(1, dtype=np.uint8))
        assert TrialLog.__slots__ == ("code",)

    @pytest.mark.parametrize("shards", [1, 16])
    def test_simulate_and_estimate_take_under_4_bytes_per_trial(self, shards):
        n = 2**22
        b = mermin_box()
        tracemalloc.start()
        try:
            stats = estimate(simulate(b, n, seed=11, n_shards=shards))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(stats.trials_per_block) == n
        assert peak <= 4 * n


def _reference_settings_ids(rng: np.random.Generator, n: int, policy: str) -> np.ndarray:
    # the serial settings draw `simulate` used before its pieces ran on threads
    if policy == "uniform":
        # in pieces, so the doubles never take more than O(_PIECE) memory
        ids = np.empty(n, dtype=np.uint8)
        for i in range(0, n, montecarlo._PIECE):
            u = rng.random(min(montecarlo._PIECE, n - i))
            u *= 4.0
            ids[i : i + len(u)] = u  # the cast truncates 4u to the block id
        return ids
    if policy == "roundrobin":
        return np.resize(np.arange(4, dtype=np.uint8), n)
    raise ValueError(f"unknown settings policy {policy!r}")


def _reference_simulate(b: Behavior, n: int, seed: int, policy: str, n_shards: int) -> TrialLog:
    """The serial loop `simulate` ran before its pieces ran on threads, verbatim."""
    _seek = montecarlo._seek
    _PIECE = montecarlo._PIECE
    # one Philox for the whole call: it draws the settings, then is re-keyed
    # to each block's substream in turn
    rng = block_rng(seed, SETTINGS_SUBSTREAM)
    ids = _reference_settings_ids(rng, n, policy)
    block_cuts: list[np.ndarray | None] = []
    for j in (1, 2):
        for k in (1, 2):
            cells = np.array(b.block(j, k))
            total = cells.sum()
            block_cuts.append(np.cumsum(cells / total)[:3] if total > 0.0 else None)

    drawn = [0, 0, 0, 0]  # doubles taken so far from each block's stream
    pieces = max(min(n_shards, n), -(-n // _PIECE))
    for s in range(pieces):
        start, end = s * n // pieces, (s + 1) * n // pieces
        ids_s = ids[start:end]
        order = np.argsort(ids_s, kind="stable")
        code_sorted = np.empty(end - start, dtype=np.uint8)
        pos = 0
        for g in range(4):
            m = int(np.count_nonzero(ids_s == g))
            if not m:
                continue
            cuts = block_cuts[g]
            if cuts is None:
                j, k = 1 + g // 2, 1 + g % 2
                raise ValueError(f"block ({j},{k}) has zero total probability")
            _seek(rng.bit_generator, seed, g, skip=drawn[g])
            u = rng.random(m)
            out = code_sorted[pos : pos + m]
            np.greater_equal(u, cuts[0], out=out.view(bool))
            out += (u >= cuts[1]).view(np.uint8)
            out += (u >= cuts[2]).view(np.uint8)
            out += 4 * g
            drawn[g] += m
            pos += m
        ids_s[order] = code_sorted  # the piece's ids are done with: codes replace them
    return TrialLog._of_codes(ids)


def _zero_blocks_box() -> Behavior:
    # blocks (1,2) and (2,1) carry no probability, (1,1) and (2,2) all of it
    return Behavior((0.25,) * 4 + (0.0,) * 8 + (0.25,) * 4)


class TestThreads:
    """`simulate` runs its pieces on up to one thread per usable CPU; the log
    is the serial loop's byte for byte, whatever the CPU count."""

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    @pytest.mark.parametrize("policy", ["uniform", "roundrobin"])
    @pytest.mark.parametrize("box", [mermin_box, pr_box, kwiat_hardy_box])
    def test_log_equals_the_serial_loop(self, monkeypatch, box, policy, seed):
        b = box()
        for n in (0, 1, 7, 500, 2**18 - 1, 2**18 + 1, 3 * 2**18 - 1, 10**6 + 3):
            for shards in (1, 2, 3, 16, 37):
                want = _reference_simulate(b, n, seed, policy, shards).code.tobytes()
                for cpus in (1, 2, 5):
                    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda c=cpus: c)
                    got = simulate(b, n, seed, policy, shards).code.tobytes()
                    assert got == want, (n, shards, cpus)

    @staticmethod
    def _first_trials(seed: int, n: int, shards: int) -> dict[int, int]:
        # the piece holding the first trial of each block
        ids = settings_sequence(n, seed)
        return {g: int(np.flatnonzero(ids == g)[0]) * shards // n for g in range(4)}

    def test_error_names_the_serial_loops_block_before_any_outcome(self, monkeypatch):
        # block (2,1) first turns up a piece before block (1,2) does, so the
        # error names (2,1) although (1,2) comes first in block order
        n, shards, seed = 64, 16, 3
        first = self._first_trials(seed, n, shards)
        assert first[2] < first[1]
        b = _zero_blocks_box()
        with pytest.raises(ValueError) as serial:
            _reference_simulate(b, n, seed, "uniform", shards)
        assert str(serial.value) == "block (2,1) has zero total probability"

        seek = montecarlo._seek
        keyed = []

        def recording_seek(bg, seed, substream, skip=0):
            keyed.append(substream)
            return seek(bg, seed, substream, skip)

        monkeypatch.setattr(montecarlo, "_seek", recording_seek)
        threads = threading.active_count()
        for cpus in (1, 2, 5):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda c=cpus: c)
            keyed.clear()
            with pytest.raises(ValueError) as threaded:
                simulate(b, n, seed, "uniform", shards)
            assert str(threaded.value) == str(serial.value)
            assert set(keyed) == {SETTINGS_SUBSTREAM}  # settings drawn, no outcome
            assert threading.active_count() == threads

    def test_threads_are_joined_and_a_worker_failure_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 5)
        started = []
        thread = threading.Thread

        class CountedThread(thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountedThread)
        threads = threading.active_count()
        mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        want = _reference_simulate(mermin_box(), 10_000, 9, "uniform", 8)
        assert simulate(mermin_box(), 10_000, 9, n_shards=8) == want
        assert 1 <= len(started) <= 10  # a pool of at most five threads in each of two phases
        assert threading.active_count() == threads
        # the pool's threads are pinned, the caller's is left as it was
        assert mask is None or os.sched_getaffinity(0) == mask

        settings_ids = montecarlo._settings_ids

        def failing_settings_ids(rng, ids, start, policy):
            if start >= 5_000:
                raise RuntimeError(f"piece at {start} failed")
            return settings_ids(rng, ids, start, policy)

        monkeypatch.setattr(montecarlo, "_settings_ids", failing_settings_ids)
        with pytest.raises(RuntimeError, match="^piece at 5000 failed$"):
            simulate(mermin_box(), 10_000, 9, n_shards=8)
        assert threading.active_count() == threads

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_threads_past_the_last_cpu_run_unpinned(self, monkeypatch):
        # one CPU for five threads, in a list that never tests empty, as it
        # looks to two threads that both see the last CPU before either takes
        # it: the first thread of each phase is pinned, the rest run unpinned
        class NeverEmpty(list):
            def __bool__(self):
                return True

        monkeypatch.setattr(montecarlo, "sorted", lambda cpus: NeverEmpty(sorted(cpus)[:1]), raising=False)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 5)
        pinned, started = [], []
        setaffinity, thread = os.sched_setaffinity, threading.Thread

        class CountedThread(thread):
            def start(self):
                started.append(self)
                super().start()

        def recording(pid, mask):
            pinned.append(mask)
            setaffinity(pid, mask)

        monkeypatch.setattr(os, "sched_setaffinity", recording)
        monkeypatch.setattr(threading, "Thread", CountedThread)
        want = _reference_simulate(mermin_box(), 10**6, 9, "uniform", 8)
        assert simulate(mermin_box(), 10**6, 9, n_shards=8) == want
        assert len(started) > 2 and len(pinned) == 2  # one pinned thread in each of two phases

    def test_many_short_pieces_on_more_threads_than_cores(self, monkeypatch):
        # the pool's workers take pieces off one shared queue; a piece lost
        # or drawn twice would change the log
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        want = _reference_simulate(kwiat_hardy_box(), 300_007, 12, "uniform", 101)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            for _ in range(5):
                assert simulate(kwiat_hardy_box(), 300_007, 12, n_shards=101) == want
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - start < 60.0

    @pytest.mark.parametrize("n", [500, 2**18])
    def test_one_piece_starts_no_thread(self, monkeypatch, n):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_thread)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 5)
        want = _reference_simulate(pr_box(), n, 4, "uniform", 1)
        assert simulate(pr_box(), n, 4) == want

    def test_z_quantile_is_computed_once_per_alpha(self):
        stats = estimate(simulate(mermin_box(), 2_000, seed=1))
        q = quadruple_for(1, 13)
        montecarlo._z_alpha.cache_clear()
        for _ in range(3):
            result = run_inequality_test(stats, q, alpha=0.01)
        info = montecarlo._z_alpha.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        z = NormalDist().inv_cdf(1.0 - 0.01)
        assert montecarlo._z_alpha(0.01) == z
        assert result.violated_lower == (result.z_lower < -z)
