"""Trial-level simulation of a behavior and frequency-based hypothesis tests.

Sampling is organized around counter-based streams (Philox) keyed by
``(seed, substream)``: substreams 0..3 hold the outcome draws of the four
setting blocks in block order (a1b1, a1b2, a2b1, a2b2) and substream 4 holds
the settings sequence.  Each trial consumes exactly one double from its
block's stream, so the log produced by `simulate` depends only on ``(seed,
n, policy)`` and not on how the work is sharded: a shard skips the doubles
consumed by earlier trials by advancing the counter in whole 4-word blocks
and discarding the remainder word by word.

Estimation keeps per-block counts and reports Wilson-centered standard
errors (never zero for a nonempty block, so degenerate frequencies at 0 or
1 still yield usable intervals).  `test_inequality` turns the lower and
upper bound of a cell quadruple into one-sided z-tests; `test_signaling`
runs the eight two-proportion marginal comparisons matching the signaling
rows of the constraint system, Bonferroni-corrected.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.stats import norm as _norm

from .behavior import SIGNALING_ROWS, Behavior, Party, is_valid
from .bell import HardyQuadruple

_CSV_HEADER = ["settingA", "settingB", "outcomeA", "outcomeB"]

#: substream holding the settings sequence; 0..3 are the setting blocks.
SETTINGS_SUBSTREAM = 4


def block_rng(seed: int, substream: int, skip: int = 0) -> np.random.Generator:
    """Generator for one substream, positioned after ``skip`` double draws.

    Philox advances in 4-word counter blocks; a double consumes one 64-bit
    word, so skipping means advancing ``skip // 4`` blocks and discarding
    ``skip % 4`` raw words.
    """
    bg = np.random.Philox(key=np.array([seed, substream], dtype=np.uint64))
    if skip:
        bg.advance(skip // 4)
        if skip % 4:
            bg.random_raw(skip % 4)
    return np.random.Generator(bg)


def settings_sequence(n: int, seed: int, policy: str = "uniform") -> np.ndarray:
    """Block ids 0..3 for each trial, in block order a1b1, a1b2, a2b1, a2b2.

    ``uniform`` draws independently from the settings substream (one double
    per trial); ``roundrobin`` cycles deterministically.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if policy == "uniform":
        u = block_rng(seed, SETTINGS_SUBSTREAM).random(n)
        return (u * 4.0).astype(np.uint8)
    if policy == "roundrobin":
        return (np.arange(n) % 4).astype(np.uint8)
    raise ValueError(f"unknown settings policy {policy!r}")


class TrialRecord(NamedTuple):
    setting_a: int
    setting_b: int
    outcome_a: int
    outcome_b: int


class TrialLog(Sequence[TrialRecord]):
    """Columnar container of trials, indexable like a sequence of records."""

    __slots__ = ("settings_a", "settings_b", "outcomes_a", "outcomes_b")

    def __init__(
        self,
        settings_a: np.ndarray,
        settings_b: np.ndarray,
        outcomes_a: np.ndarray,
        outcomes_b: np.ndarray,
    ):
        sa = np.asarray(settings_a, dtype=np.uint8)
        sb = np.asarray(settings_b, dtype=np.uint8)
        oa = np.asarray(outcomes_a, dtype=np.int8)
        ob = np.asarray(outcomes_b, dtype=np.int8)
        if not (len(sa) == len(sb) == len(oa) == len(ob)):
            raise ValueError("column lengths differ")
        for name, col, allowed in (
            ("settings_a", sa, (1, 2)),
            ("settings_b", sb, (1, 2)),
            ("outcomes_a", oa, (-1, 1)),
            ("outcomes_b", ob, (-1, 1)),
        ):
            if len(col) and not np.isin(col, allowed).all():
                raise ValueError(f"{name} contains values outside {allowed}")
        self.settings_a = sa
        self.settings_b = sb
        self.outcomes_a = oa
        self.outcomes_b = ob

    def __len__(self) -> int:
        return len(self.settings_a)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TrialLog(
                self.settings_a[i], self.settings_b[i], self.outcomes_a[i], self.outcomes_b[i]
            )
        return TrialRecord(
            int(self.settings_a[i]),
            int(self.settings_b[i]),
            int(self.outcomes_a[i]),
            int(self.outcomes_b[i]),
        )

    def __iter__(self) -> Iterator[TrialRecord]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialLog):
            return NotImplemented
        return (
            np.array_equal(self.settings_a, other.settings_a)
            and np.array_equal(self.settings_b, other.settings_b)
            and np.array_equal(self.outcomes_a, other.outcomes_a)
            and np.array_equal(self.outcomes_b, other.outcomes_b)
        )

    @staticmethod
    def from_records(records: Iterable[tuple[int, int, int, int]]) -> "TrialLog":
        rows = list(records)
        if not rows:
            return TrialLog.empty()
        cols = list(zip(*rows))
        return TrialLog(
            np.array(cols[0]), np.array(cols[1]), np.array(cols[2]), np.array(cols[3])
        )

    @staticmethod
    def empty() -> "TrialLog":
        z = np.zeros(0, dtype=np.uint8)
        return TrialLog(z, z, z.astype(np.int8), z.astype(np.int8))

    @staticmethod
    def concat(parts: Sequence["TrialLog"]) -> "TrialLog":
        if not parts:
            return TrialLog.empty()
        return TrialLog(
            np.concatenate([p.settings_a for p in parts]),
            np.concatenate([p.settings_b for p in parts]),
            np.concatenate([p.outcomes_a for p in parts]),
            np.concatenate([p.outcomes_b for p in parts]),
        )

    def block_ids(self) -> np.ndarray:
        return ((self.settings_a - 1) * 2 + (self.settings_b - 1)).astype(np.uint8)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_CSV_HEADER)
            for i in range(len(self)):
                w.writerow(
                    [
                        int(self.settings_a[i]),
                        int(self.settings_b[i]),
                        f"{int(self.outcomes_a[i]):+d}",
                        f"{int(self.outcomes_b[i]):+d}",
                    ]
                )

    @staticmethod
    def from_csv(path: str | Path) -> "TrialLog":
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, None)
            if header != _CSV_HEADER:
                raise ValueError(f"bad header {header!r}, expected {_CSV_HEADER!r}")
            rows = [(int(x[0]), int(x[1]), int(x[2]), int(x[3])) for x in r]
        return TrialLog.from_records(rows)


def simulate(
    b: Behavior,
    n: int,
    seed: int,
    policy: str = "uniform",
    n_shards: int = 1,
) -> TrialLog:
    """Draw ``n`` trials from a behavior.

    Cells must be valid probabilities; each sampled block is renormalized to
    its own total, which must be positive.  The result is identical for any
    ``n_shards`` (sharding only controls how the streams are consumed), which
    the test suite pins down.
    """
    if not is_valid(b):
        raise ValueError("behavior cells must lie in [0, 1]")
    if n_shards < 1:
        raise ValueError("n_shards must be positive")
    ids = settings_sequence(n, seed, policy)
    block_cum: list[np.ndarray | None] = []
    for j in (1, 2):
        for k in (1, 2):
            cells = np.array(b.block(j, k))
            total = cells.sum()
            if total <= 0.0:
                block_cum.append(None)
                continue
            cum = np.cumsum(cells / total)
            cum[-1] = 1.0
            block_cum.append(cum)

    bounds = [s * n // n_shards for s in range(n_shards + 1)]
    parts: list[TrialLog] = []
    for s in range(n_shards):
        start, end = bounds[s], bounds[s + 1]
        ids_s = ids[start:end]
        prefix = np.bincount(ids[:start], minlength=4)
        oa = np.empty(end - start, dtype=np.int8)
        ob = np.empty(end - start, dtype=np.int8)
        for g in range(4):
            where = np.nonzero(ids_s == g)[0]
            if not len(where):
                continue
            cum = block_cum[g]
            if cum is None:
                j, k = 1 + g // 2, 1 + g % 2
                raise ValueError(f"block ({j},{k}) has zero total probability")
            u = block_rng(seed, g, skip=int(prefix[g])).random(len(where))
            idx = np.searchsorted(cum, u, side="right")
            oa[where] = 1 - 2 * (idx >> 1)
            ob[where] = 1 - 2 * (idx & 1)
        parts.append(
            TrialLog(1 + (ids_s >> 1), 1 + (ids_s & 1), oa, ob)
        )
    return TrialLog.concat(parts)


def _wilson_stderr(x: np.ndarray, n: int) -> np.ndarray:
    # centered binomial stderr; strictly positive even at x = 0 or x = n
    p = x / n
    return np.sqrt(p * (1.0 - p) / n + 0.25 / (n * n)) / (1.0 + 1.0 / n)


@dataclass(frozen=True)
class SampleStats:
    """Per-cell counts, frequencies and standard errors from a trial log.

    ``counts[g][o]`` is the count of outcome pair ``o`` (block-local offset
    0..3) in block ``g``; ``freq``/``stderr`` are indexed like behavior cells
    (position ``i - 1`` for cell ``i``).  Cells of an empty block carry
    frequency 0 and infinite standard error.
    """

    counts: tuple[tuple[int, int, int, int], ...]
    trials_per_block: tuple[int, int, int, int]
    freq: tuple[float, ...]
    stderr: tuple[float, ...]

    @staticmethod
    def from_counts(counts: Sequence[Sequence[int]]) -> "SampleStats":
        c = np.asarray(counts, dtype=np.int64)
        if c.shape != (4, 4) or (c < 0).any():
            raise ValueError("counts must be a 4x4 table of nonnegative integers")
        per_block = c.sum(axis=1)
        freq = np.zeros(16)
        err = np.full(16, math.inf)
        for g in range(4):
            n_g = int(per_block[g])
            if n_g == 0:
                continue
            freq[4 * g : 4 * g + 4] = c[g] / n_g
            err[4 * g : 4 * g + 4] = _wilson_stderr(c[g], n_g)
        return SampleStats(
            counts=tuple(tuple(int(v) for v in row) for row in c),
            trials_per_block=tuple(int(v) for v in per_block),
            freq=tuple(float(v) for v in freq),
            stderr=tuple(float(v) for v in err),
        )

    def p_hat(self, cell: int) -> float:
        return self.freq[cell - 1]

    def stderr_of(self, cell: int) -> float:
        return self.stderr[cell - 1]

    def derived_behavior(self) -> Behavior:
        if min(self.trials_per_block) == 0:
            raise ValueError("cannot derive a behavior: some block has no trials")
        return Behavior(self.freq)

    def to_json_dict(self) -> dict:
        return {
            "counts": [list(row) for row in self.counts],
            "trials_per_block": list(self.trials_per_block),
            "freq": list(self.freq),
            "stderr": [None if math.isinf(e) else e for e in self.stderr],
        }


def estimate(log: TrialLog) -> SampleStats:
    """Tabulate a trial log into per-cell statistics."""
    ids = log.block_ids()
    offs = ((1 - log.outcomes_a.astype(np.int64)) + (1 - log.outcomes_b.astype(np.int64)) // 2).astype(
        np.int64
    )
    flat = np.bincount(ids.astype(np.int64) * 4 + offs, minlength=16)
    return SampleStats.from_counts(flat.reshape(4, 4))


@dataclass(frozen=True)
class InequalityTestResult:
    """One-sided z-tests of both bounds of a cell quadruple.

    The four cells live in four distinct blocks, so their sampling errors
    are independent and combine in quadrature.  ``inconclusive`` is set when
    an involved block has no trials; the violation flags are then False.
    """

    quadruple: HardyQuadruple
    alpha: float
    lower_slack: float
    upper_slack: float
    stderr: float
    z_lower: float
    z_upper: float
    violated_lower: bool
    violated_upper: bool
    inconclusive: bool

    @property
    def violated(self) -> bool:
        return self.violated_lower or self.violated_upper

    def to_json_dict(self) -> dict:
        return {
            "quadruple": self.quadruple.to_json_dict(),
            "alpha": self.alpha,
            "lower_slack": self.lower_slack,
            "upper_slack": self.upper_slack,
            "stderr": self.stderr,
            "z_lower": None if math.isnan(self.z_lower) else self.z_lower,
            "z_upper": None if math.isnan(self.z_upper) else self.z_upper,
            "violated_lower": self.violated_lower,
            "violated_upper": self.violated_upper,
            "inconclusive": self.inconclusive,
        }


def test_inequality(
    stats: SampleStats, q: HardyQuadruple, alpha: float = 0.01
) -> InequalityTestResult:
    """Test both bounds ``pj <= pk + pl + pm <= 1 + pj`` on sample frequencies.

    A bound counts as violated when its estimated slack is below zero by
    more than ``z_alpha`` standard errors (one-sided test at level alpha).
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")
    cells = q.cells()
    blocks = {(c - 1) // 4 for c in cells}
    if len(blocks) != 4:
        raise AssertionError("quadruple cells must span all four blocks")
    if any(stats.trials_per_block[g] == 0 for g in blocks):
        return InequalityTestResult(
            quadruple=q,
            alpha=alpha,
            lower_slack=math.nan,
            upper_slack=math.nan,
            stderr=math.inf,
            z_lower=math.nan,
            z_upper=math.nan,
            violated_lower=False,
            violated_upper=False,
            inconclusive=True,
        )
    pj, pk, pl, pm = (stats.p_hat(c) for c in cells)
    se = math.sqrt(sum(stats.stderr_of(c) ** 2 for c in cells))
    lower = (pk + pl + pm) - pj
    upper = 1.0 + pj - (pk + pl + pm)
    z_alpha = float(_norm.ppf(1.0 - alpha))
    return InequalityTestResult(
        quadruple=q,
        alpha=alpha,
        lower_slack=lower,
        upper_slack=upper,
        stderr=se,
        z_lower=lower / se,
        z_upper=upper / se,
        violated_lower=lower / se < -z_alpha,
        violated_upper=upper / se < -z_alpha,
        inconclusive=False,
    )


@dataclass(frozen=True)
class SignalingTestRow:
    """Two-proportion comparison of one marginal across the far setting."""

    party: Party
    setting: int
    outcome: int
    z: float
    p_value: float
    significant: bool
    inconclusive: bool

    def to_json_dict(self) -> dict:
        return {
            "party": self.party.value,
            "setting": self.setting,
            "outcome": self.outcome,
            "z": None if math.isnan(self.z) else self.z,
            "p_value": None if math.isnan(self.p_value) else self.p_value,
            "significant": self.significant,
            "inconclusive": self.inconclusive,
        }


@dataclass(frozen=True)
class SignalingReport:
    """Eight marginal comparisons in the order of the signaling constraint rows.

    Row significance is judged at ``alpha / 8`` (Bonferroni), so the overall
    false-detection rate stays at alpha.
    """

    rows: tuple[SignalingTestRow, ...]
    alpha: float

    @property
    def detected(self) -> bool:
        return any(r.significant for r in self.rows)

    @property
    def inconclusive(self) -> bool:
        return any(r.inconclusive for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "detected": self.detected,
            "inconclusive": self.inconclusive,
            "rows": [r.to_json_dict() for r in self.rows],
        }


def test_signaling(stats: SampleStats, alpha: float = 0.01) -> SignalingReport:
    """Two-proportion pooled z-tests for all eight marginal comparisons."""
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")
    rows = []
    threshold = alpha / 8.0
    counts = [x for row in stats.counts for x in row]

    def marginal(cells: tuple[int, int]) -> tuple[int, int]:
        # count of the marginal outcome, trials of the block holding both cells
        return sum(counts[c - 1] for c in cells), stats.trials_per_block[(cells[0] - 1) // 4]

    for party, setting, outcome, far1, far2 in SIGNALING_ROWS:
        x1, n1 = marginal(far1)
        x2, n2 = marginal(far2)
        if n1 == 0 or n2 == 0:
            rows.append(
                SignalingTestRow(party, setting, outcome, math.nan, math.nan, False, True)
            )
            continue
        pooled = (x1 + x2) / (n1 + n2)
        var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
        if var == 0.0:
            rows.append(SignalingTestRow(party, setting, outcome, 0.0, 1.0, False, False))
            continue
        z = (x1 / n1 - x2 / n2) / math.sqrt(var)
        p = 2.0 * float(_norm.sf(abs(z)))
        rows.append(SignalingTestRow(party, setting, outcome, z, p, p < threshold, False))
    return SignalingReport(rows=tuple(rows), alpha=alpha)
