"""Trial-level simulation of a behavior and frequency-based hypothesis tests.

Sampling is organized around counter-based streams (Philox) keyed by
``(seed, substream)``: substreams 0..3 hold the outcome draws of the four
setting blocks in block order (a1b1, a1b2, a2b1, a2b2) and substream 4 holds
the settings sequence.  Each trial consumes exactly one double from its
block's stream, so the log produced by `simulate` depends only on ``(seed,
n, policy)`` and not on how the work is sharded: a shard skips the doubles
consumed by earlier trials by advancing the counter in whole 4-word blocks
and discarding the remainder word by word.

`simulate` draws in ``max(min(n_shards, n, 1024), ceil(n / 2**18))``
consecutive pieces of near-equal size: shards beyond ``n`` would be empty,
and each piece has a fixed cost.  Each piece reads only its own stream
positions, so the pieces run on up to one thread per CPU the process may
use (its affinity mask), each thread pinned to a CPU of its own, and the log
does not depend on the thread count; with one piece or one CPU everything
runs in the calling thread.  The draw has three phases:

1. Settings, per piece: the piece seeks substream 4 to its first trial
   (the skip rule above) and draws one double per trial straight into one
   byte of block id, then counts each block's trials.
2. Block starts, in the caller: running sums of those counts, in piece
   order, give each piece its first double in each block's stream.  A
   block of zero total probability that holds a trial is refused here,
   before any outcome is drawn: the first such (piece, block) in piece
   order, then block order.
3. Outcomes, per piece: a stable sort of the block ids (a radix sort of
   bytes) groups each block's trials; one call draws their doubles, three
   comparisons with the block's cumulative probabilities give each trial's
   code ``4 * block + outcome pair`` as one byte, and a scatter through the
   sort order writes the codes over the block ids.

numpy releases the GIL in the draws, the sort and the scatter, which is
where the time goes.  The threads share half a piece's worth of buffers:
each sorts and draws in runs of ``2**17 / threads`` trials (at least
2**14), so memory does not grow with the CPU count.  The code byte is the log: a
`TrialLog` is one uint8 array of codes, which `estimate` counts and
`to_csv` writes, 2**18 trials at a time.

Philox is counter-based: its whole state is a (key, counter) pair, so one
generator serves any stream position once `_seek` has re-keyed it.
`simulate` therefore builds no generator per call: in the calling thread
it takes one idle ``Generator(Philox)`` per worker from a module-level free
list, `_GENERATORS` (building one only where the list runs short); each
phase of a piece holds one of them and seeks it before every use, and the
call puts them all back when it returns or raises.  List pops and appends
are atomic, so concurrent calls never share a generator.  `block_rng` still
builds a new generator, for callers that keep theirs.

A trial log on disk is CSV: the header ``settingA,settingB,outcomeA,
outcomeB`` and one row per trial such as ``2,1,+1,-1``, every line ended
by ``\\r\\n`` (what `csv.writer` writes).  A trial has only 16 possible
rows, 11 bytes each, so `TrialLog.to_csv` writes them from a 16-row byte
table indexed by the trial's code.
`TrialLog.from_csv` reads the file's bytes; when they are exactly the
header and whole table rows it decodes them as an ``(n, 11)`` byte array,
and likewise as ``(n, 10)`` when every line, the header's too, ends by
``\\n`` instead.  Any other file (mixed line ends, unsigned or padded or
quoted fields, a bad row or value) is parsed row by row with `csv.reader`,
which is also where every error message about a file's content comes from.

Estimation keeps per-block counts and reports Wilson-centered standard
errors (never zero for a nonempty block, so degenerate frequencies at 0 or
1 still yield usable intervals).  `test_inequality` turns the lower and
upper bound of a cell quadruple into asymptotic one-sided z-tests (whose
size exceeds alpha at small n; see its docstring); `test_signaling` runs
the eight two-proportion marginal comparisons matching the signaling rows
of the constraint system, Bonferroni-corrected.  A test that reads an empty
block is inconclusive, with NaN z-scores.  Per-call overhead sets the cost
of a 500-trial experiment, so both tests build their `NamedTuple` records
positionally, `test_signaling` reads one table, `_SIGNAL_CELLS`, and `_seek`
builds its state from Python ints.  Normal quantiles and tails come from the
standard library (`statistics.NormalDist`, `math.erfc`), so this module needs
only numpy.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import os
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .behavior import (
    SIGNALING_ROWS,
    Behavior,
    Party,
    as_int,
    cell_of,
    cell_position,
    is_valid,
    record_to_json,
    to_json,
)
from .bell import HardyQuadruple

_CSV_HEADER = ["settingA", "settingB", "outcomeA", "outcomeB"]

#: substream holding the settings sequence; 0..3 are the setting blocks.
SETTINGS_SUBSTREAM = 4

#: most trials `simulate` accepts.  Simulating and estimating peak at about
#: 1.06 bytes per trial at the cap, 1 of them the log itself (tracemalloc, on
#: two threads, 1 or 16 shards: 63.5 MB at 60M trials, 1.14 bytes per trial
#: at 20M, 1.65-1.80 at 4M); a `simulate` process at the cap peaks at about
#: 101 MiB resident (getrusage), 39 MiB of it present at 1,000 trials.
MAX_TRIALS = 60_000_000

#: most trials `simulate` draws and `estimate` tabulates in one piece; bounds
#: their temporary buffers.
_PIECE = 1 << 18

#: most pieces `simulate` draws in; each adds about 0.06 ms of fixed cost (its
#: seeks, counts, sort and draw calls; 1,024 pieces of 100 trials on one CPU)
_MAX_PIECES = 1024

#: idle ``Generator(Philox)`` objects `simulate` re-keys instead of building
#: its own; see `_take_generators`
_GENERATORS: list[np.random.Generator] = []


def _check_n(n: object) -> int:
    return as_int(n, 0, MAX_TRIALS, f"n must be an integer in 0..{MAX_TRIALS}")


def _check_seed(seed: object) -> int:
    return as_int(seed, 0, 2**64 - 1, "seed must be an integer in 0..2**64 - 1")


def _check_policy(policy: object) -> None:
    if policy not in ("uniform", "roundrobin"):
        raise ValueError(f"unknown settings policy {policy!r}")


def _seek(bg: np.random.Philox, seed: int, substream: int, skip: int = 0) -> np.random.Philox:
    """Re-key ``bg`` to ``(seed, substream)`` and skip ``skip`` doubles.

    Afterwards ``bg`` stands where a new ``Philox(key=[seed, substream])``
    stands after ``skip`` doubles; re-keying through ``state`` costs about a
    fifth of building a Philox, which seeds a `SeedSequence` first.  The state
    is built from Python ints, which the setter reads word by word as uint64
    (three numpy arrays would cost more than the rest of the seek).  Philox
    advances in 4-word counter blocks; a double consumes one 64-bit word, so
    skipping means advancing ``skip // 4`` blocks and discarding ``skip % 4``
    raw words.
    """
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, substream)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if skip:
        bg.advance(skip // 4)
        if skip % 4:
            bg.random_raw(skip % 4)
    return bg


def block_rng(seed: int, substream: int, skip: int = 0) -> np.random.Generator:
    """A new Generator for one substream, positioned after ``skip`` double draws.

    ``seed`` is checked like `simulate`'s, ``substream`` (0..2**64 - 1) and
    ``skip`` (>= 0) as integers, all before any generator is built.
    """
    seed = _check_seed(seed)
    substream = as_int(substream, 0, 2**64 - 1, "substream must be an integer in 0..2**64 - 1")
    skip = as_int(skip, 0, math.inf, "skip must be an integer >= 0")
    return np.random.Generator(_seek(np.random.Philox(0), seed, substream, skip))


def _take_generators(count: int) -> list[np.random.Generator]:
    """``count`` generators off `_GENERATORS`, new ones where it runs short.

    Each stands anywhere: the taker `_seek`s it before every use and puts it
    back with ``_GENERATORS.extend`` when done.  Every `simulate` draw goes
    through here, in the calling thread.
    """
    taken = []
    for _ in range(count):
        try:
            taken.append(_GENERATORS.pop())  # atomic, like the append that returns it
        except IndexError:
            taken.append(np.random.Generator(np.random.Philox(0)))
    return taken


def settings_sequence(n: int, seed: int, policy: str = "uniform") -> np.ndarray:
    """Block ids 0..3 for each trial, in block order a1b1, a1b2, a2b1, a2b2.

    ``uniform`` draws independently from the settings substream (one double
    per trial); ``roundrobin`` cycles deterministically.  ``n`` and ``seed``
    are checked like `simulate`'s.
    """
    n, seed = _check_n(n), _check_seed(seed)
    _check_policy(policy)
    ids = np.empty(n, dtype=np.uint8)
    _settings_ids(block_rng(seed, SETTINGS_SUBSTREAM), ids, 0, policy)
    return ids


def _settings_ids(rng: np.random.Generator, ids: np.ndarray, start: int, policy: str) -> None:
    # writes the block ids of trials start, start + 1, ... over ``ids``;
    # ``rng`` stands at trial ``start``'s double of the settings substream
    if policy == "uniform":
        # in pieces, so the doubles never take more than O(_PIECE) memory
        for i in range(0, len(ids), _PIECE):
            u = rng.random(min(_PIECE, len(ids) - i))
            u *= 4.0
            ids[i : i + len(u)] = u  # the cast truncates 4u to the block id
    else:  # roundrobin: trial i takes block i % 4
        ids[:] = np.resize(np.roll(np.arange(4, dtype=np.uint8), -(start % 4)), len(ids))


class TrialRecord(NamedTuple):
    setting_a: int
    setting_b: int
    outcome_a: int
    outcome_b: int


#: the record of each trial code 4 * block + outcome pair
_RECORDS = tuple(TrialRecord(*cell_of(c + 1)) for c in range(16))


def _csv_table(end: bytes) -> tuple[bytes, np.ndarray]:
    """The header line and the 16 rows of a trial, indexed by code, each line
    ended by ``end``."""
    rows = [f"{sa},{sb},{oa:+d},{ob:+d}".encode() + end for sa, sb, oa, ob in _RECORDS]
    return ",".join(_CSV_HEADER).encode() + end, np.array(rows, dtype=f"S{len(rows[0])}")


#: what `csv.writer` makes of the header and of each trial, 11 bytes a row
_CSV_HEAD, _CSV_ROWS = _csv_table(b"\r\n")
#: the same lines ended by ``\n``, 10 bytes a row
_LF_TABLE = _csv_table(b"\n")


def _column(name: str, values, dtype: type) -> np.ndarray:
    """One validated log column: settings 1, 2 as uint8, outcomes -1, +1 as int8.

    Values are checked in their own integer type before the narrowing cast,
    so nothing out of range can wrap into range.  The check is three
    reductions (min, max, nonzero count), so it allocates nothing.
    """
    x = np.asarray(values)
    if x.dtype.kind not in "iu":
        if x.size:
            raise ValueError(f"{name} must hold integers, got dtype {x.dtype}")
        return x.astype(dtype)
    lo, hi = (1, 2) if dtype is np.uint8 else (-1, 1)
    if x.size and not (lo <= x.min() and x.max() <= hi and np.count_nonzero(x) == x.size):
        row = int(np.argmax((x < lo) | (x > hi) | (x == 0)))
        raise ValueError(f"{name} holds {x[row]} at row {row}, outside {(lo, hi)}")
    return x.astype(dtype, copy=False)


def _sign(bit: np.ndarray) -> np.ndarray:
    return 1 - 2 * bit.view(np.int8)  # int8 +1 for a clear bit, -1 for a set one


class TrialLog(Sequence[TrialRecord]):
    """Trials as one uint8 ``code`` each, ``4 * block + outcome pair``.

    Bits 3 and 2 are the settings of A and B less one, bits 1 and 0 are set
    where A and B gave -1.  The columns (settings uint8 1, 2; outcomes int8
    -1, +1) are computed from the codes when read.  The constructor takes and
    checks the four columns; every log holds only codes 0..15.
    """

    __slots__ = ("code",)

    def __init__(
        self,
        settings_a: np.ndarray,
        settings_b: np.ndarray,
        outcomes_a: np.ndarray,
        outcomes_b: np.ndarray,
    ):
        sa = _column("settings_a", settings_a, np.uint8)
        sb = _column("settings_b", settings_b, np.uint8)
        oa = _column("outcomes_a", outcomes_a, np.int8)
        ob = _column("outcomes_b", outcomes_b, np.int8)
        if not (len(sa) == len(sb) == len(oa) == len(ob)):
            raise ValueError("column lengths differ")
        code = (sa << 3) + (sb << 2)
        code -= 12
        code += (oa < 0).view(np.uint8) << 1
        code += (ob < 0).view(np.uint8)
        self.code = code

    @classmethod
    def _of_codes(cls, code: np.ndarray) -> "TrialLog":
        """The log of a uint8 code array, taken as it is after one range check."""
        if code.size and code.max() > 15:
            raise ValueError(f"trial codes must lie in 0..15, got {code.max()}")
        log = cls.__new__(cls)
        log.code = code
        return log

    @property
    def settings_a(self) -> np.ndarray:
        return (self.code >> 3) + 1

    @property
    def settings_b(self) -> np.ndarray:
        return ((self.code >> 2) & 1) + 1

    @property
    def outcomes_a(self) -> np.ndarray:
        return _sign((self.code >> 1) & 1)

    @property
    def outcomes_b(self) -> np.ndarray:
        return _sign(self.code & 1)

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TrialLog._of_codes(self.code[i])
        return _RECORDS[self.code[i]]

    def __iter__(self) -> Iterator[TrialRecord]:
        return map(_RECORDS.__getitem__, self.code.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialLog):
            return NotImplemented
        return np.array_equal(self.code, other.code)

    @staticmethod
    def from_records(records: Iterable[tuple[int, int, int, int]]) -> "TrialLog":
        rows = list(records)
        return TrialLog(*map(np.array, zip(*rows))) if rows else TrialLog.empty()

    @staticmethod
    def empty() -> "TrialLog":
        return TrialLog._of_codes(np.zeros(0, dtype=np.uint8))

    @staticmethod
    def concat(parts: Sequence["TrialLog"]) -> "TrialLog":
        if not parts:
            return TrialLog.empty()
        return TrialLog._of_codes(np.concatenate([p.code for p in parts]))

    def block_ids(self) -> np.ndarray:
        return self.code >> 2

    def to_csv(self, path: str | Path) -> None:
        """Write the header and one row per trial, such as ``2,1,+1,-1\\r\\n``."""
        with open(path, "wb") as fh:
            fh.write(_CSV_HEAD)
            for i in range(0, len(self), _PIECE):
                fh.write(_CSV_ROWS.take(self.code[i : i + _PIECE]))

    @staticmethod
    def from_csv(path: str | Path) -> "TrialLog":
        """Read a log written by `to_csv`, or any CSV file with its columns.

        A file of exactly `to_csv`'s bytes, or of those bytes with every
        ``\\r\\n`` replaced by ``\\n``, is decoded as a table; any other goes
        through `csv.reader`.  There a row without exactly four integer
        fields raises a ValueError with its 1-based line number; an
        out-of-range value one naming its column and row (row i is on line
        i + 2).
        """
        data = Path(path).read_bytes()
        log = _decode_table(data)
        if log is not None:
            return log
        return _read_csv(io.TextIOWrapper(io.BytesIO(data), newline=""))


def _decode_table(data: bytes) -> TrialLog | None:
    """The log of a file that is the header and rows of `_CSV_ROWS`, or of
    `_LF_TABLE`, else None."""
    head, table = (_CSV_HEAD, _CSV_ROWS) if data.startswith(_CSV_HEAD) else _LF_TABLE
    width = table.itemsize
    if (len(data) - len(head)) % width or not data.startswith(head):
        return None
    rows = np.frombuffer(data, dtype=np.uint8, offset=len(head)).reshape(-1, width)
    code = np.empty(len(rows), dtype=np.uint8)
    for i in range(0, len(rows), _PIECE):
        r = rows[i : i + _PIECE]
        # one bit of each variable byte tells '2' from '1' (bit 1) or '-'
        # from '+' (bit 2); together they name the one table row r may be
        # (the variable bytes sit at offsets 0, 2, 4 and 7 with either end)
        c = (r[:, 0] & 2) << 2
        c |= (r[:, 2] & 2) << 1
        c |= (r[:, 4] & 4) >> 1
        c |= (r[:, 7] & 4) >> 2
        if not np.array_equal(table.take(c).view(np.uint8), r.ravel()):
            return None
        code[i : i + len(r)] = c
    return TrialLog._of_codes(code)


def _read_csv(fh: io.TextIOBase) -> TrialLog:
    """Parse a CSV trial log of any dialect `csv.reader` reads, row by row."""
    r = csv.reader(fh)
    header = next(r, None)
    if header != _CSV_HEADER:
        raise ValueError(f"bad header {header!r}, expected {_CSV_HEADER!r}")
    try:
        rows = [(int(sa), int(sb), int(oa), int(ob)) for sa, sb, oa, ob in r]
    except ValueError as exc:
        msg = f"line {r.line_num}: expected four integer fields ({exc})"
        raise ValueError(msg) from None
    return TrialLog.from_records(rows)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_piece(fn: Callable[[int], object], pieces: int, workers: int) -> list:
    """``[fn(s) for s in range(pieces)]``, in the calling thread for one worker,
    else on a pool of ``workers`` threads that is shut down (each thread
    joined) before this returns or raises.  A failed piece raises here, the
    first in piece order."""
    if workers == 1:
        return [fn(s) for s in range(pieces)]
    from concurrent.futures import ThreadPoolExecutor  # loaded only when threads run

    # each thread is pinned to a CPU of its own for its short life: left to
    # itself, the kernel may start every thread on one CPU and keep them
    # there for the whole call (a 2-vCPU VM ran most calls that way)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

    def pin() -> None:
        with contextlib.suppress(IndexError, OSError):  # no CPU left, or the mask changed: run unpinned
            os.sched_setaffinity(0, {cpus.pop()})

    with ThreadPoolExecutor(workers, initializer=pin) as pool:
        return list(pool.map(fn, range(pieces)))


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
    ``n_shards`` (sharding only controls how the streams are consumed) and
    any number of CPUs, which the test suite pins down.  ``n`` must be an
    integer in 0..`MAX_TRIALS`, ``seed`` one in 0..2**64 - 1 (a Philox key
    word) and ``n_shards`` a positive integer; all are checked before
    anything is drawn.  A block of zero total raises a ValueError naming the
    first such block in piece order (above 1,024 shards, of the 1,024 pieces
    drawn) after the settings are drawn, before any outcome is.  The pieces
    of the draw run on up to one thread per usable CPU, as the module
    docstring describes; every thread is joined before this returns or raises.
    """
    n, seed = _check_n(n), _check_seed(seed)
    if not is_valid(b):
        raise ValueError("behavior cells must lie in [0, 1]")
    n_shards = as_int(n_shards, 1, math.inf, "n_shards must be a positive integer")
    _check_policy(policy)
    # a double u gives outcome pair 2 * (A gave -1) + (B gave -1): the number
    # of its block's first three cumulative probabilities at or below u (the
    # fourth is 1 > u), which is what searchsorted(side="right") would return;
    # the trial's code is 4 * block + that pair
    cells = np.array(b.probs).reshape(4, 4)
    totals = cells.sum(axis=1)
    live = totals > 0.0
    cuts = np.cumsum(np.divide(cells, totals[:, None], out=np.zeros((4, 4)), where=live[:, None]), axis=1)

    ids = np.empty(n, dtype=np.uint8)
    pieces = max(min(n_shards, n, _MAX_PIECES), -(-n // _PIECE))
    bounds = [(s * n // pieces, (s + 1) * n // pieces) for s in range(pieces)]
    workers = min(pieces, _usable_cpus()) if pieces > 1 else 1
    # the workers share half a piece's worth of buffers: each sorts runs of
    # _PIECE / (2 * workers) trials, but none shorter than _PIECE / 16
    run = max(_PIECE // (2 * workers), _PIECE // 16)

    def settle(s: int) -> list[list[int]]:
        # phase 1: the piece's settings, and how many trials of each block
        # each of its runs holds
        start, end = bounds[s]
        rng = rngs.pop()  # one per running piece; list pops and appends are atomic
        try:
            _seek(rng.bit_generator, seed, SETTINGS_SUBSTREAM, skip=start)
            counts = []
            for lo in range(start, end, run):
                ids_r = ids[lo : min(lo + run, end)]
                _settings_ids(rng, ids_r, lo, policy)
                # not bincount: faster at 500 trials, 2.7 times slower at 2**17
                counts.append([int(np.count_nonzero(ids_r == g)) for g in range(4)])
            return counts
        finally:
            rngs.append(rng)

    def draw(s: int) -> None:
        # phase 3: the piece's outcomes, run by run: a stable sort of the
        # block ids (a radix sort of bytes) groups each block's trials, and
        # their codes are scattered back through the sort order
        skip = list(firsts[s])  # each block stream's next double
        lo = bounds[s][0]
        rng = rngs.pop()
        bufs = spare.pop()  # one set per running draw
        u_buf, codes, above = bufs
        try:
            for counts in settled[s]:
                ids_r = ids[lo : lo + sum(counts)]
                order = np.argsort(ids_r, kind="stable")
                code_sorted = codes[: len(ids_r)]
                pos = 0
                for g, m in enumerate(counts):
                    if not m:
                        continue
                    _seek(rng.bit_generator, seed, g, skip=skip[g])
                    u = rng.random(out=u_buf[:m])
                    out = code_sorted[pos : pos + m]
                    np.greater_equal(u, cuts[g, 0], out=out.view(bool))
                    for cut in cuts[g, 1:3]:
                        out += np.greater_equal(u, cut, out=above[:m]).view(np.uint8)
                    out += 4 * g
                    skip[g] += m
                    pos += m
                ids_r[order] = code_sorted  # the run's ids are done with: codes replace them
                lo += len(ids_r)
        finally:
            spare.append(bufs)
            rngs.append(rng)

    # one generator per worker, taken here so the pool threads build none
    rngs = _take_generators(workers)
    try:
        settled = _each_piece(settle, pieces, workers)

        # phase 2: each piece's first double in each block's stream, from the
        # running sums of the block counts of the pieces before it
        drawn = [0, 0, 0, 0]
        firsts = []
        for runs in settled:
            counts = [sum(c) for c in zip(*runs)]
            for g, m in enumerate(counts):
                if m and not live[g]:
                    raise ValueError(f"block ({1 + g // 2},{1 + g % 2}) has zero total probability")
            firsts.append(drawn)
            drawn = [d + m for d, m in zip(drawn, counts)]

        # the draw buffers of each worker, allocated here: a pool thread's malloc
        # arena keeps what the thread allocates, so the threads allocate little
        # beyond argsort's index array.  Each is no larger than the arrays the
        # draw would allocate itself: a run's codes, one block's doubles
        longest = max((sum(c) for runs in settled for c in runs), default=0)
        most = max((max(c) for runs in settled for c in runs), default=0)
        spare = [(np.empty(most), np.empty(longest, np.uint8), np.empty(most, bool)) for _ in range(workers)]
        _each_piece(draw, pieces, workers)
    finally:
        _GENERATORS.extend(rngs)
    return TrialLog._of_codes(ids)


def _wilson_stderr(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    # centered binomial stderr; strictly positive even at x = 0 or x = n
    p = x / n
    return np.sqrt(p * (1.0 - p) / n + 0.25 / (n * n)) / (1.0 + 1.0 / n)


class SampleStats(NamedTuple):
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
        c = np.asarray(counts)
        if c.dtype.kind in "iu":  # a uint64 count past 2**63 wraps negative and is refused
            c = c.astype(np.int64, copy=False)
        if c.dtype != np.int64 or c.shape != (4, 4) or (c < 0).any():
            raise ValueError("counts must be a 4x4 table of nonnegative integers")
        per_block = c.sum(axis=1)
        live = per_block[:, None] > 0
        # float64 totals are exact below 2**53 (an int64 n * n wraps above
        # 3.04e9); an empty block divides by 1, and its cells are replaced
        n = np.maximum(per_block, 1).astype(float)[:, None]
        return SampleStats(
            counts=tuple(map(tuple, c.tolist())),
            trials_per_block=tuple(per_block.tolist()),
            freq=tuple(np.where(live, c / n, 0.0).ravel().tolist()),
            stderr=tuple(np.where(live, _wilson_stderr(c, n), math.inf).ravel().tolist()),
        )

    def p_hat(self, cell: int) -> float:
        return self.freq[cell_position(cell)]

    def stderr_of(self, cell: int) -> float:
        return self.stderr[cell_position(cell)]

    def derived_behavior(self) -> Behavior:
        if min(self.trials_per_block) == 0:
            raise ValueError("cannot derive a behavior: some block has no trials")
        return Behavior(self.freq)

    to_json_dict = record_to_json


def estimate(log: TrialLog) -> SampleStats:
    """Tabulate a trial log into per-cell statistics."""
    # piece by piece, since bincount widens its input to intp; the first
    # piece's table starts the sum, so a short log takes one call
    flat = np.bincount(log.code[:_PIECE], minlength=16)
    for i in range(_PIECE, len(log), _PIECE):
        flat += np.bincount(log.code[i : i + _PIECE], minlength=16)
    return SampleStats.from_counts(flat.reshape(4, 4))


class InequalityTestResult(NamedTuple):
    """One-sided z-tests of both bounds of a cell quadruple.

    The four cells live in four distinct blocks, so their sampling errors
    are independent and combine in quadrature.  ``inconclusive`` is set when
    a block has no trials; the slacks and z-scores are then NaN, ``stderr``
    is infinite and the violation flags are False.
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

    to_json_dict = record_to_json


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless 0 < alpha < 0.5, the level `test_inequality` and
    `test_signaling` accept; the CLI checks it before drawing any trial."""
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 0.5)")


#: the blocks of four cells, one in each block, in any order
_SPANS = frozenset(itertools.permutations(range(4)))


@functools.lru_cache(maxsize=64, typed=True)
def _z_alpha(alpha: float) -> float:
    """The one-sided normal quantile of level ``alpha``, computed once per alpha."""
    return NormalDist().inv_cdf(1.0 - alpha)


def test_inequality(
    stats: SampleStats, q: HardyQuadruple, alpha: float = 0.01
) -> InequalityTestResult:
    """Test both bounds ``pj <= pk + pl + pm <= 1 + pj`` on sample frequencies.

    A bound counts as violated when its estimated slack is below zero by
    more than ``z_alpha`` standard errors: an asymptotic one-sided z-test,
    whose size exceeds alpha at small n.  At alpha = 0.01, the lower bound of
    ``quadruple_for(1, 2)`` on the equal mixture of the eight deterministic
    local boxes with lower slack 0 (`simulate` seeds 0, 1, 2, ...) was
    rejected in 321 of 20,000 runs at n = 200 (1.61%), 235 of 20,000 at
    n = 2,000 (1.18%) and 52 of 5,000 at n = 20,000 (1.04%).
    """
    check_alpha(alpha)
    j, k, l, m = q.j - 1, q.k - 1, q.l - 1, q.m - 1
    if (j // 4, k // 4, l // 4, m // 4) not in _SPANS:  # so each indexes the tables directly
        raise AssertionError("quadruple cells must span all four blocks")
    inconclusive = 0 in stats.trials_per_block
    if inconclusive:
        lower = upper = math.nan
        se = math.inf
    else:
        f, e = stats.freq, stats.stderr
        klm = f[k] + f[l] + f[m]
        # the order of sum() over the four cells; its start 0 + e[j] ** 2 is exact
        se = math.sqrt(e[j] ** 2 + e[k] ** 2 + e[l] ** 2 + e[m] ** 2)
        lower = klm - f[j]
        upper = 1.0 + f[j] - klm
    z_lower, z_upper = lower / se, upper / se
    z_alpha = _z_alpha(alpha)
    return InequalityTestResult(
        q, alpha, lower, upper, se, z_lower, z_upper, z_lower < -z_alpha, z_upper < -z_alpha, inconclusive
    )


class SignalingTestRow(NamedTuple):
    """Two-proportion comparison of one marginal across the far setting."""

    party: Party
    setting: int
    outcome: int
    z: float
    p_value: float
    significant: bool
    inconclusive: bool

    to_json_dict = record_to_json


class SignalingReport(NamedTuple):
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
            "rows": to_json(self.rows),
        }


#: each `SIGNALING_ROWS` row as (party, setting, outcome, then for far
#: settings 1 and 2 the marginal's two 0-based cells and their block)
_SIGNAL_CELLS = tuple(
    (party, setting, outcome, i1 - 1, j1 - 1, (i1 - 1) // 4, i2 - 1, j2 - 1, (i2 - 1) // 4)
    for party, setting, outcome, (i1, j1), (i2, j2) in SIGNALING_ROWS
)


def test_signaling(stats: SampleStats, alpha: float = 0.01) -> SignalingReport:
    """Two-proportion pooled z-tests for all eight marginal comparisons."""
    check_alpha(alpha)
    rows = []
    threshold = alpha / 8.0
    counts = [x for row in stats.counts for x in row]
    per_block = stats.trials_per_block
    for party, setting, outcome, i1, j1, g1, i2, j2, g2 in _SIGNAL_CELLS:
        x1, n1 = counts[i1] + counts[j1], per_block[g1]
        x2, n2 = counts[i2] + counts[j2], per_block[g2]
        inconclusive = n1 == 0 or n2 == 0
        if inconclusive:
            z = math.nan
        else:
            pooled = (x1 + x2) / (n1 + n2)
            var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
            z = 0.0 if var == 0.0 else (x1 / n1 - x2 / n2) / math.sqrt(var)
        p = math.erfc(abs(z) / math.sqrt(2.0))  # two-sided normal tail, 1.0 at z = 0
        rows.append(SignalingTestRow(party, setting, outcome, z, p, p < threshold, inconclusive))
    return SignalingReport(tuple(rows), alpha)
