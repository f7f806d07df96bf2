"""Linear structure of normalization and no-signaling constraints.

Normalization of the four setting blocks plus independence of each party's
marginals from the remote setting give twelve linear equations on the sixteen
cells of a behavior.  The system has rank eight, so eight well-chosen cells
determine the remaining eight in closed form.  This module carries:

* the twelve-row constraint system (`constraint_matrix`, `constraint_residuals`),
  built from the normalization blocks and `behavior.SIGNALING_ROWS`,
* the eight closed-form completions (`FreeSetId`, `complete_from_free_set`),
  one per choice of free set; the free sets are exactly the supports of the
  four probability sums used by the CHSH analysis (`SIGMA_SUPPORTS`) and
  their complements,
* the derived bound 2*pj - 1 <= pk + pl + pm on any no-signaling box
  (`ns_bound_check`) and a few auxiliary nonnegativity consequences
  (`nonneg_side_checks`).

Each completion is solved from the constraint system at import into one
affine table, cells = const + free @ m; the import fails unless every solved
cell comes out as (1 + sum of +-1 times the free cells) / 2.  The sign view
(`completion_signs`, `FreeSetId.solved_cells`, `complete_from_free_set`) is
read from those tables once, at import.  Each completion composed with its
inverse is one more table, cells = const + p @ m over all sixteen cells; the
eight stand side by side in one (16, 128) table.  `completion_roundtrip`
keeps the residual and that one product for the last ``Behavior.probs``
tuple, so a box's eight round trips share them, bit for bit the same.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import inf, prod
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .behavior import DEFAULT_TOL, SIGNALING_ROWS, Behavior, as_int, cell_of

#: Cells entering each CHSH probability sum; the primed sum uses the complement.
#: Delta_i carries its -1 on setting block 4 - i (0-based), and Sigma_i holds
#: the cells whose outcome product equals their block's sign.
SIGMA_SUPPORTS: dict[int, tuple[int, ...]] = {
    i: tuple(c for c in range(1, 17) if prod(cell_of(c)[2:]) == (-1 if (c - 1) // 4 == 4 - i else 1))
    for i in (1, 2, 3, 4)
}

SIGMA_PRIME_SUPPORTS: dict[int, tuple[int, ...]] = {
    i: tuple(c for c in range(1, 17) if c not in cells) for i, cells in SIGMA_SUPPORTS.items()
}


def _build_matrix() -> tuple[np.ndarray, np.ndarray]:
    m = np.zeros((12, 16))
    rhs = np.zeros(12)
    for g in range(4):
        m[g, 4 * g : 4 * g + 4] = 1.0
        rhs[g] = 1.0
    for r, row in enumerate(SIGNALING_ROWS, start=4):
        for c in row.far1:
            m[r, c - 1] = 1.0
        for c in row.far2:
            m[r, c - 1] = -1.0
    return m, rhs


_MATRIX, _RHS = _build_matrix()


def constraint_matrix() -> np.ndarray:
    """The 12x16 coefficient matrix (rows: 4 normalization, 8 no-signaling)."""
    return _MATRIX.copy()


def constraint_rhs() -> np.ndarray:
    return _RHS.copy()


def system_rank() -> int:
    """Rank of the twelve-row constraint system (eight)."""
    return int(np.linalg.matrix_rank(_MATRIX))


class ConstraintResiduals(NamedTuple):
    """Row residuals of the constraint system evaluated on a behavior."""

    normalization: tuple[float, float, float, float]
    signaling: tuple[float, ...]

    def as_vector(self) -> tuple[float, ...]:
        return self.normalization + self.signaling

    def max_abs(self) -> float:
        return max(abs(x) for x in self.as_vector())


def constraint_residuals(b: Behavior) -> ConstraintResiduals:
    res = (_MATRIX @ np.asarray(b.probs) - _RHS).tolist()
    return ConstraintResiduals(tuple(res[:4]), tuple(res[4:]))


class FreeSetId(enum.Enum):
    """Which eight cells act as free parameters in a closed-form completion.

    The names follow the probability sum whose support is the free set: S1
    means the free cells are the eight cells entering the first CHSH
    probability sum, S1P its complement, and so on.  Inverse pairs (S1, S1P),
    (S2, S2P), (S3, S3P), (S4, S4P) undo each other.
    """

    S1 = "s1"
    S1P = "s1p"
    S2 = "s2"
    S2P = "s2p"
    S3 = "s3"
    S3P = "s3p"
    S4 = "s4"
    S4P = "s4p"

    @cached_property
    def free_cells(self) -> tuple[int, ...]:
        return (SIGMA_PRIME_SUPPORTS if self.primed else SIGMA_SUPPORTS)[self.sigma_index]

    @property
    def solved_cells(self) -> tuple[int, ...]:
        return tuple(_SIGNS[self])

    @cached_property
    def inverse(self) -> "FreeSetId":
        return FreeSetId(self.value[:2] if self.primed else self.value + "p")

    @property
    def sigma_index(self) -> int:
        """Index 1..4 of the probability sum supported on the free set."""
        return int(self.value[1])

    @property
    def primed(self) -> bool:
        return self.value.endswith("p")


def _solve_completion(variant: FreeSetId) -> tuple[np.ndarray, np.ndarray]:
    # Solve the constraint system for the solved cells as c + A @ free; every
    # constant c must be 1/2 and every entry of 2*A an integer (the sign).
    free = [c - 1 for c in variant.free_cells]
    solved = [c for c in range(16) if c not in free]
    sol = np.linalg.lstsq(_MATRIX[:, solved], np.column_stack([_RHS, -_MATRIX[:, free]]), rcond=None)[0]
    twice = 2.0 * sol[:, 1:]
    signs = np.rint(twice)
    if np.abs(sol[:, 0] - 0.5).max() > 1e-12 or np.abs(twice - signs).max() > 1e-12:
        raise AssertionError(f"completion {variant.value} is not (1 + signed free sum) / 2")
    const = np.zeros(16)
    m = np.zeros((8, 16))
    m[range(8), free] = 1.0
    const[solved] = 0.5
    m[:, solved] = signs.T / 2.0
    return const, m


#: One affine table per completion: cells = const + free @ m, free cells in
#: the order of v.free_cells.  Solved cell s is (1 + sum_i sign_i free_i) / 2;
#: `_SIGNS` holds those signs, read from the tables.
_COMPLETIONS: dict[FreeSetId, tuple[np.ndarray, np.ndarray]] = {
    v: _solve_completion(v) for v in FreeSetId
}
_SIGNS: dict[FreeSetId, dict[int, tuple[int, ...]]] = {
    v: {c + 1: tuple(int(x) for x in 2.0 * m[:, c]) for c in range(16) if const[c]}
    for v, (const, m) in _COMPLETIONS.items()
}


def _compose_roundtrip(variant: FreeSetId) -> tuple[np.ndarray, np.ndarray]:
    # the first table over all 16 cells (p @ first == p[free] @ m), then the
    # inverse's table on its free cells: round trip = const + p @ m, m 16 x 16
    (const, m), (const_inv, m_inv) = _COMPLETIONS[variant], _COMPLETIONS[variant.inverse]
    first = np.zeros((16, 16))
    first[[c - 1 for c in variant.free_cells]] = m
    back = [c - 1 for c in variant.inverse.free_cells]
    return const_inv + const[back] @ m_inv, first[:, back] @ m_inv


#: One affine table per round trip through a completion and its inverse:
#: cells = const + p @ m over all 16 cells.  Both completion tables hold
#: multiples of 1/2, so the composed table is exact.
_ROUNDTRIPS: dict[FreeSetId, tuple[np.ndarray, np.ndarray]] = {
    v: _compose_roundtrip(v) for v in FreeSetId
}
#: The eight round-trip tables side by side, (128,) and (16, 128); round
#: trip v owns the 16 columns from ``_ROUNDTRIP_AT[v]``.
_ROUNDTRIP_CONST = np.concatenate([const for const, _ in _ROUNDTRIPS.values()])
_ROUNDTRIP_TABLE = np.hstack([m for _, m in _ROUNDTRIPS.values()])
_ROUNDTRIP_AT = {v: 16 * n for n, v in enumerate(_ROUNDTRIPS)}
#: (cells, max residual, eight round trips) of the last miss, set in one assignment
_LAST_ROUNDTRIP: tuple[tuple[float, ...], float, list[float]] = ((), 0.0, [])


def completion_signs(variant: FreeSetId) -> dict[int, tuple[int, ...]]:
    """Sign table of one completion (solved cell -> signs over the free cells)."""
    return dict(_SIGNS[variant])


def complete_from_free_set(free_values: Sequence[float], variant: FreeSetId) -> Behavior:
    """Build the unique constraint-satisfying behavior from eight free cells.

    ``free_values`` are the cells listed by ``variant.free_cells`` in
    ascending cell order.  Free values may be arbitrary reals; the result
    always satisfies the twelve constraints exactly up to rounding, but is a
    probability table only if all sixteen entries land in [0, 1].
    """
    free_values = tuple(float(x) for x in free_values)
    if len(free_values) != 8:
        raise ValueError(f"need 8 free values, got {len(free_values)}")
    cells = [0.0] * 16
    for cell, value in zip(variant.free_cells, free_values):
        cells[cell - 1] = value
    for cell, signs in _SIGNS[variant].items():
        acc = 1.0
        for sign, value in zip(signs, free_values):
            acc += sign * value
        cells[cell - 1] = acc / 2.0
    return Behavior(tuple(cells))


def free_values_of(b: Behavior, variant: FreeSetId) -> tuple[float, ...]:
    """Extract the free cells of ``variant`` from a behavior, ascending order."""
    return tuple(b.p(c) for c in variant.free_cells)


def completion_roundtrip(b: Behavior, variant: FreeSetId, tol: float = DEFAULT_TOL) -> Behavior:
    """Complete from ``variant``'s free cells, then back through its inverse.

    For a behavior satisfying the constraints this is the identity (up to
    rounding).  Raises ValueError reporting the worst residual when the input
    violates the constraint system beyond ``tol``.  The residual and all
    eight round trips are kept for the last ``b.probs`` tuple.
    """
    global _LAST_ROUNDTRIP
    probs, residual, cells = _LAST_ROUNDTRIP
    if b.probs is not probs:
        residual = constraint_residuals(b).max_abs()
        cells = (_ROUNDTRIP_CONST + np.asarray(b.probs) @ _ROUNDTRIP_TABLE).tolist()
        _LAST_ROUNDTRIP = (b.probs, residual, cells)
    if residual > tol:
        raise ValueError(
            f"behavior violates the constraint system (max residual {residual:.3e} > {tol:.1e})"
        )
    at = _ROUNDTRIP_AT[variant]
    return Behavior(cells[at : at + 16])


class _QuadrupleLike(Protocol):
    j: int
    k: int
    l: int
    m: int


@dataclass(frozen=True)
class NsBoundTriple:
    """Cells entering the no-signaling bound 2*pj - 1 <= pk + pl + pm."""

    j: int
    k: int
    l: int
    m: int

    def __post_init__(self) -> None:
        cells = (self.j, self.k, self.l, self.m)
        if len(set(cells)) != 4 or not all(1 <= c <= 16 for c in cells):
            raise ValueError(f"need four distinct cells in 1..16, got {cells}")


class NsBoundResult(NamedTuple):
    lhs: float
    rhs: float
    satisfied: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def ns_bound_check(b: Behavior, triple: _QuadrupleLike, tol: float = DEFAULT_TOL) -> NsBoundResult:
    """Evaluate 2*pj - 1 <= pk + pl + pm on a behavior.

    Valid for every no-signaling box when (j; k, l, m) is one of the 64 cell
    quadruples enumerated in `hardybox.bell`; ``triple`` may be an
    `NsBoundTriple` or a quadruple from that module.
    """
    lhs = 2.0 * b.p(triple.j) - 1.0
    rhs = b.p(triple.k) + b.p(triple.l) + b.p(triple.m)
    return NsBoundResult(lhs=lhs, rhs=rhs, satisfied=lhs <= rhs + tol)


class SideCheck(NamedTuple):
    name: str
    slack: float
    satisfied: bool


def nonneg_side_checks(b: Behavior, tol: float = DEFAULT_TOL) -> tuple[SideCheck, ...]:
    """Three auxiliary inequalities implied by nonnegativity plus no-signaling.

    * ``entry_nonneg``: 1 + p4 + p5 + p9 >= p1 + p8 + p12 + p14 + p15,
      from requiring one completed cell to be nonnegative;
    * ``pair_nonneg``: p9 + p15 <= 1, from a completed pair of cells;
    * ``octet_cap``: p1 + p4 + p5 + p8 + p9 + p12 + p14 + p15 <= 4, from a
      completed set of eight cells.

    Slack is (bound minus attained value); nonnegative slack means satisfied.
    """
    p = b.p
    entry = (1.0 + p(4) + p(5) + p(9)) - (p(1) + p(8) + p(12) + p(14) + p(15))
    pair = 1.0 - (p(9) + p(15))
    octet = 4.0 - (p(1) + p(4) + p(5) + p(8) + p(9) + p(12) + p(14) + p(15))
    return (
        SideCheck("entry_nonneg", entry, entry >= -tol),
        SideCheck("pair_nonneg", pair, pair >= -tol),
        SideCheck("octet_cap", octet, octet >= -tol),
    )


#: candidates screened per matrix product in `random_no_signaling_behavior`
_SCREEN_BLOCK = 256
#: screen margin; far above the rounding of the product (below 1e-15), so no
#: candidate the exact test would accept is screened out
_SCREEN_MARGIN = 1e-12


def random_no_signaling_behavior(
    rng: np.random.Generator,
    variant: FreeSetId = FreeSetId.S1,
    max_tries: int = 100000,
) -> Behavior:
    """Rejection-sample a valid normalized no-signaling behavior.

    Draws the eight free cells uniformly from [0, 1] and keeps the first
    completion whose sixteen entries are all probabilities; ``max_tries``
    (an integer >= 1) counts these candidates.  Candidates are screened 256
    at a time with one matrix product, and only those the screen passes go
    through `complete_from_free_set` and the exact test.  The generator is
    then rewound to its saved ``rng.bit_generator.state`` and
    ``rng.uniform`` redraws exactly the eight doubles of each candidate
    tried.  So the sample and the generator state afterwards are those of
    drawing and testing one candidate at a time, also when no candidate
    passes.  ``rng`` needs ``bit_generator`` and ``uniform`` like a numpy
    ``Generator``.
    """
    max_tries = as_int(max_tries, 1, inf, "max_tries must be an integer >= 1")
    # the screen draws through a plain Generator on the same bit generator;
    # after the rewind, the caller's ``rng`` has drawn just the candidates tried
    bit_generator = rng.bit_generator
    saved = bit_generator.state
    screen = np.random.Generator(bit_generator)
    const, m = _COMPLETIONS[variant]
    tried, found = 0, None
    while found is None and tried < max_tries:
        free = screen.random((min(_SCREEN_BLOCK, max_tries - tried), 8))
        cells = free @ m + const
        inside = ((cells >= -_SCREEN_MARGIN) & (cells <= 1.0 + _SCREEN_MARGIN)).all(axis=1)
        for row in np.flatnonzero(inside):
            candidate = complete_from_free_set(free[row], variant)
            if all(0.0 <= x <= 1.0 for x in candidate.probs):
                found = candidate
                tried += int(row) + 1
                break
        else:
            tried += len(free)
    bit_generator.state = saved
    rng.uniform(0.0, 1.0, size=(tried, 8))
    if found is None:
        raise RuntimeError(f"no valid completion found in {max_tries} draws")
    return found
