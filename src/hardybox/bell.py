"""Bell inequalities for two-party boxes in probability and correlation form.

Three families of tests on a behavior, plus the bookkeeping that ties them
together:

* CHSH in correlation form (|Delta_i| <= 2, four sign choices) and in
  probability form (1 <= Sigma_i, Sigma'_i <= 3) where each Sigma_i is a sum
  of eight cells; for normalized boxes Delta_i = 2*(Sigma_i - 2).
* CH in the four-probability form (-1 <= B_i <= 0) and in the six-term
  detection form built from joint cells and single-party marginals.  Under
  no-signaling B_i = (Sigma_i - 3)/2; for signaling boxes the two sides can
  disagree, which `equivalence_audit` makes visible.
* The 64 four-cell inequalities pj <= pk + pl + pm <= 1 + pj behind Hardy's
  nonlocality argument.  Each no-signaling completion relation contributes
  one quadruple per solved cell (the three plus-signed free cells bound the
  solved cell), eight relations x eight cells = 64.  When a box has
  pk = pl = pm = 0 with pj > 0, exactly the sixteen inequalities tied to the
  same probability sum are violated, all by pj.

Every quantity here is linear in the sixteen cells, so each function reads
its values off one product with a coefficient matrix built at import.  Its
rows: the indicators of ``SIGMA_SUPPORTS[i]`` and of their complements
(Sigma_i, Sigma'_i); twice those Sigma_i rows minus one (Delta_i); the
Delta_i signs on the (+,+) cells less the marginals of the settings outside
the block signed -1 (six-term CH); the four-term CH rows B_i, each the
negated lower slack of one Hardy quadruple (`_CH_FOUR_TERM_QUADRUPLES`); and
the 64 Hardy lower slacks pk + pl + pm - pj, each upper slack being 1 minus
its lower one.

Cell numbering follows `hardybox.behavior`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

import numpy as np

from .behavior import DEFAULT_TOL, Behavior, index_of, is_no_signaling, is_normalized, record_to_json
from .locality import SIGMA_PRIME_SUPPORTS, SIGMA_SUPPORTS, FreeSetId, completion_signs

@dataclass(frozen=True)
class SigmaValues:
    sigma: tuple[float, float, float, float]
    sigma_prime: tuple[float, float, float, float]


def sigma_values(b: Behavior) -> SigmaValues:
    """The four probability sums and their complements."""
    v = _values(b)
    return SigmaValues(v[_SIGMA], v[_SIGMA_PRIME])  # type: ignore[arg-type]


@dataclass(frozen=True)
class DeltaValues:
    delta: tuple[float, float, float, float]


def delta_values(b: Behavior) -> DeltaValues:
    """The four CHSH correlation sums."""
    return DeltaValues(_values(b)[_DELTA])  # type: ignore[arg-type]


@dataclass(frozen=True)
class ChValues:
    b: tuple[float, float, float, float]


def ch_values(b: Behavior) -> ChValues:
    """CH quantities in the reduced four-probability form."""
    return ChValues(_values(b)[_CH_FOUR])  # type: ignore[arg-type]


def ch_values_full(b: Behavior, a_marg_via: int = 1, b_marg_via: int = 1) -> ChValues:
    """CH quantities in the six-term detection form.

    The single-party detection probabilities are taken as marginal sums of
    joint cells: p(a_j) from the block where B measured ``b_{a_marg_via}``,
    p(b_k) from the block where A measured ``a_{b_marg_via}``.  The choice is
    immaterial exactly when the box is no-signaling.
    """
    if a_marg_via not in (1, 2) or b_marg_via not in (1, 2):
        raise ValueError("marginal block choices must be 1 or 2")
    return ChValues(_values(b)[_CH_FULL[a_marg_via, b_marg_via]])  # type: ignore[arg-type]


@dataclass(frozen=True)
class HardyQuadruple:
    """Cells of one inequality pj <= pk + pl + pm <= 1 + pj.

    ``family`` numbers the eight source completion relations 1..8 (in the
    fixed `FreeSetId` order); ``sigma_index`` and ``primed`` identify the
    probability sum the inequality rewrites: the lower bound is Sigma >= 1
    for an unprimed family and Sigma' >= 1 for a primed one.
    """

    j: int
    k: int
    l: int
    m: int
    family: int
    sigma_index: int
    primed: bool

    def cells(self) -> tuple[int, int, int, int]:
        return (self.j, self.k, self.l, self.m)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "j": self.j, "k": self.k, "l": self.l, "m": self.m}

    def __str__(self) -> str:
        return f"p{self.j} <= p{self.k} + p{self.l} + p{self.m} <= 1 + p{self.j}"


def _enumerate() -> tuple[HardyQuadruple, ...]:
    quads = []
    for family, variant in enumerate(FreeSetId, start=1):
        free = variant.free_cells
        signs = completion_signs(variant)
        for j in sorted(signs):
            positive = tuple(sorted(c for c, s in zip(free, signs[j]) if s > 0))
            if len(positive) != 3:
                raise AssertionError(f"completion row for cell {j} must have 3 plus signs")
            quads.append(HardyQuadruple(j, *positive, family, variant.sigma_index, variant.primed))
    return tuple(quads)


#: All 64 inequalities in canonical order: family 1..8, then j ascending.
HARDY_QUADRUPLES: tuple[HardyQuadruple, ...] = _enumerate()

_BY_FAMILY_J = {(q.family, q.j): q for q in HARDY_QUADRUPLES}


def enumerate_hardy_inequalities() -> tuple[HardyQuadruple, ...]:
    return HARDY_QUADRUPLES


def quadruple_for(family: int, j: int) -> HardyQuadruple:
    try:
        return _BY_FAMILY_J[(family, j)]
    except KeyError:
        raise ValueError(f"no inequality with family={family} and j={j}") from None


_MARGINAL_CHOICES = tuple(product((1, 2), (1, 2)))


def _row(terms: Iterable[tuple[float, int]]) -> np.ndarray:
    """One coefficient row from (coefficient, cell) pairs; repeated cells add up."""
    row = np.zeros(16)
    for coefficient, cell in terms:
        row[cell - 1] += coefficient
    return row


def _ch_full_row(delta: np.ndarray, a_marg_via: int, b_marg_via: int) -> np.ndarray:
    signs = delta[::4]  # each setting block's sign, read at its (+,+) cell
    ja, kb = divmod(3 - int(np.argmin(signs)), 2)  # the block opposite the -1 one, from 0
    return _row(
        [(sign, 4 * block + 1) for block, sign in enumerate(signs)]
        + [(-1, index_of(ja + 1, a_marg_via, 1, o)) for o in (1, -1)]
        + [(-1, index_of(b_marg_via, kb + 1, o, 1)) for o in (1, -1)]
    )


def _slack_row(q: HardyQuadruple, sign: int) -> np.ndarray:
    """``sign`` times the lower slack pk + pl + pm - pj; integer signs, so no -0.0."""
    return _row(((sign, q.k), (sign, q.l), (sign, q.m), (-sign, q.j)))


#: (family, j) of the Hardy quadruple whose negated lower slack is B_i, the
#: four-probability CH form: the equivalent form of the CHSH inequality.
_CH_FOUR_TERM_QUADRUPLES = ((2, 5), (4, 5), (6, 13), (8, 5))


def _build_rows() -> np.ndarray:
    sigma = [_row((1, c) for c in SIGMA_SUPPORTS[i]) for i in (1, 2, 3, 4)]
    prime = [_row((1, c) for c in SIGMA_PRIME_SUPPORTS[i]) for i in (1, 2, 3, 4)]
    delta = [2.0 * row - 1.0 for row in sigma]
    ch_four = [_slack_row(quadruple_for(*fj), -1) for fj in _CH_FOUR_TERM_QUADRUPLES]
    ch_full = [_ch_full_row(row, *via) for via in _MARGINAL_CHOICES for row in delta]
    hardy = [_slack_row(q, 1) for q in HARDY_QUADRUPLES]
    return np.array(sigma + prime + delta + ch_four + ch_full + hardy)


# Rows in blocks of four: Sigma, Sigma', Delta, four-term CH, six-term CH
# per marginal choice; then the 64 Hardy lower slacks.
_ROWS = _build_rows()
_SIGMA, _SIGMA_PRIME, _DELTA, _CH_FOUR = (slice(r, r + 4) for r in (0, 4, 8, 12))
_CH_FULL = {via: slice(16 + 4 * n, 20 + 4 * n) for n, via in enumerate(_MARGINAL_CHOICES)}
_HARDY_LOWER = slice(32, 96)


def _values(b: Behavior) -> tuple[float, ...]:
    """Every row of the coefficient matrix evaluated on ``b``."""
    return tuple((_ROWS @ np.asarray(b.probs)).tolist())


@dataclass(frozen=True)
class InequalityCheck:
    quadruple: HardyQuadruple
    lower_slack: float
    upper_slack: float
    violated_lower: bool
    violated_upper: bool

    @property
    def violated(self) -> bool:
        return self.violated_lower or self.violated_upper

    def to_json_dict(self) -> dict:
        return {
            **self.quadruple.to_json_dict(),
            "lower_slack": self.lower_slack,
            "upper_slack": self.upper_slack,
            "violated_lower": self.violated_lower,
            "violated_upper": self.violated_upper,
        }


@dataclass(frozen=True)
class ViolationReport:
    checks: tuple[InequalityCheck, ...]
    tol: float

    @property
    def n_violated_lower(self) -> int:
        return sum(c.violated_lower for c in self.checks)

    @property
    def n_violated_upper(self) -> int:
        return sum(c.violated_upper for c in self.checks)

    @property
    def n_violated(self) -> int:
        return sum(c.violated for c in self.checks)

    @property
    def n_satisfied(self) -> int:
        return len(self.checks) - self.n_violated

    def violated(self) -> tuple[InequalityCheck, ...]:
        return tuple(c for c in self.checks if c.violated)

    def by_family(self) -> dict[int, int]:
        counts = {f: 0 for f in range(1, 9)}
        for c in self.checks:
            if c.violated:
                counts[c.quadruple.family] += 1
        return counts

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "inequalities": [c.to_json_dict() for c in self.checks],
            "summary": {
                "violated_lower": self.n_violated_lower,
                "violated_upper": self.n_violated_upper,
                "violated": self.n_violated,
                "satisfied": self.n_satisfied,
                "violated_by_family": list(self.by_family().values()),
            },
        }


def hardy_check(b: Behavior, tol: float = DEFAULT_TOL) -> ViolationReport:
    """Evaluate all 64 inequalities; a bound is violated when its slack < -tol."""
    checks = []
    for q, lower in zip(HARDY_QUADRUPLES, _values(b)[_HARDY_LOWER]):
        upper = 1.0 - lower
        checks.append(InequalityCheck(q, lower, upper, lower < -tol, upper < -tol))
    return ViolationReport(tuple(checks), tol)


def hardy_witness(b: Behavior, eps: float = 1e-6) -> tuple[HardyQuadruple, ...]:
    """Quadruples realizing the Hardy pattern: pk, pl, pm <= eps while pj > eps."""
    p = (None, *b.probs)  # 1-based, like the quadruple indices
    return tuple(
        q for q in HARDY_QUADRUPLES if max(p[q.k], p[q.l], p[q.m]) <= eps and p[q.j] > eps
    )


@dataclass(frozen=True)
class ChshReport:
    tol: float
    sigma: tuple[float, float, float, float]
    sigma_prime: tuple[float, float, float, float]
    delta: tuple[float, float, float, float]
    #: per index: Sigma_i or Sigma'_i outside [1, 3]
    sigma_violations: tuple[bool, bool, bool, bool]
    #: per index: |Delta_i| > 2
    delta_violations: tuple[bool, bool, bool, bool]
    #: Delta_i - 2*(Sigma_i - 2), zero for normalized boxes
    consistency_residuals: tuple[float, float, float, float]

    @property
    def violated(self) -> bool:
        return any(self.sigma_violations) or any(self.delta_violations)

    to_json_dict = record_to_json


def chsh_check(b: Behavior, tol: float = DEFAULT_TOL) -> ChshReport:
    """CHSH in both forms.  Requires a normalized box (the two forms are tied
    together by normalization alone; signaling boxes are fine here)."""
    if not is_normalized(b, tol=max(tol, DEFAULT_TOL)):
        raise ValueError("chsh_check needs a normalized behavior")
    v = _values(b)
    sigma, prime, dv = v[_SIGMA], v[_SIGMA_PRIME], v[_DELTA]
    sigma_viol = tuple(
        not (1.0 - tol <= sigma[i] <= 3.0 + tol and 1.0 - tol <= prime[i] <= 3.0 + tol)
        for i in range(4)
    )
    delta_viol = tuple(abs(dv[i]) > 2.0 + tol for i in range(4))
    consistency = tuple(dv[i] - 2.0 * (sigma[i] - 2.0) for i in range(4))
    return ChshReport(
        tol=tol,
        sigma=sigma,  # type: ignore[arg-type]
        sigma_prime=prime,  # type: ignore[arg-type]
        delta=dv,  # type: ignore[arg-type]
        sigma_violations=sigma_viol,  # type: ignore[arg-type]
        delta_violations=delta_viol,  # type: ignore[arg-type]
        consistency_residuals=consistency,  # type: ignore[arg-type]
    )


@dataclass(frozen=True)
class ChReport:
    tol: float
    b_four_term: tuple[float, float, float, float]
    b_full: tuple[float, float, float, float]
    four_term_violations: tuple[bool, bool, bool, bool]
    full_violations: tuple[bool, bool, bool, bool]

    @property
    def violated(self) -> bool:
        return any(self.four_term_violations) or any(self.full_violations)

    to_json_dict = record_to_json


def ch_check(
    b: Behavior, tol: float = DEFAULT_TOL, a_marg_via: int = 1, b_marg_via: int = 1
) -> ChReport:
    """Check -1 <= B_i <= 0 for the four-term and the six-term forms."""
    four = ch_values(b).b
    full = ch_values_full(b, a_marg_via=a_marg_via, b_marg_via=b_marg_via).b
    out = lambda x: not (-1.0 - tol <= x <= tol)  # noqa: E731
    return ChReport(
        tol=tol,
        b_four_term=four,
        b_full=full,
        four_term_violations=tuple(out(x) for x in four),  # type: ignore[arg-type]
        full_violations=tuple(out(x) for x in full),  # type: ignore[arg-type]
    )


@dataclass(frozen=True)
class EquivalenceAudit:
    """Residuals of the identities linking the Delta, Sigma, and B quantities.

    ``delta_sigma`` and ``sigma_pair`` vanish for any normalized box;
    ``ch_four_term`` and ``ch_full`` (residuals of B_i = (Sigma_i - 3)/2)
    additionally need no-signaling.  A signaling box typically leaves the CH
    identities broken, which is exactly the CH/CHSH inequivalence this audit
    surfaces.
    """

    tol: float
    no_signaling: bool
    delta_sigma: tuple[float, float, float, float]
    sigma_pair: tuple[float, float, float, float]
    ch_four_term: tuple[float, float, float, float]
    ch_full: tuple[float, float, float, float]

    @property
    def normalized_identities_ok(self) -> bool:
        return max(abs(x) for x in self.delta_sigma + self.sigma_pair) <= self.tol

    @property
    def ch_identities_ok(self) -> bool:
        return max(abs(x) for x in self.ch_four_term + self.ch_full) <= self.tol

    @property
    def ch_discrepancy(self) -> float:
        return max(abs(x) for x in self.ch_four_term + self.ch_full)

    @property
    def flagged(self) -> bool:
        """True when the CH/CHSH bridge fails (expected only with signaling)."""
        return not self.ch_identities_ok

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "no_signaling": self.no_signaling,
            "delta_sigma_residuals": list(self.delta_sigma),
            "sigma_pair_residuals": list(self.sigma_pair),
            "ch_four_term_residuals": list(self.ch_four_term),
            "ch_full_residuals": list(self.ch_full),
            "ch_identities_ok": self.ch_identities_ok,
            "flagged": self.flagged,
        }


def equivalence_audit(b: Behavior, tol: float = DEFAULT_TOL) -> EquivalenceAudit:
    v = _values(b)
    sigma, prime, dv = v[_SIGMA], v[_SIGMA_PRIME], v[_DELTA]
    four, full = v[_CH_FOUR], v[_CH_FULL[1, 1]]
    half = tuple((sigma[i] - 3.0) / 2.0 for i in range(4))
    return EquivalenceAudit(
        tol=tol,
        no_signaling=is_no_signaling(b, tol=tol),
        delta_sigma=tuple(dv[i] - 2.0 * (sigma[i] - 2.0) for i in range(4)),  # type: ignore[arg-type]
        sigma_pair=tuple(sigma[i] + prime[i] - 4.0 for i in range(4)),  # type: ignore[arg-type]
        ch_four_term=tuple(four[i] - half[i] for i in range(4)),  # type: ignore[arg-type]
        ch_full=tuple(full[i] - half[i] for i in range(4)),  # type: ignore[arg-type]
    )


@dataclass(frozen=True)
class SigmaShift:
    sigma_value: float
    predicted: float

    @property
    def residual(self) -> float:
        return self.sigma_value - self.predicted


def sigma_shift_of_hardy(
    b: Behavior,
    q: HardyQuadruple,
    tol: float = DEFAULT_TOL,
    zero_tol: float = 1e-6,
) -> SigmaShift:
    """Value of the probability sum forced by a three-zero Hardy pattern.

    With pk = pl = pm = 0 on a normalized no-signaling box, the sum indexed
    by ``q`` equals 1 - 2*pj when the quadruple rewrites the unprimed sum and
    3 + 2*pj when it rewrites the primed one.  Raises ValueError when the
    preconditions fail.
    """
    if not is_normalized(b, tol=tol):
        raise ValueError("sigma_shift_of_hardy needs a normalized behavior")
    if not is_no_signaling(b, tol=tol):
        raise ValueError("sigma_shift_of_hardy needs a no-signaling behavior")
    zeros = (b.p(q.k), b.p(q.l), b.p(q.m))
    if max(zeros) > zero_tol:
        raise ValueError(
            f"cells ({q.k}, {q.l}, {q.m}) must vanish within {zero_tol:g}, got {zeros}"
        )
    sigma = _values(b)[_SIGMA][q.sigma_index - 1]
    pj = b.p(q.j)
    predicted = 3.0 + 2.0 * pj if q.primed else 1.0 - 2.0 * pj
    return SigmaShift(sigma_value=sigma, predicted=predicted)


def local_deterministic_behavior(
    a_outcomes: tuple[int, int], b_outcomes: tuple[int, int]
) -> Behavior:
    """The deterministic local box assigning fixed outcomes per setting.

    ``a_outcomes[j-1]`` is A's outcome under setting j, likewise for B.
    """
    for o in (*a_outcomes, *b_outcomes):
        if o not in (1, -1):
            raise ValueError(f"outcomes must be +1 or -1, got {o!r}")
    cells = [0.0] * 16
    for j, k in product((1, 2), (1, 2)):
        cells[index_of(j, k, a_outcomes[j - 1], b_outcomes[k - 1]) - 1] = 1.0
    return Behavior(tuple(cells))


def local_vertices() -> tuple[Behavior, ...]:
    """All 16 deterministic local boxes (the local polytope's vertices)."""
    outs = (1, -1)
    return tuple(
        local_deterministic_behavior((a1, a2), (b1, b2))
        for a1, a2, b1, b2 in product(outs, outs, outs, outs)
    )
