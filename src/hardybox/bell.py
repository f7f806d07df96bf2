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

Cell numbering follows `hardybox.behavior`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .behavior import (
    DEFAULT_TOL,
    Behavior,
    correlation_vector,
    is_no_signaling,
    is_normalized,
)
from .locality import SIGMA_PRIME_SUPPORTS, SIGMA_SUPPORTS, FreeSetId, completion_signs

# Signs of (c11, c12, c21, c22) in each correlation sum, and of the joint
# cells (p1, p5, p9, p13) in the six-term CH forms.
_DELTA_SIGNS: dict[int, tuple[int, int, int, int]] = {
    1: (+1, +1, +1, -1),
    2: (+1, +1, -1, +1),
    3: (+1, -1, +1, +1),
    4: (-1, +1, +1, +1),
}

# Four-probability CH forms, one of the four equivalent reductions per index.
_CH_FOUR_TERM: dict[int, tuple[tuple[int, int], ...]] = {
    1: ((-1, 2), (+1, 5), (-1, 11), (-1, 13)),
    2: ((-1, 2), (+1, 5), (-1, 9), (-1, 15)),
    3: ((-1, 3), (-1, 5), (-1, 10), (+1, 13)),
    4: ((-1, 1), (+1, 5), (-1, 10), (-1, 15)),
}

# Which marginal of each party enters the six-term CH forms.
_CH_MARGINAL_SETTING: dict[int, tuple[int, int]] = {1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (2, 2)}


@dataclass(frozen=True)
class SigmaValues:
    sigma: tuple[float, float, float, float]
    sigma_prime: tuple[float, float, float, float]


def sigma_values(b: Behavior) -> SigmaValues:
    """The four probability sums and their complements."""
    sigma = tuple(sum(b.p(c) for c in SIGMA_SUPPORTS[i]) for i in (1, 2, 3, 4))
    prime = tuple(sum(b.p(c) for c in SIGMA_PRIME_SUPPORTS[i]) for i in (1, 2, 3, 4))
    return SigmaValues(sigma, prime)  # type: ignore[arg-type]


@dataclass(frozen=True)
class DeltaValues:
    delta: tuple[float, float, float, float]


def delta_values(b: Behavior) -> DeltaValues:
    """The four CHSH correlation sums."""
    c = correlation_vector(b).as_tuple()
    return DeltaValues(
        tuple(sum(s * x for s, x in zip(_DELTA_SIGNS[i], c)) for i in (1, 2, 3, 4))  # type: ignore[arg-type]
    )


@dataclass(frozen=True)
class ChValues:
    b: tuple[float, float, float, float]


def ch_values(b: Behavior) -> ChValues:
    """CH quantities in the reduced four-probability form."""
    vals = tuple(
        sum(sign * b.p(cell) for sign, cell in _CH_FOUR_TERM[i]) for i in (1, 2, 3, 4)
    )
    return ChValues(vals)  # type: ignore[arg-type]


def ch_values_full(b: Behavior, a_marg_via: int = 1, b_marg_via: int = 1) -> ChValues:
    """CH quantities in the six-term detection form.

    The single-party detection probabilities are taken as marginal sums of
    joint cells: p(a_j) from the block where B measured ``b_{a_marg_via}``,
    p(b_k) from the block where A measured ``a_{b_marg_via}``.  The choice is
    immaterial exactly when the box is no-signaling.
    """
    if a_marg_via not in (1, 2) or b_marg_via not in (1, 2):
        raise ValueError("marginal block choices must be 1 or 2")
    joints = (b.prob(1, 1, 1, 1), b.prob(1, 2, 1, 1), b.prob(2, 1, 1, 1), b.prob(2, 2, 1, 1))
    p_a = {j: b.prob(j, a_marg_via, 1, 1) + b.prob(j, a_marg_via, 1, -1) for j in (1, 2)}
    p_b = {k: b.prob(b_marg_via, k, 1, 1) + b.prob(b_marg_via, k, -1, 1) for k in (1, 2)}
    vals = []
    for i in (1, 2, 3, 4):
        ja, kb = _CH_MARGINAL_SETTING[i]
        vals.append(
            sum(s * x for s, x in zip(_DELTA_SIGNS[i], joints)) - p_a[ja] - p_b[kb]
        )
    return ChValues(tuple(vals))  # type: ignore[arg-type]


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
            quads.append(
                HardyQuadruple(
                    j=j,
                    k=positive[0],
                    l=positive[1],
                    m=positive[2],
                    family=family,
                    sigma_index=variant.sigma_index,
                    primed=variant.primed,
                )
            )
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
                "violated_by_family": [self.by_family()[f] for f in range(1, 9)],
            },
        }


def hardy_check(b: Behavior, tol: float = DEFAULT_TOL) -> ViolationReport:
    """Evaluate all 64 inequalities; a bound is violated when its slack < -tol."""
    checks = []
    for q in HARDY_QUADRUPLES:
        rhs = b.p(q.k) + b.p(q.l) + b.p(q.m)
        lower = rhs - b.p(q.j)
        upper = 1.0 + b.p(q.j) - rhs
        checks.append(
            InequalityCheck(
                quadruple=q,
                lower_slack=lower,
                upper_slack=upper,
                violated_lower=lower < -tol,
                violated_upper=upper < -tol,
            )
        )
    return ViolationReport(tuple(checks), tol)


def hardy_witness(b: Behavior, eps: float = 1e-6) -> tuple[HardyQuadruple, ...]:
    """Quadruples realizing the Hardy pattern: pk, pl, pm <= eps while pj > eps."""
    found = []
    for q in HARDY_QUADRUPLES:
        if max(b.p(q.k), b.p(q.l), b.p(q.m)) <= eps and b.p(q.j) > eps:
            found.append(q)
    return tuple(found)


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

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "sigma": list(self.sigma),
            "sigma_prime": list(self.sigma_prime),
            "delta": list(self.delta),
            "sigma_violations": list(self.sigma_violations),
            "delta_violations": list(self.delta_violations),
            "consistency_residuals": list(self.consistency_residuals),
        }


def chsh_check(b: Behavior, tol: float = DEFAULT_TOL) -> ChshReport:
    """CHSH in both forms.  Requires a normalized box (the two forms are tied
    together by normalization alone; signaling boxes are fine here)."""
    if not is_normalized(b, tol=max(tol, DEFAULT_TOL)):
        raise ValueError("chsh_check needs a normalized behavior")
    sv = sigma_values(b)
    dv = delta_values(b).delta
    sigma_viol = tuple(
        not (1.0 - tol <= sv.sigma[i] <= 3.0 + tol and 1.0 - tol <= sv.sigma_prime[i] <= 3.0 + tol)
        for i in range(4)
    )
    delta_viol = tuple(abs(dv[i]) > 2.0 + tol for i in range(4))
    consistency = tuple(dv[i] - 2.0 * (sv.sigma[i] - 2.0) for i in range(4))
    return ChshReport(
        tol=tol,
        sigma=sv.sigma,
        sigma_prime=sv.sigma_prime,
        delta=dv,
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

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "b_four_term": list(self.b_four_term),
            "b_full": list(self.b_full),
            "four_term_violations": list(self.four_term_violations),
            "full_violations": list(self.full_violations),
        }


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
    sv = sigma_values(b)
    dv = delta_values(b).delta
    four = ch_values(b).b
    full = ch_values_full(b).b
    half = tuple((sv.sigma[i] - 3.0) / 2.0 for i in range(4))
    return EquivalenceAudit(
        tol=tol,
        no_signaling=is_no_signaling(b, tol=tol),
        delta_sigma=tuple(dv[i] - 2.0 * (sv.sigma[i] - 2.0) for i in range(4)),  # type: ignore[arg-type]
        sigma_pair=tuple(sv.sigma[i] + sv.sigma_prime[i] - 4.0 for i in range(4)),  # type: ignore[arg-type]
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
    sigma = sum(b.p(c) for c in SIGMA_SUPPORTS[q.sigma_index])
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
    cells = []
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for m, n in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            hit = a_outcomes[j - 1] == m and b_outcomes[k - 1] == n
            cells.append(1.0 if hit else 0.0)
    return Behavior(tuple(cells))


def local_vertices() -> tuple[Behavior, ...]:
    """All 16 deterministic local boxes (the local polytope's vertices)."""
    outs = (1, -1)
    return tuple(
        local_deterministic_behavior((a1, a2), (b1, b2))
        for a1, a2, b1, b2 in product(outs, outs, outs, outs)
    )
