"""Two-qubit quantum behaviors and numerical extremal values.

A pure two-qubit state (four complex amplitudes in the z-basis product order
|++>, |+->, |-+>, |-->) together with one Bloch measurement direction per
setting induces a behavior through the Born rule.  One scalar kernel,
`_born_cells`, computes it: `born_behavior` asks for all sixteen cells and the
search objectives for the few cells they need.  On top of that sit three
derivative-free searches:

* `maximize_hardy`: the largest pj compatible with pk = pl = pm = 0 for one
  of the 64 cell quadruples.  The quantum optimum is the fifth power of the
  inverse golden mean, about 0.09017, independent of the quadruple.
* `maximize_sigma`: extremal values of a CHSH probability sum, reaching
  2 + sqrt(2) (and 2 - sqrt(2) when minimizing).
* `singlet_perfect_correlation_check`: for singlet-state settings realizing
  a three-zero pattern, the four correlations are forced to +-1 and every
  CHSH sum stays inside the classical bounds, i.e. the argument dies on the
  singlet.

The search is a multi-start Nelder-Mead simplex over explicit angle
parameters with a quadratic penalty for the zero constraints, escalated over
rounds, followed by a feasibility polish that keeps raising the penalty
until the constrained cells sit below ``constraint_tol``.  Start points come
from a scrambled low-discrepancy sequence with a fixed seed, so results are
reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from .behavior import Behavior, cell_of
from .bell import SIGMA_SUPPORTS, HardyQuadruple, delta_values

#: Largest Hardy probability reachable by two-qubit states: golden mean to the -5.
HARDY_MAX_PROBABILITY = (2.0 / (1.0 + math.sqrt(5.0))) ** 5

#: Quantum extrema of the CHSH probability sums.
SIGMA_QUANTUM_MAX = 2.0 + math.sqrt(2.0)
SIGMA_QUANTUM_MIN = 2.0 - math.sqrt(2.0)


class ConvergenceError(RuntimeError):
    """The search did not reach the requested constraint tolerance."""


@dataclass(frozen=True)
class TwoQubitState:
    """Pure state as four complex amplitudes, product z-basis order."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError(f"need 4 amplitudes, got {len(amps)}")
        if not all(math.isfinite(a.real) and math.isfinite(a.imag) for a in amps):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes)

    def as_array(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    def to_json_dict(self) -> dict:
        return {"amplitudes": [[a.real, a.imag] for a in self.amplitudes]}


def singlet() -> TwoQubitState:
    """The spin singlet (|+-> - |-+>)/sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return TwoQubitState((0.0, r, -r, 0.0))


@dataclass(frozen=True)
class BlochDirection:
    """Measurement direction on the Bloch sphere, spherical angles in radians."""

    theta: float
    phi: float = 0.0

    def unit_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return (st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta))

    def eigenstate(self, outcome: int) -> tuple[complex, complex]:
        """Eigenvector of the spin observable along this direction."""
        if outcome not in (1, -1):
            raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
        return _eigenstates(self.theta, self.phi)[outcome]

    def to_json_dict(self) -> dict:
        return {"theta": self.theta, "phi": self.phi}


@dataclass(frozen=True)
class MeasurementSettings:
    """One Bloch direction per setting."""

    a1: BlochDirection
    a2: BlochDirection
    b1: BlochDirection
    b2: BlochDirection

    def for_a(self, setting: int) -> BlochDirection:
        return self.a1 if setting == 1 else self.a2

    def for_b(self, setting: int) -> BlochDirection:
        return self.b1 if setting == 1 else self.b2

    def to_json_dict(self) -> dict:
        return {
            "a1": self.a1.to_json_dict(),
            "a2": self.a2.to_json_dict(),
            "b1": self.b1.to_json_dict(),
            "b2": self.b2.to_json_dict(),
        }


def all_z_settings() -> MeasurementSettings:
    z = BlochDirection(0.0, 0.0)
    return MeasurementSettings(z, z, z, z)


def _eigenstates(theta: float, phi: float) -> dict[int, tuple[complex, complex]]:
    """Spin eigenvectors along (theta, phi), keyed by outcome +1 / -1."""
    half = 0.5 * theta
    phase = cmath.exp(1j * phi)
    cos, sin = math.cos(half), math.sin(half)
    return {1: (cos, phase * sin), -1: (sin, -phase * cos)}


_CELL_COORDS = {c: cell_of(c) for c in range(1, 17)}


def _born_cells(
    psi: Sequence[complex], dirs: Sequence[tuple[float, float]], cells: Sequence[int]
) -> list[float]:
    """Born probabilities of ``cells`` for amplitudes ``psi``.

    ``dirs`` holds the (theta, phi) of a1, a2, b1, b2.  Plain Python on
    purpose: the searches call this a few hundred thousand times on a handful
    of cells, where numpy's per-call overhead dominates.
    """
    bases = [_eigenstates(theta, phi) for theta, phi in dirs]
    out = []
    for c in cells:
        j, k, m, n = _CELL_COORDS[c]
        ca = bases[j - 1][m]
        cb = bases[1 + k][n]
        amp = (
            (ca[0] * cb[0]).conjugate() * psi[0]
            + (ca[0] * cb[1]).conjugate() * psi[1]
            + (ca[1] * cb[0]).conjugate() * psi[2]
            + (ca[1] * cb[1]).conjugate() * psi[3]
        )
        out.append(abs(amp) ** 2)
    return out


def born_behavior(state: TwoQubitState, settings: MeasurementSettings) -> Behavior:
    """Behavior induced by the Born rule; cells follow the package numbering.

    The state must be normalized to within 1e-9.
    """
    dev = abs(state.norm_squared() - 1.0)
    if dev > 1e-9:
        raise ValueError(f"state norm deviates from 1 by {dev:.3e}")
    dirs = [(d.theta, d.phi) for d in (settings.a1, settings.a2, settings.b1, settings.b2)]
    return Behavior(tuple(_born_cells(state.amplitudes, dirs, range(1, 17))))


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multi-start penalized simplex search.

    ``penalty_weights`` must have one weight per round.  ``real_mode``
    restricts amplitudes and directions to the x-z plane (phases zero),
    which is enough for every extremum this package targets and roughly
    halves the search dimension; ``product_mode`` restricts the state to a
    tensor product, disabling entanglement.
    """

    starts: int = 64
    rounds: int = 3
    penalty_weights: tuple[float, ...] = (1e2, 1e4, 1e6)
    constraint_tol: float = 1e-7
    seed: int = 20201
    real_mode: bool = True
    product_mode: bool = False

    def __post_init__(self) -> None:
        if self.rounds != len(self.penalty_weights):
            raise ValueError(
                f"rounds ({self.rounds}) must match penalty_weights "
                f"({len(self.penalty_weights)} given)"
            )
        if self.starts < 1:
            raise ValueError("starts must be positive")

    def to_json_dict(self) -> dict:
        return {
            "starts": self.starts,
            "rounds": self.rounds,
            "penalty_weights": list(self.penalty_weights),
            "constraint_tol": self.constraint_tol,
            "seed": self.seed,
            "real_mode": self.real_mode,
            "product_mode": self.product_mode,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "OptimizerConfig":
        base = OptimizerConfig()
        kwargs = {
            "starts": int(doc.get("starts", base.starts)),
            "rounds": int(doc.get("rounds", base.rounds)),
            "penalty_weights": tuple(float(w) for w in doc.get("penalty_weights", base.penalty_weights)),
            "constraint_tol": float(doc.get("constraint_tol", base.constraint_tol)),
            "seed": int(doc.get("seed", base.seed)),
            "real_mode": bool(doc.get("real_mode", base.real_mode)),
            "product_mode": bool(doc.get("product_mode", base.product_mode)),
        }
        unknown = set(doc) - set(kwargs)
        if unknown:
            raise ValueError(f"unknown optimizer config fields: {sorted(unknown)}")
        return OptimizerConfig(**kwargs)


class _SearchSpace:
    """Angle parametrization of (state, settings) pairs.

    State block (absent when the state is fixed): 3 hypersphere angles for a
    real 4-vector, or 3 magnitude angles + 3 relative phases in complex mode
    (first amplitude kept real, removing the global phase); 1 angle per qubit
    in real product mode, (theta, phi) per qubit in complex product mode.
    Settings block: one polar angle per direction in real mode, (theta, phi)
    pairs otherwise.
    """

    def __init__(
        self,
        real_mode: bool,
        product_mode: bool,
        fixed_state: TwoQubitState | None = None,
    ):
        self.real_mode = real_mode
        self.product_mode = product_mode
        self.fixed_state = fixed_state
        if fixed_state is not None:
            self.n_state = 0
        elif product_mode:
            self.n_state = 2 if real_mode else 4
        else:
            self.n_state = 3 if real_mode else 6
        self.n_settings = 4 if real_mode else 8
        self.dims = self.n_state + self.n_settings

    def initial_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.zeros(self.dims)
        hi = np.empty(self.dims)
        hi[: self.n_state] = math.pi
        if not self.real_mode and self.fixed_state is None and not self.product_mode:
            hi[3 : self.n_state] = 2.0 * math.pi  # phase block
        hi[self.n_state :] = math.pi
        if not self.real_mode:
            hi[self.n_state + 1 :: 2] = 2.0 * math.pi  # azimuths
        return lo, hi

    @staticmethod
    def _hypersphere(angles: Sequence[float]) -> list[float]:
        coords = []
        run = 1.0
        for a in angles:
            coords.append(run * math.cos(a))
            run *= math.sin(a)
        coords.append(run)
        return coords

    def state_of(self, x: np.ndarray) -> tuple[complex, complex, complex, complex]:
        if self.fixed_state is not None:
            return self.fixed_state.amplitudes
        if self.product_mode:
            if self.real_mode:
                qa = (math.cos(x[0]), math.sin(x[0]))
                qb = (math.cos(x[1]), math.sin(x[1]))
            else:
                qa = (math.cos(x[0]), cmath.exp(1j * x[1]) * math.sin(x[0]))
                qb = (math.cos(x[2]), cmath.exp(1j * x[3]) * math.sin(x[2]))
            return (qa[0] * qb[0], qa[0] * qb[1], qa[1] * qb[0], qa[1] * qb[1])
        if self.real_mode:
            c = self._hypersphere(x[0:3])
            return (c[0], c[1], c[2], c[3])
        mags = self._hypersphere(x[0:3])
        return (
            mags[0],
            mags[1] * cmath.exp(1j * x[3]),
            mags[2] * cmath.exp(1j * x[4]),
            mags[3] * cmath.exp(1j * x[5]),
        )

    def directions_of(self, x: np.ndarray) -> tuple[tuple[float, float], ...]:
        s = x[self.n_state :]
        if self.real_mode:
            return ((s[0], 0.0), (s[1], 0.0), (s[2], 0.0), (s[3], 0.0))
        return ((s[0], s[1]), (s[2], s[3]), (s[4], s[5]), (s[6], s[7]))

    def unpack(self, x: np.ndarray) -> tuple[TwoQubitState, MeasurementSettings]:
        psi = self.state_of(x)
        norm = math.sqrt(sum(abs(a) ** 2 for a in psi))
        state = TwoQubitState(tuple(a / norm for a in psi))
        d = self.directions_of(x)
        return state, MeasurementSettings(
            BlochDirection(*d[0]), BlochDirection(*d[1]), BlochDirection(*d[2]), BlochDirection(*d[3])
        )

    def cell_evaluator(self, cells: Sequence[int]) -> Callable[[np.ndarray], tuple[float, ...]]:
        """Probabilities of the given cells as a function of the parameters."""
        def evaluate(x: np.ndarray) -> tuple[float, ...]:
            return tuple(_born_cells(self.state_of(x), self.directions_of(x), cells))

        return evaluate


def _sobol_starts(space: _SearchSpace, n: int, seed: int) -> np.ndarray:
    lo, hi = space.initial_ranges()
    sampler = qmc.Sobol(d=space.dims, scramble=True, seed=seed)
    m = max(1, math.ceil(math.log2(n)))
    pts = sampler.random_base2(m)[:n]
    return lo + pts * (hi - lo)


def _simplex_min(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    maxfev: int,
    xatol: float,
    fatol: float,
    step: float | None = None,
) -> tuple[np.ndarray, float]:
    options: dict = {"maxfev": maxfev, "xatol": xatol, "fatol": fatol, "adaptive": True}
    if step is not None:
        n = len(x0)
        simplex = np.tile(x0, (n + 1, 1))
        for i in range(n):
            simplex[i + 1, i] += step
        options["initial_simplex"] = simplex
    res = minimize(f, x0, method="Nelder-Mead", options=options)
    return np.asarray(res.x), float(res.fun)


@dataclass(frozen=True)
class HardyOptimum:
    """Result of `maximize_hardy`.

    ``pj_value`` and ``zero_residual`` are recomputed from `born_behavior` at
    the reported point.  ``search_x``/``search_weight`` record the point and
    penalty weight of the last configured round, before the feasibility
    polish; the penalized objective is stationary there.
    """

    quadruple: HardyQuadruple
    state: TwoQubitState
    settings: MeasurementSettings
    pj_value: float
    zero_residual: float
    search_x: tuple[float, ...]
    search_weight: float

    def to_json_dict(self) -> dict:
        return {
            "quadruple": self.quadruple.to_json_dict(),
            "pj": self.pj_value,
            "zero_residual": self.zero_residual,
            "state": self.state.to_json_dict(),
            "settings": self.settings.to_json_dict(),
        }


def _rank_key(fun: float, resid: float, idx: int) -> tuple[float, float, int]:
    return (fun, resid, idx)


def maximize_hardy(
    q: HardyQuadruple,
    cfg: OptimizerConfig | None = None,
    fixed_state: TwoQubitState | None = None,
) -> HardyOptimum:
    """Search for the largest pj subject to pk = pl = pm = 0.

    Runs ``cfg.starts`` simplex descents through the escalating penalty
    rounds, refines the best few at the final weight, then raises the penalty
    further until the three constrained cells drop below
    ``cfg.constraint_tol`` (feasibility polish).  Raises `ConvergenceError`
    if no candidate reaches the tolerance.
    """
    cfg = cfg or OptimizerConfig()
    space = _SearchSpace(cfg.real_mode, cfg.product_mode, fixed_state=fixed_state)
    cells = space.cell_evaluator((q.j, q.k, q.l, q.m))

    def objective(weight: float) -> Callable[[np.ndarray], float]:
        def f(x: np.ndarray) -> float:
            pj, pk, pl, pm = cells(x)
            return -pj + weight * (pk * pk + pl * pl + pm * pm)

        return f

    def residual(x: np.ndarray) -> float:
        return max(cells(x)[1:])

    starts = _sobol_starts(space, cfg.starts, cfg.seed)
    final_w = cfg.penalty_weights[-1]
    f_final = objective(final_w)

    coarse_budget = 260 * space.dims
    candidates: list[tuple[float, float, int, np.ndarray]] = []
    for idx, x0 in enumerate(starts):
        x = x0
        for w in cfg.penalty_weights:
            x, _ = _simplex_min(objective(w), x, coarse_budget, xatol=1e-8, fatol=1e-11)
        candidates.append((f_final(x), residual(x), idx, x))
    candidates.sort(key=lambda t: _rank_key(t[0], t[1], t[2]))

    refined: list[tuple[float, float, int, np.ndarray]] = []
    for fun, resid, idx, x in candidates[:4]:
        xr, fr = _simplex_min(
            f_final, x, 600 * space.dims, xatol=1e-13, fatol=1e-16, step=1e-5
        )
        refined.append((fr, residual(xr), idx, xr))
    refined.sort(key=lambda t: _rank_key(t[0], t[1], t[2]))
    _, _, _, x_search = refined[0]

    # aim two decades below tolerance: the pj bias off the constraint
    # manifold scales like the square root of the residual
    x = x_search
    w = final_w
    while residual(x) > 0.01 * cfg.constraint_tol and w < 1e15:
        w *= 100.0
        x, _ = _simplex_min(objective(w), x, 400 * space.dims, xatol=1e-13, fatol=1e-18, step=1e-6)
    if residual(x) > cfg.constraint_tol:
        raise ConvergenceError(
            f"constraint residual {residual(x):.3e} above tolerance {cfg.constraint_tol:g}"
        )

    state, settings = space.unpack(x)
    b = born_behavior(state, settings)
    return HardyOptimum(
        quadruple=q,
        state=state,
        settings=settings,
        pj_value=b.p(q.j),
        zero_residual=max(b.p(q.k), b.p(q.l), b.p(q.m)),
        search_x=tuple(float(v) for v in x_search),
        search_weight=final_w,
    )


@dataclass(frozen=True)
class SigmaOptimum:
    sigma_index: int
    minimize: bool
    value: float
    state: TwoQubitState
    settings: MeasurementSettings

    def to_json_dict(self) -> dict:
        return {
            "sigma_index": self.sigma_index,
            "minimize": self.minimize,
            "value": self.value,
            "state": self.state.to_json_dict(),
            "settings": self.settings.to_json_dict(),
        }


def maximize_sigma(
    sigma_index: int, cfg: OptimizerConfig | None = None, minimize_value: bool = False
) -> SigmaOptimum:
    """Extremize one CHSH probability sum over states and settings.

    Unconstrained search; penalty weights are unused.  ``product_mode``
    restricts to unentangled states, whose extrema are the classical 1 and 3.
    """
    if sigma_index not in (1, 2, 3, 4):
        raise ValueError(f"sigma index must be 1..4, got {sigma_index!r}")
    cfg = cfg or OptimizerConfig()
    space = _SearchSpace(cfg.real_mode, cfg.product_mode)
    cells = space.cell_evaluator(SIGMA_SUPPORTS[sigma_index])
    sign = 1.0 if minimize_value else -1.0

    def f(x: np.ndarray) -> float:
        return sign * sum(cells(x))

    starts = _sobol_starts(space, cfg.starts, cfg.seed)
    budget = 300 * space.dims
    candidates = []
    for idx, x0 in enumerate(starts):
        x, fv = _simplex_min(f, x0, budget, xatol=1e-9, fatol=1e-12)
        candidates.append((fv, 0.0, idx, x))
    candidates.sort(key=lambda t: _rank_key(t[0], t[1], t[2]))
    refined = []
    for fv, _, idx, x in candidates[:4]:
        xr, fr = _simplex_min(f, x, 600 * space.dims, xatol=1e-13, fatol=1e-16, step=1e-5)
        refined.append((fr, 0.0, idx, xr))
    refined.sort(key=lambda t: _rank_key(t[0], t[1], t[2]))
    x_best = refined[0][3]

    state, settings = space.unpack(x_best)
    b = born_behavior(state, settings)
    value = sum(b.p(c) for c in SIGMA_SUPPORTS[sigma_index])
    return SigmaOptimum(
        sigma_index=sigma_index,
        minimize=minimize_value,
        value=value,
        state=state,
        settings=settings,
    )


@dataclass(frozen=True)
class PerfectCorrelationReport:
    """Outcome of the singlet three-zero analysis."""

    patterns: tuple[HardyQuadruple, ...]
    correlations: tuple[float, float, float, float]
    deltas: tuple[float, float, float, float]
    correlations_ok: bool
    deltas_ok: bool

    @property
    def passed(self) -> bool:
        return self.correlations_ok and self.deltas_ok

    def to_json_dict(self) -> dict:
        return {
            "patterns": [q.to_json_dict() for q in self.patterns],
            "correlations": list(self.correlations),
            "deltas": list(self.deltas),
            "correlations_ok": self.correlations_ok,
            "deltas_ok": self.deltas_ok,
            "passed": self.passed,
        }


def singlet_perfect_correlation_check(
    settings: MeasurementSettings, eps: float = 1e-6
) -> PerfectCorrelationReport:
    """Verify that a three-zero pattern on the singlet kills the argument.

    Requires the singlet behavior at ``settings`` to contain at least one
    quadruple with pk, pl, pm <= eps (ValueError otherwise).  Asserts that
    all four correlations have magnitude >= 1 - 10*eps and all CHSH sums
    satisfy |Delta_i| <= 2 + 40*eps; the report carries the outcome.
    """
    from .bell import HARDY_QUADRUPLES  # local import keeps module load light

    b = born_behavior(singlet(), settings)
    patterns = tuple(
        q for q in HARDY_QUADRUPLES if max(b.p(q.k), b.p(q.l), b.p(q.m)) <= eps
    )
    if not patterns:
        raise ValueError("no quadruple has its three bounding cells below eps")
    from .behavior import correlation_vector

    corr = correlation_vector(b).as_tuple()
    deltas = delta_values(b).delta
    return PerfectCorrelationReport(
        patterns=patterns,
        correlations=corr,
        deltas=deltas,
        correlations_ok=all(abs(c) >= 1.0 - 10.0 * eps for c in corr),
        deltas_ok=all(abs(d) <= 2.0 + 40.0 * eps for d in deltas),
    )
