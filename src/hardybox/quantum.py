"""Two-qubit quantum behaviors and numerical extremal values.

A pure two-qubit state (four complex amplitudes in the z-basis product order
|++>, |+->, |-+>, |-->) together with one Bloch measurement direction per
setting induces a behavior through the Born rule.  The scalar kernel
`_born_cells` computes its probabilities for `born_behavior`; `_born_amps`
gives the searches the amplitudes of the few cells they need, with their
derivatives in the search angles.  The searches:

* `maximize_hardy`: the largest pj compatible with pk = pl = pm = 0 for one
  of the 64 cell quadruples.  The quantum optimum is the fifth power of the
  inverse golden mean, about 0.09017, independent of the quadruple (Hardy,
  PRL 71, 1665 (1993)).
* `maximize_sigma`: extremal values of a CHSH probability sum, reaching
  2 + sqrt(2) (and 2 - sqrt(2) when minimizing).
* `singlet_perfect_correlation_check`: for singlet-state settings realizing
  a three-zero pattern, the four correlations are forced to +-1 and every
  CHSH sum stays inside the classical bounds, i.e. the argument dies on the
  singlet.

Both run `_extremize`: SLSQP descents (Kraft, DFVLR-FB 88-28 (1988)) with
analytic gradients from the points of a Sobol sequence scrambled with a
fixed seed, so results reproduce; the zeros are equality constraints on the
cell amplitudes, smooth trig polynomials of the angles.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from .behavior import Behavior, SchemaError, cell_of, correlation_vector
from .bell import HARDY_QUADRUPLES, SIGMA_SUPPORTS, HardyQuadruple, delta_values

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
        return {name: getattr(self, name).to_json_dict() for name in ("a1", "a2", "b1", "b2")}


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


def _amp(a: Sequence[complex], b: Sequence[complex], psi: Sequence[complex]) -> complex:
    """<e_a x e_b|psi>, with ``a`` and ``b`` the conjugated vectors e_a*, e_b*."""
    return a[0] * (b[0] * psi[0] + b[1] * psi[1]) + a[1] * (b[0] * psi[2] + b[1] * psi[3])


def _born_cells(
    psi: Sequence[complex], dirs: Sequence[tuple[float, float]], cells: Sequence[int]
) -> list[float]:
    """Born probabilities of ``cells`` for amplitudes ``psi``.

    ``dirs`` holds the (theta, phi) of a1, a2, b1, b2.  Plain Python on
    purpose: on sixteen cells or fewer numpy's per-call overhead dominates.
    """
    # <e_a x e_b| needs conjugated eigenvectors, which are those at -phi
    bases = [_eigenstates(theta, -phi) for theta, phi in dirs]
    coords = (_CELL_COORDS[c] for c in cells)
    return [abs(_amp(bases[j - 1][m], bases[1 + k][n], psi)) ** 2 for j, k, m, n in coords]


def _born_amps(
    psi: Sequence[complex],
    dpsi: Sequence[Sequence[complex]],
    dirs: Sequence[tuple[float, float]],
    cells: Sequence[int],
    real: bool,
) -> tuple[list[complex], list[list[complex]]]:
    """Amplitudes <e_a x e_b|psi> of ``cells`` and their derivatives.

    ``dpsi`` holds d(psi)/dx per state parameter.  A derivative row lists the
    state parameters, then theta (and phi unless ``real``) of a1, a2, b1, b2.
    Each entry is the amplitude with one factor differentiated: d(psi), or an
    eigenvector, where d e_m/d theta = -(m/2) e_{-m} (the cell with that
    party's outcome flipped) and phi enters e_m[1] only, as e^{i phi}.
    """
    bases = [_eigenstates(theta, -phi) for theta, phi in dirs]  # conjugated, as in _born_cells
    step = 1 if real else 2
    amps, jac = [], []
    for c in cells:
        j, k, m, n = _CELL_COORDS[c]
        ea, eb = bases[j - 1], bases[1 + k]
        a, b = ea[m], eb[n]
        row = [_amp(a, b, d) for d in dpsi] + [0j] * (4 * step)
        col_a, col_b = len(dpsi) + step * (j - 1), len(dpsi) + step * (1 + k)
        row[col_a] = -0.5 * m * _amp(ea[-m], b, psi)
        row[col_b] = -0.5 * n * _amp(a, eb[-n], psi)
        if not real:
            row[col_a + 1] = _amp((0.0, -1j * a[1]), b, psi)
            row[col_b + 1] = _amp(a, (0.0, -1j * b[1]), psi)
        amps.append(_amp(a, b, psi))
        jac.append(row)
    return amps, jac


def born_behavior(state: TwoQubitState, settings: MeasurementSettings) -> Behavior:
    """Behavior induced by the Born rule; cells follow the package numbering.

    The state must be normalized to within 1e-9.
    """
    dev = abs(state.norm_squared() - 1.0)
    if dev > 1e-9:
        raise ValueError(f"state norm deviates from 1 by {dev:.3e}")
    dirs = [(d.theta, d.phi) for d in (settings.a1, settings.a2, settings.b1, settings.b2)]
    return Behavior(tuple(_born_cells(state.amplitudes, dirs, range(1, 17))))


#: Largest ``OptimizerConfig.starts``; checked before any start is drawn.
MAX_STARTS = 4096


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multi-start constrained search; bad values raise `SchemaError`.

    ``starts`` points (1..`MAX_STARTS`) of a Sobol sequence scrambled with
    ``seed`` each start one descent, which counts when its constrained cells
    are at most ``constraint_tol``.  ``real_mode`` restricts amplitudes and
    directions to the x-z plane (phases zero), which is enough for every
    extremum this package targets and roughly halves the search dimension;
    ``product_mode`` restricts the state to a tensor product.
    """

    starts: int = 64
    constraint_tol: float = 1e-7
    seed: int = 20201
    real_mode: bool = True
    product_mode: bool = False

    def __post_init__(self) -> None:
        rules = {  # field: (accepted types, range check, what the error asks for)
            "starts": (int, lambda v: 1 <= v <= MAX_STARTS, f"an integer in 1..{MAX_STARTS}"),
            "constraint_tol": ((int, float), lambda v: 0 < v < math.inf, "a finite number > 0"),
            "seed": (int, lambda v: v >= 0, "an integer >= 0"),
            "real_mode": (bool, lambda v: True, "true or false"),
            "product_mode": (bool, lambda v: True, "true or false"),
        }
        for name, (types, in_range, what) in rules.items():
            v = getattr(self, name)
            # bool is an int subclass: accept it only where a bool is wanted
            if not (isinstance(v, types) and (types is bool) == isinstance(v, bool) and in_range(v)):
                raise SchemaError(f"{name} must be {what}, got {v!r}", name)
        object.__setattr__(self, "constraint_tol", float(self.constraint_tol))

    def to_json_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json_dict(doc: dict) -> "OptimizerConfig":
        """Config from a JSON object; absent fields take their defaults."""
        if not isinstance(doc, dict):
            raise SchemaError("optimizer config must be a JSON object", "$")
        unknown = sorted(set(doc) - {f.name for f in fields(OptimizerConfig)})
        if unknown:
            raise SchemaError(f"unknown optimizer config field {unknown[0]!r}", unknown[0])
        return OptimizerConfig(**doc)


def _hypersphere(a: Sequence[float]) -> tuple[list[float], list[list[float]]]:
    """Unit 4-vector from three hyperspherical angles, and its derivative per angle."""
    s0, s1, s2 = (math.sin(t) for t in a)
    c0, c1, c2 = (math.cos(t) for t in a)
    coords = [c0, s0 * c1, s0 * s1 * c2, s0 * s1 * s2]
    jac = [
        [-s0, c0 * c1, c0 * s1 * c2, c0 * s1 * s2],
        [0.0, -s0 * s1, s0 * c1 * c2, s0 * c1 * s2],
        [0.0, 0.0, -s0 * s1 * s2, s0 * s1 * c2],
    ]
    return coords, jac


def _qubit(theta: float, phi: float) -> tuple[tuple[complex, complex], list[tuple[complex, complex]]]:
    """(cos theta, e^{i phi} sin theta) and its theta and phi derivatives."""
    c, s, ph = math.cos(theta), math.sin(theta), cmath.exp(1j * phi)
    return (c, ph * s), [(-s, ph * c), (0.0, 1j * ph * s)]


def _kron2(u: Sequence[complex], v: Sequence[complex]) -> tuple[complex, ...]:
    return (u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])


class _SearchSpace:
    """Angle parametrization of (state, settings) pairs.

    State block (absent when the state is fixed): 3 hypersphere angles for a
    real 4-vector, or 3 magnitude angles + 3 relative phases in complex mode
    (first amplitude kept real, removing the global phase); 1 angle per qubit
    in real product mode, (theta, phi) per qubit in complex product mode.
    Settings block: one polar angle per direction in real mode, (theta, phi)
    pairs otherwise.
    """

    def __init__(self, real_mode: bool, product_mode: bool, fixed_state: TwoQubitState | None = None):
        self.real_mode = real_mode
        self.product_mode = product_mode
        self.fixed_state = fixed_state
        per_real_angle = 1 if real_mode else 2  # complex mode adds a phase per angle
        self.n_state = 0 if fixed_state is not None else (2 if product_mode else 3) * per_real_angle
        self.dims = self.n_state + 4 * per_real_angle
        # cell amplitudes are real functions of x only in real mode with a real state
        self.complex_amps = not real_mode or (
            fixed_state is not None and any(a.imag for a in fixed_state.amplitudes)
        )

    def state_of(self, x: np.ndarray) -> tuple[tuple[complex, ...], list[tuple[complex, ...]]]:
        """The amplitudes psi(x) and d(psi)/dx for each state parameter."""
        if self.fixed_state is not None:
            return self.fixed_state.amplitudes, []
        if self.product_mode:
            keep = 1 if self.real_mode else 2
            angles = ((x[0], 0.0), (x[1], 0.0)) if self.real_mode else ((x[0], x[1]), (x[2], x[3]))
            (qa, dqa), (qb, dqb) = (_qubit(*t) for t in angles)
            dpsi = [_kron2(d, qb) for d in dqa[:keep]] + [_kron2(qa, d) for d in dqb[:keep]]
            return _kron2(qa, qb), dpsi
        mags, dmags = _hypersphere(x[0:3])
        if self.real_mode:
            return tuple(mags), dmags
        phases = (1.0, *(cmath.exp(1j * p) for p in x[3:6]))
        psi = tuple(m * p for m, p in zip(mags, phases))
        dpsi = [tuple(d * p for d, p in zip(row, phases)) for row in dmags]
        dpsi += [tuple(1j * psi[q] if i == q else 0j for i in range(4)) for q in (1, 2, 3)]
        return psi, dpsi

    def directions_of(self, x: np.ndarray) -> tuple[tuple[float, float], ...]:
        s = x[self.n_state :]
        return tuple((t, 0.0) for t in s) if self.real_mode else tuple(zip(s[::2], s[1::2]))

    def amplitudes(self, x: np.ndarray, cells: Sequence[int]) -> tuple[list[complex], list[list[complex]]]:
        """Amplitudes of ``cells`` at ``x`` and their Jacobian, one row per cell."""
        x = x.tolist()  # Python floats: faster scalar math than numpy scalars
        psi, dpsi = self.state_of(x)
        return _born_amps(psi, dpsi, self.directions_of(x), cells, self.real_mode)

    def unpack(self, x: np.ndarray) -> tuple[TwoQubitState, MeasurementSettings]:
        psi, _ = self.state_of(x)
        norm = math.sqrt(sum(abs(a) ** 2 for a in psi))
        state = TwoQubitState(tuple(a / norm for a in psi))
        return state, MeasurementSettings(*(BlochDirection(*d) for d in self.directions_of(x)))


def _sobol_starts(space: _SearchSpace, n: int, seed: int) -> np.ndarray:
    """``n`` scrambled Sobol points: angles in [0, pi), phases and azimuths in [0, 2 pi)."""
    hi = np.full(space.dims, math.pi)
    if not space.real_mode:
        if space.n_state == 6:
            hi[3:6] = 2.0 * math.pi  # phase block
        hi[space.n_state + 1 :: 2] = 2.0 * math.pi  # azimuths
    sampler = qmc.Sobol(d=space.dims, scramble=True, seed=seed)
    return hi * sampler.random_base2(max(1, math.ceil(math.log2(n))))[:n]


@dataclass(frozen=True)
class SearchDiagnostics:
    """How a search reached its result; no wall time, so it reproduces.

    ``kernel_evaluations`` counts `_born_amps` calls over all descents;
    ``max_constrained_cell`` is the largest constrained probability at the
    returned point (0 without constraints).
    """

    starts_tried: int
    starts_feasible: int
    winning_start: int
    kernel_evaluations: int
    max_constrained_cell: float

    def to_json_dict(self) -> dict:
        return asdict(self)


# SLSQP iteration cap and stopping tolerance of each descent; the winner is
# descended once more at the tighter _POLISH_FTOL
_MAXITER = 100
_FTOL = 1e-12
_POLISH_FTOL = 1e-15


def _extremize(
    space: _SearchSpace,
    objective_cells: Sequence[int],
    zero_cells: Sequence[int],
    sign: float,
    cfg: OptimizerConfig,
) -> tuple[TwoQubitState, MeasurementSettings, Behavior, SearchDiagnostics]:
    """Minimize ``sign`` times the probability sum of ``objective_cells``
    subject to zero amplitude on each of ``zero_cells``.

    Zero amplitudes (real and, where complex, imaginary parts) are regular
    equality constraints; zero probabilities, whose gradient vanishes where
    they hold, are not.  Of the SLSQP descents from the Sobol starts, those
    that converge with every constrained cell within ``cfg.constraint_tol``
    are ranked by (objective, start index); the winner is descended once
    more.  Returns its state, settings, Born behavior and diagnostics, or
    raises `ConvergenceError` if no descent qualifies.
    """
    n_obj = len(objective_cells)

    @functools.lru_cache(maxsize=1)  # SLSQP asks for value, gradient, constraints at one x
    def kernel(key: bytes) -> tuple[np.ndarray, np.ndarray]:
        amps, jac = space.amplitudes(np.frombuffer(key), (*objective_cells, *zero_cells))
        return np.array(amps), np.array(jac)

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        amps, jac = kernel(x.tobytes())
        obj = amps[:n_obj]
        grad = 2.0 * sign * (obj[:, None].conj() * jac[:n_obj]).real.sum(axis=0)
        return sign * float(np.sum(np.abs(obj) ** 2)), grad

    def zeros(x: np.ndarray, part: int) -> np.ndarray:
        z = kernel(x.tobytes())[part][n_obj:]  # part 0: values, 1: Jacobian rows
        return np.concatenate((z.real, z.imag)) if space.complex_amps else z.real

    constraints = [
        {"type": "eq", "fun": lambda x: zeros(x, 0), "jac": lambda x: zeros(x, 1)}
    ] if zero_cells else []

    def descend(x0: np.ndarray, ftol: float) -> tuple[np.ndarray, float, float, bool]:
        res = minimize(
            fun, x0, jac=True, method="SLSQP", constraints=constraints,
            options={"maxiter": _MAXITER, "ftol": ftol},
        )
        resid = float(np.max(np.abs(kernel(res.x.tobytes())[0][n_obj:]) ** 2, initial=0.0))
        return res.x, fun(res.x)[0], resid, bool(res.success) and resid <= cfg.constraint_tol

    results = [descend(x0, _FTOL) for x0 in _sobol_starts(space, cfg.starts, cfg.seed)]
    feasible = [(f, i) for i, (_, f, _, ok) in enumerate(results) if ok]
    if not feasible:
        raise ConvergenceError(
            f"none of {cfg.starts} starts converged with constrained cells within "
            f"{cfg.constraint_tol:g} (smallest residual {min(r[2] for r in results):.3e})"
        )
    _, winner = min(feasible)
    polished = descend(results[winner][0], _POLISH_FTOL)
    x, _, resid, _ = polished if polished[3] else results[winner]
    state, settings = space.unpack(x)
    return state, settings, born_behavior(state, settings), SearchDiagnostics(
        starts_tried=cfg.starts,
        starts_feasible=len(feasible),
        winning_start=winner,
        kernel_evaluations=kernel.cache_info().misses,
        max_constrained_cell=resid,
    )


@dataclass(frozen=True)
class HardyOptimum:
    """Result of `maximize_hardy`; ``pj_value``, ``zero_residual`` come from `born_behavior`."""

    quadruple: HardyQuadruple
    state: TwoQubitState
    settings: MeasurementSettings
    pj_value: float
    zero_residual: float
    diagnostics: SearchDiagnostics

    def to_json_dict(self) -> dict:
        return {
            "quadruple": self.quadruple.to_json_dict(),
            "pj": self.pj_value,
            "zero_residual": self.zero_residual,
            "state": self.state.to_json_dict(),
            "settings": self.settings.to_json_dict(),
            "diagnostics": self.diagnostics.to_json_dict(),
        }


def maximize_hardy(
    q: HardyQuadruple,
    cfg: OptimizerConfig | None = None,
    fixed_state: TwoQubitState | None = None,
) -> HardyOptimum:
    """Search for the largest pj subject to pk = pl = pm = 0 (see `_extremize`).

    Raises `ConvergenceError` if no start gets the three constrained cells
    within ``cfg.constraint_tol``.
    """
    cfg = cfg or OptimizerConfig()
    space = _SearchSpace(cfg.real_mode, cfg.product_mode, fixed_state=fixed_state)
    state, settings, b, diagnostics = _extremize(space, (q.j,), (q.k, q.l, q.m), -1.0, cfg)
    return HardyOptimum(
        quadruple=q,
        state=state,
        settings=settings,
        pj_value=b.p(q.j),
        zero_residual=max(b.p(q.k), b.p(q.l), b.p(q.m)),
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class SigmaOptimum:
    sigma_index: int
    minimize: bool
    value: float
    state: TwoQubitState
    settings: MeasurementSettings
    diagnostics: SearchDiagnostics

    def to_json_dict(self) -> dict:
        return {
            "sigma_index": self.sigma_index,
            "minimize": self.minimize,
            "value": self.value,
            "state": self.state.to_json_dict(),
            "settings": self.settings.to_json_dict(),
            "diagnostics": self.diagnostics.to_json_dict(),
        }


def maximize_sigma(
    sigma_index: int, cfg: OptimizerConfig | None = None, minimize_value: bool = False
) -> SigmaOptimum:
    """Extremize one CHSH probability sum over states and settings.

    Unconstrained search; ``constraint_tol`` is unused.  ``product_mode``
    restricts to unentangled states, whose extrema are the classical 1 and 3.
    """
    if sigma_index not in (1, 2, 3, 4):
        raise ValueError(f"sigma index must be 1..4, got {sigma_index!r}")
    cfg = cfg or OptimizerConfig()
    space = _SearchSpace(cfg.real_mode, cfg.product_mode)
    sign = 1.0 if minimize_value else -1.0
    state, settings, b, diagnostics = _extremize(space, SIGMA_SUPPORTS[sigma_index], (), sign, cfg)
    return SigmaOptimum(
        sigma_index=sigma_index,
        minimize=minimize_value,
        value=sum(b.p(c) for c in SIGMA_SUPPORTS[sigma_index]),
        state=state,
        settings=settings,
        diagnostics=diagnostics,
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
    b = born_behavior(singlet(), settings)
    patterns = tuple(
        q for q in HARDY_QUADRUPLES if max(b.p(q.k), b.p(q.l), b.p(q.m)) <= eps
    )
    if not patterns:
        raise ValueError("no quadruple has its three bounding cells below eps")
    corr = correlation_vector(b).as_tuple()
    deltas = delta_values(b).delta
    return PerfectCorrelationReport(
        patterns=patterns,
        correlations=corr,
        deltas=deltas,
        correlations_ok=all(abs(c) >= 1.0 - 10.0 * eps for c in corr),
        deltas_ok=all(abs(d) <= 2.0 + 40.0 * eps for d in deltas),
    )
