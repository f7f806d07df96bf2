"""Two-qubit quantum behaviors and numerical extremal values.

A pure two-qubit state (four complex amplitudes in the z-basis product order
|++>, |+->, |-+>, |-->) together with one Bloch measurement direction per
setting induces a behavior through the Born rule.  One scalar kernel,
`_born_amps`, computes cell amplitudes: all sixteen and nothing else for
`born_behavior`, which squares them; for the searches, the few cells they
need together with their derivatives in the search angles.  The searches:

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

Both run `_extremize`: one SLSQP descent (Kraft, DFVLR-FB 88-28 (1988))
with analytic gradients from each of a set of uniform random starts drawn by
numpy's generator with a fixed seed, so results reproduce; the zeros are
equality constraints on the cell amplitudes, smooth trig polynomials of the
angles.  scipy >= 1.16 supplies the solver: its SLSQP kernel,
`scipy.optimize._slsqplib.slsqp`, driven here directly.  It is imported on
the first search, so importing the package, and every command that does
not search, runs without scipy.

Each descent is one generator, `_descent`, that yields the points it needs
evaluated.  They run in lockstep, in groups of up to 64 starts
(`_descend`): each round sends every live descent of a group its point's
evaluation, and one evaluator, `_evaluator`, takes the new points they
yield together.  Float amplitudes (below) in rounds of 4 points or more
(`_BATCH_MIN`) go through one numpy pass over all of them, elementwise with
the same float operations in the same order, so each point gets the same
bits as alone; complex amplitudes, and smaller rounds, go point by point.

In real mode (the default) every search point is one pass in float
arithmetic: the state, the eigenvectors and hence the amplitudes are real
there, and complex arithmetic on numbers whose imaginary parts are zero
rounds each real part exactly as float arithmetic does.  So the floats equal
the real parts of the complex computation bit for bit (an exact zero may
differ in sign), and with the sums over cells added in numpy's order the
searches return the same bits as a complex pass would, at about half the
cost per point.  Complex mode runs the same kernel on complex numbers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

from .behavior import Behavior, ConvergenceError, SchemaError, as_int, cell_of, correlation_vector, record_to_json, to_json
from .bell import HARDY_QUADRUPLES, SIGMA_SUPPORTS, HardyQuadruple, delta_values, sigma_values

#: Largest Hardy probability reachable by two-qubit states: golden mean to the -5.
HARDY_MAX_PROBABILITY = (2.0 / (1.0 + math.sqrt(5.0))) ** 5

#: Quantum extrema of the CHSH probability sums.
SIGMA_QUANTUM_MAX = 2.0 + math.sqrt(2.0)
SIGMA_QUANTUM_MIN = 2.0 - math.sqrt(2.0)


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
        return {"amplitudes": to_json(self.amplitudes)}


def singlet() -> TwoQubitState:
    """The spin singlet (|+-> - |-+>)/sqrt(2)."""
    r = 1.0 / math.sqrt(2.0)
    return TwoQubitState((0.0, r, -r, 0.0))


class BlochDirection(NamedTuple):
    """Measurement direction on the Bloch sphere, spherical angles in radians."""

    theta: float
    phi: float = 0.0

    def unit_vector(self) -> tuple[float, float, float]:
        st = math.sin(self.theta)
        return (st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta))

    def eigenstate(self, outcome: int) -> tuple[complex, complex]:
        """Eigenvector of the spin observable along this direction; ``outcome``
        is a Python or numpy integer (not a bool), +1 or -1."""
        what = "outcome must be +1 or -1"
        if not as_int(outcome, -1, 1, what):
            raise ValueError(f"{what}, got {outcome!r}")
        return _eigenstates(self.theta, self.phi)[int(outcome)]

    to_json_dict = record_to_json


class MeasurementSettings(NamedTuple):
    """One Bloch direction per setting."""

    a1: BlochDirection
    a2: BlochDirection
    b1: BlochDirection
    b2: BlochDirection

    def for_a(self, setting: int) -> BlochDirection:
        return self._pick(setting, self.a1, self.a2)

    def for_b(self, setting: int) -> BlochDirection:
        return self._pick(setting, self.b1, self.b2)

    @staticmethod
    def _pick(setting: int, first: BlochDirection, second: BlochDirection) -> BlochDirection:
        # a Python or numpy integer (not a bool), 1 or 2
        return second if as_int(setting, 1, 2, "setting must be 1 or 2") == 2 else first

    to_json_dict = record_to_json


def all_z_settings() -> MeasurementSettings:
    z = BlochDirection(0.0, 0.0)
    return MeasurementSettings(z, z, z, z)


def _eigenstates(theta: float, phi: float) -> dict[int, tuple[complex, complex]]:
    """Spin eigenvectors along (theta, phi), keyed by outcome +1 / -1.

    At ``phi == 0`` the components are floats: the phase is then exactly 1,
    so they equal the real parts of the complex vectors bit for bit.
    """
    half = 0.5 * theta
    phase = cmath.exp(1j * phi) if phi else 1.0
    cos, sin = math.cos(half), math.sin(half)
    return {1: (cos, phase * sin), -1: (sin, -phase * cos)}


_CELL_COORDS = {c: cell_of(c) for c in range(1, 17)}


def _born_amps(
    psi: Sequence[complex],
    dpsi: Sequence[Sequence[complex]] | None,
    dirs: Sequence[tuple[float, float]],
    cells: Sequence[int],
    real: bool,
) -> tuple[list[complex], list[list[complex]]]:
    """Amplitudes <e_a x e_b|psi> of ``cells``; with ``dpsi``, their derivatives.

    The one Born-rule kernel: `born_behavior` passes ``dpsi=None`` and gets
    amplitudes only; the searches pass d(psi)/dx per state parameter.
    ``dirs`` holds the (theta, phi) of a1, a2, b1, b2.  A derivative row
    lists the state parameters, then theta (and phi unless ``real``) of a1,
    a2, b1, b2.  Each entry is the amplitude with one factor differentiated:
    d(psi), or an eigenvector, where d e_m/d theta = -(m/2) e_{-m} (the cell
    with that party's outcome flipped) and phi enters e_m[1] only, as e^{i phi}.

    Every entry keeps the order a0 * (b0 * p0 + b1 * p1) + a1 * (...), B's
    vector contracted into psi once per cell.  Float inputs (real mode, a
    real state) give the real parts of the complex pass bit for bit (see
    the module docstring).  Plain Python: numpy's per-call overhead dominates.
    """
    # <e_a x e_b| needs conjugated eigenvectors, which are those at -phi
    bases = [_eigenstates(theta, -phi) for theta, phi in dirs]
    n_psi, step = len(dpsi or ()), 1 if real else 2
    p0, p1, p2, p3 = psi
    amps, jac = [], []
    for c in cells:
        j, k, m, n = _CELL_COORDS[c]
        ea, eb = bases[j - 1], bases[1 + k]
        (a0, a1), (b0, b1) = ea[m], eb[n]
        u0, u1 = b0 * p0 + b1 * p1, b0 * p2 + b1 * p3
        amps.append(a0 * u0 + a1 * u1)
        if dpsi is None:
            continue
        (f0, f1), (g0, g1) = ea[-m], eb[-n]
        row = [a0 * (b0 * d0 + b1 * d1) + a1 * (b0 * d2 + b1 * d3) for d0, d1, d2, d3 in dpsi]
        row += [0.0] * (4 * step)
        col_a, col_b = n_psi + step * (j - 1), n_psi + step * (1 + k)
        row[col_a] = -0.5 * m * (f0 * u0 + f1 * u1)
        row[col_b] = -0.5 * n * (a0 * (g0 * p0 + g1 * p1) + a1 * (g0 * p2 + g1 * p3))
        if not real:  # d/d phi of a conjugated (v0, v1) is (0, -i v1); 0.0 * keeps zero signs
            ia, ib = -1j * a1, -1j * b1
            row[col_a + 1] = 0.0 * u0 + ia * u1
            row[col_b + 1] = a0 * (0.0 * p0 + ib * p1) + a1 * (0.0 * p2 + ib * p3)
        jac.append(row)
    return amps, jac


def _check_normalized(state: TwoQubitState) -> None:
    dev = abs(state.norm_squared() - 1.0)
    if dev > 1e-9:
        raise ValueError(f"state norm deviates from 1 by {dev:.3e}")


def born_behavior(state: TwoQubitState, settings: MeasurementSettings) -> Behavior:
    """Behavior induced by the Born rule; cells follow the package numbering.

    The state must be normalized to within 1e-9.
    """
    _check_normalized(state)
    dirs = [(d.theta, d.phi) for d in (settings.a1, settings.a2, settings.b1, settings.b2)]
    amps, _ = _born_amps(state.amplitudes, None, dirs, range(1, 17), real=False)
    return Behavior(tuple(abs(a) ** 2 for a in amps))


#: Largest ``OptimizerConfig.starts``; checked before any start is drawn.
MAX_STARTS = 4096


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multi-start constrained search; bad values raise `SchemaError`.

    ``starts`` uniform random points (1..`MAX_STARTS`), drawn by
    ``numpy.random.default_rng(seed)``, each start one descent, which counts
    when its constrained cells are at most ``constraint_tol``.  ``starts`` and
    ``seed`` take numpy integers too, ``constraint_tol`` any real number (a
    numpy one too), none a bool; fields are stored as Python types.
    ``real_mode`` restricts amplitudes and directions to the x-z plane
    (phases zero), which is enough for every extremum this package targets
    and roughly halves the search dimension; ``product_mode`` restricts the
    state to a tensor product.

    The descents, one generator each, run in lockstep in groups of 64
    starts, so a search holds at most 64 SLSQP workspaces at once, about
    6 KB each in real mode and 20 KB in complex mode: a ``starts=4096``
    Hardy search peaked at 2.35 MB (real) and 3.59 MB (complex) of Python
    allocations (tracemalloc), where descents one at a time took 1.6 and 1.9 MB.
    """

    starts: int = 64
    constraint_tol: float = 1e-7
    seed: int = 20201
    real_mode: bool = True
    product_mode: bool = False

    def __post_init__(self) -> None:
        rules = {  # field: (accepted types, stored as, range check, what the error asks for)
            "starts": (Integral, int, lambda v: 1 <= v <= MAX_STARTS, f"an integer in 1..{MAX_STARTS}"),
            "constraint_tol": (Real, float, lambda v: 0 < v < math.inf, "a finite number > 0"),
            "seed": (Integral, int, lambda v: v >= 0, "an integer >= 0"),
            "real_mode": (bool, bool, lambda v: True, "true or false"),
            "product_mode": (bool, bool, lambda v: True, "true or false"),
        }
        for name, (types, cast, in_range, what) in rules.items():
            v = getattr(self, name)
            # bool is an int subclass: accept it only where a bool is wanted
            if not (isinstance(v, types) and (types is bool) == isinstance(v, bool) and in_range(v)):
                raise SchemaError(f"{name} must be {what}, got {v!r}", name)
            object.__setattr__(self, name, cast(v))

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}  # each value JSON already

    @staticmethod
    def from_json_dict(doc: dict) -> "OptimizerConfig":
        """Config from a JSON object; absent fields take their defaults."""
        if not isinstance(doc, dict):
            raise SchemaError("optimizer config must be a JSON object", "$")
        unknown = sorted(set(doc) - {f.name for f in fields(OptimizerConfig)})
        if unknown:
            raise SchemaError(f"unknown optimizer config field {unknown[0]!r}", unknown[0])
        return OptimizerConfig(**doc)


def _hypersphere(a: Sequence[float], trig=math) -> tuple[list[float], list[list[float]]]:
    """Unit 4-vector from three hyperspherical angles, and its derivative per angle.

    ``trig`` is `math`, or `numpy` for rows of angles, one entry per point.
    """
    s0, s1, s2 = (trig.sin(t) for t in a)
    c0, c1, c2 = (trig.cos(t) for t in a)
    coords = [c0, s0 * c1, s0 * s1 * c2, s0 * s1 * s2]
    jac = [
        [-s0, c0 * c1, c0 * s1 * c2, c0 * s1 * s2],
        [0.0, -s0 * s1, s0 * c1 * c2, s0 * c1 * s2],
        [0.0, 0.0, -s0 * s1 * s2, s0 * s1 * c2],
    ]
    return coords, jac


def _qubit(
    theta: float, phi: float, trig=math
) -> tuple[tuple[complex, complex], list[tuple[complex, complex]]]:
    """(cos theta, e^{i phi} sin theta) and its theta and phi derivatives.

    Real, like `_eigenstates`, where ``phi == 0``; ``trig`` as in `_hypersphere`.
    """
    c, s, ph = trig.cos(theta), trig.sin(theta), cmath.exp(1j * phi) if phi else 1.0
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
        # a fixed state with zero imaginary parts enters the kernel as floats
        fixed = fixed_state.amplitudes if fixed_state is not None else ()
        real_state = not any(a.imag for a in fixed)
        self._fixed_psi = tuple(a.real for a in fixed) if real_state else fixed
        # cell amplitudes are real functions of x only in real mode with a real state
        self.complex_amps = not real_mode or not real_state

    def state_of(self, x: np.ndarray, trig=math) -> tuple[tuple[complex, ...], list[tuple[complex, ...]]]:
        """The amplitudes psi(x) and d(psi)/dx for each state parameter.

        With ``trig=numpy`` in real mode, ``x`` may hold one row of points
        per parameter, and each amplitude is an array over those points.
        """
        if self.fixed_state is not None:
            return self._fixed_psi, []
        if self.product_mode:
            keep = 1 if self.real_mode else 2
            angles = ((x[0], 0.0), (x[1], 0.0)) if self.real_mode else ((x[0], x[1]), (x[2], x[3]))
            (qa, dqa), (qb, dqb) = (_qubit(*t, trig) for t in angles)
            dpsi = [_kron2(d, qb) for d in dqa[:keep]] + [_kron2(qa, d) for d in dqb[:keep]]
            return _kron2(qa, qb), dpsi
        mags, dmags = _hypersphere(x[0:3], trig)
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


def _starts(space: _SearchSpace, n: int, seed: int) -> np.ndarray:
    """``n`` uniform points: angles in [0, pi), phases and azimuths in [0, 2 pi)."""
    hi = np.full(space.dims, math.pi)
    if not space.real_mode:
        if space.n_state == 6:
            hi[3:6] = 2.0 * math.pi  # phase block
        hi[space.n_state + 1 :: 2] = 2.0 * math.pi  # azimuths
    return hi * np.random.default_rng(seed).random((n, space.dims))


class SearchDiagnostics(NamedTuple):
    """How a search reached its result; no wall time, so it reproduces.

    ``kernel_evaluations`` counts the points evaluated over all descents;
    ``max_constrained_cell`` is the largest constrained probability at the
    returned point (0 without constraints); ``stationarity_residual`` is
    the KKT residual there, max |grad f - J^T lambda| over the search
    angles, with f the minimized objective, J the Jacobian of the zero
    amplitudes (none for a sigma search) and lambda their least-squares
    multipliers.
    """

    starts_tried: int
    starts_feasible: int
    winning_start: int
    kernel_evaluations: int
    max_constrained_cell: float
    stationarity_residual: float

    to_json_dict = record_to_json


@functools.cache
def _slsqp_kernel() -> Callable:
    """scipy's SLSQP kernel, imported on the first search.

    Without scipy, or with a scipy older than 1.16, which lacks the kernel,
    raises `ModuleNotFoundError` naming the missing module and the floor.
    """
    try:
        from scipy.optimize._slsqplib import slsqp
    except ImportError as exc:  # also where the module lacks the name
        raise ModuleNotFoundError(f"{exc} (the searches need scipy >= 1.16)", name=exc.name) from None
    return slsqp


# SLSQP iteration cap and stopping tolerance of each descent
_MAXITER = 100
_FTOL = 1e-12


def _numpy_sum(terms: list[float]) -> float:
    """``float(np.sum(terms))`` for at most 128 float64 terms, bit for bit.

    numpy's pairwise summation adds fewer than 8 terms one by one from 0.0;
    more go into 8 interleaved partial sums, combined as a balanced tree,
    and the last ``len % 8`` terms are then added one by one.
    """
    if len(terms) < 8:
        total = 0.0
        for t in terms:
            total += t
        return total
    r, tail = terms[:8], len(terms) - len(terms) % 8
    for i in range(8, tail, 8):
        r = [a + b for a, b in zip(r, terms[i : i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for t in terms[tail:]:
        total += t
    return total


# Rounds of float amplitudes with fewer points than this go one point at a
# time: a batched pass cost about 60 us at 1 point, 70 us at 4, 85 us at 16
# and 140 us at 64, a point alone about 18 us, so they break even at about 4
# (Hardy objective, 2-core x86-64 host, Python 3.11.7, numpy 2.4.6)
_BATCH_MIN = 4


def _evaluator(
    space: _SearchSpace, objective_cells: Sequence[int], zero_cells: Sequence[int], sign: float
) -> Callable[[np.ndarray], list[tuple[tuple[float, np.ndarray], np.ndarray, np.ndarray, float]]]:
    """Everything a descent reads, at each row of ``xs``: ``evaluate(xs)``.

    Per row it returns ``((value, gradient), constraint values, constraint
    Jacobian, residual)``: ``sign`` times the probability sum of
    ``objective_cells`` with its gradient, the zero amplitudes (real parts,
    then imaginary parts where they can be nonzero) with their Jacobian
    rows, and the largest constrained probability.

    Complex amplitudes, and float rounds of fewer than `_BATCH_MIN` points,
    go point by point.  Larger float rounds take one numpy pass of
    `_born_amps`' float expressions, elementwise in the same order, one row
    per cell and one column per point: each cell gathers its eigenvector
    components by index from one table, elementwise float64 ``+`` and ``*``
    round as Python floats do, and the sums over cells run as a point's do
    (`_numpy_sum` for the value, one row at a time from 0.0 for the
    gradient).  So each row equals its point alone bit for bit, provided
    numpy's float64 ``np.sin`` and ``np.cos`` round as ``math``'s (a test
    checks a fixed sample); otherwise a descent's steps would depend on how
    many points share its rounds.
    """
    cells = (*objective_cells, *zero_cells)
    n_obj, twice, n_psi = len(objective_cells), 2.0 * sign, space.n_state
    j, k, m, n = np.array([_CELL_COORDS[c] for c in cells]).T
    # rows of the eigenvector table: 4 * (outcome slot + component) + direction,
    # with slots 0 for e_{+1} and 2 for e_{-1}
    e_a, e_b = 4 * (1 - m) + j - 1, 4 * (1 - n) + 1 + k
    flip_a, flip_b = 4 * (1 + m) + j - 1, 4 * (1 + n) + 1 + k
    gather = np.array([e_a, e_a + 4, e_b, e_b + 4, flip_a, flip_a + 4, flip_b, flip_b + 4])
    rows, col_a, col_b = np.arange(len(cells)), n_psi + j - 1, n_psi + 1 + k
    half_m, half_n = (-0.5 * m)[:, None], (-0.5 * n)[:, None]

    def point(x: np.ndarray) -> tuple[tuple[float, np.ndarray], np.ndarray, np.ndarray, float]:
        amps, jac = space.amplitudes(x, cells)
        if space.complex_amps:
            # numpy's complex product and modulus, which Python's complex
            # arithmetic rounds differently: numpy fuses multiply-adds and
            # scales its hypot where the CPU allows
            amps, jac = np.array(amps), np.array(jac)
            obj, z, zjac = amps[:n_obj], amps[n_obj:], jac[n_obj:]
            value = float(np.sum(np.abs(obj) ** 2))
            grad = (obj[:, None].conj() * jac[:n_obj]).real.sum(axis=0)
            zeros = np.concatenate((z.real, z.imag))
            zeros_jac = np.concatenate((zjac.real, zjac.imag))
            resid = float(np.max(np.abs(z) ** 2, initial=0.0))
        else:
            # float amplitudes: the same sums in numpy's order; the gradient's,
            # a sum over rows, takes one row at a time from 0.0
            acc = [0.0] * space.dims
            for o, row in zip(amps[:n_obj], jac):
                acc = [s + o * d for s, d in zip(acc, row)]
            value, grad = _numpy_sum([o * o for o in amps[:n_obj]]), np.array(acc)
            zeros, zeros_jac = np.array(amps[n_obj:]), np.array(jac[n_obj:])
            resid = max([z * z for z in amps[n_obj:]], default=0.0)
        return (sign * value, twice * grad), zeros, zeros_jac, resid

    def evaluate(xs: np.ndarray) -> list:
        if space.complex_amps or len(xs) < _BATCH_MIN:
            return [point(x) for x in xs]
        x = xs.T  # one row per search angle
        psi, dpsi = space.state_of(x, np)
        # `_eigenstates` at phi = -0.0: (cos, 1.0 * sin) and (sin, -1.0 * cos)
        half = 0.5 * x[n_psi:]
        cos, sin = np.cos(half), np.sin(half)
        a0, a1, b0, b1, f0, f1, g0, g1 = np.concatenate((cos, sin, sin, -cos))[gather]
        p0, p1, p2, p3 = psi
        u0, u1 = b0 * p0 + b1 * p1, b0 * p2 + b1 * p3
        amps = a0 * u0 + a1 * u1
        jac = np.zeros((len(cells), space.dims, len(xs)))
        if dpsi:  # (component, state parameter, 1, point)
            d = np.empty((4, n_psi, 1, len(xs)))
            for i, row in enumerate(dpsi):
                for c, v in enumerate(row):
                    d[c, i] = v
            d0, d1, d2, d3 = d
            jac[:, :n_psi] = (a0 * (b0 * d0 + b1 * d1) + a1 * (b0 * d2 + b1 * d3)).transpose(1, 0, 2)
        jac[rows, col_a] = half_m * (f0 * u0 + f1 * u1)
        jac[rows, col_b] = half_n * (a0 * (g0 * p0 + g1 * p1) + a1 * (g0 * p2 + g1 * p3))
        obj, z = amps[:n_obj], amps[n_obj:]
        acc = np.zeros((space.dims, len(xs)))
        for o, row in zip(obj, jac):
            acc = acc + o * row
        values = (sign * _numpy_sum(obj * obj)).tolist()
        grads = (twice * acc).T.copy()  # the kernel reads a contiguous gradient
        resids = [max(r, default=0.0) for r in (z * z).T.tolist()]
        return list(zip(zip(values, grads), z.T, jac[n_obj:].transpose(2, 0, 1), resids))

    return evaluate


def _descent(x0: np.ndarray) -> Generator[np.ndarray, tuple, tuple[np.ndarray, bool, float, float]]:
    """One SLSQP descent from ``x0``: yields each point it needs evaluated,
    ``x0`` first, and is sent its `_evaluator` result; returns the end
    point, whether SLSQP succeeded, and the value and largest constrained
    probability there."""
    slsqp = _slsqp_kernel()
    (fx, g), zeros, jac, _ = point = yield x0
    n, m = len(x0), len(zeros)
    state = {
        "acc": _FTOL, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0, "h3": 0.0,
        "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * _FTOL, "exact": 0, "inconsistent": 0,
        "reset": 0, "iter": 0, "itermax": _MAXITER, "line": 0, "m": m, "meq": m, "mode": 0, "n": n,
    }
    # scipy's workspace formula with every constraint an equality
    size = n * (n + 1) // 2 + 2 * n * (n + 1) + 8 * n * n + 35 * n - 2 * m * n + 2 * m + 28
    work = (  # multipliers, NaN bounds for none, workspace, indices
        np.zeros(m + 2 * n + 2), np.full(n, np.nan), np.full(n, np.nan),
        np.zeros(size), np.zeros(m + 2 * n + 2, dtype=np.int32),
    )
    x, d, C = np.array(x0), np.zeros(max(1, m)), np.zeros((max(1, m), n), order="F")
    d[:m], C[:m] = zeros, jac.reshape(m, n)  # a sigma search has no constraint rows
    key = x.tobytes()
    while True:
        slsqp(state, fx, g, C, d, x, *work)
        if x.tobytes() != key:  # a new point: hold its evaluation
            key = x.tobytes()
            point = yield x
        mode = state["mode"]
        if mode == 1:
            (fx, _), d[:m], _, _ = point
        elif mode == -1:
            (_, g), _, jac, _ = point
            C[:m] = jac.reshape(m, n)
        else:
            (value, _), _, _, resid = point
            return x, mode == 0, value, resid


# Starts per lockstep group: a search holds at most this many SLSQP
# workspaces at once (about 6 KB each in real mode, 20 KB in complex mode),
# and a batched round of 64 points already costs about 2 us a point
_LOCKSTEP_STARTS = 64


def _descend(evaluate: Callable, x0s: np.ndarray) -> tuple[list[tuple[np.ndarray, bool, float, float]], int]:
    """One `_descent` from each row of ``x0s``, in lockstep groups.

    Returns each descent's end point, whether SLSQP succeeded, and the
    value and largest constrained probability there; and the number of
    points evaluated.
    ``evaluate`` is an `_evaluator`; the zero amplitudes are the equality
    constraints.

    scipy's SLSQP kernel talks by reverse communication: each call returns
    with ``mode`` 1 to ask for the value and constraints at ``x``, -1 for
    the gradient and Jacobian, 0 on success and anything else on failure.
    Each descent passes it exactly what `scipy.optimize.minimize` passes
    (state, workspace sizes, NaN bounds for none), so it takes the same
    steps bit for bit, without minimize's Python layer.  The starts run in
    groups of `_LOCKSTEP_STARTS`, one after another.  Each round sends
    every live descent of a group the evaluation it asked for, and the
    descent calls its kernel until it asks for a new point or stops; the
    round's new points, end points not yet evaluated included, go to
    ``evaluate`` together.  A point's evaluation does not depend on the
    others of its round, so neither does any descent.
    """
    ends: list = [None] * len(x0s)
    evaluations = 0
    for lo in range(0, len(x0s), _LOCKSTEP_STARTS):
        live = {i: _descent(x0) for i, x0 in enumerate(x0s[lo : lo + _LOCKSTEP_STARTS], lo)}
        asked = [next(ds) for ds in live.values()]  # imports scipy before any evaluation
        while live:
            points = evaluate(np.array(asked))
            evaluations += len(points)
            asked = []
            for i, point in zip(list(live), points):
                try:
                    asked.append(live[i].send(point))
                except StopIteration as stop:
                    ends[i] = stop.value
                    del live[i]
    return ends, evaluations


def _stationarity_residual(grad: np.ndarray, jac: np.ndarray) -> float:
    """max |grad - jac^T lambda| with lambda the least-squares multipliers."""
    jac = jac.reshape(-1, len(grad))  # a sigma search has no constraint rows
    multipliers = np.linalg.lstsq(jac.T, grad, rcond=None)[0]
    return float(np.max(np.abs(grad - jac.T @ multipliers)))


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
    they hold, are not.  One SLSQP descent runs from each start; those that
    converge with every constrained cell within ``cfg.constraint_tol`` are
    ranked by (objective, start index).  Returns the winner's state,
    settings, Born behavior and diagnostics, or raises `ConvergenceError` if
    no descent qualifies.
    """
    evaluate = _evaluator(space, objective_cells, zero_cells, sign)
    ends, evaluations = _descend(evaluate, _starts(space, cfg.starts, cfg.seed))
    results = [(x, f, resid, ok and resid <= cfg.constraint_tol) for x, ok, f, resid in ends]
    feasible = [(f, i) for i, (_, f, _, ok) in enumerate(results) if ok]
    if not feasible:
        hint = ""
        if space.real_mode and space.complex_amps:
            hint = (
                "; the fixed state has complex amplitudes, and real_mode keeps every direction "
                "in the x-z plane, where its zeros may be out of reach: try real_mode false"
            )
        raise ConvergenceError(
            f"none of {cfg.starts} starts converged with constrained cells within "
            f"{cfg.constraint_tol:g} (smallest residual {min(r[2] for r in results):.3e}){hint}"
        )
    _, winner = min(feasible)
    x, _, resid, _ = results[winner]
    (_, grad), _, jac, _ = evaluate(x[None])[0]
    state, settings = space.unpack(x)
    return state, settings, born_behavior(state, settings), SearchDiagnostics(
        starts_tried=cfg.starts,
        starts_feasible=len(feasible),
        winning_start=winner,
        kernel_evaluations=evaluations,
        max_constrained_cell=resid,
        stationarity_residual=_stationarity_residual(grad, jac),
    )


class HardyOptimum(NamedTuple):
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

    A ``fixed_state`` must be normalized, as for `born_behavior`.  Raises
    `ConvergenceError` if no start gets the three constrained cells within
    ``cfg.constraint_tol``.
    """
    if fixed_state is not None:
        _check_normalized(fixed_state)
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


class SigmaOptimum(NamedTuple):
    sigma_index: int
    minimize: bool
    value: float
    state: TwoQubitState
    settings: MeasurementSettings
    diagnostics: SearchDiagnostics

    to_json_dict = record_to_json


def maximize_sigma(
    sigma_index: int, cfg: OptimizerConfig | None = None, minimize_value: bool = False
) -> SigmaOptimum:
    """Extremize one CHSH probability sum over states and settings.

    ``sigma_index`` is an integer in 1..4, Python or numpy but not a bool.
    Unconstrained search; ``constraint_tol`` is unused.  ``product_mode``
    restricts to unentangled states, whose extrema are the classical 1 and 3.
    """
    sigma_index = as_int(sigma_index, 1, 4, "sigma index must be 1..4")
    cfg = cfg or OptimizerConfig()
    space = _SearchSpace(cfg.real_mode, cfg.product_mode)
    sign = 1.0 if minimize_value else -1.0
    state, settings, b, diagnostics = _extremize(space, SIGMA_SUPPORTS[sigma_index], (), sign, cfg)
    return SigmaOptimum(
        sigma_index=sigma_index,
        minimize=minimize_value,
        value=sigma_values(b).sigma[sigma_index - 1],
        state=state,
        settings=settings,
        diagnostics=diagnostics,
    )


class PerfectCorrelationReport(NamedTuple):
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
        return {**record_to_json(self), "passed": self.passed}


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
    p = (None, *b.probs)  # 1-based, like the quadruple indices
    patterns = tuple(q for q in HARDY_QUADRUPLES if max(p[q.k], p[q.l], p[q.m]) <= eps)
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
