"""Born rule against a dense projector oracle, and the extremal searches.

The oracle builds each joint probability as <psi| Pa x Pb |psi> with
projectors (I + outcome * n.sigma)/2 assembled from Pauli matrices, a route
sharing no code with the implementation's eigenbasis path.
"""

import cmath
import functools
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import hardybox
from hardybox import quantum
from hardybox.behavior import (
    SchemaError,
    cell_of,
    correlation_vector,
    is_no_signaling,
    is_normalized,
    json_text,
)
from hardybox.bell import HARDY_QUADRUPLES, SIGMA_SUPPORTS, quadruple_for
from hardybox.locality import constraint_residuals
from hardybox.quantum import (
    HARDY_MAX_PROBABILITY,
    MAX_STARTS,
    SIGMA_QUANTUM_MAX,
    SIGMA_QUANTUM_MIN,
    BlochDirection,
    ConvergenceError,
    MeasurementSettings,
    OptimizerConfig,
    TwoQubitState,
    _SearchSpace,
    all_z_settings,
    born_behavior,
    maximize_hardy,
    maximize_sigma,
    singlet,
    singlet_perfect_correlation_check,
)

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, 1]], dtype=complex) * 0 + np.diag([1.0, -1.0]).astype(complex),
)


def projector(d: BlochDirection, outcome: int) -> np.ndarray:
    n = d.unit_vector()
    spin = sum(c * s for c, s in zip(n, _PAULI))
    return (np.eye(2, dtype=complex) + outcome * spin) / 2.0


def oracle_behavior(state: TwoQubitState, settings: MeasurementSettings):
    psi = state.as_array()
    cells = []
    for j in (1, 2):
        for k in (1, 2):
            for ma, mb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                op = np.kron(projector(settings.for_a(j), ma), projector(settings.for_b(k), mb))
                cells.append(float(np.real(psi.conj() @ op @ psi)))
    return cells


def random_state(rng) -> TwoQubitState:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return TwoQubitState(tuple(v))


def random_settings(rng) -> MeasurementSettings:
    dirs = [
        BlochDirection(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        for _ in range(4)
    ]
    return MeasurementSettings(*dirs)


SMALL_CFG = OptimizerConfig(starts=24, seed=20201)


class TestStatesAndDirections:
    def test_singlet_normalized(self):
        s = singlet()
        assert s.norm_squared() == pytest.approx(1.0, abs=1e-15)
        assert s.amplitudes[0] == 0.0 and s.amplitudes[3] == 0.0

    def test_state_validation(self):
        with pytest.raises(ValueError):
            TwoQubitState((1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            TwoQubitState((math.inf, 0.0, 0.0, 0.0))

    def test_state_json(self):
        doc = singlet().to_json_dict()
        assert doc["amplitudes"][1] == [pytest.approx(1 / math.sqrt(2)), 0.0]

    def test_eigenstates_orthonormal(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = BlochDirection(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
            plus = np.array(d.eigenstate(1))
            minus = np.array(d.eigenstate(-1))
            assert np.vdot(plus, plus) == pytest.approx(1.0, abs=1e-12)
            assert np.vdot(minus, minus) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(plus, minus)) <= 1e-12
            # eigenvector relation against the dense projector
            assert np.allclose(projector(d, 1) @ plus, plus, atol=1e-12)

    def test_eigenstate_rejects_bad_outcome(self):
        # the integer rule of `as_int`: an integer, not a bool or a float
        for bad in (0, 2, -2, True, False, 1.0, -1.0, np.True_, np.float64(1.0)):
            with pytest.raises(ValueError) as exc:
                BlochDirection(0.3).eigenstate(bad)
            assert str(exc.value) == f"outcome must be +1 or -1, got {bad!r}"

    @pytest.mark.parametrize("integer", [np.int64, np.int8])
    def test_eigenstate_takes_numpy_outcomes(self, integer):
        d = BlochDirection(0.3, 1.2)
        for outcome in (1, -1):
            assert d.eigenstate(integer(outcome)) == d.eigenstate(outcome)

    def test_unit_vector(self):
        v = BlochDirection(math.pi / 2, 0.0).unit_vector()
        assert v == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)

    def test_settings_pick_by_index(self):
        s = MeasurementSettings(*(BlochDirection(t) for t in (0.1, 0.2, 0.3, 0.4)))
        assert (s.for_a(1), s.for_a(2), s.for_b(1), s.for_b(2)) == (s.a1, s.a2, s.b1, s.b2)
        for bad in (0, 3, -1, True, False, 1.0, 2.0, np.True_, np.float64(2.0)):
            for pick in (s.for_a, s.for_b):
                with pytest.raises(ValueError) as exc:
                    pick(bad)
                assert str(exc.value) == f"setting must be 1 or 2, got {bad!r}"
        for integer in (np.int64, np.int8, np.uint64):
            assert (s.for_a(integer(1)), s.for_a(integer(2))) == (s.a1, s.a2)
            assert (s.for_b(integer(1)), s.for_b(integer(2))) == (s.b1, s.b2)


class TestBornRule:
    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            state = random_state(rng)
            settings = random_settings(rng)
            b = born_behavior(state, settings)
            assert np.allclose(b.probs, oracle_behavior(state, settings), atol=1e-12)

    def test_always_no_signaling(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            b = born_behavior(random_state(rng), random_settings(rng))
            assert constraint_residuals(b).max_abs() <= 1e-12
            assert is_normalized(b) and is_no_signaling(b)

    def test_singlet_cells_closed_form(self):
        # p(m, n | a, b) = (1 - m n a.b) / 4 on the singlet
        rng = np.random.default_rng(14)
        for _ in range(40):
            settings = random_settings(rng)
            b = born_behavior(singlet(), settings)
            for j in (1, 2):
                na = np.array(settings.for_a(j).unit_vector())
                for k in (1, 2):
                    nb = np.array(settings.for_b(k).unit_vector())
                    dot = float(na @ nb)
                    block = b.block(j, k)
                    for idx, (ma, mb) in enumerate(((1, 1), (1, -1), (-1, 1), (-1, -1))):
                        assert block[idx] == pytest.approx((1 - ma * mb * dot) / 4, abs=1e-12)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            born_behavior(TwoQubitState((1.0, 1.0, 0.0, 0.0)), all_z_settings())

    def test_singlet_anticorrelated_on_z(self):
        b = born_behavior(singlet(), all_z_settings())
        assert correlation_vector(b).as_tuple() == pytest.approx((-1.0,) * 4, abs=1e-15)


PARAMETRIZATIONS = {
    "real": (True, False, None),
    "complex": (False, False, None),
    "real product": (True, True, None),
    "complex product": (False, True, None),
    "fixed state": (False, False, "random"),
    "fixed singlet, real": (True, False, "singlet"),
}


class TestAmplitudeKernel:
    @pytest.mark.parametrize("name", list(PARAMETRIZATIONS))
    def test_jacobian_matches_central_differences(self, name):
        real, product, fixed = PARAMETRIZATIONS[name]
        rng = np.random.default_rng(sorted(PARAMETRIZATIONS).index(name))
        state = {"random": random_state(rng), "singlet": singlet(), None: None}[fixed]
        space = _SearchSpace(real, product, fixed_state=state)
        cells = (1, 6, 11, 16, 13, 4, 5, 9)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(0.0, 2.0 * math.pi, space.dims)
            amps, jac = space.amplitudes(x, cells)
            jac = np.array(jac)
            assert jac.shape == (len(cells), space.dims)
            for i in range(space.dims):
                e = np.zeros(space.dims)
                e[i] = h
                fd = (np.array(space.amplitudes(x + e, cells)[0])
                      - np.array(space.amplitudes(x - e, cells)[0])) / (2 * h)
                assert np.max(np.abs(fd - jac[:, i])) <= 1e-6, (name, i)
            # the amplitudes square to the probability kernel's cells
            probs = [born_behavior(*space.unpack(x)).p(c) for c in cells]
            assert np.allclose(np.abs(amps) ** 2, probs, atol=1e-14)
            if not space.complex_amps:
                assert max(abs(complex(a).imag) for a in amps) <= 1e-15


# The probability kernel that computed `born_behavior` before it read its
# amplitudes from `_born_amps`, kept verbatim as the reference it must equal
# bit for bit.
def _cells_reference_eigenstates(theta, phi):
    half = 0.5 * theta
    phase = cmath.exp(1j * phi) if phi else 1.0
    cos, sin = math.cos(half), math.sin(half)
    return {1: (cos, phase * sin), -1: (sin, -phase * cos)}


def _cells_reference_amp(a, b, psi):
    return a[0] * (b[0] * psi[0] + b[1] * psi[1]) + a[1] * (b[0] * psi[2] + b[1] * psi[3])


def _cells_reference_born_cells(psi, dirs, cells):
    # <e_a x e_b| needs conjugated eigenvectors, which are those at -phi
    bases = [_cells_reference_eigenstates(theta, -phi) for theta, phi in dirs]
    coords = (cell_of(c) for c in cells)
    amp = _cells_reference_amp
    return [abs(amp(bases[j - 1][m], bases[1 + k][n], psi)) ** 2 for j, k, m, n in coords]


class TestBornBehaviorPinned:
    def assert_pinned(self, state, settings):
        dirs = [(d.theta, d.phi) for d in (settings.a1, settings.a2, settings.b1, settings.b2)]
        want = _cells_reference_born_cells(state.amplitudes, dirs, range(1, 17))
        got = born_behavior(state, settings).probs
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("complex_state", [True, False])
    @pytest.mark.parametrize("azimuths", [True, False])
    def test_seeded_draws(self, complex_state, azimuths):
        rng = np.random.default_rng(2 * complex_state + azimuths)
        for _ in range(500):
            v = rng.normal(size=4) + (1j * rng.normal(size=4) if complex_state else 0.0)
            state = TwoQubitState(tuple(complex(a) for a in v / np.linalg.norm(v)))
            thetas = rng.uniform(0.0, 2.0 * math.pi, 4)
            phis = rng.uniform(0.0, 2.0 * math.pi, 4) if azimuths else np.zeros(4)
            dirs = (BlochDirection(float(t), float(f)) for t, f in zip(thetas, phis))
            self.assert_pinned(state, MeasurementSettings(*dirs))

    def test_singlet_all_z(self):
        self.assert_pinned(singlet(), all_z_settings())


# The complex-arithmetic kernel and the numpy evaluator that the float pass
# replaced, kept verbatim as the reference it must equal bit for bit.
def _reference_eigenstates(theta, phi):
    half = 0.5 * theta
    phase = cmath.exp(1j * phi)
    cos, sin = math.cos(half), math.sin(half)
    return {1: (cos, phase * sin), -1: (sin, -phase * cos)}


def _reference_amp(a, b, psi):
    return a[0] * (b[0] * psi[0] + b[1] * psi[1]) + a[1] * (b[0] * psi[2] + b[1] * psi[3])


def _reference_born_amps(psi, dpsi, dirs, cells, real):
    bases = [_reference_eigenstates(theta, -phi) for theta, phi in dirs]
    step = 1 if real else 2
    amps, jac = [], []
    for c in cells:
        j, k, m, n = cell_of(c)
        ea, eb = bases[j - 1], bases[1 + k]
        a, b = ea[m], eb[n]
        row = [_reference_amp(a, b, d) for d in dpsi] + [0j] * (4 * step)
        col_a, col_b = len(dpsi) + step * (j - 1), len(dpsi) + step * (1 + k)
        row[col_a] = -0.5 * m * _reference_amp(ea[-m], b, psi)
        row[col_b] = -0.5 * n * _reference_amp(a, eb[-n], psi)
        if not real:
            row[col_a + 1] = _reference_amp((0.0, -1j * a[1]), b, psi)
            row[col_b + 1] = _reference_amp(a, (0.0, -1j * b[1]), psi)
        amps.append(_reference_amp(a, b, psi))
        jac.append(row)
    return amps, jac


def reference_amplitudes(space, x, cells):
    """The complex pass, with the state and its derivatives as complex numbers."""
    x = x.tolist()
    psi, dpsi = space.state_of(x)
    psi = [complex(v) for v in psi]
    dpsi = [[complex(v) for v in row] for row in dpsi]
    return _reference_born_amps(psi, dpsi, space.directions_of(x), cells, space.real_mode)


def reference_evaluation(space, objective_cells, zero_cells, sign, x):
    """((value, gradient), constraint values, constraint Jacobian, residual)."""
    n_obj = len(objective_cells)
    amps, jac = reference_amplitudes(space, x, (*objective_cells, *zero_cells))
    amps, jac = np.array(amps), np.array(jac)
    obj = amps[:n_obj]
    grad = 2.0 * sign * (obj[:, None].conj() * jac[:n_obj]).real.sum(axis=0)
    value = sign * float(np.sum(np.abs(obj) ** 2))

    def zeros(part):
        z = (amps, jac)[part][n_obj:]
        return np.concatenate((z.real, z.imag)) if space.complex_amps else z.real

    resid = float(np.max(np.abs(amps[n_obj:]) ** 2, initial=0.0))
    return (value, grad), zeros(0), zeros(1), resid


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def make_space(name, rng):
    real, product, fixed = PARAMETRIZATIONS[name]
    state = {"random": random_state(rng), "singlet": singlet(), None: None}[fixed]
    return _SearchSpace(real, product, fixed_state=state)


class TestFloatPass:
    CELLS = (1, 6, 11, 16, 13, 4, 5, 9, 2, 7)

    @pytest.mark.parametrize("name", list(PARAMETRIZATIONS))
    def test_kernel_equals_complex_pass(self, name):
        rng = np.random.default_rng(40 + sorted(PARAMETRIZATIONS).index(name))
        space = make_space(name, rng)
        for _ in range(50):
            x = rng.uniform(0.0, 2.0 * math.pi, space.dims)
            amps, jac = space.amplitudes(x, self.CELLS)
            ref_amps, ref_jac = reference_amplitudes(space, x, self.CELLS)
            assert amps == ref_amps, name
            assert jac == ref_jac, name
            if not space.complex_amps:
                # float arithmetic throughout, and the same bits as the real parts
                assert all(type(v) is float for v in [*amps, *(v for row in jac for v in row)])
                assert same_bits(amps, [v.real for v in ref_amps])
                assert same_bits(jac, [[v.real for v in row] for row in ref_jac])

    def test_real_mode_runs_in_floats(self):
        for space in (_SearchSpace(True, False), _SearchSpace(True, True),
                      _SearchSpace(True, False, fixed_state=singlet())):
            psi, dpsi = space.state_of([0.3] * space.dims)
            assert all(type(v) is float for v in psi)
            amps, jac = space.amplitudes(np.full(space.dims, 0.7), (1, 16))
            assert all(type(v) is float for v in [*amps, *jac[0], *jac[1]])
        assert all(type(v) is float for v in quantum._eigenstates(0.4, -0.0)[-1])
        space = _SearchSpace(False, False)
        assert all(type(v) is complex for v in space.amplitudes(np.full(space.dims, 0.7), (1, 16))[0])

    @pytest.mark.parametrize("name", list(PARAMETRIZATIONS))
    @pytest.mark.parametrize("search", ["hardy", "sigma max", "sigma min"])
    def test_evaluator_equals_numpy_expressions(self, name, search):
        objective, zero, sign = {
            "hardy": ((13,), (4, 5, 9), -1.0),
            "sigma max": (quantum.SIGMA_SUPPORTS[2], (), -1.0),
            "sigma min": (quantum.SIGMA_SUPPORTS[4], (), 1.0),
        }[search]
        rng = np.random.default_rng(60 + sorted(PARAMETRIZATIONS).index(name))
        space = make_space(name, rng)
        evaluate = quantum._evaluator(space, objective, zero, sign)
        xs = rng.uniform(0.0, 2.0 * math.pi, (40, space.dims))
        together = evaluate(xs)  # float amplitudes: one batched pass
        assert len(together) == len(xs)
        for x, row in zip(xs, together):
            (ref_value, ref_grad), ref_cons, ref_jac, ref_resid = reference_evaluation(
                space, objective, zero, sign, x
            )
            for (value, grad), cons, cons_jac, resid in (row, evaluate(x[None])[0]):
                assert type(value) is float and value == ref_value
                assert same_bits(value, ref_value) and same_bits(grad, ref_grad)
                assert same_bits(resid, ref_resid)
                if zero:
                    assert same_bits(cons, ref_cons) and same_bits(cons_jac, ref_jac)

    def test_numpy_sum_order(self):
        rng = np.random.default_rng(7)
        spread = [1e16, -1e16, 1.0, 3.0, 1e-16, -0.0, 1.0 / 3.0]
        for n in range(0, 41):
            for _ in range(30):
                terms = [float(v) for v in rng.choice(spread, n)]
                terms = [t * float(rng.uniform(0.5, 2.0)) for t in terms]
                assert same_bits(quantum._numpy_sum(terms), np.sum(np.array(terms, dtype=float)))


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.starts == 64 and cfg.seed == 20201
        assert cfg.constraint_tol == 1e-7
        assert cfg.real_mode and not cfg.product_mode
        assert list(cfg.to_json_dict()) == [
            "starts", "constraint_tol", "seed", "real_mode", "product_mode"
        ]

    def test_json_round_trip(self):
        cfg = OptimizerConfig(starts=10, constraint_tol=1e-9, seed=9, real_mode=False)
        again = OptimizerConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig.from_json_dict({"starts": 4, "budget": 10})

    @pytest.mark.parametrize(
        "doc, field",
        [
            # fields of the penalty search, which is gone, are named
            ({"rounds": 3}, "rounds"),
            ({"penalty_weights": [1e2, 1e4, 1e6]}, "penalty_weights"),
            # values that used to be coerced
            ({"real_mode": "false"}, "real_mode"),
            ({"product_mode": 1}, "product_mode"),
            ({"starts": 2.7}, "starts"),
            ({"starts": True}, "starts"),
            ({"starts": 0}, "starts"),
            ({"starts": "8"}, "starts"),
            ({"constraint_tol": math.nan}, "constraint_tol"),
            ({"constraint_tol": math.inf}, "constraint_tol"),
            ({"constraint_tol": 0.0}, "constraint_tol"),
            ({"constraint_tol": -1e-7}, "constraint_tol"),
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
        ],
    )
    def test_bad_field_rejected(self, doc, field):
        with pytest.raises(SchemaError) as exc:
            OptimizerConfig.from_json_dict(doc)
        assert exc.value.field_name == field
        assert field in str(exc.value)

    def test_starts_upper_bound_checked_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a start was drawn")

        monkeypatch.setattr(quantum, "_starts", no_draw)
        monkeypatch.setattr(quantum, "_descend", no_draw)
        assert OptimizerConfig(starts=MAX_STARTS).starts == MAX_STARTS
        with pytest.raises(SchemaError, match="starts"):
            OptimizerConfig(starts=MAX_STARTS + 1)
        with pytest.raises(SchemaError, match="starts"):
            OptimizerConfig.from_json_dict({"starts": MAX_STARTS + 1})

    def test_integer_tolerance_accepted(self):
        cfg = OptimizerConfig.from_json_dict({"constraint_tol": 1})
        assert cfg.constraint_tol == 1.0 and isinstance(cfg.constraint_tol, float)

    def test_numpy_integer_tolerance_accepted(self):
        cfg = OptimizerConfig(constraint_tol=np.int64(1))
        assert cfg == OptimizerConfig(constraint_tol=1.0)
        assert type(cfg.constraint_tol) is float

    @pytest.mark.parametrize("value", [True, np.True_])
    def test_bool_tolerance_refused(self, value):
        with pytest.raises(SchemaError) as exc:
            OptimizerConfig(constraint_tol=value)
        assert exc.value.field_name == "constraint_tol"
        assert str(exc.value) == f"constraint_tol must be a finite number > 0, got {value!r}"

    def test_numpy_integers_stored_as_python_ints(self):
        cfg = OptimizerConfig(starts=np.int64(8), seed=np.uint64(3))
        assert cfg == OptimizerConfig(starts=8, seed=3)
        assert type(cfg.starts) is int and type(cfg.seed) is int
        assert json_text(cfg.to_json_dict()) == json_text(OptimizerConfig(starts=8, seed=3).to_json_dict())

    @pytest.mark.parametrize(
        "field, value, what",
        [
            ("starts", np.True_, "starts must be an integer in 1..4096"),
            ("starts", True, "starts must be an integer in 1..4096"),
            ("starts", 8.0, "starts must be an integer in 1..4096"),
            ("starts", 0, "starts must be an integer in 1..4096"),
            ("starts", 4097, "starts must be an integer in 1..4096"),
            ("seed", -1, "seed must be an integer >= 0"),
            ("seed", np.int64(-1), "seed must be an integer >= 0"),
            ("seed", False, "seed must be an integer >= 0"),
            ("seed", 1.0, "seed must be an integer >= 0"),
        ],
    )
    def test_refused_integers_keep_their_message(self, field, value, what):
        with pytest.raises(SchemaError) as exc:
            OptimizerConfig(**{field: value})
        assert exc.value.field_name == field
        assert str(exc.value) == f"{what}, got {value!r}"


class TestConstants:
    def test_hardy_max_value(self):
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert HARDY_MAX_PROBABILITY * golden**5 == pytest.approx(1.0, abs=1e-14)
        assert HARDY_MAX_PROBABILITY == pytest.approx(0.0901699437, abs=1e-9)

    def test_sigma_extrema(self):
        assert SIGMA_QUANTUM_MAX == pytest.approx(2.0 + math.sqrt(2.0), abs=0.0)
        assert SIGMA_QUANTUM_MIN == pytest.approx(2.0 - math.sqrt(2.0), abs=0.0)
        assert SIGMA_QUANTUM_MAX + SIGMA_QUANTUM_MIN == pytest.approx(4.0, abs=1e-15)


class TestStartsAndDescents:
    # (real_mode, product_mode, fixed state, indices whose range is [0, 2 pi))
    SPACES = [
        (True, False, None, ()),
        (False, False, None, (3, 4, 5, 7, 9, 11, 13)),
        (True, True, None, ()),
        (False, True, None, (5, 7, 9, 11)),
        (True, False, singlet(), ()),
    ]

    @pytest.mark.parametrize("real_mode, product_mode, fixed, wide", SPACES)
    def test_draw(self, real_mode, product_mode, fixed, wide):
        space = _SearchSpace(real_mode, product_mode, fixed_state=fixed)
        x = quantum._starts(space, 256, 20201)
        assert x.shape == (256, space.dims)
        hi = np.array([2.0 * math.pi if i in wide else math.pi for i in range(space.dims)])
        assert np.all(x >= 0.0) and np.all(x < hi)
        assert np.all(x.max(axis=0) > 0.9 * hi)  # each coordinate spans its range
        # seeded, and a shorter draw is a prefix of a longer one
        assert np.array_equal(x, quantum._starts(space, 256, 20201))
        assert not np.array_equal(x, quantum._starts(space, 256, 20202))
        for k in (1, 5, 255):
            assert np.array_equal(quantum._starts(space, k, 20201), x[:k])

    @staticmethod
    def assert_one_descent_per_start(monkeypatch):
        """Search, recording the `_descend` calls: one lockstep call, which
        ends one descent per start, from `_starts`' starts."""
        space = _SearchSpace(SMALL_CFG.real_mode, SMALL_CFG.product_mode)
        x0s = quantum._starts(space, SMALL_CFG.starts, SMALL_CFG.seed)
        calls = []
        descend = quantum._descend

        def recording(evaluate, starts):
            ends, evaluations = descend(evaluate, starts)
            calls.append((np.array(starts), ends))
            return ends, evaluations

        monkeypatch.setattr(quantum, "_descend", recording)
        opt = maximize_hardy(quadruple_for(1, 13), SMALL_CFG)
        ((starts, ends),) = calls
        assert len(starts) == len(ends) == SMALL_CFG.starts == opt.diagnostics.starts_tried
        assert np.array_equal(starts, x0s)

    def test_one_descent_per_start(self, monkeypatch):
        pytest.importorskip("scipy.optimize")
        self.assert_one_descent_per_start(monkeypatch)

    def test_search_never_calls_minimize(self, monkeypatch):
        # every descent drives the SLSQP kernel itself, not minimize's Python layer
        optimize = pytest.importorskip("scipy.optimize")

        def refused(*args, **kwargs):
            raise AssertionError("scipy.optimize.minimize was called")

        monkeypatch.setattr(optimize, "minimize", refused)
        monkeypatch.setattr(optimize._minimize, "minimize", refused)
        self.assert_one_descent_per_start(monkeypatch)
        assert maximize_sigma(2, SMALL_CFG).value > 3.4

    @staticmethod
    def descents_match_minimize(space, objective, zeros, x0s):
        """Descend from each of ``x0s`` through the lockstep `_descend` and,
        one start at a time, through minimize; assert the same end point
        bytes, value, success and evaluation count, and return minimize's
        results."""
        pytest.importorskip("scipy.optimize._slsqplib")
        direct = quantum._evaluator(space, objective, zeros, -1.0)
        reference = point_evaluator(space, objective, zeros, -1.0)
        ends, evaluations = quantum._descend(direct, np.asarray(x0s))
        assert len(ends) == len(x0s)
        results = []
        for x0, (x, success, value, _) in zip(x0s, ends):
            res = _minimize(reference, x0)
            assert x.tobytes() == res.x.tobytes()
            assert value == res.fun == reference(res.x.tobytes())[0][0]
            assert success is bool(res.success)
            results.append(res)
        assert evaluations == reference.cache_info().misses
        return results

    @pytest.mark.parametrize("real_mode, product_mode, fixed, wide", SPACES)
    def test_direct_descent_matches_minimize(self, real_mode, product_mode, fixed, wide):
        # the kernel driven directly takes minimize's steps bit for bit, for
        # a Hardy and a sigma objective in each space
        space = _SearchSpace(real_mode, product_mode, fixed_state=fixed)
        x0s = quantum._starts(space, SMALL_CFG.starts, SMALL_CFG.seed)
        q = quadruple_for(1, 13)
        for objective, zeros in (((q.j,), (q.k, q.l, q.m)), (SIGMA_SUPPORTS[1], ())):
            self.descents_match_minimize(space, objective, zeros, x0s)

    def test_direct_descent_matches_minimize_at_the_iteration_cap(self):
        # the sixth default start of this Hardy search stops at the cap
        space = _SearchSpace(True, False)
        q = quadruple_for(3, 9)
        x0 = quantum._starts(space, 6, OptimizerConfig().seed)[5]
        (res,) = self.descents_match_minimize(space, (q.j,), (q.k, q.l, q.m), [x0])
        assert res.status == 9 and res.nit == quantum._MAXITER

    def test_minimize_path_returns_the_same_searches(self, monkeypatch):
        # the searches with every descent run through minimize, one start at
        # a time (`_minimize_descend`), return the same results and failure
        pytest.importorskip("scipy.optimize._slsqplib")
        q = quadruple_for(1, 13)
        complex_state = TwoQubitState((0.5, 0.5j, -0.5, 0.5))  # no real-mode zeros

        def searches():
            hardy = maximize_hardy(q, SMALL_CFG)
            sigma = maximize_sigma(2, SMALL_CFG, minimize_value=True)
            with pytest.raises(ConvergenceError) as failed:
                maximize_hardy(q, SMALL_CFG, fixed_state=complex_state)
            return repr(hardy), repr(sigma), str(failed.value)

        direct = searches()
        monkeypatch.setattr(quantum, "_descend", _minimize_descend)
        assert searches() == direct

    def test_search_imports_no_scipy_stats(self):
        src = str(Path(hardybox.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            "from hardybox.quantum import OptimizerConfig, maximize_sigma\n"
            "maximize_sigma(1, OptimizerConfig(starts=2))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "True"]


def one_point(evaluate):
    """``evaluate`` (an `_evaluator`) one point at a time, ``x.tobytes()`` in,
    behind a one-point cache, as the reference loops below read it; the
    cache's misses count the points they evaluate."""

    @functools.lru_cache(maxsize=1)
    def at(key):
        return evaluate(np.frombuffer(key)[None])[0]

    return at


def point_evaluator(space, objective_cells, zero_cells, sign):
    return one_point(quantum._evaluator(space, objective_cells, zero_cells, sign))


def _minimize(evaluate, x0):
    """One SLSQP descent from ``x0`` through `scipy.optimize.minimize`, which
    reads ``evaluate`` (a `point_evaluator`) through its one-point cache."""
    from scipy.optimize import minimize

    constraints = [{
        "type": "eq",
        "fun": lambda x: evaluate(x.tobytes())[1],
        "jac": lambda x: evaluate(x.tobytes())[2],
    }] if len(evaluate(x0.tobytes())[1]) else []
    return minimize(
        lambda x: evaluate(x.tobytes())[0], x0, jac=True, method="SLSQP",
        constraints=constraints, options={"maxiter": quantum._MAXITER, "ftol": quantum._FTOL},
    )


def _minimize_descend(evaluate, x0s):
    """`_descend` through `_minimize`, one start after another, counting the
    points evaluated as the cache's misses."""
    evaluate = one_point(evaluate)
    ends = []
    for x0 in x0s:
        res = _minimize(evaluate, x0)
        (value, _), _, _, resid = evaluate(res.x.tobytes())
        ends.append((res.x, bool(res.success), value, resid))
    return ends, evaluate.cache_info().misses


# The per-start kernel loop that the lockstep `_descend` replaced, kept as
# the reference it must equal bit for bit: one descent at a time, one
# `point_evaluator` call per point, through its one-point cache.
def _reference_descend(evaluate, x0):
    slsqp = quantum._slsqp_kernel()
    (fx, g), zeros, jac, _ = evaluate(x0.tobytes())
    n, m = len(x0), len(zeros)
    _FTOL, _MAXITER = quantum._FTOL, quantum._MAXITER
    state = {
        "acc": _FTOL, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0, "h2": 0.0, "h3": 0.0,
        "h4": 0.0, "t": 0.0, "t0": 0.0, "tol": 10.0 * _FTOL, "exact": 0, "inconsistent": 0,
        "reset": 0, "iter": 0, "itermax": _MAXITER, "line": 0, "m": m, "meq": m, "mode": 0, "n": n,
    }
    # scipy's workspace formula with every constraint an equality
    size = n * (n + 1) // 2 + 2 * n * (n + 1) + 8 * n * n + 35 * n - 2 * m * n + 2 * m + 28
    buffer, indices = np.zeros(size), np.zeros(m + 2 * n + 2, dtype=np.int32)
    mult, lower, upper = np.zeros(m + 2 * n + 2), np.full(n, np.nan), np.full(n, np.nan)
    x, d, C = np.array(x0), np.zeros(max(1, m)), np.zeros((max(1, m), n), order="F")
    d[:m], C[:m] = zeros, jac.reshape(m, n)  # a sigma search has no constraint rows
    while True:
        slsqp(state, fx, g, C, d, x, mult, lower, upper, buffer, indices)
        mode = state["mode"]
        if mode == 1:
            (fx, _), d[:m], _, _ = evaluate(x.tobytes())
        elif mode == -1:
            (_, g), _, jac, _ = evaluate(x.tobytes())
            C[:m] = jac.reshape(m, n)
        else:
            return x, mode == 0


def _reference_extremize(space, objective_cells, zero_cells, sign, cfg):
    evaluate = point_evaluator(space, objective_cells, zero_cells, sign)

    def descend(x0):
        x, success = _reference_descend(evaluate, x0)
        (value, _), _, _, resid = evaluate(x.tobytes())
        return x, value, resid, success and resid <= cfg.constraint_tol

    results = [descend(x0) for x0 in quantum._starts(space, cfg.starts, cfg.seed)]
    feasible = [(f, i) for i, (_, f, _, ok) in enumerate(results) if ok]
    if not feasible:
        raise ConvergenceError(
            f"none of {cfg.starts} starts converged with constrained cells within "
            f"{cfg.constraint_tol:g} (smallest residual {min(r[2] for r in results):.3e})"
        )
    _, winner = min(feasible)
    x, _, resid, _ = results[winner]
    evaluations = evaluate.cache_info().misses  # before the winner is evaluated again
    (_, grad), _, jac, _ = evaluate(x.tobytes())
    state, settings = space.unpack(x)
    return state, settings, born_behavior(state, settings), quantum.SearchDiagnostics(
        starts_tried=cfg.starts,
        starts_feasible=len(feasible),
        winning_start=winner,
        kernel_evaluations=evaluations,
        max_constrained_cell=resid,
        stationarity_residual=quantum._stationarity_residual(grad, jac),
    )


def search_repr(extremize, *args):
    """repr of ``extremize(*args)``'s result, or of its error."""
    try:
        return repr(extremize(*args))
    except ConvergenceError as exc:
        return f"ConvergenceError: {exc}"


def record_rounds(patch):
    """Make every `quantum._evaluator` record how many rows each of its
    calls takes, through ``patch`` (a monkeypatch); returns the record."""
    rounds, evaluator = [], quantum._evaluator

    def recording(*args):
        evaluate = evaluator(*args)

        def counted(xs):
            rounds.append(len(xs))
            return evaluate(xs)

        return counted

    patch.setattr(quantum, "_evaluator", recording)
    return rounds


def lockstep_and_reference(space, objective_cells, zero_cells, sign, cfg):
    """repr of `_extremize`'s result (or its error) and the reference's."""
    args = (space, objective_cells, zero_cells, sign, cfg)
    return [search_repr(extremize, *args) for extremize in (quantum._extremize, _reference_extremize)]


class TestLockstep:
    """The lockstep `_descend` returns the per-start loop's searches bit for bit."""

    HARDY = quadruple_for(1, 13)
    OBJECTIVES = {  # name: (objective cells, zero cells, sign)
        "hardy": ((HARDY.j,), (HARDY.k, HARDY.l, HARDY.m), -1.0),
        "sigma": (SIGMA_SUPPORTS[2], (), 1.0),
    }

    @pytest.fixture(autouse=True)
    def _kernel(self):
        pytest.importorskip("scipy.optimize._slsqplib")

    @pytest.mark.parametrize("objective", list(OBJECTIVES))
    @pytest.mark.parametrize("real_mode, product_mode, fixed, wide", TestStartsAndDescents.SPACES)
    def test_same_searches_in_every_space(self, real_mode, product_mode, fixed, wide, objective):
        space = _SearchSpace(real_mode, product_mode, fixed_state=fixed)
        got, want = lockstep_and_reference(space, *self.OBJECTIVES[objective], SMALL_CFG)
        assert got == want
        assert "kernel_evaluations" in got

    @pytest.mark.parametrize("batch_min", [1, 2, 1000])
    @pytest.mark.parametrize("real_mode, product_mode, fixed", [
        (True, False, None), (True, True, None), (True, False, singlet()),
    ])
    def test_every_round_batched_or_none(self, monkeypatch, real_mode, product_mode, fixed, batch_min):
        # every round through the batched pass (1), single points alone (2),
        # or every point alone (1000): the same searches as the reference,
        # which takes every point alone
        space = _SearchSpace(real_mode, product_mode, fixed_state=fixed)
        for objective in self.OBJECTIVES.values():
            with monkeypatch.context() as patch:
                patch.setattr(quantum, "_BATCH_MIN", batch_min)
                got = search_repr(quantum._extremize, space, *objective, SMALL_CFG)
            assert got == search_repr(_reference_extremize, space, *objective, SMALL_CFG)

    def test_default_search_in_every_family(self):
        cfg = OptimizerConfig()
        space = _SearchSpace(cfg.real_mode, cfg.product_mode)
        for family in range(1, 9):
            q = next(q for q in HARDY_QUADRUPLES if q.family == family)
            got, want = lockstep_and_reference(space, (q.j,), (q.k, q.l, q.m), -1.0, cfg)
            assert got == want, q

    def test_default_sigma_extrema(self):
        cfg = OptimizerConfig()
        space = _SearchSpace(cfg.real_mode, cfg.product_mode)
        for sign in (-1.0, 1.0):
            got, want = lockstep_and_reference(space, SIGMA_SUPPORTS[1], (), sign, cfg)
            assert got == want, sign

    def test_iteration_cap(self):
        # the sixth default start of this Hardy search stops at the cap
        q = quadruple_for(3, 9)
        space = _SearchSpace(True, False)
        cfg = OptimizerConfig(starts=6)
        evaluate = quantum._evaluator(space, (q.j,), (q.k, q.l, q.m), -1.0)
        x0s = quantum._starts(space, cfg.starts, cfg.seed)
        ends, _ = quantum._descend(evaluate, x0s)
        x, success, _, _ = ends[5]
        reference = point_evaluator(space, (q.j,), (q.k, q.l, q.m), -1.0)
        ref_x, ref_success = _reference_descend(reference, x0s[5])
        assert x.tobytes() == ref_x.tobytes()
        assert success is ref_success is False
        got, want = lockstep_and_reference(space, (q.j,), (q.k, q.l, q.m), -1.0, cfg)
        assert got == want

    @pytest.mark.parametrize("real_mode", [True, False])
    def test_groups_of_starts(self, monkeypatch, real_mode):
        # starts run in groups of `_LOCKSTEP_STARTS` (24 starts in groups of
        # 5): no round holds more points, no more descents live at once,
        # and the searches are the same
        alive, peak, descent = weakref.WeakSet(), [0], quantum._descent

        def counted(x0):
            ds = descent(x0)
            alive.add(ds)
            peak[0] = max(peak[0], len(alive))
            return ds

        space = _SearchSpace(real_mode, False)
        args = (space, *self.OBJECTIVES["hardy"], SMALL_CFG)
        with monkeypatch.context() as patch:
            patch.setattr(quantum, "_LOCKSTEP_STARTS", 5)
            patch.setattr(quantum, "_BATCH_MIN", 1)
            patch.setattr(quantum, "_descent", counted)
            rounds = record_rounds(patch)
            got = search_repr(quantum._extremize, *args)
        assert got == search_repr(_reference_extremize, *args)
        assert peak[0] == 5 and max(rounds) == 5
        assert rounds[:1] == [5] and 4 in rounds  # the last group holds 24 - 4 * 5

    @pytest.mark.parametrize("real_mode", [True, False])
    @pytest.mark.parametrize("objective", ["hardy", "sigma"])
    def test_each_point_evaluated_once(self, monkeypatch, real_mode, objective):
        # the rows a search passes its evaluator are the points its
        # diagnostics count, and one more: the winner, evaluated again
        rounds = record_rounds(monkeypatch)
        cfg = OptimizerConfig(starts=SMALL_CFG.starts, real_mode=real_mode)
        if objective == "hardy":
            opt = maximize_hardy(self.HARDY, cfg)
        else:
            opt = maximize_sigma(2, cfg)
        *descents, winner = rounds
        assert rounds[0] == cfg.starts and winner == 1
        assert sum(descents) == opt.diagnostics.kernel_evaluations

    def test_complex_fixed_state_in_real_mode_names_the_cause(self):
        state = TwoQubitState((0.5, 0.5j, -0.5, 0.5))
        space = _SearchSpace(True, False, fixed_state=state)
        got, want = lockstep_and_reference(space, *self.OBJECTIVES["hardy"], OptimizerConfig())
        assert want.startswith("ConvergenceError: none of 64 starts converged")
        assert got.startswith(want + "; ")
        with pytest.raises(ConvergenceError, match=r"complex amplitudes.*real_mode") as exc:
            maximize_hardy(self.HARDY, fixed_state=state)
        assert "smallest residual 2.520e-01" in str(exc.value)
        # without real_mode the same search meets the zeros
        opt = maximize_hardy(self.HARDY, OptimizerConfig(real_mode=False), fixed_state=state)
        assert opt.zero_residual <= 1e-20 and opt.pj_value > 0.08
        # a failure in a space without that cause carries no such clause
        cfg = OptimizerConfig(starts=1, constraint_tol=1e-300, seed=1)
        with pytest.raises(ConvergenceError) as plain:
            maximize_hardy(self.HARDY, cfg)
        assert "real_mode" not in str(plain.value)


class TestBatchEvaluator:
    """`_evaluator`'s batched pass against its point-by-point path, bit for bit."""

    FLOAT_SPACES = {
        "real": (True, False, None),
        "real product": (True, True, None),
        "fixed singlet, real": (True, False, "singlet"),
        "fixed real state": (True, False, "real"),
    }
    OBJECTIVES = {
        "hardy": ((13,), (4, 5, 9), -1.0),
        "one cell, no zeros": ((6,), (), 1.0),
        "sigma max": (SIGMA_SUPPORTS[3], (), -1.0),
        "sigma min, zeros": (SIGMA_SUPPORTS[4], (1, 16), 1.0),
    }

    @staticmethod
    def float_space(name, rng):
        real, product, fixed = TestBatchEvaluator.FLOAT_SPACES[name]
        if fixed == "real":
            v = rng.normal(size=4)
            fixed = TwoQubitState(tuple(v / np.linalg.norm(v)))
        elif fixed == "singlet":
            fixed = singlet()
        return _SearchSpace(real, product, fixed_state=fixed)

    @pytest.mark.parametrize("objective", list(OBJECTIVES))
    @pytest.mark.parametrize("name", list(FLOAT_SPACES))
    def test_equals_scalar_evaluator(self, monkeypatch, name, objective):
        cells, zeros, sign = self.OBJECTIVES[objective]
        rng = np.random.default_rng([70, sorted(self.FLOAT_SPACES).index(name)])
        space = self.float_space(name, rng)
        evaluate = quantum._evaluator(space, cells, zeros, sign)
        for size in (1, 3, 4, 5, 64):
            xs = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (size, space.dims))
            xs[0, : space.n_state] = 0.0  # exact zeros in the state and its derivatives
            alone = [evaluate(x[None])[0] for x in xs]  # one point: point by point
            with monkeypatch.context() as patch:
                patch.setattr(quantum, "_BATCH_MIN", 1)
                patch.setattr(space, "amplitudes", None)  # the point path's kernel call
                got = evaluate(xs)
            assert len(got) == size
            for ((value, grad), zs, zjac, resid), ref in zip(got, alone):
                (ref_value, ref_grad), ref_zs, ref_zjac, ref_resid = ref
                assert type(value) is float and same_bits(value, ref_value)
                assert grad.shape == (space.dims,) and grad.flags.c_contiguous
                assert same_bits(grad, ref_grad)
                assert same_bits(zs, ref_zs)
                shape = (len(zeros), space.dims)
                assert same_bits(zjac.reshape(shape), ref_zjac.reshape(shape))
                assert type(resid) is float and same_bits(resid, ref_resid)

    def test_numpy_trig_rounds_as_math(self):
        # the batch takes np.sin and np.cos where `_evaluator` takes
        # math.sin and math.cos; its bit identity, and a descent's
        # independence of the other starts, rest on their agreeing
        rng = np.random.default_rng(71)
        x = np.concatenate((
            rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 100_000),
            0.5 * rng.uniform(0.0, 2.0 * math.pi, 100_000),  # half angles of directions
            rng.normal(scale=1e-3, size=1_000), [0.0, -0.0, math.pi, 0.5 * math.pi, 2.0 * math.pi],
        ))
        for name, fn in (("sin", math.sin), ("cos", math.cos)):
            ours = getattr(np, name)(x).tolist()
            bad = [(v, a, b) for v, a, b in zip(x.tolist(), ours, map(fn, x.tolist())) if a != b]
            assert not bad, (
                f"np.{name} differs from math.{name} on {len(bad)} of {len(x)} doubles "
                f"(first: x={bad[0][0]!r}, numpy {bad[0][1]!r}, math {bad[0][2]!r}); "
                "the batched search evaluator is then not bit-identical to `_evaluator`"
            )

    def test_complex_spaces_go_point_by_point(self, monkeypatch):
        # even with every round batched, complex amplitudes go one point at a
        # time through the kernel, with the reference's bits
        monkeypatch.setattr(quantum, "_BATCH_MIN", 1)
        rng = np.random.default_rng(72)
        state = TwoQubitState((0.5, 0.5j, -0.5, 0.5))
        for space in (_SearchSpace(False, False), _SearchSpace(False, True),
                      _SearchSpace(True, False, fixed_state=state),
                      _SearchSpace(False, False, fixed_state=singlet())):
            assert space.complex_amps
            points = []
            amplitudes = space.amplitudes
            monkeypatch.setattr(space, "amplitudes", lambda x, cells: points.append(x) or amplitudes(x, cells))
            xs = rng.uniform(0.0, 2.0 * math.pi, (16, space.dims))
            got = quantum._evaluator(space, (13,), (4, 5, 9), -1.0)(xs)
            assert len(points) == len(got) == len(xs)
            for x, seen, row in zip(xs, points, got):
                assert same_bits(seen, x)
                ref = reference_evaluation(space, (13,), (4, 5, 9), -1.0, x)
                assert all(same_bits(a, b) for a, b in zip((*row[0], *row[1:]), (*ref[0], *ref[1:])))


def forbid_drawing(monkeypatch):
    """Make drawing a start or descending raise."""

    def no_draw(*args, **kwargs):
        raise AssertionError("a start was drawn")

    monkeypatch.setattr(quantum, "_starts", no_draw)
    monkeypatch.setattr(quantum, "_descend", no_draw)


class TestHardySearch:
    def test_reaches_known_optimum(self):
        opt = maximize_hardy(quadruple_for(1, 13), SMALL_CFG)
        assert opt.zero_residual <= SMALL_CFG.constraint_tol
        assert opt.pj_value == pytest.approx(HARDY_MAX_PROBABILITY, abs=5e-4)
        # reported numbers must come from the full probability table
        b = born_behavior(opt.state, opt.settings)
        assert b.p(13) == opt.pj_value

    def test_kkt_stationarity_at_optimum(self):
        # at a constrained maximum grad pj is a combination of the gradients of
        # the three constrained amplitudes; the local coordinates and finite
        # differences here are independent of the search's angles and Jacobian
        q = quadruple_for(3, 9)
        opt = maximize_hardy(q, SMALL_CFG)
        psi0 = np.real(opt.state.as_array())
        thetas0 = np.array([opt.settings.for_a(1).theta, opt.settings.for_a(2).theta,
                            opt.settings.for_b(1).theta, opt.settings.for_b(2).theta])
        # three real tangent directions of the unit sphere at psi0
        tangent = np.linalg.svd(psi0[None, :])[2][1:]

        def amplitude(y, cell):
            psi = psi0 + tangent.T @ y[:3]
            psi /= np.linalg.norm(psi)
            th = thetas0 + y[3:]
            a, b, ma, mb = cell_of(cell)
            ea = BlochDirection(th[a - 1]).eigenstate(ma)
            eb = BlochDirection(th[1 + b]).eigenstate(mb)
            return float(np.real(np.vdot(np.kron(ea, eb), psi)))

        def gradient(f):
            h = 1e-6
            out = np.empty(7)
            for i in range(7):
                e = np.zeros(7)
                e[i] = h
                out[i] = (f(e) - f(-e)) / (2 * h)
            return out

        grad_pj = gradient(lambda y: amplitude(y, q.j) ** 2)
        jac = np.array([gradient(lambda y, c=c: amplitude(y, c)) for c in (q.k, q.l, q.m)])
        assert np.linalg.matrix_rank(jac, tol=1e-6) == 3  # regular constraints
        multipliers = np.linalg.lstsq(jac.T, grad_pj, rcond=None)[0]
        assert np.linalg.norm(jac.T @ multipliers - grad_pj) <= 1e-6
        assert np.linalg.norm(grad_pj) >= 1e-2  # not a free stationary point

    def test_fixed_singlet_collapses(self):
        opt = maximize_hardy(quadruple_for(1, 13), SMALL_CFG, fixed_state=singlet())
        assert opt.pj_value <= 1e-6
        assert opt.zero_residual <= SMALL_CFG.constraint_tol
        report = singlet_perfect_correlation_check(opt.settings)
        assert report.passed
        assert all(abs(c) >= 1.0 - 1e-5 for c in report.correlations)
        assert all(abs(d) <= 2.0 + 4e-5 for d in report.deltas)

    def test_unnormalized_fixed_state_refused_before_drawing(self, monkeypatch):
        # |s|^2 = 1.49: born_behavior's refusal, before any start is drawn
        forbid_drawing(monkeypatch)
        s = TwoQubitState((1.0, 0.6, -0.3, 0.2))
        with pytest.raises(ValueError, match=r"^state norm deviates from 1 by 4\.900e-01$"):
            maximize_hardy(quadruple_for(1, 13), SMALL_CFG, fixed_state=s)

    def test_convergence_error_when_impossible(self):
        # one start gets its constrained cells near 1e-29, not below 1e-300
        cfg = OptimizerConfig(starts=1, constraint_tol=1e-300, seed=1)
        with pytest.raises(ConvergenceError):
            maximize_hardy(quadruple_for(1, 13), cfg)

    def test_rounding_level_in_every_family(self):
        # criterion 4's picks, held to rounding level instead of 5e-4
        for family in range(1, 9):
            q = next(q for q in HARDY_QUADRUPLES if q.family == family)
            opt = maximize_hardy(q)
            assert abs(opt.pj_value - HARDY_MAX_PROBABILITY) <= 1e-10, q
            assert opt.zero_residual <= 1e-20, q

    def test_diagnostics(self):
        q = quadruple_for(1, 13)
        opt = maximize_hardy(q, SMALL_CFG)
        d = opt.diagnostics
        assert d.starts_tried == SMALL_CFG.starts
        assert 1 <= d.starts_feasible <= d.starts_tried
        assert 0 <= d.winning_start < d.starts_tried
        assert d.kernel_evaluations >= d.starts_tried
        assert d.max_constrained_cell <= SMALL_CFG.constraint_tol
        assert d.max_constrained_cell == pytest.approx(opt.zero_residual, abs=1e-20)
        # deterministic: no wall time, so a rerun reproduces the record
        assert maximize_hardy(q, SMALL_CFG).diagnostics == d

    def test_optimum_json(self):
        opt = maximize_hardy(quadruple_for(1, 13), SMALL_CFG)
        doc = opt.to_json_dict()
        assert doc["quadruple"] == {"family": 1, "j": 13, "k": 4, "l": 5, "m": 9}
        assert doc["pj"] == opt.pj_value
        assert len(doc["state"]["amplitudes"]) == 4
        assert set(doc["settings"]) == {"a1", "a2", "b1", "b2"}
        assert doc["diagnostics"] == opt.diagnostics.to_json_dict()
        assert set(doc["diagnostics"]) == {
            "starts_tried", "starts_feasible", "winning_start",
            "kernel_evaluations", "max_constrained_cell", "stationarity_residual",
        }

    def test_stationarity_residual_at_default_optima(self):
        for q in HARDY_QUADRUPLES[::16]:  # four quadruples from different families
            d = maximize_hardy(q).diagnostics
            assert 0.0 <= d.stationarity_residual <= 1e-6, q


class TestSigmaSearch:
    def test_maximum(self):
        opt = maximize_sigma(1, SMALL_CFG)
        assert opt.value == pytest.approx(SIGMA_QUANTUM_MAX, abs=1e-6)

    def test_minimum(self):
        opt = maximize_sigma(2, SMALL_CFG, minimize_value=True)
        assert opt.value == pytest.approx(SIGMA_QUANTUM_MIN, abs=1e-6)
        assert opt.minimize

    def test_rounding_level_and_diagnostics(self):
        opt = maximize_sigma(3, SMALL_CFG)
        assert opt.value == pytest.approx(SIGMA_QUANTUM_MAX, abs=1e-12)
        d = opt.diagnostics
        assert d.starts_tried == d.starts_feasible == SMALL_CFG.starts
        assert d.max_constrained_cell == 0.0
        assert opt.to_json_dict()["diagnostics"] == d.to_json_dict()

    def test_stationarity_residual_at_default_extrema(self):
        for minimize_value in (False, True):
            d = maximize_sigma(1, minimize_value=minimize_value).diagnostics
            assert 0.0 <= d.stationarity_residual <= 1e-6, minimize_value

    def test_product_mode_hits_classical_bound(self):
        cfg = OptimizerConfig(starts=24, seed=20201, product_mode=True)
        opt = maximize_sigma(1, cfg)
        assert opt.value == pytest.approx(3.0, abs=1e-4)
        assert opt.value <= 3.0 + 1e-9

    def test_bad_index(self):
        with pytest.raises(ValueError):
            maximize_sigma(5, SMALL_CFG)

    @pytest.mark.parametrize("index", [2.0, True, np.True_, np.int64(5)])
    def test_index_not_an_integer_in_range_refused_before_drawing(self, monkeypatch, index):
        forbid_drawing(monkeypatch)
        with pytest.raises(ValueError, match=r"^sigma index must be 1\.\.4, got "):
            maximize_sigma(index, SMALL_CFG)

    @pytest.mark.parametrize("index", [0, 5, 2.0, True])
    def test_index_message_unchanged(self, monkeypatch, index):
        forbid_drawing(monkeypatch)
        with pytest.raises(ValueError) as exc:
            maximize_sigma(index, SMALL_CFG)
        assert str(exc.value) == f"sigma index must be 1..4, got {index!r}"

    def test_numpy_index_stored_as_int(self):
        opt = maximize_sigma(np.int64(2), SMALL_CFG)
        assert type(opt.sigma_index) is int and opt.to_json_dict()["sigma_index"] == 2
        assert repr(opt) == repr(maximize_sigma(2, SMALL_CFG))


class TestPerfectCorrelationCheck:
    def test_requires_three_zero_pattern(self):
        generic = MeasurementSettings(
            BlochDirection(0.3), BlochDirection(1.1), BlochDirection(2.0), BlochDirection(0.7)
        )
        with pytest.raises(ValueError):
            singlet_perfect_correlation_check(generic)

    def test_passes_on_aligned_settings(self):
        report = singlet_perfect_correlation_check(all_z_settings())
        assert report.passed
        assert len(report.patterns) >= 1
        doc = report.to_json_dict()
        assert doc["passed"] is True
