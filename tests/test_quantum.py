"""Born rule against a dense projector oracle, and the extremal searches.

The oracle builds each joint probability as <psi| Pa x Pb |psi> with
projectors (I + outcome * n.sigma)/2 assembled from Pauli matrices, a route
sharing no code with the implementation's eigenbasis path.
"""

import math

import numpy as np
import pytest

from hardybox import quantum
from hardybox.behavior import (
    SchemaError,
    cell_of,
    correlation_vector,
    is_no_signaling,
    is_normalized,
)
from hardybox.bell import HARDY_QUADRUPLES, quadruple_for
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
    _born_cells,
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
        with pytest.raises(ValueError):
            BlochDirection(0.3).eigenstate(0)

    def test_unit_vector(self):
        v = BlochDirection(math.pi / 2, 0.0).unit_vector()
        assert v == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)


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
            psi, _ = space.state_of(x.tolist())
            probs = _born_cells(psi, space.directions_of(x), cells)
            assert np.allclose(np.abs(amps) ** 2, probs, atol=1e-14)
            if not space.complex_amps:
                assert max(abs(complex(a).imag) for a in amps) <= 1e-15


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

        monkeypatch.setattr(quantum, "_sobol_starts", no_draw)
        monkeypatch.setattr(quantum, "minimize", no_draw)
        assert OptimizerConfig(starts=MAX_STARTS).starts == MAX_STARTS
        with pytest.raises(SchemaError, match="starts"):
            OptimizerConfig(starts=MAX_STARTS + 1)
        with pytest.raises(SchemaError, match="starts"):
            OptimizerConfig.from_json_dict({"starts": MAX_STARTS + 1})

    def test_integer_tolerance_accepted(self):
        cfg = OptimizerConfig.from_json_dict({"constraint_tol": 1})
        assert cfg.constraint_tol == 1.0 and isinstance(cfg.constraint_tol, float)


class TestConstants:
    def test_hardy_max_value(self):
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert HARDY_MAX_PROBABILITY * golden**5 == pytest.approx(1.0, abs=1e-14)
        assert HARDY_MAX_PROBABILITY == pytest.approx(0.0901699437, abs=1e-9)

    def test_sigma_extrema(self):
        assert SIGMA_QUANTUM_MAX == pytest.approx(2.0 + math.sqrt(2.0), abs=0.0)
        assert SIGMA_QUANTUM_MIN == pytest.approx(2.0 - math.sqrt(2.0), abs=0.0)
        assert SIGMA_QUANTUM_MAX + SIGMA_QUANTUM_MIN == pytest.approx(4.0, abs=1e-15)


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
            "kernel_evaluations", "max_constrained_cell",
        }


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

    def test_product_mode_hits_classical_bound(self):
        cfg = OptimizerConfig(starts=24, seed=20201, product_mode=True)
        opt = maximize_sigma(1, cfg)
        assert opt.value == pytest.approx(3.0, abs=1e-4)
        assert opt.value <= 3.0 + 1e-9

    def test_bad_index(self):
        with pytest.raises(ValueError):
            maximize_sigma(5, SMALL_CFG)


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
