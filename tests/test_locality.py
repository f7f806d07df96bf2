"""Constraint system, completion variants and no-signaling helpers.

The completion sign tables are cross-validated against a generic linear
solve of the constraint system, and the rank against exact elimination
over rationals, so no value here depends on the implementation's own
linear algebra.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardybox.behavior import Behavior, is_no_signaling, is_normalized, is_valid
from hardybox.boxes import kwiat_hardy_box, mermin_box, pr_box
from hardybox.locality import (
    _COMPLETIONS,
    FreeSetId,
    NsBoundTriple,
    complete_from_free_set,
    completion_roundtrip,
    completion_signs,
    constraint_matrix,
    constraint_residuals,
    constraint_rhs,
    free_values_of,
    nonneg_side_checks,
    ns_bound_check,
    random_no_signaling_behavior,
    system_rank,
)

ALL_VARIANTS = tuple(FreeSetId)


def exact_rank(matrix: np.ndarray) -> int:
    """Rank by Gaussian elimination over exact rationals."""
    rows = [[Fraction(int(v)) for v in row] for row in matrix.astype(int)]
    rank = 0
    col = 0
    n_rows, n_cols = len(rows), len(rows[0])
    while rank < n_rows and col < n_cols:
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


class TestConstraintSystem:
    def test_shape(self):
        assert constraint_matrix().shape == (12, 16)
        assert constraint_rhs().shape == (12,)

    def test_rhs(self):
        rhs = constraint_rhs()
        assert list(rhs[:4]) == [1.0, 1.0, 1.0, 1.0]
        assert list(rhs[4:]) == [0.0] * 8

    def test_normalization_rows(self):
        m = constraint_matrix()
        for g in range(4):
            expected = np.zeros(16)
            expected[4 * g : 4 * g + 4] = 1.0
            assert (m[g] == expected).all()

    def test_first_signaling_row(self):
        # marginal of the first party, setting 1, outcome +1, across far settings
        row = constraint_matrix()[4]
        expected = np.zeros(16)
        expected[[0, 1]] = 1.0
        expected[[4, 5]] = -1.0
        assert (row == expected).all()

    def test_rank_is_eight(self):
        assert system_rank() == 8
        assert exact_rank(constraint_matrix()) == 8

    def test_residuals_zero_on_no_signaling(self):
        for b in (pr_box(), mermin_box()):
            assert constraint_residuals(b).max_abs() <= 1e-12

    def test_residuals_on_signaling_box(self):
        res = constraint_residuals(kwiat_hardy_box())
        assert max(abs(r) for r in res.normalization) == 0.0
        assert max(abs(r) for r in res.signaling) == 1.0


class TestCompletionSigns:
    def test_three_plus_signs_per_row(self):
        for v in ALL_VARIANTS:
            signs = completion_signs(v)
            assert sorted(signs) == sorted(v.solved_cells)
            for row in signs.values():
                assert len(row) == 8
                assert sum(1 for s in row if s == 1) == 3
                assert all(s in (-1, 1) for s in row)

    def test_free_and_solved_partition(self):
        for v in ALL_VARIANTS:
            assert sorted(v.free_cells + v.solved_cells) == list(range(1, 17))
            assert len(v.free_cells) == 8

    def test_inverse_pairs(self):
        for v in ALL_VARIANTS:
            assert v.inverse.inverse is v
            assert v.inverse.free_cells == v.solved_cells

    def test_sigma_index_and_primed(self):
        assert [v.sigma_index for v in ALL_VARIANTS] == [1, 1, 2, 2, 3, 3, 4, 4]
        assert [v.primed for v in ALL_VARIANTS] == [False, True] * 4


def affine_from_signs(variant: FreeSetId) -> tuple[np.ndarray, np.ndarray]:
    """cells = const + free @ m read off the sign table, one cell at a time."""
    const = np.zeros(16)
    m = np.zeros((8, 16))
    m[range(8), [c - 1 for c in variant.free_cells]] = 1.0
    for cell, signs in completion_signs(variant).items():
        const[cell - 1] = 0.5
        m[:, cell - 1] = np.array(signs) / 2.0
    return const, m


class TestCompletionTables:
    def test_affine_tables_equal_sign_tables_bytewise(self):
        for v in ALL_VARIANTS:
            for got, want in zip(_COMPLETIONS[v], affine_from_signs(v)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()

    def test_sign_view_is_a_copy(self):
        for v in ALL_VARIANTS:
            before = completion_signs(v)
            completion_signs(v).clear()
            assert completion_signs(v) == before
            assert all(type(c) is int and all(type(s) is int for s in row) for c, row in before.items())


def oracle_completion(free_values, variant: FreeSetId) -> np.ndarray:
    """Solve the constraint system for the solved cells by least squares."""
    m = constraint_matrix()
    rhs = constraint_rhs()
    free_idx = [c - 1 for c in variant.free_cells]
    solved_idx = [c - 1 for c in variant.solved_cells]
    reduced_rhs = rhs - m[:, free_idx] @ np.asarray(free_values)
    solution, residuals, rank, _ = np.linalg.lstsq(m[:, solved_idx], reduced_rhs, rcond=None)
    assert rank == 8
    full = np.empty(16)
    full[free_idx] = free_values
    full[solved_idx] = solution
    return full


class TestCompletion:
    def test_matches_generic_solver(self):
        rng = np.random.default_rng(91)
        for v in ALL_VARIANTS:
            for _ in range(40):
                free = rng.uniform(0.0, 0.5, size=8)
                got = complete_from_free_set(free, v)
                want = oracle_completion(free, v)
                assert np.allclose(got.probs, want, atol=1e-12)

    def test_pr_from_all_halves(self):
        b = complete_from_free_set([0.5] * 8, FreeSetId.S1)
        assert b == pr_box()

    def test_completion_satisfies_constraints(self):
        rng = np.random.default_rng(17)
        for v in ALL_VARIANTS:
            for _ in range(40):
                free = rng.uniform(-1.0, 2.0, size=8)
                b = complete_from_free_set(free, v)
                assert constraint_residuals(b).max_abs() <= 1e-12

    def test_free_values_of_inverts(self):
        rng = np.random.default_rng(3)
        for v in ALL_VARIANTS:
            free = tuple(rng.uniform(0.0, 0.4, size=8))
            b = complete_from_free_set(free, v)
            assert free_values_of(b, v) == pytest.approx(free, abs=0.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            complete_from_free_set([0.5] * 7, FreeSetId.S1)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(23)
        for v in ALL_VARIANTS:
            b = random_no_signaling_behavior(rng)
            again = completion_roundtrip(b, v)
            assert np.allclose(again.probs, b.probs, atol=1e-12)

    def test_roundtrip_equals_two_loop_completions(self):
        # the round trip is two products with the affine tables; it agrees
        # with two `complete_from_free_set` loops to the last bits
        rng = np.random.default_rng(29)
        for i in range(80):
            b = random_no_signaling_behavior(rng, ALL_VARIANTS[i % 8])
            for v in ALL_VARIANTS:
                once = complete_from_free_set(free_values_of(b, v), v)
                want = complete_from_free_set(free_values_of(once, v.inverse), v.inverse)
                got = completion_roundtrip(b, v)
                assert np.abs(np.subtract(got.probs, want.probs)).max() <= 1e-15

    def test_roundtrip_rejects_signaling(self):
        with pytest.raises(ValueError):
            completion_roundtrip(kwiat_hardy_box(), FreeSetId.S1)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=8,
        max_size=8,
    ),
    st.sampled_from(ALL_VARIANTS),
)
def test_completion_residual_property(free, variant):
    b = complete_from_free_set(free, variant)
    assert constraint_residuals(b).max_abs() <= 1e-10


class TestNsBound:
    def test_pr_saturates(self):
        res = ns_bound_check(pr_box(), NsBoundTriple(5, 2, 11, 13))
        assert res.lhs == pytest.approx(0.0, abs=1e-15)
        assert res.rhs == pytest.approx(0.0, abs=1e-15)
        assert res.satisfied
        assert res.slack == pytest.approx(0.0, abs=1e-15)

    def test_mermin_inside(self):
        res = ns_bound_check(mermin_box(), NsBoundTriple(13, 4, 5, 9))
        assert res.lhs == pytest.approx(-0.82, abs=1e-12)
        assert res.satisfied

    def test_violation_detected(self):
        probs = [0.0] * 16
        probs[4] = 0.8  # cell 5 large while cells 2, 11, 13 stay zero
        res = ns_bound_check(Behavior(tuple(probs)), NsBoundTriple(5, 2, 11, 13))
        assert not res.satisfied
        assert res.slack == pytest.approx(-0.6, abs=1e-12)

    def test_triple_validation(self):
        with pytest.raises(ValueError):
            NsBoundTriple(0, 1, 2, 3)
        with pytest.raises(ValueError):
            NsBoundTriple(5, 5, 11, 13)


class TestSideChecks:
    def test_pr_all_saturated(self):
        checks = nonneg_side_checks(pr_box())
        assert [c.name for c in checks] == ["entry_nonneg", "pair_nonneg", "octet_cap"]
        assert all(c.satisfied for c in checks)
        assert all(c.slack == pytest.approx(0.0, abs=1e-15) for c in checks)

    def test_uniform_values(self):
        checks = {c.name: c for c in nonneg_side_checks(Behavior((0.25,) * 16))}
        assert checks["entry_nonneg"].slack == pytest.approx(0.5, abs=1e-12)
        assert checks["pair_nonneg"].slack == pytest.approx(0.5, abs=1e-12)
        assert checks["octet_cap"].slack == pytest.approx(2.0, abs=1e-12)


class TestRandomNoSignaling:
    def test_properties(self):
        rng = np.random.default_rng(5)
        for v in ALL_VARIANTS:
            b = random_no_signaling_behavior(rng, variant=v)
            assert is_valid(b)
            assert is_normalized(b)
            assert is_no_signaling(b)

    def test_deterministic_given_seed(self):
        a = random_no_signaling_behavior(np.random.default_rng(11))
        b = random_no_signaling_behavior(np.random.default_rng(11))
        assert a == b


def loop_sampler(rng, variant=FreeSetId.S1, max_tries=100000):
    """The one-candidate-at-a-time rejection loop the sampler must reproduce."""
    for _ in range(max_tries):
        candidate = complete_from_free_set(rng.uniform(0.0, 1.0, size=8), variant)
        if all(0.0 <= x <= 1.0 for x in candidate.probs):
            return candidate
    raise RuntimeError(f"no valid completion found in {max_tries} draws")


def generator_state(rng) -> dict:
    """The bit generator's state with arrays as lists, so states compare with ==."""

    def plain(d):
        return {k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in d.items()}

    return plain(rng.bit_generator.state)


class CountingRng:
    """A duck-typed generator: counts the candidate rows drawn through it."""

    def __init__(self, rng):
        self._rng = rng
        self.rows = 0

    def uniform(self, *args, **kwargs):
        out = self._rng.uniform(*args, **kwargs)
        self.rows += out.size // 8
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def outcome(sampler, rng, variant, max_tries):
    try:
        return sampler(rng, variant, max_tries)
    except RuntimeError as err:
        return str(err)


#: generators for the stream tests; the later seeds' first S1 sample is the
#: 256th, 257th or 512th candidate, so it ends or follows a screened block
STREAM_CASES = [(np.random.PCG64, s) for s in (0, 1, 2, 3, 343, 1418, 1665)] + [
    (np.random.Philox, s) for s in (0, 1, 2, 3, 274, 726, 1043)
]


def candidates_tried(bit_generator, seed, variant, calls, max_tries=100000):
    """Candidates the loop tries in its ``calls``-th call, and that call's outcome."""
    rng = CountingRng(np.random.Generator(bit_generator(seed)))
    for _ in range(calls):
        before = rng.rows
        result = outcome(loop_sampler, rng, variant, max_tries)
    return rng.rows - before, result


class TestSamplerStream:
    """The block-screened sampler returns the loop's boxes and leaves the
    generator in the loop's state, call after call."""

    @pytest.mark.parametrize("bit_generator, seed", STREAM_CASES)
    @pytest.mark.parametrize("max_tries", [100000, 300, 5])
    def test_identical_to_loop(self, bit_generator, seed, max_tries):
        for v in ALL_VARIANTS:
            ref = CountingRng(np.random.Generator(bit_generator(seed)))
            got = CountingRng(np.random.Generator(bit_generator(seed)))
            for _ in range(3):
                want = outcome(loop_sampler, ref, v, max_tries)
                assert outcome(random_no_signaling_behavior, got, v, max_tries) == want
                assert generator_state(got) == generator_state(ref)
                assert got.rows == ref.rows

    def test_cases_cover_block_edges_and_failures(self):
        pcg, philox, s1 = np.random.PCG64, np.random.Philox, FreeSetId.S1
        assert candidates_tried(pcg, 1418, s1, 1)[0] == 256
        assert candidates_tried(pcg, 343, s1, 1)[0] == 257
        assert candidates_tried(pcg, 1665, s1, 1)[0] == 512
        assert candidates_tried(philox, 1043, s1, 1)[0] == 256
        assert candidates_tried(philox, 274, s1, 1)[0] == 257
        assert candidates_tried(philox, 726, s1, 1)[0] == 512
        assert candidates_tried(pcg, 0, s1, 2)[0] == 736
        # failures after one full and one truncated block; a success after two
        assert candidates_tried(pcg, 0, s1, 2, 300) == (300, "no valid completion found in 300 draws")
        assert candidates_tried(philox, 0, s1, 3, 300)[0] == 33
        assert candidates_tried(philox, 0, s1, 1, 5)[1] == "no valid completion found in 5 draws"

    @pytest.mark.parametrize("max_tries", [2.5, 0, -1, True, "3", None])
    def test_bad_max_tries_rejected_before_drawing(self, max_tries):
        rng = np.random.default_rng(0)
        before = generator_state(rng)
        with pytest.raises(ValueError, match="^max_tries"):
            random_no_signaling_behavior(rng, FreeSetId.S1, max_tries)
        assert generator_state(rng) == before

    def test_numpy_integer_max_tries(self):
        want = loop_sampler(np.random.default_rng(4), FreeSetId.S2, 1000)
        got = random_no_signaling_behavior(np.random.default_rng(4), FreeSetId.S2, np.int64(1000))
        assert got == want

