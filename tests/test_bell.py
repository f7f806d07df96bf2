"""Probability sums, CHSH/CH forms and the 64 cell-quadruple inequalities.

``REFERENCE_QUADRUPLES`` is an independently tabulated list of all 64
inequalities, hand-checked cell by cell; the derived enumeration must
reproduce it exactly.  Group g collects the 16 rows whose probability sum
has index g (two families per group, unprimed then primed).
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardybox import bell
from hardybox.behavior import (
    Behavior,
    correlation_vector,
    is_no_signaling,
    is_normalized,
    uniform_behavior,
)
from hardybox.bell import (
    HARDY_QUADRUPLES,
    SIGMA_PRIME_SUPPORTS,
    SIGMA_SUPPORTS,
    ch_check,
    ch_values,
    ch_values_full,
    chsh_check,
    delta_values,
    enumerate_hardy_inequalities,
    equivalence_audit,
    hardy_check,
    hardy_witness,
    local_deterministic_behavior,
    local_vertices,
    quadruple_for,
    sigma_shift_of_hardy,
    sigma_values,
)
from hardybox.boxes import (
    hardy_pattern_a_box,
    hardy_pattern_b_box,
    kwiat_hardy_box,
    mermin_box,
    pr_box,
)
from hardybox.locality import FreeSetId, complete_from_free_set, random_no_signaling_behavior

REFERENCE_QUADRUPLES = {
    1: {
        1: (6, 11, 13), 2: (5, 12, 14), 3: (8, 9, 15), 4: (7, 10, 16),
        5: (2, 11, 13), 6: (1, 12, 14), 7: (4, 9, 15), 8: (3, 10, 16),
        9: (3, 6, 13), 10: (4, 5, 14), 11: (1, 8, 15), 12: (2, 7, 16),
        13: (4, 5, 9), 14: (3, 6, 10), 15: (2, 7, 11), 16: (1, 8, 12),
    },
    2: {
        1: (6, 9, 15), 2: (5, 10, 16), 3: (8, 11, 13), 4: (7, 12, 14),
        5: (2, 9, 15), 6: (1, 10, 16), 7: (4, 11, 13), 8: (3, 12, 14),
        9: (1, 8, 13), 10: (2, 7, 14), 11: (3, 6, 15), 12: (4, 5, 16),
        13: (2, 7, 9), 14: (1, 8, 10), 15: (4, 5, 11), 16: (3, 6, 12),
    },
    3: {
        1: (5, 11, 14), 2: (6, 12, 13), 3: (7, 9, 16), 4: (8, 10, 15),
        5: (1, 12, 13), 6: (2, 11, 14), 7: (3, 10, 15), 8: (4, 9, 16),
        9: (3, 5, 14), 10: (4, 6, 13), 11: (1, 7, 16), 12: (2, 8, 15),
        13: (3, 5, 10), 14: (4, 6, 9), 15: (1, 7, 12), 16: (2, 8, 11),
    },
    4: {
        1: (5, 9, 16), 2: (6, 10, 15), 3: (7, 11, 14), 4: (8, 12, 13),
        5: (1, 10, 15), 6: (2, 9, 16), 7: (3, 12, 13), 8: (4, 11, 14),
        9: (1, 7, 14), 10: (2, 8, 13), 11: (3, 5, 16), 12: (4, 6, 15),
        13: (1, 7, 10), 14: (2, 8, 9), 15: (3, 5, 12), 16: (4, 6, 11),
    },
}


def normalized_strategy():
    block = st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=4, max_size=4
    ).filter(lambda c: sum(c) > 1e-9)
    return st.tuples(block, block, block, block).map(
        lambda blocks: Behavior(
            tuple(c / sum(cells) for cells in blocks for c in cells)
        )
    )


def any_box_strategy():
    cells = st.floats(min_value=-1.0, max_value=2.0, allow_nan=False)
    return st.one_of(
        normalized_strategy(), st.lists(cells, min_size=16, max_size=16).map(Behavior)
    )


class TestEnumeration:
    def test_count_and_order(self):
        assert len(HARDY_QUADRUPLES) == 64
        order = [(q.family, q.j) for q in HARDY_QUADRUPLES]
        assert order == sorted(order)
        assert enumerate_hardy_inequalities() == HARDY_QUADRUPLES

    def test_matches_reference_table(self):
        for group, rows in REFERENCE_QUADRUPLES.items():
            matched = [q for q in HARDY_QUADRUPLES if q.sigma_index == group]
            assert len(matched) == 16
            assert {q.family for q in matched} == {2 * group - 1, 2 * group}
            for q in matched:
                assert frozenset((q.k, q.l, q.m)) == frozenset(rows[q.j]), q

    def test_four_per_cell(self):
        for j in range(1, 17):
            assert sum(1 for q in HARDY_QUADRUPLES if q.j == j) == 4

    def test_families_follow_variants(self):
        variants = tuple(FreeSetId)
        for q in HARDY_QUADRUPLES:
            v = variants[q.family - 1]
            assert q.j in v.solved_cells
            assert {q.k, q.l, q.m} <= set(v.free_cells)
            assert q.primed == v.primed
            assert q.sigma_index == v.sigma_index

    def test_quadruple_for(self):
        q = quadruple_for(1, 13)
        assert (q.j, q.k, q.l, q.m) == (13, 4, 5, 9)
        with pytest.raises(ValueError):
            quadruple_for(1, 1)  # cell 1 is free in family 1
        with pytest.raises(ValueError):
            quadruple_for(9, 1)

    @pytest.mark.parametrize(
        "family, j", [(np.int64(1), 13), (1, np.int64(13)), (np.uint8(1), np.int32(13))]
    )
    def test_quadruple_for_takes_numpy_integers(self, family, j):
        assert quadruple_for(family, j) is quadruple_for(1, 13)

    @pytest.mark.parametrize(
        "family, j",
        [(True, 13), (1.0, 13), (np.True_, 13), (1, 13.0), (1, np.float64(13)), ("1", 13), (None, 13)],
    )
    def test_quadruple_for_refuses_bools_and_floats(self, family, j):
        # equal and hashing like 1, these once looked up family 1's quadruple
        with pytest.raises(ValueError) as exc:
            quadruple_for(family, j)
        assert str(exc.value) == f"no inequality with family={family} and j={j}"

    def test_text_form(self):
        assert str(quadruple_for(1, 13)) == "p13 <= p4 + p5 + p9 <= 1 + p13"


class TestSigmaDelta:
    def test_supports_partition(self):
        for i in (1, 2, 3, 4):
            assert len(SIGMA_SUPPORTS[i]) == 8
            assert sorted(SIGMA_SUPPORTS[i] + SIGMA_PRIME_SUPPORTS[i]) == list(range(1, 17))

    def test_supports_match_typed_table(self):
        assert SIGMA_SUPPORTS == {
            1: (1, 4, 5, 8, 9, 12, 14, 15),
            2: (1, 4, 5, 8, 10, 11, 13, 16),
            3: (1, 4, 6, 7, 9, 12, 13, 16),
            4: (2, 3, 5, 8, 9, 12, 13, 16),
        }

    def test_pr_values(self):
        sv = sigma_values(pr_box())
        assert sv.sigma == pytest.approx((4.0, 2.0, 2.0, 2.0), abs=1e-15)
        assert sv.sigma_prime == pytest.approx((0.0, 2.0, 2.0, 2.0), abs=1e-15)
        assert delta_values(pr_box()).delta == pytest.approx((4.0, 0.0, 0.0, 0.0), abs=1e-15)

    def test_mermin_values(self):
        sv = sigma_values(mermin_box())
        assert sv.sigma[0] == pytest.approx(0.82, abs=1e-12)
        assert sv.sigma_prime[0] == pytest.approx(3.18, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(normalized_strategy())
    def test_identities_on_normalized(self, b):
        sv = sigma_values(b)
        dv = delta_values(b)
        for i in range(4):
            assert sv.sigma[i] + sv.sigma_prime[i] == pytest.approx(4.0, abs=1e-9)
            assert dv.delta[i] == pytest.approx(2.0 * (sv.sigma[i] - 2.0), abs=1e-9)


class TestChForms:
    def test_pr(self):
        assert ch_values(pr_box()).b == pytest.approx((0.5, -0.5, -0.5, -0.5), abs=1e-15)
        assert ch_values_full(pr_box()).b == pytest.approx((0.5, -0.5, -0.5, -0.5), abs=1e-15)

    def test_mermin_four_term(self):
        assert ch_values(mermin_box()).b[0] == pytest.approx(-1.09, abs=1e-12)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.0, np.True_, np.float64(2.0), 0, 3])
    def test_full_form_refuses_non_integer_marginal_choices(self, bad):
        for via in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError, match=r"^marginal block choices must be 1 or 2$"):
                ch_values_full(mermin_box(), *via)
            with pytest.raises(ValueError, match=r"^marginal block choices must be 1 or 2$"):
                ch_check(mermin_box(), a_marg_via=via[0], b_marg_via=via[1])

    def test_full_form_takes_numpy_marginal_choices(self):
        b = kwiat_hardy_box()
        for am in (1, 2):
            for bm in (1, 2):
                assert ch_values_full(b, np.int64(am), np.uint8(bm)) == ch_values_full(b, am, bm)

    def test_identity_on_no_signaling(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            b = random_no_signaling_behavior(rng)
            sv = sigma_values(b)
            cv = ch_values(b)
            for i in range(4):
                assert cv.b[i] == pytest.approx((sv.sigma[i] - 3.0) / 2.0, abs=1e-10)
                assert cv.b[i] == pytest.approx((1.0 - sv.sigma_prime[i]) / 2.0, abs=1e-10)
            for am in (1, 2):
                for bm in (1, 2):
                    full = ch_values_full(b, a_marg_via=am, b_marg_via=bm)
                    assert full.b == pytest.approx(cv.b, abs=1e-10)

    def test_four_term_rows_match_typed_table(self):
        # the four-probability CH forms as they were once typed by hand
        typed = {
            1: ((-1, 2), (+1, 5), (-1, 11), (-1, 13)),
            2: ((-1, 2), (+1, 5), (-1, 9), (-1, 15)),
            3: ((-1, 3), (-1, 5), (-1, 10), (+1, 13)),
            4: ((-1, 1), (+1, 5), (-1, 10), (-1, 15)),
        }
        want = np.zeros((4, 16))
        for i, terms in typed.items():
            for coefficient, cell in terms:
                want[i - 1, cell - 1] = coefficient
        assert bell._ROWS[bell._CH_FOUR].tobytes() == want.tobytes()
        assert not np.any(np.signbit(bell._ROWS[bell._ROWS == 0.0]))  # no -0.0

    def test_four_term_is_negated_hardy_lower_slack(self):
        rng = np.random.default_rng(515)
        quads = [quadruple_for(*fj) for fj in ((2, 5), (4, 5), (6, 13), (8, 5))]
        index = [HARDY_QUADRUPLES.index(q) for q in quads]
        for n in range(60):
            if n % 2:
                b = random_no_signaling_behavior(rng)
            else:
                b = Behavior(tuple(rng.dirichlet(np.ones(4), size=4).reshape(16)))
                assert not is_no_signaling(b, tol=1e-3)
            lower = [hardy_check(b).checks[i].lower_slack for i in index]
            assert ch_values(b).b == pytest.approx([-x for x in lower], abs=1e-15)

    def test_full_form_disagrees_when_signaling(self):
        four = ch_values(kwiat_hardy_box()).b
        full = ch_values_full(kwiat_hardy_box()).b
        assert full[0] == pytest.approx(1.0, abs=1e-15)
        assert four != pytest.approx(full, abs=1e-3)

    def test_ch_check_flags_violations(self):
        rep = ch_check(pr_box())
        assert rep.four_term_violations[0]
        assert not any(rep.four_term_violations[1:])

    def test_chsh_check_requires_normalized(self):
        probs = [0.1] * 16
        with pytest.raises(ValueError):
            chsh_check(Behavior(tuple(probs)))

    def test_chsh_check_pr(self):
        rep = chsh_check(pr_box())
        assert rep.sigma_violations[0]
        assert rep.delta_violations[0]
        assert max(abs(r) for r in rep.consistency_residuals) <= 1e-12


class TestHardyCheck:
    def test_mermin_split(self):
        rep = hardy_check(mermin_box())
        assert rep.n_violated == 16
        assert rep.n_violated_lower == 8
        assert rep.n_violated_upper == 8
        assert rep.n_satisfied == 48
        for c in rep.checks:
            if c.quadruple.family == 1:
                assert c.violated_lower
                assert c.lower_slack == pytest.approx(-0.09, abs=1e-12)
            elif c.quadruple.family == 2:
                assert c.violated_upper
                assert c.upper_slack == pytest.approx(-0.09, abs=1e-12)
            else:
                assert not c.violated_lower and not c.violated_upper

    def test_pr_split(self):
        rep = hardy_check(pr_box())
        by_family = {}
        for c in rep.violated():
            by_family.setdefault(c.quadruple.family, []).append(c)
        assert set(by_family) == {1, 2}
        assert all(c.violated_upper for c in by_family[1])
        assert all(c.violated_lower for c in by_family[2])
        assert all(
            c.upper_slack == pytest.approx(-0.5, abs=1e-15) for c in by_family[1]
        )

    def test_uniform_satisfies_all(self):
        rep = hardy_check(uniform_behavior())
        assert rep.n_violated == 0

    def test_checks_are_frozen_dataclasses(self):
        # dataclasses.replace, fields and asdict work on a check, as the
        # benchmark's wrong-answer case needs, and a check is no tuple
        names = ("quadruple", "lower_slack", "upper_slack", "violated_lower", "violated_upper")
        rep = hardy_check(mermin_box())
        assert len(rep.checks) == 64
        for q, c in zip(HARDY_QUADRUPLES, rep.checks):
            assert type(c) is bell.InequalityCheck
            assert tuple(f.name for f in dataclasses.fields(c)) == names
            assert c.quadruple is q
            assert c.violated == (c.violated_lower or c.violated_upper)
            assert c.to_json_dict() == {
                **q.to_json_dict(),
                **{f: getattr(c, f) for f in names[1:]},
            }
            assert list(c.to_json_dict())[-4:] == list(names[1:])
            assert c != tuple(getattr(c, f) for f in names)
        first = rep.checks[0]
        shifted = dataclasses.replace(first, lower_slack=first.lower_slack + 0.25)
        assert shifted.lower_slack == first.lower_slack + 0.25
        assert shifted.quadruple is first.quadruple and shifted != first
        assert dataclasses.asdict(first)["lower_slack"] == first.lower_slack
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.lower_slack = 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        any_box_strategy(),
        st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0, -1e-9, np.nextafter(-1e-9, 0.0), 1.0, 1.0 + 1e-9]),
                st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
            ),
            min_size=64,
            max_size=64,
        ),
        st.sampled_from([1e-9, 0.0, 0.3]),
    )
    @example(uniform_behavior(), [-0.0] * 64, 0.0)
    def test_checks_equal_constructed_ones(self, b, slacks, tol):
        # checks of ``b``'s own product, then of 64 planted lower slacks
        # (-0.0 among them) read back from the cache as if ``b``'s product
        reports = [hardy_check(b, tol)]
        values = list(bell._values(b))
        values[bell._HARDY_LOWER] = slacks
        bell._LAST = (b.probs, tuple(values))
        reports.append(hardy_check(b, tol))
        assert [c.lower_slack for c in reports[1].checks] == slacks
        assert [c.upper_slack for c in reports[1].checks] == [1.0 - x for x in slacks]
        for c in reports[0].checks + reports[1].checks:
            want = bell.InequalityCheck(
                c.quadruple, c.lower_slack, c.upper_slack, c.lower_slack < -tol, c.upper_slack < -tol
            )
            assert list(vars(c).items()) == list(vars(want).items())
            assert c == want and hash(c) == hash(want) and repr(c) == repr(want)
            for again in (pickle.loads(pickle.dumps(c)), copy.copy(c)):
                assert type(again) is bell.InequalityCheck
                assert again == c and hash(again) == hash(c) and repr(again) == repr(c)

    @settings(max_examples=60, deadline=None)
    @given(normalized_strategy())
    def test_slack_sum_property(self, b):
        rep = hardy_check(b)
        for c in rep.checks:
            assert c.lower_slack + c.upper_slack == pytest.approx(1.0, abs=1e-9)


class TestThreeZeroWitness:
    def test_mermin_witness(self):
        wits = hardy_witness(mermin_box())
        assert any((w.family, w.j) == (1, 13) for w in wits)
        w = next(w for w in wits if (w.family, w.j) == (1, 13))
        shift = sigma_shift_of_hardy(mermin_box(), w)
        assert shift.sigma_value == pytest.approx(0.82, abs=1e-12)
        assert shift.predicted == pytest.approx(1.0 - 2.0 * 0.09, abs=1e-12)
        assert shift.residual <= 1e-12

    def test_pattern_boxes(self):
        for box, family in ((hardy_pattern_a_box(), 2), (hardy_pattern_b_box(), 4)):
            wits = hardy_witness(box)
            w = next(w for w in wits if w.j == 1 and w.family == family)
            shift = sigma_shift_of_hardy(box, w)
            # primed family: the sum sits above the classical window by 2 pj
            assert shift.predicted == pytest.approx(3.0 + 2.0 * 0.09, abs=1e-12)
            assert shift.residual <= 1e-12
            rep = hardy_check(box)
            assert rep.n_violated == 16

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1e-6, np.nextafter(1e-6, 1.0), 0.09, 0.5, 1.0]),
                st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
            ),
            min_size=16,
            max_size=16,
        ),
        st.one_of(
            st.sampled_from([1e-6, 0.0, -0.0, 0.5, float("inf")]),
            st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
        ),
    )
    def test_equals_the_max_loop(self, cells, eps):
        # the loop `hardy_witness` had before its index tuples, kept verbatim
        b = Behavior(cells)
        p = (None, *b.probs)  # 1-based, like the quadruple indices
        want = tuple(
            q for q in HARDY_QUADRUPLES if max(p[q.k], p[q.l], p[q.m]) <= eps and p[q.j] > eps
        )
        assert hardy_witness(b, eps) == want

    def test_no_witness_on_uniform(self):
        assert hardy_witness(uniform_behavior()) == ()
        with pytest.raises(ValueError):
            sigma_shift_of_hardy(uniform_behavior(), quadruple_for(1, 13))

    def test_rejects_signaling_box(self):
        with pytest.raises(ValueError):
            sigma_shift_of_hardy(kwiat_hardy_box(), quadruple_for(1, 13))

    def test_random_three_zero_boxes(self):
        # plant three zeros among a quadruple's bounding cells and verify the
        # predicted shift and the exact 16/48 violation split
        rng = np.random.default_rng(77)
        variants = tuple(FreeSetId)
        built = 0
        for _ in range(400):
            q = HARDY_QUADRUPLES[rng.integers(0, 64)]
            v = variants[q.family - 1]
            free = {c: float(rng.uniform(0.05, 0.45)) for c in v.free_cells}
            for c in (q.k, q.l, q.m):
                free[c] = 0.0
            b = complete_from_free_set([free[c] for c in v.free_cells], v)
            if not (min(b.probs) >= 0.0 and max(b.probs) <= 1.0 and b.p(q.j) > 1e-3):
                continue
            built += 1
            shift = sigma_shift_of_hardy(b, q)
            assert shift.residual <= 1e-10
            rep = hardy_check(b)
            partner = q.family + 1 if q.family % 2 == 1 else q.family - 1
            violated_families = {c.quadruple.family for c in rep.violated()}
            assert violated_families == {q.family, partner}
            assert rep.n_violated == 16
            if built >= 25:
                break
        assert built >= 25


class TestLocalVertices:
    def test_sixteen_distinct(self):
        verts = local_vertices()
        assert len(verts) == 16
        assert len({v.probs for v in verts}) == 16

    def test_deterministic_construction(self):
        b = local_deterministic_behavior((1, -1), (1, 1))
        # a1 = +1, a2 = -1, b1 = b2 = +1
        assert b.p(1) == 1.0
        assert b.p(5) == 1.0
        assert b.p(11) == 1.0
        assert b.p(15) == 1.0

    def test_all_bounds_hold_with_saturation(self):
        verts = local_vertices()
        for v in verts:
            assert hardy_check(v).n_violated == 0
            sv = sigma_values(v)
            assert all(1.0 - 1e-12 <= s <= 3.0 + 1e-12 for s in sv.sigma)
            assert all(abs(d) <= 2.0 + 1e-12 for d in delta_values(v).delta)
            assert all(-1.0 - 1e-12 <= x <= 1e-12 for x in ch_values(v).b)
        # every bound is exactly attained somewhere on the vertex set
        sigmas = np.array([sigma_values(v).sigma for v in verts])
        assert (sigmas.min(axis=0) == 1.0).all()
        assert (sigmas.max(axis=0) == 3.0).all()
        for q in HARDY_QUADRUPLES:
            lower = [(v.p(q.k) + v.p(q.l) + v.p(q.m)) - v.p(q.j) for v in verts]
            upper = [1.0 + v.p(q.j) - (v.p(q.k) + v.p(q.l) + v.p(q.m)) for v in verts]
            assert min(lower) == 0.0
            assert min(upper) == 0.0


class TestEquivalenceAudit:
    def test_clean_on_no_signaling(self):
        for b in (pr_box(), mermin_box(), uniform_behavior()):
            audit = equivalence_audit(b)
            assert not audit.flagged
            assert audit.normalized_identities_ok

    def test_flags_signaling_discrepancy(self):
        audit = equivalence_audit(kwiat_hardy_box())
        assert audit.flagged
        assert not audit.no_signaling
        # six-term value 1 versus (sum - 3)/2 = 1/2
        assert audit.ch_discrepancy == pytest.approx(0.5, abs=1e-12)

    def test_json_shape(self):
        doc = equivalence_audit(mermin_box()).to_json_dict()
        assert doc["flagged"] is False
        assert "ch_full_residuals" in doc
        assert doc["ch_identities_ok"] is True


def _fresh_values(b: Behavior) -> tuple[float, ...]:
    """The coefficient rows on ``b`` from a product of its own, past any cache."""
    return tuple((bell._ROWS @ np.asarray(b.probs)).tolist())


_REPORTS = (sigma_values, delta_values, ch_values, ch_values_full, hardy_check, equivalence_audit)


class TestValuesCache:
    """`bell._values` keeps one product; reports read the same bits either way."""

    def test_alternating_boxes(self):
        a, b = mermin_box(), kwiat_hardy_box()
        want_a, want_b = _fresh_values(a), _fresh_values(b)
        assert bell._values(a) == want_a
        assert bell._values(b) == want_b
        assert bell._values(a) == want_a
        assert bell._values(a) is bell._values(a)  # a hit hands back the kept values

    def test_equal_cells_in_distinct_boxes(self):
        cells = tuple(i / 120.0 for i in range(16))
        first, second = Behavior(cells), Behavior(list(cells))
        assert first == second and first.probs is not second.probs
        assert bell._values(first) == _fresh_values(first)
        assert bell._values(second) == _fresh_values(second)
        assert bell._LAST[0] is second.probs
        assert hardy_check(first) == hardy_check(second)

    @settings(max_examples=80, deadline=None)
    @given(any_box_strategy(), any_box_strategy())
    def test_reports_equal_a_fresh_product(self, b, other):
        want = _fresh_values(b)
        assert sigma_values(b).sigma == want[bell._SIGMA]
        assert sigma_values(b).sigma_prime == want[bell._SIGMA_PRIME]
        assert delta_values(b).delta == want[bell._DELTA]
        assert ch_values(b).b == want[bell._CH_FOUR]
        for via, rows in bell._CH_FULL.items():
            assert ch_values_full(b, *via).b == want[rows]
        lower = want[bell._HARDY_LOWER]
        rep = hardy_check(b)
        assert [c.lower_slack for c in rep.checks] == list(lower)
        assert [c.upper_slack for c in rep.checks] == [1.0 - x for x in lower]
        reports = _REPORTS + ((chsh_check,) if is_normalized(b) else ())
        # each report once from a miss (another box was valued last), then
        # all of them again from the kept product: the same records
        cold = []
        for report in reports:
            bell._values(other)
            cold.append(report(b))
        assert [report(b) for report in reports] == cold
        if is_normalized(b):
            chsh = cold[-1]
            assert (chsh.sigma, chsh.sigma_prime, chsh.delta) == (
                want[bell._SIGMA], want[bell._SIGMA_PRIME], want[bell._DELTA]
            )


def _textbook_forms(p: np.ndarray, a_marg_via: int, b_marg_via: int) -> dict:
    """Every linear quantity of `bell`, written out cell by cell from the
    CHSH, CH and Hardy forms, for a box given as its 16 cells."""

    def P(x, y, a, b):  # P(outcomes a, b | settings x, y), outcomes "+" or "-"
        return p[4 * (2 * (x - 1) + (y - 1)) + {"++": 0, "+-": 1, "-+": 2, "--": 3}[a + b]]

    def same(x, y):
        return P(x, y, "+", "+") + P(x, y, "-", "-")

    def diff(x, y):
        return P(x, y, "+", "-") + P(x, y, "-", "+")

    def corr(x, y):
        return same(x, y) - diff(x, y)

    def pa(x):  # P(a_x = +) from the block where B measured b_{a_marg_via}
        return P(x, a_marg_via, "+", "+") + P(x, a_marg_via, "+", "-")

    def pb(y):  # P(b_y = +) from the block where A measured a_{b_marg_via}
        return P(b_marg_via, y, "+", "+") + P(b_marg_via, y, "-", "+")

    def pp(x, y):
        return P(x, y, "+", "+")

    return {
        "sigma": (
            same(1, 1) + same(1, 2) + same(2, 1) + diff(2, 2),
            same(1, 1) + same(1, 2) + diff(2, 1) + same(2, 2),
            same(1, 1) + diff(1, 2) + same(2, 1) + same(2, 2),
            diff(1, 1) + same(1, 2) + same(2, 1) + same(2, 2),
        ),
        "sigma_prime": (
            diff(1, 1) + diff(1, 2) + diff(2, 1) + same(2, 2),
            diff(1, 1) + diff(1, 2) + same(2, 1) + diff(2, 2),
            diff(1, 1) + same(1, 2) + diff(2, 1) + diff(2, 2),
            same(1, 1) + diff(1, 2) + diff(2, 1) + diff(2, 2),
        ),
        "delta": (
            corr(1, 1) + corr(1, 2) + corr(2, 1) - corr(2, 2),
            corr(1, 1) + corr(1, 2) - corr(2, 1) + corr(2, 2),
            corr(1, 1) - corr(1, 2) + corr(2, 1) + corr(2, 2),
            -corr(1, 1) + corr(1, 2) + corr(2, 1) + corr(2, 2),
        ),
        "ch_four_term": (
            pp(1, 2) - P(1, 1, "+", "-") - P(2, 1, "-", "+") - pp(2, 2),
            pp(1, 2) - P(1, 1, "+", "-") - pp(2, 1) - P(2, 2, "-", "+"),
            pp(2, 2) - P(1, 1, "-", "+") - pp(1, 2) - P(2, 1, "+", "-"),
            pp(1, 2) - pp(1, 1) - P(2, 1, "+", "-") - P(2, 2, "-", "+"),
        ),
        "ch_full": (
            pp(1, 1) + pp(1, 2) + pp(2, 1) - pp(2, 2) - pa(1) - pb(1),
            pp(1, 1) + pp(1, 2) - pp(2, 1) + pp(2, 2) - pa(1) - pb(2),
            pp(1, 1) - pp(1, 2) + pp(2, 1) + pp(2, 2) - pa(2) - pb(1),
            -pp(1, 1) + pp(1, 2) + pp(2, 1) + pp(2, 2) - pa(2) - pb(2),
        ),
        "lower": [p[q.k - 1] + p[q.l - 1] + p[q.m - 1] - p[q.j - 1] for q in HARDY_QUADRUPLES],
        "upper": [1.0 + p[q.j - 1] - p[q.k - 1] - p[q.l - 1] - p[q.m - 1] for q in HARDY_QUADRUPLES],
    }


class TestTextbookForms:
    """Every quantity on signaling boxes, where the CH marginal choices differ."""

    @pytest.mark.parametrize("a_marg_via, b_marg_via", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_random_signaling_boxes(self, a_marg_via, b_marg_via):
        rng = np.random.default_rng(2024)
        tol = 1e-12
        for _ in range(40):
            p = rng.dirichlet(np.ones(4), size=4).reshape(16)
            b = Behavior(tuple(p))
            assert not is_no_signaling(b, tol=1e-3)
            want = _textbook_forms(p, a_marg_via, b_marg_via)
            sv = sigma_values(b)
            assert sv.sigma == pytest.approx(want["sigma"], abs=tol)
            assert sv.sigma_prime == pytest.approx(want["sigma_prime"], abs=tol)
            assert delta_values(b).delta == pytest.approx(want["delta"], abs=tol)
            assert ch_values(b).b == pytest.approx(want["ch_four_term"], abs=tol)
            full = ch_values_full(b, a_marg_via=a_marg_via, b_marg_via=b_marg_via).b
            assert full == pytest.approx(want["ch_full"], abs=tol)
            rep = ch_check(b, tol, a_marg_via=a_marg_via, b_marg_via=b_marg_via)
            assert rep.b_full == pytest.approx(want["ch_full"], abs=tol)
            rep = hardy_check(b, tol)
            assert [c.lower_slack for c in rep.checks] == pytest.approx(want["lower"], abs=tol)
            assert [c.upper_slack for c in rep.checks] == pytest.approx(want["upper"], abs=tol)
            chsh = chsh_check(b, tol)
            assert chsh.sigma == pytest.approx(want["sigma"], abs=tol)
            assert chsh.delta == pytest.approx(want["delta"], abs=tol)
            # the audit reads the six-term form with the default choice (1, 1)
            audit = equivalence_audit(b, tol)
            half = [(x - 3.0) / 2.0 for x in want["sigma"]]
            default_full = _textbook_forms(p, 1, 1)["ch_full"]
            assert audit.ch_full == pytest.approx([f - h for f, h in zip(default_full, half)], abs=tol)
            assert audit.ch_four_term == pytest.approx(
                [f - h for f, h in zip(want["ch_four_term"], half)], abs=tol
            )
