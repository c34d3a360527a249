import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from picard_lod.graded_core import (
    CONVERGED,
    DIVERGING,
    INCONCLUSIVE,
    GradedCoreError,
    GradedSpaceHandle,
    IterationStop,
    LodConstants,
    a_posteriori_bound,
    exp_or_inf,
    invert_locally,
    iterate_to_fixed_point,
    series_verdict,
    weissinger_sum,
)

from helpers import CUBIC_ROOT_005, callers_outside


def scalar_space(P=None, membership=None):
    return GradedSpaceHandle(
        seminorm=lambda x, k: abs(x),
        sub=lambda a, b: a - b,
        P=P,
        membership=membership,
    )


def sequence_space(P=None):
    # ||x||_k = max_{i <= k} |x_i| over a fixed-length tail-padded tuple
    return GradedSpaceHandle(
        seminorm=lambda x, k: max(abs(v) for v in x[: k + 1]),
        sub=lambda a, b: tuple(u - v for u, v in zip(a, b)),
        P=P,
    )


class TestWeissingerSum:
    def test_geometric(self):
        c = LodConstants.from_function(0, lambda k, n: 0.5**n)
        row = weissinger_sum(c, lambda k: 1.0, 0, 60)
        assert row.verdict == CONVERGED
        assert row.partial_sums[-1] == pytest.approx(2.0, rel=1e-12)

    def test_factorial_increments_diverge(self):
        c = LodConstants.from_function(1, lambda k, n: 1.0)
        row = weissinger_sum(c, lambda idx: float(math.factorial(idx)), 0, 20)
        assert row.verdict == DIVERGING

    def test_fixed_initial_point(self):
        c = LodConstants.from_function(0, lambda k, n: 1.0)
        row = weissinger_sum(c, lambda k: 0.0, 0, 10)
        assert row.verdict == CONVERGED
        assert row.partial_sums[-1] == 0.0

    def test_fixed_initial_point_with_infinite_constants(self):
        """A zero increment gives a zero term, as in picard_pde's certificate: inf * 0 is NaN."""
        c = LodConstants.from_function(0, lambda k, n: math.inf)
        row = weissinger_sum(c, lambda k: 0.0, 0, 10)
        assert row.terms == (0.0,) * 11
        assert row.verdict == CONVERGED

    def test_slow_decay_is_inconclusive(self):
        c = LodConstants.from_function(0, lambda k, n: 0.97**n)
        row = weissinger_sum(c, lambda k: 1.0, 0, 30)
        assert row.verdict == INCONCLUSIVE

    def test_partial_sums_nondecreasing(self):
        c = LodConstants.from_function(0, lambda k, n: 0.5**n)
        row = weissinger_sum(c, lambda k: 1.0, 0, 30)
        assert all(b >= a for a, b in zip(row.partial_sums, row.partial_sums[1:]))

    def test_alpha_k0_is_one(self):
        c = LodConstants.from_function(0, lambda k, n: 99.0)
        assert c.alpha(3, 0) == 1.0

    def test_alpha_accepts_zero_rejects_negative_and_nan(self):
        # zero is the constant of a map that ignores its argument
        assert LodConstants.from_function(0, lambda k, n: 0.0).alpha(0, 1) == 0.0
        for bad in (-1.0, math.nan):
            c = LodConstants.from_function(0, lambda k, n, v=bad: v)
            with pytest.raises(GradedCoreError, match="nonnegative"):
                c.alpha(0, 1)

    def test_row_builder_matches_sum(self):
        c = LodConstants.from_function(1, lambda k, n: 0.5**n)
        inc = {idx: 1.0 / (idx + 1) for idx in range(40)}
        row = weissinger_sum(c, inc.__getitem__, 2, 30, meta={"tag": 1})
        terms = [c.alpha(2, n) * inc[2 + n] for n in range(31)]
        assert row.terms == tuple(terms)
        assert (row.verdict, row.ratio_estimate) == series_verdict(terms)
        assert row.meta == {"tag": 1}

    def test_from_log_reads_alpha_as_exp_or_inf(self):
        c = LodConstants.from_log(1, lambda k, n: 800.0 if n > 1 else -math.inf)
        assert (c.alpha(0, 0), c.alpha(0, 1), c.alpha(0, 2)) == (1.0, 0.0, math.inf)
        assert (c.log_alpha(0, 0), c.log_alpha(0, 2)) == (0.0, 800.0)
        nan = LodConstants.from_log(0, lambda k, n: math.nan)
        with pytest.raises(GradedCoreError, match="NaN"):
            nan.alpha(0, 1)
        with pytest.raises(GradedCoreError, match="NaN"):
            weissinger_sum(nan, lambda idx: 0.0, 0, 1, log_norms=True)
        negative = LodConstants.from_function(0, lambda k, n: -1.0)
        with pytest.raises(GradedCoreError, match="NaN"):
            weissinger_sum(negative, lambda idx: 0.0, 0, 1, log_norms=True)

    def test_invalid_increments_raise(self):
        c = LodConstants.from_function(0, lambda k, n: 0.5**n)
        for bad in (-1.0, math.nan):
            with pytest.raises(GradedCoreError, match="invalid increment norm at index 0"):
                weissinger_sum(c, lambda idx, v=bad: v, 0, 3)
        with pytest.raises(GradedCoreError, match="invalid increment norm"):
            weissinger_sum(c, lambda idx: math.nan, 0, 3, log_norms=True)


def reference_numeric_term(log_bar, norm):
    """A numeric certificate term from log alpha and a norm, written out apart
    from the library: zero for a zero norm, the product while exp(log_bar) is
    finite, logs past that; exp reads inf from 700 up."""
    if norm == 0.0:
        return 0.0
    bar = math.exp(log_bar) if log_bar < 700 else math.inf
    if bar < math.inf:
        return bar * norm
    s = log_bar + math.log(norm)
    return math.exp(s) if s < 700 else math.inf


LOG_ALPHAS = st.one_of(
    st.sampled_from([-math.inf, math.inf]),
    st.floats(-800.0, 800.0, allow_nan=False, allow_infinity=False),
)
NORMS = st.one_of(
    st.sampled_from([0.0, 5e-324]),
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
)


class TestTermRule:
    @settings(max_examples=400, deadline=None)
    @example([(0.0, 1.0), (750.0, 5e-324), (-math.inf, 1e300), (math.inf, 0.0)])
    @given(st.lists(st.tuples(LOG_ALPHAS, NORMS), min_size=2, max_size=6))
    def test_terms_match_the_reference_in_both_forms(self, pairs):
        log_alphas = [0.0] + [la for la, _ in pairs[1:]]  # alpha(k, 0) is 1
        norms = [nm for _, nm in pairs]
        c = LodConstants.from_log(1, lambda k, n: log_alphas[n])
        n_max = len(pairs) - 1
        lin = weissinger_sum(c, lambda idx: norms[idx], 0, n_max)
        assert lin.terms == tuple(
            reference_numeric_term(la, nm) for la, nm in zip(log_alphas, norms)
        )
        log_norms = [math.log(nm) if nm else -math.inf for nm in norms]
        log = weissinger_sum(c, lambda idx: log_norms[idx], 0, n_max, log_norms=True)
        assert log.terms == tuple(
            0.0 if ln == -math.inf else exp_or_inf(la + ln)
            for la, ln in zip(log_alphas, log_norms)
        )


class TestIterateToFixedPoint:
    def test_scalar_affine_contraction(self):
        space = scalar_space(P=lambda x: x / 2 + 1)
        res = iterate_to_fixed_point(space, 0.0, IterationStop((0,), 1e-12, 60))
        assert res.converged
        assert res.n_steps <= 45
        assert res.candidate == pytest.approx(2.0, abs=1e-11)

    def test_identity_map(self):
        space = scalar_space(P=lambda x: x)
        res = iterate_to_fixed_point(space, 1.7, IterationStop((0,), 1e-12, 10))
        assert res.converged and res.n_steps == 1
        assert res.increments[0] == [0.0]

    def test_shift_sequence_space(self):
        n = 40
        space = sequence_space(P=lambda x: tuple(x[i + 1] / 2 if i + 1 < n else 0.0
                                                 for i in range(n)))
        y0 = tuple(1.0 for _ in range(n))
        res = iterate_to_fixed_point(space, y0, IterationStop((0, 3), 1e-12, 80))
        assert res.converged
        assert max(abs(v) for v in res.candidate) <= 1e-11

    def test_membership_violation_reports_step(self):
        space = scalar_space(P=lambda x: x + 1.0, membership=lambda x: x < 2.5)
        with pytest.raises(GradedCoreError, match="n=3"):
            iterate_to_fixed_point(space, 0.0, IterationStop((0,), 1e-12, 10))

    def test_unchecked_membership_is_reported(self):
        space = scalar_space(P=lambda x: x / 2)
        res = iterate_to_fixed_point(space, 1.0, IterationStop((0,), 1e-10, 60))
        assert res.membership == "unchecked"

    def test_exhaustion_is_inconclusive(self):
        space = scalar_space(P=lambda x: x / 2 + 1)
        res = iterate_to_fixed_point(space, 0.0, IterationStop((0,), 1e-12, 3))
        assert res.status == INCONCLUSIVE


class TestCauchyChain:
    def test_telescoping_bound_on_stored_iterates(self):
        space = scalar_space(P=lambda x: x / 2 + 1)
        res = iterate_to_fixed_point(space, 0.0, IterationStop((0,), 1e-12, 50))
        alpha = LodConstants.from_function(0, lambda k, n: 0.5**n)
        inc0 = abs(res.iterates[1] - res.iterates[0])
        for n in range(0, res.n_steps, 3):
            for m in range(n + 1, min(n + 8, res.n_steps)):
                lhs = abs(res.iterates[m] - res.iterates[n])
                rhs = sum(alpha.alpha(0, j) * inc0 for j in range(n, m))
                assert lhs <= rhs + 1e-9

    def test_zero_loss_uniqueness(self):
        space = scalar_space(P=lambda x: x / 2 + 1)
        r1 = iterate_to_fixed_point(space, 0.0, IterationStop((0,), 1e-13, 80))
        r2 = iterate_to_fixed_point(space, 123.0, IterationStop((0,), 1e-13, 80))
        assert r1.candidate == pytest.approx(r2.candidate, abs=1e-10)


class TestAPosteriori:
    def test_scalar_toy_bound_is_exact(self):
        c = LodConstants.from_function(0, lambda k, n: 0.5**n)
        for n in (0, 1, 3, 7):
            bound = a_posteriori_bound(c, lambda k: 1.0, 0, n, 60)
            assert bound.value == pytest.approx(2.0 ** (1 - n), rel=1e-13)
            # realized error of the iterates of x/2 + 1 from 0 is exactly 2^{1-n}
            x = 0.0
            for _ in range(n):
                x = x / 2 + 1
            assert abs(2.0 - x) <= bound.value + 1e-12

    def test_geometric_tail_third(self):
        c = LodConstants.from_function(0, lambda k, n: (1 / 3) ** n)
        bound = a_posteriori_bound(c, lambda k: 1.0, 0, 2, 80)
        assert bound.value == pytest.approx((1 / 9) * 1.5, rel=1e-12)

    def test_zero_increments(self):
        c = LodConstants.from_function(0, lambda k, n: 1.0)
        bound = a_posteriori_bound(c, lambda k: 0.0, 0, 4, 10)
        assert bound.value == 0.0

    def test_requires_convergence(self):
        c = LodConstants.from_function(0, lambda k, n: 1.0)
        with pytest.raises(GradedCoreError, match="non-converged"):
            a_posteriori_bound(c, lambda k: 1.0, 0, 2, 20)


class TestInvertLocally:
    def test_exact_inverse_one_step(self):
        space = scalar_space()
        res = invert_locally(
            space, space, f=lambda x: 2 * x, D=lambda y: y / 2, S=lambda x: 2 * x,
            x0=0.0, y=4.0, radii=lambda k: 10.0,
            alpha_k=lambda k: 1e-9, delta_k=lambda k: 0.5,
            L=0, L_D=0, stop=IterationStop((0,), 1e-13, 5),
        )
        assert res.solution == pytest.approx(2.0)
        # the first application already lands on the fixed point; one more
        # confirms a zero increment
        assert res.iteration.iterates[1] == pytest.approx(2.0)
        assert res.iteration.n_steps <= 2

    def test_cubic_at_zero(self):
        space = scalar_space()
        res = invert_locally(
            space, space, f=lambda x: x + x**3, D=lambda y: y, S=lambda x: x,
            x0=0.0, y=0.0, radii=lambda k: 0.3,
            alpha_k=lambda k: 0.27, delta_k=lambda k: 1.0,
            L=0, L_D=0, stop=IterationStop((0,), 1e-14, 50),
        )
        assert res.solution == 0.0

    def test_cubic_small_target(self):
        space = scalar_space()
        res = invert_locally(
            space, space, f=lambda x: x + x**3, D=lambda y: y, S=lambda x: x,
            x0=0.0, y=0.05, radii=lambda k: 0.3,
            alpha_k=lambda k: 0.27, delta_k=lambda k: 1.0,
            L=0, L_D=0, stop=IterationStop((0,), 1e-15, 200),
        )
        assert res.solution == pytest.approx(CUBIC_ROOT_005, abs=1e-10)
        for row in res.rows:
            assert row.r_bar > 0
            assert row.maps_ball

    def test_a_repeated_k_is_read_once(self):
        # criterion 10's toy: k_check (0, 0) gives the one row of (0,)
        space = scalar_space()
        results = [
            invert_locally(
                space, space, f=lambda x: x + x**3, D=lambda y: y, S=lambda x: x,
                x0=0.0, y=0.05, radii=lambda k: 0.3,
                alpha_k=lambda k: 0.27, delta_k=lambda k: 1.0,
                L=0, L_D=0, stop=IterationStop(k_check, 1e-15, 200),
            )
            for k_check in ((0, 0), (0,))
        ]
        assert len(results[0].rows) == 1
        assert results[0].rows == results[1].rows
        assert results[0].solution == results[1].solution

    def test_alpha_not_below_one_rejected(self):
        space = scalar_space()
        with pytest.raises(GradedCoreError, match="alpha"):
            invert_locally(
                space, space, f=lambda x: x, D=lambda y: y, S=lambda x: x,
                x0=0.0, y=0.0, radii=lambda k: 1.0,
                alpha_k=lambda k: 1.0, delta_k=lambda k: 1.0,
                L=0, L_D=0, stop=IterationStop((0,), 1e-13, 5),
            )

    def test_target_outside_ball_rejected(self):
        space = scalar_space()
        with pytest.raises(GradedCoreError, match="outside"):
            invert_locally(
                space, space, f=lambda x: x + x**3, D=lambda y: y, S=lambda x: x,
                x0=0.0, y=0.5, radii=lambda k: 0.3,
                alpha_k=lambda k: 0.27, delta_k=lambda k: 1.0,
                L=0, L_D=0, stop=IterationStop((0,), 1e-13, 50),
            )

    def test_bad_right_inverse_rejected(self):
        space = scalar_space()
        with pytest.raises(GradedCoreError, match="right inverse"):
            invert_locally(
                space, space, f=lambda x: x, D=lambda y: 2 * y, S=lambda x: x,
                x0=0.0, y=0.1, radii=lambda k: 1.0,
                alpha_k=lambda k: 0.5, delta_k=lambda k: 2.0,
                L=0, L_D=0, stop=IterationStop((0,), 1e-13, 5),
            )


@pytest.mark.parametrize("callee", ["WeissingerRow", "series_verdict", "exp_or_inf"])
def test_rows_and_terms_built_only_in_graded_core(callee):
    """Every certificate row and term comes from graded_core.weissinger_sum."""
    assert callers_outside("graded_core", callee) == []


def test_exp_or_inf_refuses_nan():
    assert exp_or_inf(-math.inf) == 0.0
    assert exp_or_inf(700.0) == math.inf
    with pytest.raises(GradedCoreError, match="NaN"):
        exp_or_inf(math.nan)


def test_series_verdict_handles_overflow():
    terms = [1.0, 10.0, float("inf"), float("inf")]
    verdict, _ = series_verdict(terms)
    assert verdict == DIVERGING

