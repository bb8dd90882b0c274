import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from clinnote.errors import ClinNoteError, InvalidInput, NoEstimate
from clinnote.stats import (
    ChiSquareResult,
    ContingencyTable,
    SEPARATION_BETA_BOUND,
    build_contingency,
    chi2_sf,
    chi_square_test,
    fit_univariate_logistic,
    normal_sf,
    regularized_gamma_q,
    sigmoid,
)

# Chi-square upper-tail reference values (df, x, expected sf), frozen from an
# independent statistics library. The x values are the 95% / 99% critical
# points for each df, so sf(x, df) must come back as 0.05 / 0.01.
CHI2_TAIL_TABLE = [
    (1, 3.841458820694124, 0.05),
    (1, 6.6348966010212145, 0.01),
    (2, 5.991464547107979, 0.05),
    (2, 9.21034037197618, 0.01),
    (3, 7.814727903251179, 0.05),
    (3, 11.344866730144373, 0.01),
    (4, 9.487729036781154, 0.05),
    (4, 13.276704135987622, 0.01),
    (5, 11.070497693516351, 0.05),
    (5, 15.08627246938899, 0.01),
    (6, 12.591587243743977, 0.05),
    (6, 16.811893829770927, 0.01),
    (8, 15.50731305586545, 0.05),
    (8, 20.090235029663233, 0.01),
    (10, 18.307038053275146, 0.05),
    (10, 23.209251158954356, 0.01),
    (15, 24.995790139728616, 0.05),
    (15, 30.57791416689249, 0.01),
    (20, 31.410432844230918, 0.05),
    (20, 37.56623478662507, 0.01),
]


class TestGammaTail:
    @pytest.mark.parametrize("df,x,expected", CHI2_TAIL_TABLE)
    def test_against_reference_table(self, df, x, expected):
        assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-10)

    def test_q_at_zero_is_one(self):
        assert regularized_gamma_q(2.5, 0.0) == 1.0

    def test_q_monotone_decreasing_in_x(self):
        xs = np.linspace(0.0, 40.0, 200)
        qs = [regularized_gamma_q(3.0, x) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(qs, qs[1:]))

    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.0, max_value=200.0))
    def test_q_in_unit_interval(self, a, x):
        q = regularized_gamma_q(a, x)
        assert 0.0 <= q <= 1.0

    def test_invalid_args(self):
        with pytest.raises(InvalidInput):
            regularized_gamma_q(0.0, 1.0)
        with pytest.raises(InvalidInput):
            regularized_gamma_q(1.0, -1.0)
        with pytest.raises(InvalidInput):
            chi2_sf(1.0, 0)

    def test_chi2_sf_nonpositive_stat(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-5.0, 3) == 1.0

    def test_normal_sf_symmetry(self):
        assert normal_sf(0.0) == pytest.approx(0.5)
        assert normal_sf(1.959963984540054) == pytest.approx(0.025, rel=1e-9)
        for z in (0.3, 1.1, 2.7):
            assert normal_sf(z) + normal_sf(-z) == pytest.approx(1.0)


class TestChiSquare:
    def test_worked_2x2_example(self):
        # [[10,20],[20,10]]: chi2 = 20/3, p frozen from an independent library
        table = ContingencyTable(rows=["a", "b"], counts=[[10, 20], [20, 10]])
        res = chi_square_test(table, variable="demo")
        assert res.chi2 == pytest.approx(20.0 / 3.0, rel=1e-12)
        assert res.df == 1
        assert res.p_value == pytest.approx(0.009823274507519235, rel=1e-10)
        assert res.n == 60
        assert not res.low_expected

    def test_independent_table_chi2_zero(self):
        table = ContingencyTable(rows=["a", "b"], counts=[[10, 10], [30, 30]])
        res = chi_square_test(table)
        assert res.chi2 == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)

    def test_all_zero_row_dropped(self):
        table = ContingencyTable(rows=["a", "z", "b"],
                                 counts=[[10, 20], [0, 0], [20, 10]])
        res = chi_square_test(table)
        assert res.levels == 2
        assert res.df == 1
        assert res.chi2 == pytest.approx(20.0 / 3.0, rel=1e-12)

    def test_low_expected_flag(self):
        table = ContingencyTable(rows=["a", "b"], counts=[[2, 3], [4, 1]])
        assert chi_square_test(table).low_expected

    def test_single_row_degenerate(self):
        table = ContingencyTable(rows=["a", "b"], counts=[[5, 5], [0, 0]])
        with pytest.raises(NoEstimate, match="^need at least 2 rows with nonzero counts$"):
            chi_square_test(table)

    def test_zero_outcome_column_degenerate(self):
        table = ContingencyTable(rows=["a", "b"], counts=[[5, 0], [7, 0]])
        with pytest.raises(NoEstimate, match="^both outcome columns must be nonzero$"):
            chi_square_test(table)

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidInput):
            ContingencyTable(rows=["a", "b"], counts=[[1, -1], [2, 2]])

    @given(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)),
        min_size=2, max_size=6,
    ))
    @settings(max_examples=60)
    def test_chi2_nonnegative_p_in_unit(self, rows):
        table = ContingencyTable(rows=[f"r{i}" for i in range(len(rows))],
                                 counts=[list(r) for r in rows])
        try:
            res = chi_square_test(table)
        except NoEstimate:
            return
        assert res.chi2 >= 0.0
        assert 0.0 <= res.p_value <= 1.0


class TestBuildContingency:
    def _entry(self, hadm, cat):
        return SimpleNamespace(hadm_id=hadm, category=cat)

    def test_counts_and_drops(self):
        labeled = [
            self._entry("H1", "Married"),
            self._entry("H2", "Married"),
            self._entry("H3", "Single"),
            self._entry("H4", None),        # unlabeled -> dropped
            self._entry("H9", "Single"),    # no outcome -> dropped
        ]
        outcomes = {"H1": 1, "H2": 0, "H3": 1, "H4": 1}
        table = build_contingency(labeled, outcomes)
        assert table.rows == ["Married", "Single"]
        assert table.counts.tolist() == [[1.0, 1.0], [0.0, 1.0]]
        assert table.dropped == 2

    def test_rows_sorted(self):
        labeled = [self._entry("H1", "B"), self._entry("H2", "A")]
        table = build_contingency(labeled, {"H1": 0, "H2": 1})
        assert table.rows == ["A", "B"]
        assert table.counts.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_empty_join_raises(self):
        with pytest.raises(NoEstimate, match="^no labeled entries joined an outcome$"):
            build_contingency([self._entry("H1", "A")], {})


def _simulated_logit_data():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(500)
    p = 1.0 / (1.0 + np.exp(-(-0.5 + 0.8 * x)))
    y = (rng.random(500) < p).astype(float)
    return x, y


class TestLogistic:
    # Reference fit of the seed-7 dataset from an independent statistics
    # library (MLE coefficients, Wald standard errors and p-values).
    ORACLE = dict(
        b1=0.7895952373149812,
        se1=0.1146494045494276,
        p1=5.6964502936901974e-12,
        b0=-0.39109502623002335,
        se0=0.09690933112950356,
    )

    def test_matches_reference_fit(self):
        x, y = _simulated_logit_data()
        fit = fit_univariate_logistic(x, y, standardize=False, variable="x")
        assert fit.coef == pytest.approx(self.ORACLE["b1"], rel=1e-6)
        assert fit.intercept == pytest.approx(self.ORACLE["b0"], rel=1e-6)
        assert fit.std_err == pytest.approx(self.ORACLE["se1"], rel=1e-5)
        assert fit.p_value == pytest.approx(self.ORACLE["p1"], rel=1e-4)
        assert fit.odds_ratio == pytest.approx(math.exp(fit.coef))

    def test_standardized_coef_scales_by_sd(self):
        x, y = _simulated_logit_data()
        raw = fit_univariate_logistic(x, y, standardize=False)
        std = fit_univariate_logistic(x, y, standardize=True)
        assert std.coef == pytest.approx(raw.coef * float(np.std(x)), rel=1e-6)
        # the Wald z (and hence p) is invariant to linear rescaling
        assert std.p_value == pytest.approx(raw.p_value, rel=1e-6)

    def test_nll_monotone_nonincreasing(self):
        x, y = _simulated_logit_data()
        fit = fit_univariate_logistic(x, y)
        path = fit.nll_path
        assert all(a >= b - 1e-9 for a, b in zip(path, path[1:]))

    def test_label_flip_negates_coef(self):
        x, y = _simulated_logit_data()
        a = fit_univariate_logistic(x, y)
        b = fit_univariate_logistic(x, 1.0 - y)
        assert b.coef == pytest.approx(-a.coef, rel=1e-6)

    def test_ci_contains_point_estimate(self):
        x, y = _simulated_logit_data()
        fit = fit_univariate_logistic(x, y)
        lo, hi = fit.ci95
        assert lo < fit.odds_ratio < hi

    def test_constant_predictor(self):
        y = np.array([0, 1] * 10, dtype=float)
        with pytest.raises(NoEstimate, match="^constant predictor ''$"):
            fit_univariate_logistic(np.ones(20), y)

    def test_overflowing_odds_ratio_is_a_degenerate_predictor(self):
        x, y = _simulated_logit_data()
        message = "^odds ratio per unit of '' overflows a float; standardize it$"
        with pytest.raises(NoEstimate, match=message):
            fit_univariate_logistic(x / 1000.0, y, standardize=False)
        assert fit_univariate_logistic(x / 1000.0, y).p_value > 0.0

    def test_single_class_rejected(self):
        with pytest.raises(NoEstimate, match="^y must contain both classes$"):
            fit_univariate_logistic(np.arange(20.0), np.zeros(20))

    def test_too_few_observations(self):
        with pytest.raises(NoEstimate, match="^need at least 10 observations$"):
            fit_univariate_logistic(np.arange(8.0), np.array([0, 1] * 4, float))

    def test_perfect_separation_detected(self):
        x = np.concatenate([np.linspace(-2, -1, 10), np.linspace(1, 2, 10)])
        y = np.concatenate([np.zeros(10), np.ones(10)])
        message = r"^\|beta1\| = [0-9.]+ on standardized scale for ''$"
        with pytest.raises(NoEstimate, match=message):
            fit_univariate_logistic(x, y)

    def test_iteration_budget_spent_far_from_optimum_raises(self):
        x, y = _simulated_logit_data()  # needs four IRLS steps
        message = r"IRLS for 'x' stopped at gradient norm [0-9.e+-]+$"
        with pytest.raises(NoEstimate, match=message):
            fit_univariate_logistic(x, y, variable="x", max_iter=1)

    def test_iteration_budget_spent_near_optimum_returns_the_fit(self):
        x, y = _simulated_logit_data()
        fit = fit_univariate_logistic(x, y, variable="x", tol=1e-14, max_iter=4)
        X = np.column_stack([np.ones(len(x)), (x - x.mean()) / x.std()])
        grad_norm = np.linalg.norm(X.T @ (y - sigmoid(X @ [fit.intercept, fit.coef])))
        assert fit.n_iter == 4 and 1e-14 <= grad_norm < 1e-4
        full = fit_univariate_logistic(x, y, variable="x")
        assert fit.coef == pytest.approx(full.coef, rel=1e-6)
        assert fit.std_err == pytest.approx(full.std_err, rel=1e-6)

    def test_separation_bound_constant(self):
        assert SEPARATION_BETA_BOUND == 30.0

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=20, deadline=None)
    def test_recovers_sign_of_true_effect(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(400)
        p = 1.0 / (1.0 + np.exp(-(0.2 + 1.0 * x)))
        y = (rng.random(400) < p).astype(float)
        fit = fit_univariate_logistic(x, y)
        assert fit.coef > 0


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestScipyOracles:
    """Differential tests against scipy. Each bound is about ten to a hundred
    times the worst relative error seen over wide random sweeps: 9e-13 for
    the gamma tail, 4e-13 for the normal tail, 3e-14 for the chi-square
    p-value and 4e-8 for the logistic fit, which is the optimizer's own
    tolerance."""

    @given(_log_uniform(0.05, 500.0), _log_uniform(1e-6, 3000.0))
    @example(0.05, 1e-6)
    @example(500.0, 3000.0)
    @example(500.0, 499.0)
    @settings(max_examples=300, deadline=None)
    def test_gamma_q_matches_gammaincc(self, a, x):
        special = pytest.importorskip("scipy.special")
        expected = float(special.gammaincc(a, x))
        assert regularized_gamma_q(a, x) == pytest.approx(expected, rel=1e-11, abs=1e-300)

    @given(st.floats(-40.0, 37.5))
    @example(37.0)
    @example(-37.0)
    @example(0.0)
    @settings(max_examples=300, deadline=None)
    def test_normal_sf_matches_norm_sf(self, z):
        stats = pytest.importorskip("scipy.stats")
        assert normal_sf(z) == pytest.approx(float(stats.norm.sf(z)), rel=1e-11, abs=1e-300)

    @given(st.lists(
        st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 200), st.integers(0, 200))),
        min_size=2, max_size=8,
    ))
    @settings(max_examples=200, deadline=None)
    def test_chi_square_matches_chi2_contingency(self, rows):
        stats = pytest.importorskip("scipy.stats")
        counts = np.array(rows, dtype=float)
        try:
            res = chi_square_test(ContingencyTable([f"r{i}" for i in range(len(rows))], counts))
        except NoEstimate:
            assume(False)
        kept = counts[counts.sum(axis=1) > 0]  # scipy rejects an all-zero row
        chi2, p, dof, expected = stats.chi2_contingency(kept, correction=False)
        assert (res.levels, res.df, res.n) == (len(kept), dof, int(kept.sum()))
        assert res.chi2 == pytest.approx(chi2, rel=1e-12, abs=1e-12)
        assert res.p_value == pytest.approx(p, rel=1e-12)
        assert res.low_expected == bool(np.any(expected < 5))

    @given(st.integers(0, 2**32 - 1), st.integers(10, 3000), st.floats(-6.0, 6.0),
           _log_uniform(0.01, 100.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_logistic_matches_minimize_with_wald_errors(self, seed, n, beta, scale,
                                                        standardize):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-beta * x / scale))).astype(float)
        try:
            fit = fit_univariate_logistic(x, y, standardize=standardize)
        except ClinNoteError:  # one class, separation or no convergence
            assume(False)

        xs = (x - x.mean()) / x.std() if standardize else x
        X = np.column_stack([np.ones(n), xs])

        def nll(b):
            eta = X @ b
            return np.sum(np.logaddexp(0.0, eta) - y * eta), X.T @ (1.0 / (1.0 + np.exp(-eta)) - y)

        b = optimize.minimize(nll, np.zeros(2), jac=True, method="BFGS",
                              options={"gtol": 1e-10}).x
        p = 1.0 / (1.0 + np.exp(-(X @ b)))
        se = math.sqrt(np.linalg.inv(X.T @ (X * (p * (1.0 - p))[:, None]))[1, 1])
        assert fit.coef == pytest.approx(b[1], rel=1e-6, abs=1e-7)
        assert fit.intercept == pytest.approx(b[0], rel=1e-6, abs=1e-7)
        assert fit.std_err == pytest.approx(se, rel=1e-6)
