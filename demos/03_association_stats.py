"""The hand-rolled association statistics on synthetic data: univariate
logistic regression with Wald inference, and the Pearson chi-square test.

Run: python3 demos/03_association_stats.py
"""

import numpy as np

from clinnote.stats import ContingencyTable, chi_square_test, fit_univariate_logistic


def main():
    rng = np.random.default_rng(7)
    n = 500
    weight = rng.normal(80, 15, n)
    # heavier patients slightly less likely to be readmitted in this toy model
    eta = -0.4 - 0.03 * (weight - 80)
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)

    fit = fit_univariate_logistic(weight, y, standardize=True, variable="weight")
    lo, hi = fit.ci95
    print("logistic regression (standardized predictor):")
    print(f"  coef {fit.coef:+.3f}  SE {fit.std_err:.3f}  p {fit.p_value:.2e}")
    print(f"  odds ratio {fit.odds_ratio:.3f}  (95% CI {lo:.3f}-{hi:.3f})")
    print(f"  converged in {fit.n_iter} IRLS iterations")

    print("\nchi-square test of independence:")
    table = ContingencyTable(
        rows=["Stable Housing", "Unstable Housing", "Unknown/Other"],
        counts=[[140, 35], [20, 18], [30, 12]],
    )
    res = chi_square_test(table, variable="housing")
    print(f"  chi2 {res.chi2:.3f}  df {res.df}  p {res.p_value:.4g}"
          + ("  (low expected counts)" if res.low_expected else ""))


if __name__ == "__main__":
    main()
