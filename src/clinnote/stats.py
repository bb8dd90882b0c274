"""Association statistics: univariate logistic regression and chi-square.

Numeric machinery is self-contained: the chi-square tail comes from a
series / continued-fraction evaluation of the regularized incomplete
gamma function, and the logistic fit is iteratively reweighted least
squares with Wald inference. numpy is used for linear algebra only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NoEstimate

# --- special functions -----------------------------------------------------

_MAX_ITER = 500
_EPS = 1e-15


def _gamma_p_series(a, x):
    """Lower regularized incomplete gamma P(a, x) by power series (x < a+1)."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a, x):
    """Upper regularized incomplete gamma Q(a, x) by Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a, x):
    """Q(a, x) = Γ(a, x) / Γ(a), the upper regularized incomplete gamma."""
    if a <= 0:
        raise InvalidInput("gamma shape must be positive")
    if x < 0:
        raise InvalidInput("gamma argument must be non-negative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return max(0.0, min(1.0, 1.0 - _gamma_p_series(a, x)))
    return max(0.0, min(1.0, _gamma_q_contfrac(a, x)))


def chi2_sf(x, df):
    """Upper-tail probability of the chi-square distribution."""
    if df <= 0:
        raise InvalidInput("degrees of freedom must be positive")
    if x <= 0:
        return 1.0
    return regularized_gamma_q(df / 2.0, x / 2.0)


def normal_sf(z):
    """Upper-tail probability of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# --- logistic regression ---------------------------------------------------

SEPARATION_BETA_BOUND = 30.0


@dataclass
class LogisticFit:
    variable: str
    coef: float
    intercept: float
    std_err: float
    p_value: float
    odds_ratio: float
    ci95: tuple
    n: int
    standardized: bool
    n_iter: int
    nll_path: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "coef": self.coef,
            "std_err": self.std_err,
            "p_value": self.p_value,
            "odds_ratio": self.odds_ratio,
            "ci95": list(self.ci95),
            "n": self.n,
            "standardized": self.standardized,
        }


def sigmoid(eta):
    """Logistic function; the clip keeps ``np.exp`` from overflowing."""
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -500, 500)))


def negative_log_likelihood(y, eta):
    """Summed logistic loss log(1 + exp(eta)) - y*eta, computed stably."""
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta))


def fit_univariate_logistic(x, y, standardize=True, variable="", tol=1e-8, max_iter=50):
    """Fit logit(p) = b0 + b1*x by IRLS with Wald inference.

    When standardize is set, x is z-scored first, so coefficients are per
    standard deviation of the predictor. The negative log-likelihood is
    guaranteed non-increasing per iteration via step halving.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInput("x and y must be equal-length 1-d arrays")
    n = len(x)
    if n < 10:
        raise NoEstimate("need at least 10 observations")
    if not (np.any(y == 0) and np.any(y == 1)):
        raise NoEstimate("y must contain both classes")
    sd = float(np.std(x))
    if sd == 0:
        raise NoEstimate(f"constant predictor {variable!r}")

    xs = (x - np.mean(x)) / sd if standardize else x
    X = np.column_stack([np.ones(n), xs])
    beta = np.zeros(2)
    nll_path = [negative_log_likelihood(y, X @ beta)]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        eta = X @ beta
        p = sigmoid(eta)
        grad = X.T @ (y - p)
        w = np.clip(p * (1.0 - p), 1e-12, None)
        H = X.T @ (X * w[:, None])
        try:
            delta = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError as exc:
            raise NoEstimate(f"singular information matrix for {variable!r}") from exc
        # step halving keeps the NLL monotone even when Newton overshoots
        step = 1.0
        for _ in range(30):
            cand = beta + step * delta
            if negative_log_likelihood(y, X @ cand) <= nll_path[-1] + 1e-12:
                break
            step /= 2.0
        beta = beta + step * delta
        nll_path.append(negative_log_likelihood(y, X @ beta))

        scaled_b1 = beta[1] if standardize else beta[1] * sd
        if abs(scaled_b1) > SEPARATION_BETA_BOUND:
            raise NoEstimate(
                f"|beta1| = {abs(scaled_b1):.1f} on standardized scale for {variable!r}")
        if float(np.linalg.norm(grad)) < tol:
            converged = True
            break

    p = sigmoid(X @ beta)  # at the last iterate
    if not converged:
        grad_norm = float(np.linalg.norm(X.T @ (y - p)))
        if grad_norm >= 1e-4:
            raise NoEstimate(f"IRLS for {variable!r} stopped at gradient norm {grad_norm:.3g}")
    w = np.clip(p * (1.0 - p), 1e-12, None)
    cov = np.linalg.inv(X.T @ (X * w[:, None]))
    se = math.sqrt(cov[1, 1])
    z = beta[1] / se
    p_value = 2.0 * normal_sf(abs(z))
    try:
        ci95 = (math.exp(beta[1] - 1.96 * se), math.exp(beta[1] + 1.96 * se))
    except OverflowError as exc:  # unstandardized, the separation bound does not cap beta1
        raise NoEstimate(
            f"odds ratio per unit of {variable!r} overflows a float; standardize it"
        ) from exc
    return LogisticFit(
        variable=variable,
        coef=float(beta[1]),
        intercept=float(beta[0]),
        std_err=se,
        p_value=p_value,
        odds_ratio=math.exp(beta[1]),
        ci95=ci95,
        n=n,
        standardized=standardize,
        n_iter=it,
        nll_path=nll_path,
    )


# --- chi-square ------------------------------------------------------------

@dataclass
class ContingencyTable:
    rows: list  # category labels
    counts: np.ndarray  # levels x 2, columns = outcome 0, 1
    dropped: int = 0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.ndim != 2 or self.counts.shape[1] != 2:
            raise InvalidInput("contingency table must be levels x 2")
        if len(self.rows) != self.counts.shape[0]:
            raise InvalidInput("row labels do not match count matrix")
        if np.any(self.counts < 0):
            raise InvalidInput("counts must be non-negative")


@dataclass
class ChiSquareResult:
    variable: str
    n: int
    levels: int
    chi2: float
    df: int
    p_value: float
    low_expected: bool
    unique_values: int = 0
    contingency: dict | None = None  # {"rows": [...], "counts": [[...], ...]}


def chi_square_test(table: ContingencyTable, variable="") -> ChiSquareResult:
    """Pearson chi-square test of independence (no continuity correction)."""
    counts = table.counts[table.counts.sum(axis=1) > 0]
    r = counts.shape[0]
    if r < 2:
        raise NoEstimate("need at least 2 rows with nonzero counts")
    col = counts.sum(axis=0)
    if np.any(col == 0):
        raise NoEstimate("both outcome columns must be nonzero")
    n = counts.sum()
    expected = np.outer(counts.sum(axis=1), col) / n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    df = r - 1
    return ChiSquareResult(
        variable=variable,
        n=int(n),
        levels=r,
        chi2=chi2,
        df=df,
        p_value=chi2_sf(chi2, df),
        low_expected=bool(np.any(expected < 5)),
    )


def build_contingency(labeled, outcomes) -> ContingencyTable:
    """Counts of normalized categories x readmission outcome, rows sorted.

    ``labeled`` holds objects with hadm_id / category; entries whose
    hadm_id has no outcome are dropped (counted), as are entries without
    a category.
    """
    counts: dict = {}
    dropped = 0
    for entry in labeled:
        cat = entry.category
        if cat is None:
            dropped += 1
            continue
        outcome = outcomes.get(entry.hadm_id)
        if outcome is None:
            dropped += 1
            continue
        counts.setdefault(cat, [0, 0])[int(outcome)] += 1
    if not counts:
        raise NoEstimate("no labeled entries joined an outcome")
    ordered = sorted(counts)
    matrix = np.array([counts[r] for r in ordered], dtype=float)
    return ContingencyTable(rows=ordered, counts=matrix, dropped=dropped)
