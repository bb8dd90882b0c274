"""Readmission text classifier: TF-IDF features, L2 logistic regression,
stratified cross-validation with rank-based AUROC.

Vectorizer and classifier are fitted per fold on the training split only,
so the vocabulary can never leak from test documents. Features are sparse
rows (``CsrMatrix``); the classifier is fitted by Newton-CG.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re
import statistics
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import CVInfeasible, InvalidInput, VectorizerDegenerate

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
MIN_TOKEN_LEN = 2
MIN_DF = 2


def tokenize(text):
    """Lowercased maximal alphanumeric runs of length >= 2."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= MIN_TOKEN_LEN]


@dataclass
class CsrMatrix:
    """Compressed sparse rows: row i holds ``data[indptr[i]:indptr[i+1]]``
    at columns ``indices[indptr[i]:indptr[i+1]]``.

    ``X @ v`` and ``r @ X`` behave as for a dense array, so the classifier
    takes either.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    __array_ufunc__ = None  # makes ``ndarray @ CsrMatrix`` call __rmatmul__

    @cached_property
    def _rows(self):
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, v):
        return np.bincount(self._rows, weights=self.data * v[self.indices],
                           minlength=self.shape[0])

    def __rmatmul__(self, r):
        return np.bincount(self.indices, weights=self.data * r[self._rows],
                           minlength=self.shape[1])

    def toarray(self):
        out = np.zeros(self.shape)
        out[self._rows, self.indices] = self.data
        return out


def _as_tokens(docs):
    """Vectorizer documents are token lists, or texts that are tokenized here."""
    return [tokenize(doc) if isinstance(doc, str) else doc for doc in docs]


@dataclass
class Vectorizer:
    vocabulary: dict  # term -> column index
    idf: np.ndarray

    @property
    def vocabulary_hash(self) -> str:
        terms = sorted(self.vocabulary, key=self.vocabulary.get)
        return hashlib.sha256("\x00".join(terms).encode()).hexdigest()

    def transform(self, docs) -> CsrMatrix:
        """tf * idf rows, L2-normalized (rows with no known term stay empty)."""
        docs = _as_tokens(docs)
        n, d = len(docs), len(self.vocabulary)
        # one key per token, row * (d + 1) + column, where column d stands for
        # every out-of-vocabulary token; sorting runs equal keys together
        keys = np.repeat(np.arange(n) * (d + 1), [len(tokens) for tokens in docs])
        keys += np.fromiter(map(self.vocabulary.get, chain.from_iterable(docs), repeat(d)),
                            dtype=np.int64, count=len(keys))
        keys.sort(kind="stable")
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        rows, indices = np.divmod(keys[starts], d + 1)
        known = indices < d
        rows, indices = rows[known], indices[known]
        data = np.diff(starts, append=len(keys))[known] * self.idf[indices]
        data /= np.sqrt(np.bincount(rows, weights=data * data, minlength=n))[rows]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        return CsrMatrix(indptr, indices, data, (n, d))


def fit_vectorizer(train_docs) -> Vectorizer:
    """Vocabulary = tokens in >= 2 training docs; idf = ln((1+N)/(1+df)) + 1."""
    if len(train_docs) < 2:
        raise InvalidInput("need at least 2 training documents")
    df = Counter()
    for tokens in _as_tokens(train_docs):
        df.update(set(tokens))
    terms = sorted(t for t, c in df.items() if c >= MIN_DF)
    if not terms:
        raise VectorizerDegenerate("no token appears in >= 2 training documents")
    n = len(train_docs)
    vocabulary = {t: i for i, t in enumerate(terms)}
    idf = np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in terms])
    return Vectorizer(vocabulary=vocabulary, idf=idf)


# --- classifier ------------------------------------------------------------

def _sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -500, 500)))


def _conjugate_gradient(hess_vec, b, tol):
    """Approximately solve H x = b; stops early on non-positive curvature."""
    x, r, p = np.zeros_like(b), b.copy(), b.copy()
    rr = float(r @ r)
    for _ in range(len(b)):
        if math.sqrt(rr) <= tol:
            break
        hp = hess_vec(p)
        curvature = float(p @ hp)
        if curvature <= 0.0:
            break
        x += rr / curvature * p
        r -= rr / curvature * hp
        rr, rr_old = float(r @ r), rr
        p = r + rr / rr_old * p
    return x if x.any() else b


def train_classifier(X, y, l2_lambda=1.0, tol=1e-6, max_iter=100):
    """L2-penalized logistic regression by Newton-CG with an Armijo line
    search; the intercept is unpenalized. X is a 2-D array or a CsrMatrix.

    Each Newton step solves H d = -grad by conjugate gradients on Hessian
    products X1'(s * X1 v) + lambda v, s = p(1 - p), X1 = [1, X]. Converged
    means ||grad|| < tol, on the summed (not mean) log-loss. Returns
    (weights, info); weights[0] is the intercept. Every accepted step lowers
    the objective (or, within its rounding, the gradient), so on
    non-convergence the last iterate is the best, with converged=False.
    """
    y = np.asarray(y, dtype=float)
    if not (np.any(y == 0) and np.any(y == 1)):
        raise InvalidInput("training fold must contain both classes")
    penalty = np.full(X.shape[1] + 1, float(l2_lambda))
    penalty[0] = 0.0

    def forward(v):  # X1 @ v
        return v[0] + X @ v[1:]

    def backward(r):  # X1' @ r
        return np.concatenate(([r.sum()], r @ X))

    def objective(eta, w):
        return float(np.sum(np.logaddexp(0.0, eta) - y * eta) + 0.5 * (penalty * w) @ w)

    w, eta = np.zeros(X.shape[1] + 1), np.zeros(len(y))
    obj, grad = objective(eta, w), backward(_sigmoid(eta) - y)  # w = 0: no penalty term
    grad_norm = float(np.linalg.norm(grad))
    for _ in range(max_iter):
        if grad_norm < tol:
            break
        p = _sigmoid(eta)
        s = p * (1.0 - p)
        step = _conjugate_gradient(lambda v: backward(s * forward(v)) + penalty * v,
                                   -grad, min(0.5, math.sqrt(grad_norm)) * grad_norm)
        d_eta, slope, t = forward(step), float(grad @ step), 1.0
        for _ in range(50):
            cand_w, cand_eta = w + t * step, eta + t * d_eta
            cand_obj = objective(cand_eta, cand_w)
            cand_grad = backward(_sigmoid(cand_eta) - y) + penalty * cand_w
            cand_norm = float(np.linalg.norm(cand_grad))
            if cand_obj <= obj + 1e-4 * t * slope or (
                    abs(cand_obj - obj) <= 1e-13 * abs(obj) and cand_norm < grad_norm):
                break
            t /= 2.0
        else:
            break  # no step lowers the objective: keep the best iterate
        w, eta, obj, grad, grad_norm = cand_w, cand_eta, cand_obj, cand_grad, cand_norm
    converged = grad_norm < tol
    if not converged:
        log.warning("classifier did not converge; final gradient norm %.3g", grad_norm)
    return w, {"converged": converged, "grad_norm": grad_norm}


def predict_proba(weights, X):
    return _sigmoid(weights[0] + X @ weights[1:])


# --- metrics ---------------------------------------------------------------

def _midranks(values):
    """1-based ranks; tied values share the mean of their positions."""
    values = np.asarray(values, dtype=float)
    ordered = values[np.argsort(values, kind="stable")]
    return (np.searchsorted(ordered, values, "left")
            + np.searchsorted(ordered, values, "right") + 1) / 2.0


def auroc(scores, labels):
    """Mann-Whitney rank AUROC with midrank tie handling."""
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise InvalidInput("AUROC needs both classes")
    ranks = _midranks(scores)
    pos_rank_sum = float(np.sum(ranks[labels == 1]))
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(scores, labels):
    """Average precision by step integration of the PR curve."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise InvalidInput("AUPRC needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # one PR point at the end of each run of tied scores
    ends = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    tp = np.cumsum(labels[order] == 1)[ends]
    recall = tp / n_pos
    # cumsum adds left to right, as the step integration does
    return float(np.cumsum(tp / (ends + 1) * np.diff(recall, prepend=0.0))[-1])


def accuracy_f1(scores, labels, threshold=0.5):
    preds = (np.asarray(scores) >= threshold).astype(int)
    labels = np.asarray(labels)
    acc = float(np.mean(preds == labels))
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    return acc, f1


# --- cross-validation ------------------------------------------------------

def stratified_folds(labels, n_folds, seed):
    """Round-robin deal within each class after a seeded shuffle.

    Each fold's positive count differs from the ideal by at most one
    sample. Retries with seed offsets if a fold misses a class.
    """
    labels = np.asarray(labels)
    for offset in range(5):
        rng = np.random.default_rng(seed + offset)
        folds = [[] for _ in range(n_folds)]
        for cls in (0, 1):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            for pos, i in enumerate(idx):
                folds[pos % n_folds].append(int(i))
        if all(
            any(labels[i] == 0 for i in f) and any(labels[i] == 1 for i in f)
            for f in folds
        ):
            if offset:
                log.warning("stratification needed seed offset %d", offset)
            return [sorted(f) for f in folds]
    raise CVInfeasible(f"could not build {n_folds} folds with both classes")


@dataclass
class PredictionReport:
    input_variant: str
    n_folds: int
    seed: int
    per_fold: list = field(default_factory=list)
    vocabulary_sizes: list = field(default_factory=list)
    vocabulary_hashes: list = field(default_factory=list)
    converged: list = field(default_factory=list)  # per fold; not in to_dict

    def _stat(self, metric):
        vals = [f[metric] for f in self.per_fold]
        return {
            "mean": statistics.mean(vals),
            "sd": statistics.stdev(vals) if len(vals) > 1 else 0.0,
        }

    def to_dict(self) -> dict:
        return {
            "input_variant": self.input_variant,
            "n_folds": self.n_folds,
            "seed": self.seed,
            "per_fold": self.per_fold,
            "vocabulary_sizes": self.vocabulary_sizes,
            "summary": {m: self._stat(m) for m in ("auroc", "auprc", "accuracy", "f1")},
        }


def evaluate_cv(docs, labels, n_folds=5, seed=0, l2_lambda=1.0, variant="raw"):
    """Stratified k-fold evaluation of the TF-IDF + logistic arm."""
    if len(docs) != len(labels):
        raise InvalidInput("docs and labels must align")
    if len(docs) < n_folds * 2:
        raise InvalidInput(f"need at least {n_folds * 2} labeled documents")
    folds = stratified_folds(labels, n_folds, seed)
    labels = np.asarray(labels)
    report = PredictionReport(input_variant=variant, n_folds=n_folds, seed=seed)
    # one str object per distinct term keeps every note's tokens small to hold
    term = {}.setdefault
    tokens = [[term(t, t) for t in tokenize(doc)] for doc in docs]
    for fold_idx, test_idx in enumerate(folds):
        test_set = set(test_idx)
        train_idx = [i for i in range(len(docs)) if i not in test_set]
        train_tokens = [tokens[i] for i in train_idx]
        vec = fit_vectorizer(train_tokens)
        X_train = vec.transform(train_tokens)
        X_test = vec.transform([tokens[i] for i in test_idx])
        w, info = train_classifier(X_train, labels[train_idx], l2_lambda=l2_lambda)
        report.converged.append(info["converged"])
        scores = predict_proba(w, X_test)
        y_test = labels[test_idx]
        acc, f1 = accuracy_f1(scores, y_test)
        report.per_fold.append(
            {
                "fold": fold_idx,
                "auroc": auroc(scores, y_test),
                "auprc": auprc(scores, y_test),
                "accuracy": acc,
                "f1": f1,
                "n_test": len(test_idx),
            }
        )
        report.vocabulary_sizes.append(len(vec.vocabulary))
        report.vocabulary_hashes.append(vec.vocabulary_hash)
    return report
