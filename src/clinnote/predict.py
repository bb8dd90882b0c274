"""Readmission text classifier: TF-IDF features, L2 logistic regression,
stratified cross-validation with rank-based AUROC.

Each note is tokenized and counted once per corpus, into one term-count
matrix (``TermCounts``). Every fold selects its rows from it: the
vocabulary and idf come from the training rows' document frequencies
only, so they can never leak from test documents, and the TF-IDF rows are
a column remap of the count rows. Features are sparse rows
(``CsrMatrix``); the classifier is fitted by Newton-CG.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import InvalidInput, NoEstimate
from .stats import negative_log_likelihood, sigmoid

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]{2,}")
MIN_DF = 2
TRANSFORM_CHUNK = 8  # documents counted together


def tokenize(text):
    """Lowercased maximal alphanumeric runs of length >= 2."""
    return _TOKEN_RE.findall(text.lower())


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


@dataclass
class TermCounts:
    """Term counts of a corpus: row i counts ``terms[indices[k]]`` ``data[k]``
    times for k in ``indptr[i]:indptr[i+1]``, columns ascending in a row.

    ``terms`` is sorted; ``indices`` and ``data`` are int32.
    """

    terms: list
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __len__(self):
        return len(self.indptr) - 1

    def rows(self, selection) -> TermCounts:
        """The selected rows, in the given order, over the same terms."""
        selection = np.asarray(selection, dtype=np.intp)
        starts, ends = self.indptr[selection], self.indptr[selection + 1]
        spans = list(map(slice, starts.tolist(), ends.tolist()))
        return TermCounts(
            self.terms,
            np.concatenate(([0], np.cumsum(ends - starts))),
            np.concatenate([self.indices[:0], *(self.indices[span] for span in spans)]),
            np.concatenate([self.data[:0], *(self.data[span] for span in spans)]),
        )


def count_terms(docs) -> TermCounts:
    """Count each text's tokens once, TRANSFORM_CHUNK texts at a time, so
    only one chunk's ``Counter``s are alive at once."""
    ids = defaultdict()  # term -> column in first-seen order
    ids.default_factory = ids.__len__
    chunks = []
    for start in range(0, len(docs), TRANSFORM_CHUNK):
        counters = [Counter(tokenize(doc)) for doc in docs[start:start + TRANSFORM_CHUNK]]
        lengths = list(map(len, counters))
        cols = np.fromiter(map(ids.__getitem__, chain.from_iterable(counters)),
                           np.int32, sum(lengths))
        counts = np.fromiter(chain.from_iterable(map(Counter.values, counters)),
                             np.int32, sum(lengths))
        chunks.append((lengths, cols, counts))
    terms = sorted(ids)
    rank = np.empty(len(terms), np.int32)  # first-seen column -> sorted column
    rank[np.fromiter(map(ids.__getitem__, terms), np.int64, len(terms))] = range(len(terms))
    for lengths, cols, counts in chunks:  # renumber, then sort each row's columns
        cols[:] = rank[cols]
        keys = np.repeat(np.arange(len(lengths)) * len(terms), lengths) + cols
        order = np.argsort(keys, kind="stable")  # the keys are distinct
        cols[:], counts[:] = cols[order], counts[order]
    empty = np.zeros(0, np.int32)
    return TermCounts(
        terms,
        np.cumsum([0, *chain.from_iterable(lengths for lengths, _, _ in chunks)]),
        np.concatenate([empty, *(cols for _, cols, _ in chunks)]),
        np.concatenate([empty, *(counts for _, _, counts in chunks)]),
    )


@dataclass
class Vectorizer:
    vocabulary: dict  # term -> column index
    idf: np.ndarray

    @property
    def vocabulary_hash(self) -> str:
        terms = sorted(self.vocabulary, key=self.vocabulary.get)
        return hashlib.sha256("\x00".join(terms).encode()).hexdigest()

    def transform(self, counts: TermCounts) -> CsrMatrix:
        """tf * idf rows, L2-normalized (rows with no known term stay empty);
        columns ascend within each row."""
        n, d = len(counts), len(self.vocabulary)
        colmap = np.fromiter(map(self.vocabulary.get, counts.terms, repeat(-1)),
                             np.int64, len(counts.terms))  # term -> column, -1 if unknown
        cols = colmap[counts.indices]
        known = cols >= 0
        cols = cols[known]
        rows = np.repeat(np.arange(n), np.diff(counts.indptr))[known]
        vals = self.idf[cols]
        vals *= counts.data[known]
        vals /= np.sqrt(np.bincount(rows, weights=vals * vals, minlength=n))[rows]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        return CsrMatrix(indptr, cols, vals, (n, d))


def fit_vectorizer(counts: TermCounts) -> Vectorizer:
    """Vocabulary = terms in >= 2 training docs; idf = ln((1+N)/(1+df)) + 1."""
    n = len(counts)
    if n < 2:
        raise InvalidInput("need at least 2 training documents")
    df = np.bincount(counts.indices, minlength=len(counts.terms))  # a row holds a term once
    columns = np.flatnonzero(df >= MIN_DF)
    if not len(columns):
        raise NoEstimate("no token appears in >= 2 training documents")
    vocabulary = dict(zip(map(counts.terms.__getitem__, columns.tolist()), range(len(columns))))
    idf_of = np.array([math.log((1 + n) / (1 + k)) + 1.0 for k in range(n + 1)])
    return Vectorizer(vocabulary=vocabulary, idf=idf_of[df[columns]])


# --- classifier ------------------------------------------------------------

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
        return float(negative_log_likelihood(y, eta) + 0.5 * (penalty * w) @ w)

    w, eta = np.zeros(X.shape[1] + 1), np.zeros(len(y))
    obj, grad = objective(eta, w), backward(sigmoid(eta) - y)  # w = 0: no penalty term
    grad_norm = float(np.linalg.norm(grad))
    for _ in range(max_iter):
        if grad_norm < tol:
            break
        p = sigmoid(eta)
        s = p * (1.0 - p)
        step = _conjugate_gradient(lambda v: backward(s * forward(v)) + penalty * v,
                                   -grad, min(0.5, math.sqrt(grad_norm)) * grad_norm)
        d_eta, slope, t = forward(step), float(grad @ step), 1.0
        for _ in range(50):
            cand_w, cand_eta = w + t * step, eta + t * d_eta
            cand_obj = objective(cand_eta, cand_w)
            cand_grad = backward(sigmoid(cand_eta) - y) + penalty * cand_w
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
    return sigmoid(weights[0] + X @ weights[1:])


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
    sample. A class of c notes fills folds 0..c-1 whatever the shuffle, so
    both classes reach every fold exactly when each has ``n_folds`` notes;
    else NoEstimate (``Runner.run_all`` asks here before any request).
    """
    labels = np.asarray(labels)
    if min(np.sum(labels == 0), np.sum(labels == 1)) < n_folds:
        raise NoEstimate(f"could not build {n_folds} folds with both classes")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % n_folds].append(int(i))
    return [sorted(f) for f in folds]


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


def _fold_features(counts, train_idx, test_idx):
    """A fold's vectorizer, fitted on its training rows only, and its rows."""
    train = counts.rows(train_idx)
    vec = fit_vectorizer(train)
    return vec, vec.transform(train), vec.transform(counts.rows(test_idx))


def _evaluate_fold(report, counts, labels, test_idx, l2_lambda):
    """Fit one fold and append its results to ``report``. Its matrices are
    freed on return, before the next fold builds its own."""
    test_set = set(test_idx)
    train_idx = [i for i in range(len(counts)) if i not in test_set]
    vec, X_train, X_test = _fold_features(counts, train_idx, test_idx)
    w, info = train_classifier(X_train, labels[train_idx], l2_lambda=l2_lambda)
    report.converged.append(info["converged"])
    scores = predict_proba(w, X_test)
    y_test = labels[test_idx]
    acc, f1 = accuracy_f1(scores, y_test)
    report.per_fold.append(
        {
            "fold": len(report.per_fold),
            "auroc": auroc(scores, y_test),
            "auprc": auprc(scores, y_test),
            "accuracy": acc,
            "f1": f1,
            "n_test": len(test_idx),
        }
    )
    report.vocabulary_sizes.append(len(vec.vocabulary))
    report.vocabulary_hashes.append(vec.vocabulary_hash)


def evaluate_cv(docs, labels, n_folds=5, seed=0, l2_lambda=1.0, variant="raw"):
    """Stratified k-fold evaluation of the TF-IDF + logistic arm; each note
    is counted once, and every fold selects its rows from those counts."""
    if len(docs) != len(labels):
        raise InvalidInput("docs and labels must align")
    folds = stratified_folds(labels, n_folds, seed)
    labels = np.asarray(labels)
    report = PredictionReport(input_variant=variant, n_folds=n_folds, seed=seed)
    counts = count_terms(docs)
    for test_idx in folds:
        _evaluate_fold(report, counts, labels, test_idx, l2_lambda)
    return report
