import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clinnote.errors import CVInfeasible, InvalidInput, VectorizerDegenerate
from clinnote.predict import (
    MIN_DF,
    _midranks,
    accuracy_f1,
    auprc,
    auroc,
    evaluate_cv,
    fit_vectorizer,
    predict_proba,
    stratified_folds,
    tokenize,
    train_classifier,
)


class TestTokenize:
    def test_rules(self):
        assert tokenize("The BP was 130/80 mmHg!") == ["the", "bp", "was", "130", "80", "mmhg"]
        assert tokenize("a I x") == []  # single-character tokens dropped
        assert tokenize("") == []

    @given(st.text(max_size=200))
    def test_all_tokens_lower_alnum_len2(self, text):
        for tok in tokenize(text):
            assert len(tok) >= 2
            assert tok == tok.lower()
            assert tok.isalnum()


class TestVectorizer:
    def test_min_df_and_idf_formula(self):
        vec = fit_vectorizer(["aa bb", "aa cc"])
        assert list(vec.vocabulary) == ["aa"]  # bb, cc below df=2
        # idf = ln((1+2)/(1+2)) + 1 = 1 for a term in every doc
        assert vec.idf[0] == pytest.approx(1.0)

    def test_idf_rarer_term_weighs_more(self):
        vec = fit_vectorizer(["aa bb", "aa bb", "aa cc", "aa cc"])
        i_aa, i_bb = vec.vocabulary["aa"], vec.vocabulary["bb"]
        assert vec.idf[i_bb] > vec.idf[i_aa]
        assert vec.idf[i_bb] == pytest.approx(math.log(5 / 3) + 1.0)

    def test_transform_l2_normalized(self):
        vec = fit_vectorizer(["aa bb cc", "aa bb cc", "aa dd", "bb dd"])
        X = vec.transform(["aa bb unseen", "aa aa"]).toarray()
        norms = np.linalg.norm(X, axis=1)
        assert np.allclose(norms, 1.0)

    def test_empty_doc_stays_zero(self):
        vec = fit_vectorizer(["aa bb", "aa bb"])
        X = vec.transform(["zz qq", ""]).toarray()
        assert np.all(X == 0.0)

    def test_oov_tokens_ignored(self):
        vec = fit_vectorizer(["aa bb", "aa bb"])
        X = vec.transform(["aa novelterm"]).toarray()
        assert X[0, vec.vocabulary["aa"]] > 0
        assert X.shape[1] == 2

    def test_transform_matches_dense_reference(self):
        vec = fit_vectorizer(["aa bb cc aa", "aa bb dd", "cc dd ee ee", "bb cc ee"])
        docs = ["aa aa bb ee", "", "novel words only", "ee cc unseen cc", "dd"]
        ref = np.zeros((len(docs), len(vec.vocabulary)))
        for i, doc in enumerate(docs):
            for tok in tokenize(doc):
                if tok in vec.vocabulary:
                    ref[i, vec.vocabulary[tok]] += vec.idf[vec.vocabulary[tok]]
            if ref[i].any():
                ref[i] /= np.linalg.norm(ref[i])
        X = vec.transform(docs)
        assert X.shape == ref.shape
        assert np.allclose(X.toarray(), ref, rtol=0, atol=1e-15)
        assert list(np.diff(X.indptr)) == [3, 0, 0, 2, 1]  # empty and OOV rows hold nothing
        assert np.array_equal(X.toarray(), vec.transform([tokenize(d) for d in docs]).toarray())

    def test_products_match_dense(self):
        vec = fit_vectorizer(["aa bb cc", "aa bb dd", "cc dd ee", "bb ee"])
        X = vec.transform(["aa bb", "", "cc dd ee ee", "zz", ""])  # empty rows, one last
        rng = np.random.default_rng(0)
        v, r = rng.standard_normal(X.shape[1]), rng.standard_normal(X.shape[0])
        assert np.allclose(X @ v, X.toarray() @ v, rtol=0, atol=1e-14)
        assert np.allclose(r @ X, r @ X.toarray(), rtol=0, atol=1e-14)

    def test_vocabulary_hash_tracks_content(self):
        a = fit_vectorizer(["aa bb", "aa bb"])
        b = fit_vectorizer(["aa bb", "bb aa"])
        c = fit_vectorizer(["aa cc", "aa cc"])
        assert a.vocabulary_hash == b.vocabulary_hash
        assert a.vocabulary_hash != c.vocabulary_hash

    def test_degenerate_vocabulary(self):
        with pytest.raises(VectorizerDegenerate):
            fit_vectorizer(["aa bb", "cc dd"])  # nothing reaches df=2
        with pytest.raises(InvalidInput):
            fit_vectorizer(["only one"])

    def test_min_df_constant(self):
        assert MIN_DF == 2


class TestAuroc:
    def test_worked_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_perfect_and_inverted(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInput):
            auroc([0.1, 0.2], [1, 1])

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_sklearn(self, seed):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=40)  # force ties
        labels = rng.integers(0, 2, size=40)
        if labels.min() == labels.max():
            return
        assert auroc(scores, labels) == pytest.approx(
            sklearn_metrics.roc_auc_score(labels, scores)
        )

    def test_complement_symmetry(self):
        rng = np.random.default_rng(4)
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        assert auroc(scores, labels) + auroc(scores, 1 - labels) == pytest.approx(1.0)


class TestAuprc:
    def test_perfect(self):
        assert auprc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_no_positives_rejected(self):
        with pytest.raises(InvalidInput):
            auprc([0.1, 0.2], [0, 0])

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_sklearn(self, seed):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(seed)
        scores = rng.random(40)  # distinct scores: step integration == AP
        labels = rng.integers(0, 2, size=40)
        if labels.sum() == 0:
            return
        assert auprc(scores, labels) == pytest.approx(
            sklearn_metrics.average_precision_score(labels, scores)
        )

    def test_baseline_is_prevalence_for_constant_scores(self):
        labels = np.array([1, 0, 0, 0, 1, 0, 0, 0, 0, 0])
        assert auprc(np.full(10, 0.5), labels) == pytest.approx(0.2)


def _loop_midranks(values):
    """Reference: midranks by walking runs of tied sorted values."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _loop_auprc(scores, labels):
    """Reference: step integration, one PR point per run of tied scores."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores, sorted_labels = scores[order], labels[order]
    ap, tp, seen, prev_recall, i = 0.0, 0, 0, 0.0, 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        tp += int(np.sum(sorted_labels[i : j + 1] == 1))
        seen = j + 1
        recall = tp / int(np.sum(labels == 1))
        ap += tp / seen * (recall - prev_recall)
        prev_recall, i = recall, j + 1
    return ap


@pytest.mark.parametrize("pool", [None, [0.1, 0.3, 0.5, 0.7, 0.9]])
def test_rank_metrics_equal_loop_reference(pool):
    # same arithmetic in the same order, so the results must be bit-identical
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        scores = rng.random(n) if pool is None else rng.choice(pool, size=n)
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        assert np.array_equal(_midranks(scores), _loop_midranks(scores))
        assert auprc(scores, labels) == _loop_auprc(scores, labels)


class TestAccuracyF1:
    def test_basic(self):
        acc, f1 = accuracy_f1([0.9, 0.8, 0.2, 0.4], [1, 0, 0, 1])
        assert acc == 0.5
        assert f1 == pytest.approx(2 * 1 / (2 * 1 + 1 + 1))

    def test_no_predicted_positives(self):
        acc, f1 = accuracy_f1([0.1, 0.2], [0, 1])
        assert f1 == 0.0


class TestClassifier:
    def _data(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 3))
        eta = 1.5 * X[:, 0] - 1.0 * X[:, 1]
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
        return X, y

    def test_learns_signal(self):
        X, y = self._data()
        w, info = train_classifier(X, y, l2_lambda=1.0)
        scores = predict_proba(w, X)
        assert auroc(scores, y) > 0.8
        assert w[1] > 0 and w[2] < 0

    def test_matches_sklearn_reference(self):
        sklearn_lm = pytest.importorskip("sklearn.linear_model")
        X, y = self._data()
        lam = 1.0
        w, _ = train_classifier(X, y, l2_lambda=lam, tol=1e-8, max_iter=5000)
        ref = sklearn_lm.LogisticRegression(C=1.0 / lam, penalty="l2",
                                            solver="lbfgs", max_iter=5000, tol=1e-10)
        ref.fit(X, y)
        assert w[0] == pytest.approx(float(ref.intercept_[0]), abs=1e-3)
        assert np.allclose(w[1:], ref.coef_[0], atol=1e-3)

    def test_larger_lambda_shrinks_weights(self):
        X, y = self._data()
        w_small, _ = train_classifier(X, y, l2_lambda=0.01)
        w_big, _ = train_classifier(X, y, l2_lambda=100.0)
        assert np.linalg.norm(w_big[1:]) < np.linalg.norm(w_small[1:])

    def test_intercept_unpenalized(self):
        # heavily imbalanced constant-feature problem: big lambda kills the
        # slope but the intercept still tracks the base rate
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 1)) * 1e-6
        y = np.array([1.0] * 180 + [0.0] * 20)
        w, _ = train_classifier(X, y, l2_lambda=1000.0)
        assert w[0] == pytest.approx(math.log(180 / 20), abs=0.1)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInput):
            train_classifier(np.ones((10, 2)), np.ones(10))

    def test_matches_scipy_dense(self):
        X, y = self._data()
        w, info = train_classifier(X, y, l2_lambda=1.0)
        assert info["converged"] and info["grad_norm"] < 1e-6
        assert np.allclose(w, _scipy_reference(X, y, 1.0), rtol=0, atol=1e-4)

    def test_matches_scipy_sparse_wide(self):
        docs, labels = _zipf_corpus(150, seed=1, length=250)
        X = fit_vectorizer(docs).transform(docs)
        y = np.array(labels, dtype=float)
        assert X.shape[1] > 3000  # far more terms than documents
        w, info = train_classifier(X, y, l2_lambda=1.0)
        assert info["converged"]
        assert np.allclose(w, _scipy_reference(X.toarray(), y, 1.0), rtol=0, atol=1e-4)
        w_dense, _ = train_classifier(X.toarray(), y, l2_lambda=1.0)
        assert np.allclose(w, w_dense, rtol=0, atol=1e-8)

    def test_converges_below_objective_rounding(self):
        # the summed objective is about 6e4 here, so near the optimum a Newton
        # step lowers it by less than its rounding error; Armijo alone stalls
        # at ||grad|| = 1.7e-6, and the gradient check lets the step through
        rng = np.random.default_rng(14)
        X = rng.standard_normal((100_000, 6))
        eta = X @ rng.standard_normal(6) * 0.5
        y = (rng.random(100_000) < 1 / (1 + np.exp(-eta))).astype(float)
        _, info = train_classifier(X, y, l2_lambda=1.0)
        assert info["converged"] and info["grad_norm"] < 1e-6

    def test_iteration_cap_reports_not_converged(self):
        X, y = self._data()
        w, info = train_classifier(X, y, max_iter=1)
        assert not info["converged"]
        assert info["grad_norm"] > 1e-6
        assert _penalized_nll(w, X, y, 1.0) < _penalized_nll(np.zeros(4), X, y, 1.0)


def _penalized_nll(w, X, y, lam):
    eta = w[0] + X @ w[1:]
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta) + 0.5 * lam * w[1:] @ w[1:])


def _scipy_reference(X, y, lam):
    """The same penalized objective minimized by scipy's L-BFGS-B."""
    optimize = pytest.importorskip("scipy.optimize")

    def fun(w):
        r = 1.0 / (1.0 + np.exp(-(w[0] + X @ w[1:]))) - y
        grad = np.concatenate(([r.sum()], X.T @ r + lam * w[1:]))
        return _penalized_nll(w, X, y, lam), grad

    res = optimize.minimize(fun, np.zeros(X.shape[1] + 1), jac=True, method="L-BFGS-B",
                            options={"gtol": 1e-10, "ftol": 1e-15, "maxiter": 20000})
    assert np.linalg.norm(fun(res.x)[1]) < 1e-5
    return res.x


class TestStratifiedFolds:
    def test_partition_and_balance(self):
        labels = np.array([1] * 12 + [0] * 28)
        folds = stratified_folds(labels, 4, seed=0)
        all_idx = sorted(i for f in folds for i in f)
        assert all_idx == list(range(40))
        pos_counts = [sum(labels[i] for i in f) for f in folds]
        assert max(pos_counts) - min(pos_counts) <= 1

    def test_deterministic_given_seed(self):
        labels = np.array([0, 1] * 15)
        assert stratified_folds(labels, 5, seed=3) == stratified_folds(labels, 5, seed=3)

    def test_seed_changes_assignment(self):
        labels = np.array([0, 1] * 20)
        a = stratified_folds(labels, 5, seed=0)
        b = stratified_folds(labels, 5, seed=1)
        assert a != b

    def test_infeasible_raises(self):
        labels = np.array([1] * 2 + [0] * 18)  # 2 positives cannot fill 5 folds
        with pytest.raises(CVInfeasible):
            stratified_folds(labels, 5, seed=0)


def _synthetic_corpus(n=40, seed=0):
    rng = np.random.default_rng(seed)
    docs, labels = [], []
    for _ in range(n):
        y = int(rng.random() < 0.4)
        words = ["patient", "admitted", "hospital", "course", "stable"]
        words += ["readmit", "decompensated", "worsening"] * (3 if y else 0)
        words += ["improved", "discharged", "home"] * (0 if y else 3)
        rng.shuffle(words)
        docs.append(" ".join(words))
        labels.append(y)
    return docs, labels


def _zipf_corpus(n, seed, n_words=20000, length=100):
    """Documents of Zipf-distributed words; positives add a few signal words."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, n_words + 1)
    p /= p.sum()
    docs, labels = [], []
    for _ in range(n):
        y = int(rng.random() < 0.4)
        words = [f"w{k}" for k in rng.choice(n_words, size=length, p=p)]
        words += [f"w{k}" for k in rng.integers(50, 60, size=5 * y)]
        docs.append(" ".join(words))
        labels.append(y)
    return docs, labels


class TestEvaluateCv:
    def test_report_shape_and_leakage_guard(self):
        docs, labels = _synthetic_corpus()
        report = evaluate_cv(docs, labels, n_folds=4, seed=0, variant="raw")
        assert len(report.per_fold) == 4
        assert len(report.vocabulary_hashes) == 4
        # vocabulary is refit per training split, so hashes may differ;
        # every fold must report one
        assert all(h for h in report.vocabulary_hashes)
        d = report.to_dict()
        assert set(d["summary"]) == {"auroc", "auprc", "accuracy", "f1"}
        assert d["summary"]["auroc"]["mean"] > 0.9  # separable corpus

    def test_deterministic(self):
        docs, labels = _synthetic_corpus()
        a = evaluate_cv(docs, labels, n_folds=4, seed=1).to_dict()
        b = evaluate_cv(docs, labels, n_folds=4, seed=1).to_dict()
        assert a == b

    def test_wide_zipf_cv_converges_every_fold(self):
        docs, labels = _zipf_corpus(500, seed=0)
        report = evaluate_cv(docs, labels, n_folds=5, seed=0)
        assert min(report.vocabulary_sizes) > 3000
        assert report.converged == [True] * 5
        assert "converged" not in json.dumps(report.to_dict())  # report bytes unchanged

    def test_too_few_docs(self):
        with pytest.raises(InvalidInput):
            evaluate_cv(["a b"] * 6, [0, 1] * 3, n_folds=5)

    def test_misaligned_inputs(self):
        with pytest.raises(InvalidInput):
            evaluate_cv(["aa bb"] * 4, [0, 1, 0], n_folds=2)
