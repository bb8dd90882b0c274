"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 11 needs credentialed clinical data and a live model endpoint,
so it is skipped unless the relevant environment variables are set.
"""

import contextlib
import itertools
import json
import os
import time
from datetime import datetime, timedelta

import numpy as np
import pytest

from clinnote.cohort import (
    AdmissionRecord,
    CohortStore,
    HF_EXACT_CODES,
    HF_PREFIX,
    build_readmission_pairs,
    filter_hf_cohort,
)
from clinnote.fidelity import (
    JudgeVerdict,
    TOLERANCE_RULES,
    corpus_judge_summary,
    evaluate_vital,
    icd9_descriptions,
    judge_diagnoses,
)
from clinnote.fixture import build_fixture, write_fixture
from clinnote.gateway import mock_embedding
from clinnote.normalize import cluster_entries, cosine_distance_matrix
from clinnote.pipeline import Runner, report_hash
from clinnote.predict import auroc, fit_vectorizer, stratified_folds
from clinnote.stats import (
    ContingencyTable,
    chi2_sf,
    chi_square_test,
    fit_univariate_logistic,
)
from clinnote.summarize import Summarizer, contains_digits
from clinnote.vitals import (
    CanonicalVital,
    c_to_f,
    cm_to_in,
    f_to_c,
    in_to_cm,
    kg_to_lb,
    lb_to_kg,
    parse_vital,
)

from conftest import make_config
from test_stats import CHI2_TAIL_TABLE


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d}: FAIL — {title}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS — {title}")


def _fixture_config(tmp_path):
    paths = write_fixture(str(tmp_path / "data"), seed=0)
    return make_config(
        tmp_path,
        admissions_path=paths["admissions.csv"],
        diagnoses_path=paths["diagnoses.csv"],
        notes_path=paths["notes.csv"],
        truth_vitals_path=paths["truth_vitals.csv"],
        truth_sdoh_path=paths["truth_sdoh.csv"],
        folds=3,
        k_medoids=8,
    )


def test_01_offline_end_to_end_deterministic(tmp_path):
    with criterion(1, "offline run-all completes and is byte-deterministic"):
        cfg = _fixture_config(tmp_path)
        start = time.monotonic()
        for out in ("r1", "r2"):
            runner = Runner(cfg, str(tmp_path / out))
            try:
                runner.run_all()
            finally:
                runner.close()
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"two runs took {elapsed:.1f}s"
        h1, h2 = report_hash(str(tmp_path / "r1")), report_hash(str(tmp_path / "r2"))
        assert h1 == h2
        with open(tmp_path / "r1" / "manifest.json") as fh:
            assert len(json.load(fh)["stages"]) == 8


def test_02_readmission_labeling_and_hf_filter():
    with criterion(2, "30-day label boundary and heart-failure code filter"):
        t0 = datetime(2100, 1, 1)
        for days, expected in ((29.99, 1), (30.0, 1), (30.01, 0)):
            discharge = t0 + timedelta(days=5)
            store = CohortStore(admissions={
                "H1": AdmissionRecord("S1", "H1", t0, discharge, [], None),
                "H2": AdmissionRecord("S1", "H2", discharge + timedelta(days=days),
                                      discharge + timedelta(days=days + 2), [], None),
            })
            [pair] = build_readmission_pairs(store)
            assert pair.label == expected, f"interval {days} -> {pair.label}"
        assert HF_EXACT_CODES == frozenset({
            "39891", "40201", "40211", "40291", "40401", "40403",
            "40411", "40413", "40491", "40493",
        })
        assert HF_PREFIX == "428"
        for code, admitted in (("39891", True), ("40403", True), ("428", True),
                               ("42833", True), ("40290", False), ("4019", False)):
            store = CohortStore(admissions={
                "H1": AdmissionRecord("S1", "H1", t0, t0 + timedelta(days=2),
                                      [code], None)
            })
            assert bool(filter_hf_cohort(store).admissions) == admitted, code


def test_03_unit_conversion():
    with criterion(3, "unit round trips and spot conversions"):
        for v in (0.0, 36.6, 98.6, -40.0, 212.0):
            assert abs(c_to_f(f_to_c(v)) - v) < 1e-9
        for v in (1.0, 66.0, 175.3):
            assert abs(cm_to_in(in_to_cm(v)) - v) < 1e-9
            assert abs(kg_to_lb(lb_to_kg(v)) - v) < 1e-9
        [t] = parse_vital("temperature", "96 F")
        assert t.value == pytest.approx(35.56, abs=0.005)
        [h] = parse_vital("height", "5'6\"")
        assert h.value == pytest.approx(167.64, abs=1e-9)
        sys_v, dia_v = parse_vital("blood_pressure", "120/60")
        assert (sys_v.value, dia_v.value) == (120.0, 60.0)


def test_04_tolerance_evaluator_hand_fixture():
    with criterion(4, "tolerance evaluator matches hand-computed metrics"):
        assert TOLERANCE_RULES["temperature"].native_tolerances == {"F": 0.5, "C": 0.3}
        assert TOLERANCE_RULES["hr"].native_tolerances == {"bpm": 5.0}
        assert TOLERANCE_RULES["rr"].native_tolerances == {"breaths/min": 1.0}
        assert TOLERANCE_RULES["spo2"].native_tolerances == {"%": 1.0}
        assert TOLERANCE_RULES["height"].native_tolerances == {"cm": 2.0, "in": 1.0}
        assert TOLERANCE_RULES["weight"].native_tolerances == {"kg": 2.0, "lb": 5.0}
        assert TOLERANCE_RULES["bp_sys"].native_tolerances == {"mmHg": 5.0}
        assert TOLERANCE_RULES["bp_dia"].native_tolerances == {"mmHg": 5.0}

        # 10 admissions with truth; 8 extracted; hand-planned hits/misses:
        # H1..H6 within 5 bpm of the truth median (hits), H7/H8 off (misses),
        # H9/H10 not extracted at all.
        truth = {f"H{i}": [(80.0, "bpm")] for i in range(1, 11)}
        truth["H7"] = [(70.0, "bpm"), (80.0, "bpm"), (90.0, "bpm")]  # median 80
        extracted = {}
        values = {"H1": 80.0, "H2": 85.0, "H3": 75.0, "H4": 84.0,
                  "H5": 76.0, "H6": 80.5, "H7": 86.0, "H8": 60.0}
        for h, v in values.items():
            extracted[h] = CanonicalVital(h, "hr", v, original_text="",
                                          original_unit="bpm")
        row = evaluate_vital("hr", extracted, truth)
        assert abs(row["pct_extracted"] - 80.0) < 1e-9
        assert abs(row["cond_acc"] - 75.0) < 1e-9  # 6 of 8 hits
        expected_mae = sum(abs(v - 80.0) for v in values.values()) / 8.0
        assert abs(row["mae"] - expected_mae) < 1e-9
        assert abs(row["mape"] - expected_mae / 80.0 * 100.0) < 1e-9


def test_05_logistic_regression():
    with criterion(5, "logistic regression against reference oracle"):
        # symmetric dataset: y balanced identically at +x and -x
        x = np.array([-2.0, -1.0, 1.0, 2.0] * 5)
        y = np.array([0.0, 1.0, 1.0, 0.0] * 5)
        fit = fit_univariate_logistic(x, y, standardize=False)
        assert abs(fit.coef) < 1e-8

        rng = np.random.default_rng(7)
        xs = rng.standard_normal(500)
        p = 1.0 / (1.0 + np.exp(-(-0.5 + 0.8 * xs)))
        ys = (rng.random(500) < p).astype(float)
        fit = fit_univariate_logistic(xs, ys, standardize=False)
        assert abs(fit.coef - 0.7895952373149812) < 1e-4
        assert abs(fit.std_err - 0.1146494045494276) < 1e-4
        assert abs(fit.p_value - 5.6964502936901974e-12) < 1e-4
        assert all(a >= b - 1e-9 for a, b in zip(fit.nll_path, fit.nll_path[1:]))

        scaled = fit_univariate_logistic(xs * 10.0, ys, standardize=False)
        assert abs(scaled.p_value - fit.p_value) < 1e-9


def test_06_chi_square():
    with criterion(6, "chi-square statistic, p-values, and tail table"):
        res = chi_square_test(
            ContingencyTable(rows=["a", "b"], counts=[[15, 15], [15, 15]])
        )
        assert res.chi2 == 0.0 and res.p_value == 1.0
        res = chi_square_test(
            ContingencyTable(rows=["a", "b"], counts=[[10, 20], [20, 10]])
        )
        assert abs(res.chi2 - 6.6667) < 1e-4
        assert abs(res.p_value - 0.00982) < 1e-4
        for df, x, expected in CHI2_TAIL_TABLE:
            assert abs(chi2_sf(x, df) - expected) < 1e-6


def test_07_k_medoids():
    with criterion(7, "k-medoids optimality, monotone SWAP, determinism"):
        texts = [f"cluster-a entry {i}" for i in range(6)] + \
                [f"cluster-b entry {i}" for i in range(6)]
        base = np.array([mock_embedding(t) for t in texts])
        # force two orthogonal clusters in embedding space
        E = np.zeros((12, 66))
        E[:6, 0] = 1.0
        E[6:, 1] = 1.0
        E[:, 2:] = 0.05 * base
        D = cosine_distance_matrix(E)
        results = [cluster_entries(texts, 2, embeddings=E) for _ in range(5)]
        best = min(
            float(D[:, list(m)].min(axis=1).sum())
            for m in itertools.combinations(range(12), 2)
        )
        for res in results:
            assert res.total_cost == pytest.approx(best, abs=1e-9)
            assert {min(res.medoid_indices) < 6, max(res.medoid_indices) >= 6} == {True}
            assert all(a >= b - 1e-9 for a, b in zip(res.cost_path, res.cost_path[1:]))
            assert res.medoid_indices == results[0].medoid_indices
            assert np.array_equal(res.assignments, results[0].assignments)


def test_08_classifier_metrics_and_leakage():
    with criterion(8, "AUROC oracle, invariances, and vocabulary leakage guard"):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
        assert auroc([0.3] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.random(25)
            labels = rng.integers(0, 2, size=25)
            if labels.min() == labels.max():
                continue
            base = auroc(scores, labels)
            assert auroc(np.exp(3 * scores), labels) == pytest.approx(base)
            assert auroc(2 * scores + 7, labels) == pytest.approx(base)

        # leakage guard: the per-fold vocabulary comes from the training
        # split only, so rewriting the test documents cannot change it
        docs = [f"token{i % 7} shared word corpus line {i}" for i in range(20)]
        labels = np.array([0, 1] * 10)
        folds = stratified_folds(labels, 4, seed=0)
        for test_idx in folds:
            train_docs = [docs[i] for i in range(20) if i not in set(test_idx)]
            h1 = fit_vectorizer(train_docs).vocabulary_hash
            shuffled = list(train_docs)
            np.random.default_rng(1).shuffle(shuffled)
            assert fit_vectorizer(shuffled).vocabulary_hash == h1
            vocab = fit_vectorizer(train_docs).vocabulary
            assert "leakedtesttoken" not in vocab


def test_09_no_number_contract(mock_gateway):
    with criterion(9, "no-number summaries carry zero numerals"):
        _, _, notes, _, _ = build_fixture(seed=0)
        summarizer = Summarizer(mock_gateway)
        accepted = violations = 0
        for row in notes:
            rec = summarizer.summarize(row["text"], "no_number", row["hadm_id"])
            if rec.status == "ok":
                accepted += 1
                assert not contains_digits(rec.text), rec.text
            elif rec.status == "contains_numbers":
                violations += 1
        assert accepted > 0
        total = accepted + violations
        print(f"    no-number violation rate: {violations}/{total}")


def test_10_judge_protocol(mock_gateway):
    with criterion(10, "judge identity fixture and micro-average oracle"):
        table = icd9_descriptions()
        codes = ["4280", "42731", "5849"]
        verdict = judge_diagnoses(mock_gateway, "H1", [table[c] for c in codes], codes)
        assert verdict.score == 5
        assert verdict.matched_extracted == verdict.n_extracted == 3
        assert verdict.matched_icd == verdict.n_icd == 3
        summary = corpus_judge_summary([verdict])
        assert summary["cond_acc"] == 1.0 and summary["abs_acc"] == 1.0

        micro = corpus_judge_summary([
            JudgeVerdict("H1", 3, 2, 2, n_extracted=4, n_icd=10),
            JudgeVerdict("H2", 5, 3, 3, n_extracted=3, n_icd=5),
        ])
        assert micro["cond_acc"] == pytest.approx(5.0 / 7.0)
        assert micro["abs_acc"] == pytest.approx(5.0 / 15.0)


@pytest.mark.skipif(
    not (os.environ.get("CLINNOTE_MIMIC_DIR") and os.environ.get("CLINNOTE_ENDPOINT")),
    reason="requires credentialed clinical data and a live model endpoint "
           "(set CLINNOTE_MIMIC_DIR and CLINNOTE_ENDPOINT to enable)",
)
def test_11_directional_reproduction(tmp_path):
    with criterion(11, "directional reproduction on real data (optional)"):
        from clinnote.config import Config

        mimic = os.environ["CLINNOTE_MIMIC_DIR"]
        cfg = Config(
            admissions_path=os.path.join(mimic, "admissions.csv"),
            diagnoses_path=os.path.join(mimic, "diagnoses.csv"),
            notes_path=os.path.join(mimic, "notes.csv"),
            truth_vitals_path=os.path.join(mimic, "truth_vitals.csv"),
            truth_sdoh_path=os.path.join(mimic, "truth_sdoh.csv"),
            endpoint_url=os.environ["CLINNOTE_ENDPOINT"],
            cache_dir=str(tmp_path / "cache"),
        )
        out = str(tmp_path / "live")
        runner = Runner(cfg, out)
        try:
            runner.run_all()
        finally:
            runner.close()
        with open(os.path.join(out, "agreement_report.json")) as fh:
            agreement = json.load(fh)
        gender = next(r for r in agreement["categorical"] if r["variable"] == "gender")
        assert gender["pct_extracted"] >= 95.0
        assert gender["cond_acc"] >= 98.0
        with open(os.path.join(out, "association_report.json")) as fh:
            assoc = json.load(fh)
        coefs = {r["variable"]: r.get("coef") for r in assoc["logistic"]}
        assert coefs["weight"] < 0 and coefs["bp_sys"] < 0 and coefs["age"] > 0
        chisq = [r for r in assoc["chi_square"] if "p_value" in r
                 and r["variable"] != "gender"]
        assert min(chisq, key=lambda r: r["p_value"])["variable"] == "housing"
        with open(os.path.join(out, "prediction_report.json")) as fh:
            pred = json.load(fh)
        raw = pred["raw"]["summary"]["auroc"]["mean"]
        non = pred["no_number"]["summary"]["auroc"]["mean"]
        structural = pred["structural"]["summary"]["auroc"]["mean"]
        assert raw >= non >= structural
