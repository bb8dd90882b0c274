import filecmp
import os

import numpy as np

from clinnote.cohort import build_readmission_pairs, filter_hf_cohort, load_tables

import workloads


def _pairs(paths):
    store = filter_hf_cohort(
        load_tables(paths["admissions.csv"], paths["diagnoses.csv"], paths["notes.csv"])
    )
    return store, build_readmission_pairs(store)


def test_scaled_fixture_is_deterministic_per_seed():
    assert workloads.scaled_fixture(3, seed=5) == workloads.scaled_fixture(3, seed=5)
    assert workloads.scaled_fixture(3, seed=5) != workloads.scaled_fixture(3, seed=6)


def test_diverse_cohort_is_deterministic_per_seed():
    assert workloads.diverse_cohort(20, seed=5) == workloads.diverse_cohort(20, seed=5)
    assert workloads.diverse_cohort(20, seed=5) != workloads.diverse_cohort(20, seed=6)


def test_generate_writes_identical_files_for_one_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 3, str(tmp_path / name / "a"))
        b = workloads.generate(name, 3, str(tmp_path / name / "b"))
        files = sorted(os.path.basename(p) for p in a.values())
        match, mismatch, errors = filecmp.cmpfiles(
            os.path.dirname(a["notes.csv"]), os.path.dirname(b["notes.csv"]), files,
            shallow=False)
        assert match == files and not mismatch and not errors


def test_fixture_replicas_scale_pairs_and_notes(tmp_path):
    # the bundled fixture: 20 admissions with notes, 10 readmission pairs
    replicas = 4
    paths = workloads.write_tables(workloads.scaled_fixture(replicas, seed=1), str(tmp_path))
    store, pairs = _pairs(paths)
    assert len(store.admissions) == 20 * replicas
    assert sum(r.discharge_note is not None for r in store.admissions.values()) == 20 * replicas
    assert len(pairs) == 10 * replicas
    assert len({p.subject_id for p in pairs}) == 9 * replicas


def test_diverse_cohort_has_one_pair_per_patient(tmp_path):
    patients = 30
    paths = workloads.write_tables(workloads.diverse_cohort(patients, seed=2), str(tmp_path))
    store, pairs = _pairs(paths)
    assert len(store.admissions) == 2 * patients
    assert len(pairs) == patients
    assert all(store.admissions[p.index_hadm_id].discharge_note for p in pairs)
    assert 0 < sum(p.label for p in pairs) < patients


def test_diverse_social_history_is_combinatorial():
    _, _, notes, _, _ = workloads.diverse_cohort(200, seed=4)
    tobacco = {n["text"].split("Tobacco: ")[1].split(".")[0] for n in notes}
    assert len(tobacco) > 150


def test_zipf_sampler_follows_rank_frequencies():
    sampler = workloads.ZipfSampler(size=1000, exponent=1.0)
    draws = sampler.draw(np.random.default_rng(0), 200_000)
    counts = np.bincount(draws, minlength=1000)
    assert draws.min() >= 0 and draws.max() < 1000
    # P(rank 1) / P(rank 2) = 2 and P(rank 1) / P(rank 10) = 10 for exponent 1
    assert abs(counts[0] / counts[1] - 2.0) < 0.1
    assert abs(counts[0] / counts[9] - 10.0) < 1.0


def test_synthetic_vocabulary_words_are_distinct_tokens():
    vocab = workloads.synthetic_vocabulary()
    assert len(set(vocab)) == workloads.VOCAB_SIZE
    assert all(w.isalpha() and w.islower() and len(w) >= 2 for w in vocab)
