import itertools
import json
import tracemalloc

import numpy as np
import pytest

import pam_oracle

from clinnote.errors import InvalidInput, RequestFailed, SchemeSynthesisFailed
from clinnote.normalize import (
    FALLBACK_LABEL,
    MAX_CATEGORIES,
    CategoryScheme,
    _pam_build,
    _pam_swap,
    cluster_entries,
    cosine_distance_matrix,
    label_entries,
    normalize_variable,
    synthesize_scheme,
)


class TestCosineDistance:
    def test_properties(self):
        rng = np.random.default_rng(0)
        E = rng.standard_normal((10, 5))
        D = cosine_distance_matrix(E)
        assert np.allclose(D, D.T)
        assert np.allclose(np.diag(D), 0.0)
        assert np.all(D >= 0.0) and np.all(D <= 2.0)

    def test_known_angles(self):
        E = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [2.0, 0.0]])
        D = cosine_distance_matrix(E)
        assert D[0, 1] == pytest.approx(1.0)   # orthogonal
        assert D[0, 2] == pytest.approx(2.0)   # opposite
        assert D[0, 3] == pytest.approx(0.0)   # parallel, scale-invariant

    def test_zero_vector_does_not_blow_up(self):
        D = cosine_distance_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.all(np.isfinite(D))


def _blob_embeddings(centers, per, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for i, c in enumerate(centers):
        for _ in range(per):
            rows.append(np.asarray(c, float) + scale * rng.standard_normal(len(c)))
            labels.append(i)
    return np.array(rows), labels


class TestPam:
    def test_recovers_separated_clusters(self):
        E, labels = _blob_embeddings([[1, 0, 0], [0, 1, 0], [0, 0, 1]], per=5)
        entries = [f"e{i}" for i in range(len(labels))]
        res = cluster_entries(entries, 3, embeddings=E)
        # assignment partition must match the generating blobs
        groups = {}
        for i, a in enumerate(res.assignments):
            groups.setdefault(int(a), set()).add(labels[i])
        assert all(len(g) == 1 for g in groups.values())
        assert len(groups) == 3

    def test_cost_near_bruteforce_optimum(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            E = rng.standard_normal((8, 6))
            D = cosine_distance_matrix(E)
            entries = [f"e{i}" for i in range(8)]
            res = cluster_entries(entries, 2, embeddings=E)
            best = min(
                float(D[:, list(m)].min(axis=1).sum())
                for m in itertools.combinations(range(8), 2)
            )
            assert res.total_cost >= best - 1e-9
            assert res.total_cost <= best * 1.10

    def test_cost_path_nonincreasing(self):
        rng = np.random.default_rng(3)
        E = rng.standard_normal((30, 8))
        res = cluster_entries([f"e{i}" for i in range(30)], 4, embeddings=E)
        path = res.cost_path
        assert all(a >= b - 1e-9 for a, b in zip(path, path[1:]))
        assert res.total_cost == pytest.approx(path[-1])

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        E = rng.standard_normal((20, 6))
        entries = [f"e{i}" for i in range(20)]
        a = cluster_entries(entries, 5, embeddings=E)
        b = cluster_entries(entries, 5, embeddings=E)
        assert a.medoid_indices == b.medoid_indices
        assert np.array_equal(a.assignments, b.assignments)

    def test_k_lowered_to_distinct_count(self):
        E = np.eye(3)
        res = cluster_entries(["a", "b", "c"], 200, embeddings=E)
        assert res.k == 3
        assert res.total_cost == pytest.approx(0.0)

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInput):
            cluster_entries(["a", "a"], 1, embeddings=np.eye(2))

    def test_invalid_k_and_empty(self):
        with pytest.raises(InvalidInput):
            cluster_entries(["a"], 0, embeddings=np.eye(1))
        with pytest.raises(InvalidInput):
            cluster_entries([], 1)

    def test_weights_pull_medoid(self):
        # two near-identical points and one heavy outlier direction:
        # with k=1 the medoid must sit where the weight is
        E = np.array([[1.0, 0.0], [0.99, 0.1], [0.0, 1.0]])
        light = cluster_entries(["a", "b", "c"], 1, embeddings=E,
                                weights=np.array([1.0, 1.0, 1.0]))
        heavy = cluster_entries(["a", "b", "c"], 1, embeddings=E,
                                weights=np.array([1.0, 1.0, 50.0]))
        assert light.medoid_indices[0] in (0, 1)
        assert heavy.medoid_indices[0] == 2

    def test_cluster_sizes_sum_to_n(self):
        rng = np.random.default_rng(1)
        E = rng.standard_normal((17, 4))
        res = cluster_entries([f"e{i}" for i in range(17)], 4, embeddings=E)
        assert sum(res.cluster_sizes()) == 17


def _quantized_distances(rng, n):
    """Symmetric distances in {0.25, 0.5, 0.75, 1}, zero diagonal."""
    upper = np.triu(rng.integers(1, 5, (n, n)) / 4.0, 1)
    return upper + upper.T


def _pam_instance(rng, kind):
    """A random weighted PAM instance (D, k, w); k is 1 on about one in seven.

    The two tie kinds use quarter distances and integer weights, so every
    sum is exact and tied swaps are tied in any summation order.
    """
    n = int(rng.integers(2, 60))
    k = 1 if rng.random() < 1 / 7 else int(rng.integers(1, n + 1))
    if kind == "embeddings":
        D = cosine_distance_matrix(rng.standard_normal((n, int(rng.integers(2, 12)))))
        return D, k, rng.random(n) * 3 + 0.1
    if kind == "duplicate points":  # repeated points: equal rows and columns
        idx = rng.integers(0, max(1, n // 3), n)
        D = _quantized_distances(rng, max(1, n // 3))[idx][:, idx]
    else:  # "duplicate distances"
        D = _quantized_distances(rng, n)
    return D, k, rng.integers(1, 5, n).astype(float)


class TestFastPam:
    """BUILD and the FastPAM1 SWAP against the straightforward PAM.

    Equal inputs must give the oracle's medoids and a bit-equal cost path,
    ties included. Where a tie is exact only in real arithmetic, the two
    sum in different orders and may break it differently: two medoids at
    distance 0 from each other, or two equal embeddings whose distance
    columns differ in the last bits after a matrix product.
    """

    @pytest.mark.parametrize("kind", ["embeddings", "duplicate points", "duplicate distances"])
    def test_same_medoids_and_cost_path_as_oracle(self, kind):
        rng = np.random.default_rng(len(kind))
        swaps = 0
        for _ in range(150):
            D, k, w = _pam_instance(rng, kind)
            built = _pam_build(D, k, w)
            assert built == pam_oracle.pam_build(D, k, w)
            path = [float((w * D[:, built].min(axis=1)).sum())]
            want = list(path)
            assert _pam_swap(D, built, w, path) == pam_oracle.pam_swap(D, built, w, want)
            assert path == want
            # SWAP from random medoids meets many more swaps and ties
            start = rng.choice(len(D), size=k, replace=False).tolist()
            path, want = [0.0], [0.0]
            assert _pam_swap(D, start, w, path) == pam_oracle.pam_swap(D, start, w, want)
            assert path == want
            swaps += len(path) - 1
        assert swaps >= 100

    @pytest.mark.parametrize("gain, swapped", [(5e-13, False), (5e-12, True)])
    def test_swap_must_gain_more_than_1e_12(self, gain, swapped):
        D = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 1.0 - gain], [1.0, 1.0 - gain, 0.0]])
        path = [0.0]
        assert _pam_swap(D, [0], np.ones(3), path) == ([1] if swapped else [0])
        assert len(path) == 1 + swapped

    def test_tie_between_equal_medoids_removes_the_first(self):
        # medoids 0 and 1 sit on the same point; dropping either for
        # point 2 or point 3 gains the same, so position 0 and the lower
        # candidate win
        D = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0],
                      [1.0, 1.0, 0.0, 0.5], [1.0, 1.0, 0.5, 0.0]]) / 3
        path = [0.0]
        assert _pam_swap(D, [0, 1], np.ones(4), path) == [2, 1]
        assert path[1] == pytest.approx(1 / 6)

    def test_work_memory_at_most_two_n_by_n_arrays(self):
        n, k = 400, 8
        rng = np.random.default_rng(5)
        D = cosine_distance_matrix(rng.standard_normal((n, 16)))
        w = np.ones(n)
        tracemalloc.start()
        try:
            medoids = _pam_build(D, k, w)
            _, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _pam_swap(D, medoids, w, [])
            _, swap_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        square = D.nbytes
        assert build_peak < 1.1 * square
        assert swap_peak < 2.1 * square


def _scheme(labels, variable="marital_status"):
    return CategoryScheme(
        variable=variable,
        categories=[{"label": l, "description": ""} for l in labels],
    )


class TestCategoryScheme:
    def test_valid(self):
        _scheme(["Married", "Single", FALLBACK_LABEL]).validate()

    def test_too_few(self):
        with pytest.raises(SchemeSynthesisFailed):
            _scheme([FALLBACK_LABEL]).validate()

    def test_too_many(self):
        labels = [f"C{i}" for i in range(MAX_CATEGORIES)] + [FALLBACK_LABEL]
        with pytest.raises(SchemeSynthesisFailed):
            _scheme(labels).validate()

    def test_duplicate_labels(self):
        with pytest.raises(SchemeSynthesisFailed):
            _scheme(["A", "A", FALLBACK_LABEL]).validate()

    def test_exactly_one_fallback(self):
        with pytest.raises(SchemeSynthesisFailed):
            _scheme(["A", "B"]).validate()
        with pytest.raises(SchemeSynthesisFailed):
            _scheme(["A", FALLBACK_LABEL, f"Second {FALLBACK_LABEL}"]).validate()

    def test_fallback_lookup_allows_decorated_label(self):
        s = _scheme(["A", f"{FALLBACK_LABEL} (unclear)"])
        s.validate()
        assert FALLBACK_LABEL in s.fallback()


GOOD_SCHEME_REPLY = json.dumps([
    {"label": "Married", "description": "married or partnered"},
    {"label": "Single", "description": "never married"},
    {"label": FALLBACK_LABEL, "description": "unclear"},
])


class TestSynthesizeScheme:
    def test_good_reply(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([GOOD_SCHEME_REPLY])
        scheme = synthesize_scheme(gw, "marital_status", ["married", "single"])
        assert scheme.labels() == ["Married", "Single", FALLBACK_LABEL]
        assert backend.calls == 1
        assert scheme.provenance["prompt_sha256"]

    def test_missing_fallback_appended(self, scripted_gateway_factory):
        reply = json.dumps([
            {"label": "Married", "description": ""},
            {"label": "Single", "description": ""},
        ])
        gw, _ = scripted_gateway_factory([reply])
        scheme = synthesize_scheme(gw, "marital_status", ["x"])
        assert scheme.labels()[-1] == FALLBACK_LABEL

    def test_stray_bracket_before_json(self, scripted_gateway_factory):
        reply = f"Categories [draft] follow:\n{GOOD_SCHEME_REPLY}"
        gw, backend = scripted_gateway_factory([reply])
        scheme = synthesize_scheme(gw, "marital_status", ["married", "single"])
        assert scheme.labels() == ["Married", "Single", FALLBACK_LABEL]
        assert backend.calls == 1

    def test_repair_then_success(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["not json", GOOD_SCHEME_REPLY])
        scheme = synthesize_scheme(gw, "marital_status", ["x"])
        assert backend.calls == 2
        assert len(scheme.labels()) == 3

    def test_two_failures_raise(self, scripted_gateway_factory):
        too_many = json.dumps(
            [{"label": f"C{i}", "description": ""} for i in range(15)]
        )
        gw, backend = scripted_gateway_factory(["garbage", too_many])
        with pytest.raises(SchemeSynthesisFailed):
            synthesize_scheme(gw, "marital_status", ["x"])
        assert backend.calls == 2


class TestLabelEntries:
    def test_exact_reply_ok(self, scripted_gateway_factory):
        gw, _ = scripted_gateway_factory(["Married"])
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        [entry] = label_entries(gw, scheme, [("H1", "married for 40 years")])
        assert entry.assigned_category == "Married"
        assert entry.status == "ok"

    def test_quoted_reply_accepted(self, scripted_gateway_factory):
        gw, _ = scripted_gateway_factory(['"Single"'])
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        [entry] = label_entries(gw, scheme, [("H1", "never married")])
        assert entry.assigned_category == "Single"

    def test_off_scheme_maps_to_fallback(self, scripted_gateway_factory):
        gw, _ = scripted_gateway_factory(["Divorced-ish"])
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        [entry] = label_entries(gw, scheme, [("H1", "it is complicated")])
        assert entry.assigned_category == FALLBACK_LABEL
        assert entry.status == "fallback"

    def test_gateway_failure_leaves_unlabeled(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([])

        def boom(request):
            raise RequestFailed("endpoint down")

        backend.chat = boom
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        [entry] = label_entries(gw, scheme, [("H1", "married")])
        assert entry.assigned_category is None
        assert entry.status == "unlabeled"

    def test_programming_error_propagates(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([])

        def bug(request):
            raise TypeError("bug in the backend")

        backend.chat = bug
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        with pytest.raises(TypeError):
            label_entries(gw, scheme, [("H1", "married")])

    def test_each_distinct_text_asked_once(self, scripted_gateway_factory, caplog):
        gw, backend = scripted_gateway_factory([])
        asked = []

        def by_entry(request):
            text = request.user_content.rsplit("Entry: ", 1)[1]
            asked.append(text)
            return "Married" if text == "married" else "Divorced-ish"

        backend.chat = by_entry
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        entries = [("H1", "married"), ("H2", "complicated"),
                   ("H3", "married"), ("H4", "complicated"), ("H5", "complicated")]
        out = label_entries(gw, scheme, entries)
        assert sorted(asked) == ["complicated", "married"]
        assert [(e.hadm_id, e.raw_text) for e in out] == entries
        assert [e.status for e in out] == ["ok", "fallback", "ok", "fallback", "fallback"]
        assert "3 off-scheme replies" in caplog.text


class TestNormalizeVariableEndToEnd:
    def test_mock_pipeline(self, mock_gateway):
        entries = [
            ("H1", "Married"),
            ("H2", "married for 40 years"),
            ("H3", "widowed"),
            ("H4", "single, never married"),
            ("H5", "Married"),
        ]
        scheme, labeled, clustering = normalize_variable(
            mock_gateway, "marital_status", entries, k=4
        )
        scheme.validate()
        assert len(labeled) == 5
        assert clustering.k == 4  # 4 distinct texts
        by_hadm = {e.hadm_id: e.assigned_category for e in labeled}
        assert by_hadm["H1"] == by_hadm["H5"]  # identical texts, identical label
        assert all(c is None or c in scheme.labels() for c in by_hadm.values())
