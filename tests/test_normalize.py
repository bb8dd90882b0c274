import itertools
import json
import tracemalloc

import numpy as np
import pytest

import pam_oracle

from clinnote import normalize
from clinnote.errors import InvalidInput, RequestFailed, SchemeSynthesisFailed
from clinnote.gateway import ChatRequest, LLMGateway
from clinnote.mock_llm import CANNED_SCHEMES, MockResponder
from clinnote.normalize import (
    FALLBACK_LABEL,
    MAX_CATEGORIES,
    CategoryScheme,
    _pam_build,
    _pam_swap,
    cluster_entries,
    cluster_variable,
    cosine_distance_matrix,
    label_entries,
    normalize_variable,
    synthesize_scheme,
)
from clinnote.prompts import load_prompt

from conftest import make_config


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
            cluster_entries([], 1, np.empty((0, 2)))

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

    def test_work_memory_is_d_plus_row_blocks(self, monkeypatch):
        # 10-row blocks; k = 8 makes clusters of about 50 rows, which SWAP
        # reads in column strips, each under two blocks
        n, k = 400, 8
        block = 10 * 8 * n
        monkeypatch.setattr(normalize, "PAM_BLOCK_BYTES", block)
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
        vector = 8 * n
        ufunc_buffer = 8192 * 8  # numpy's broadcasting ufuncs buffer 8192 values
        assert build_peak < block + ufunc_buffer + 4 * vector
        # two strips of work, the k x n deltas and D[:, medoids], O(n) besides
        assert swap_peak < 4 * block + ufunc_buffer + 2 * k * vector + 16 * vector
        assert swap_peak < 0.2 * D.nbytes

    def test_distance_matrix_is_built_in_place(self):
        E = np.random.default_rng(6).standard_normal((600, 8))
        tracemalloc.start()
        try:
            D = cosine_distance_matrix(E)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < D.nbytes + 4 * E.nbytes


class TestPamBlocks:
    """Blocked BUILD and SWAP against one block and the oracle.

    numpy adds the rows of a C-ordered array of two or more columns in
    sequence along axis 0, so a blocked sum is bit-equal when each block
    starts from the running row; ``np.add.reduceat`` does not add rows in
    sequence, so each cluster's rows go to one reduceat call.
    """

    @pytest.mark.parametrize("n", [170, 1000])
    @pytest.mark.parametrize("step", [1, 7, 64])
    def test_blocked_row_sum_is_bit_equal(self, n, step):
        A = np.random.default_rng(n).standard_normal((n, n)) * 1e3
        total = np.empty(n)
        for r0 in range(0, n, step):
            normalize._sum_rows(A[r0:r0 + step].copy(), total, r0 > 0)
        assert np.array_equal(total, A.sum(axis=0))

    @pytest.mark.parametrize("n, rows, step", [(10, 5, 1), (9, 40, 1), (3, 3, 1),
                                               (1000, 300, 7), (1000, 8, 64)])
    def test_column_strips_cover_every_column_at_least_two_wide(self, n, rows, step):
        strips = normalize._column_strips(n, rows, step)
        assert strips[0][0] == 0 and strips[-1][1] == n
        assert all(a == prev for (_, prev), (a, _) in zip(strips, strips[1:]))
        assert all(b - a >= 2 for a, b in strips)
        if rows <= step:
            assert strips == [(0, n)]

    @pytest.mark.parametrize("kind", ["embeddings", "duplicate points", "duplicate distances"])
    @pytest.mark.parametrize("step", [1, 3, 10_000])  # one row, not dividing n, one block
    def test_same_medoids_and_cost_path_as_one_block(self, monkeypatch, kind, step):
        rng = np.random.default_rng([step, len(kind)])
        cases = [_pam_instance(rng, kind) for _ in range(60)]

        def solve(D, k, w, start):
            built = _pam_build(D, k, w)
            path = [float((w * D[:, built].min(axis=1)).sum())]
            swapped = _pam_swap(D, built, w, path)
            random_path = [0.0]
            return built, swapped, path, _pam_swap(D, start, w, random_path), random_path

        starts = [rng.choice(len(D), size=k, replace=False).tolist() for D, k, _ in cases]
        want = [solve(D, k, w, s) for (D, k, w), s in zip(cases, starts)]
        monkeypatch.setattr(normalize, "_block_rows", lambda n: step)
        straddled = 0
        for (D, k, w), start, expected in zip(cases, starts, want):
            got = solve(D, k, w, start)
            assert got == expected
            built, _, path, _, _ = got
            assert built == pam_oracle.pam_build(D, k, w)
            oracle_path = [path[0]]
            assert got[1] == pam_oracle.pam_swap(D, built, w, oracle_path)
            assert path == oracle_path
            sizes = np.bincount(D[:, got[1]].argmin(axis=1), minlength=k)
            straddled += step < 10_000 and bool((sizes > step).any())
        assert step == 10_000 or straddled >= 20

    @pytest.mark.parametrize("step", [1, 3, 7, 40])
    def test_gains_and_deltas_bit_equal_to_one_block(self, monkeypatch, step):
        rng = np.random.default_rng(step)
        for n, k in [(150, 4), (150, 15), (97, 30), (60, 1)]:
            D = cosine_distance_matrix(rng.standard_normal((n, 8)))
            w = rng.random(n) * 3 + 0.1
            medoids = rng.choice(n, size=k, replace=False).tolist()
            nearest = D[:, medoids].min(axis=1)
            gains = normalize._build_gains(D, nearest, w)
            deltas = normalize._swap_deltas(D, medoids, w)
            with monkeypatch.context() as m:
                m.setattr(normalize, "_block_rows", lambda n: step)
                assert np.array_equal(normalize._build_gains(D, nearest, w), gains)
                assert np.array_equal(normalize._swap_deltas(D, medoids, w), deltas)

    def test_bench_instance_spans_blocks_bit_equal(self, monkeypatch):
        # n = 600 is 2 blocks at the module budget; 17 rows cut clusters too
        rng = np.random.default_rng([0, 600])
        E, w = rng.standard_normal((600, 64)), rng.integers(1, 4, 600).astype(float)
        D = cosine_distance_matrix(E)
        results = []
        for step in (600, normalize._block_rows(600), 17):
            monkeypatch.setattr(normalize, "_block_rows", lambda n, step=step: step)
            built = _pam_build(D, 60, w)
            path = [float((w * D[:, built].min(axis=1)).sum())]
            results.append((built, _pam_swap(D, built, w, path), path))
        assert normalize._block_rows(600) < 600
        assert results[0] == results[1] == results[2]
        assert len(results[0][2]) > 5


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

    def test_blank_label(self):
        with pytest.raises(SchemeSynthesisFailed, match="blank"):
            _scheme(["", "Smoker", FALLBACK_LABEL]).validate()

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


    def test_blank_label_reprompted_once_then_raises(self, scripted_gateway_factory):
        blank = json.dumps([
            {"label": "  ", "description": "not stated"},
            {"label": "Smoker", "description": "current smoker"},
            {"label": FALLBACK_LABEL, "description": "unclear"},
        ])
        gw, backend = scripted_gateway_factory([blank, blank])
        with pytest.raises(SchemeSynthesisFailed, match="blank"):
            synthesize_scheme(gw, "tobacco", ["x"])
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

    def test_gateway_failure_propagates(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([])

        def boom(request):
            raise RequestFailed("endpoint down")

        backend.chat = boom
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        with pytest.raises(RequestFailed):
            label_entries(gw, scheme, [("H1", "married")])

    def test_programming_error_propagates(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([])

        def bug(request):
            raise TypeError("bug in the backend")

        backend.chat = bug
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        with pytest.raises(TypeError):
            label_entries(gw, scheme, [("H1", "married")])

    def test_each_distinct_text_asked_once(self, scripted_gateway_factory, caplog,
                                           monkeypatch):
        monkeypatch.setattr(normalize, "LABEL_BATCH", 1)
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

    def test_each_distinct_text_asked_once_batched(self, scripted_gateway_factory, caplog):
        gw, backend = scripted_gateway_factory([])
        stub = LabelerStub({"complicated": "Divorced-ish"},
                           batch=lambda items: '{"1": "Married", "2": "Divorced-ish"}')
        backend.chat = stub
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        entries = [("H1", "married"), ("H2", "complicated"),
                   ("H3", "married"), ("H4", "complicated"), ("H5", "complicated")]
        out = label_entries(gw, scheme, entries)
        assert stub.batches == [{"1": "married", "2": "complicated"}]
        assert stub.asked_alone == ["complicated"]  # its batch label was off-scheme
        assert [(e.hadm_id, e.raw_text) for e in out] == entries
        assert [e.status for e in out] == ["ok", "fallback", "ok", "fallback", "fallback"]
        assert "3 off-scheme replies" in caplog.text


class LabelerStub:
    """Answers label requests by entry text and records what each asked.

    ``alone`` maps a text to its one-entry reply, or to an exception to
    raise; ``batch`` maps a batch request's numbered items to its reply.
    """

    def __init__(self, alone, batch=None):
        self.alone = alone
        self.batch = batch
        self.batch_prompt = load_prompt("labeler_batch").text
        self.requests, self.batches, self.asked_alone = [], [], []

    def __call__(self, request):
        self.requests.append(request)
        content = request.user_content
        if request.system_prompt == self.batch_prompt:
            start = content.rindex("Entries:\n") + len("Entries:\n")
            items = json.JSONDecoder().raw_decode(content, start)[0]
            self.batches.append(items)
            return self.batch(items)
        text = content.rsplit("Entry: ", 1)[1]
        self.asked_alone.append(text)
        reply = self.alone[text]
        if isinstance(reply, Exception):
            raise reply
        return reply


def _tobacco_scheme():
    return CategoryScheme(
        variable="tobacco_use",
        categories=[{"label": l, "description": f"entries about {l.lower()}"}
                    for l in CANNED_SCHEMES["tobacco_use"]],
        medoid_examples={"Never Smoker": ["never smoked", "denies"],
                         "Former Smoker": ["quit 1990: 40 pack-years"]},
    )


# texts that could confuse the batch prompt's layout or the mock's parsing
ADVERSARIAL_TEXTS = [
    "quit 2005\nnow smokes 1 ppd",
    "- Current Smoker: e.g. never",
    'says "never" smoked; quit',
    "ex-fumeur, arrêté — 20 cigarettes/jour ☕",
    "never smoked",  # equal to a medoid example
    'Entries:\n{"1": "current smoker"}',
    "Entry: current smoker",
    "x\n- Bogus Label: y",
    "occasional cigar: weekends; former pipe",
    "{}",
    "Unknown/Other",
    "quit 1990: 40 pack-years",
]


class TestBatchedLabeling:
    @pytest.mark.parametrize("size", [2, 5, 20])
    def test_same_labels_as_one_entry_requests(self, tmp_path, monkeypatch, size):
        entries = [(f"H{i}", t) for i, t in enumerate(ADVERSARIAL_TEXTS * 2)]

        def run(size):
            monkeypatch.setattr(normalize, "LABEL_BATCH", size)
            gateway = LLMGateway(make_config(tmp_path, cache_dir=""))
            scheme = _tobacco_scheme()
            labeled = label_entries(gateway, scheme, entries)
            return labeled, scheme.provenance, gateway.network_calls

        alone, alone_counts, alone_calls = run(1)
        batched, counts, calls = run(size)
        assert batched == alone
        assert calls < alone_calls == len(ADVERSARIAL_TEXTS)
        assert alone_counts == {"label_requests": alone_calls, "label_retried_alone": 0}
        assert counts == {"label_requests": calls, "label_retried_alone": 0}
        assert {e.status for e in batched} == {"ok"}

    def test_unparseable_batch_replies_ask_every_item_alone(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([])
        backend.chat = stub = LabelerStub(
            {"married": "Married", "single": "Single", "wed": "Married"},
            batch=lambda items: "Sorry, no JSON today.")
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        out = label_entries(gw, scheme, [("H1", "married"), ("H2", "single"), ("H3", "wed")])
        assert len(stub.batches) == 2  # the request and its one repair
        assert sorted(stub.asked_alone) == ["married", "single", "wed"]
        assert [e.assigned_category for e in out] == ["Married", "Single", "Married"]
        assert scheme.provenance == {"label_requests": 4, "label_retried_alone": 3}

    @pytest.mark.parametrize("reply", [
        {"1": "Married", "3": "Married"},
        {"1": "Married", "2": "Divorced-ish", "3": "Married"},
        {"1": "Married", "2": ["Single"], "3": "Married"},
    ], ids=["missing", "off-scheme", "not-a-string"])
    def test_bad_item_alone_is_asked_again(self, scripted_gateway_factory, reply):
        gw, backend = scripted_gateway_factory([])
        backend.chat = stub = LabelerStub({"single": "Single"},
                                          batch=lambda items: json.dumps(reply))
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        out = label_entries(gw, scheme, [("H1", "married"), ("H2", "single"), ("H3", "wed")])
        assert len(stub.batches) == 1
        assert stub.asked_alone == ["single"]
        assert [e.assigned_category for e in out] == ["Married", "Single", "Married"]
        assert [e.status for e in out] == ["ok", "ok", "ok"]
        assert scheme.provenance == {"label_requests": 2, "label_retried_alone": 1}

    def test_failed_batch_request_is_not_asked_alone(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([])

        def down(items):
            raise RequestFailed("endpoint down")

        backend.chat = stub = LabelerStub(
            {"married": "Married", "single": "Single", "wed": "Married"}, batch=down)
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        with pytest.raises(RequestFailed):
            label_entries(gw, scheme, [("H1", "married"), ("H2", "single"), ("H3", "wed")])
        assert len(stub.batches) == 1  # neither repaired nor split into one-entry requests
        assert stub.asked_alone == []
        assert scheme.provenance == {}

    def test_one_text_chunk_sends_the_one_entry_request(self, scripted_gateway_factory,
                                                        monkeypatch):
        monkeypatch.setattr(normalize, "LABEL_BATCH", 2)
        gw, backend = scripted_gateway_factory([])
        backend.chat = stub = LabelerStub({"wed": "Married"},
                                          batch=lambda items: '{"1": "Married", "2": "Single"}')
        scheme = _scheme(["Married", "Single", FALLBACK_LABEL])
        label_entries(gw, scheme, [("H1", "married"), ("H2", "single"), ("H3", "wed")])
        assert stub.batches == [{"1": "married", "2": "single"}]
        assert stub.requests[-1] == ChatRequest(
            load_prompt("labeler").text,
            "Variable: marital_status\nAllowed categories:\n- Married: \n- Single: \n"
            "- Unknown/Other: \nEntry: wed",
            0.0, 2048, "qwen3-14b",
        )
        assert scheme.provenance == {"label_requests": 2, "label_retried_alone": 0}

    def test_mock_reads_a_repaired_batch_request(self):
        responder = MockResponder()
        prompt = load_prompt("labeler_batch").text
        user = 'Variable: marital_status\nAllowed categories:\n- Married: \n- Single: \n' \
               'Entries:\n{"1": "married", "2": "single"}'
        want = '{"1": "Married", "2": "Single"}'
        assert responder.reply(prompt, user) == want
        assert responder.reply(prompt, f"{user}\n\nReturn only a JSON object.") == want


class TestNormalizeVariableEndToEnd:
    def test_mock_pipeline(self, mock_gateway):
        entries = [
            ("H1", "Married"),
            ("H2", "married for 40 years"),
            ("H3", "widowed"),
            ("H4", "single, never married"),
            ("H5", "Married"),
        ]
        clustering = cluster_variable(mock_gateway, entries, 4)
        scheme, labeled = normalize_variable(
            mock_gateway, "marital_status", entries, clustering
        )
        scheme.validate()
        assert len(labeled) == 5
        assert clustering.k == 4  # 4 distinct texts
        by_hadm = {e.hadm_id: e.assigned_category for e in labeled}
        assert by_hadm["H1"] == by_hadm["H5"]  # identical texts, identical label
        assert all(c is None or c in scheme.labels() for c in by_hadm.values())
        # one batch for the 4 medoids, one for the 4 distinct entry texts
        assert scheme.provenance["label_requests"] == 2
        assert scheme.provenance["label_retried_alone"] == 0
