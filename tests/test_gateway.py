import json
import logging
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clinnote.errors import (
    EmptyResponse,
    InvalidInput,
    ParseFailure,
    ProtocolError,
    RequestFailed,
)
from clinnote.gateway import (
    ChatRequest,
    HttpBackend,
    JsonlCache,
    LLMGateway,
    MockBackend,
    find_json,
    mock_embedding,
    strip_thinking,
)

from conftest import make_config


class TestStripThinking:
    def test_basic(self):
        clean, thinking = strip_thinking("<think>hmm</think>answer")
        assert clean == "answer"
        assert thinking == "hmm"

    def test_no_block(self):
        clean, thinking = strip_thinking("plain text")
        assert clean == "plain text"
        assert thinking is None

    def test_multiline_block(self):
        clean, thinking = strip_thinking("<think>a\nb\nc</think>\nresult line")
        assert clean == "result line"
        assert "b" in thinking

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        clean, _ = strip_thinking(text)
        again, thinking = strip_thinking(clean)
        assert again == clean
        assert thinking is None


class TestChatRequest:
    def test_empty_prompt_rejected(self):
        with pytest.raises(InvalidInput):
            ChatRequest(system_prompt="", user_content="x")
        with pytest.raises(InvalidInput):
            ChatRequest(system_prompt="x", user_content="")

    def test_negative_temperature_rejected(self):
        with pytest.raises(InvalidInput):
            ChatRequest(system_prompt="a", user_content="b", temperature=-0.1)


class TestJsonlCache:
    def test_round_trip_through_disk(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = JsonlCache(path)
        cache.put("k1", {"raw_text": "hello"})
        cache.close()
        reloaded = JsonlCache(path)
        assert reloaded.get("k1") == {"raw_text": "hello"}
        assert reloaded.get("missing") is None

    def test_overwrite_same_key(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = JsonlCache(path)
        cache.put("k", {"raw_text": "v1"})
        cache.put("k", {"raw_text": "v2"})
        cache.close()
        assert JsonlCache(path).get("k") == {"raw_text": "v2"}

    def test_no_partial_lines_on_disk(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = JsonlCache(path)
        for i in range(20):
            cache.put(f"k{i}", {"raw_text": "x" * 100})
        cache.close()
        with open(path) as fh:
            for line in fh:
                json.loads(line)  # every line is complete JSON

    def test_concurrent_puts(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = JsonlCache(path)

        def worker(base):
            for i in range(25):
                cache.put(f"{base}-{i}", {"raw_text": str(i)})

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cache.close()
        reloaded = JsonlCache(path)
        assert len(reloaded._entries) == 100

    def test_each_put_appends_one_line(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = JsonlCache(path)
        for i in range(5):
            cache.put(f"k{i % 3}", {"raw_text": str(i)})
            with open(path) as fh:
                lines = fh.readlines()
            assert len(lines) == i + 1
            assert json.loads(lines[-1]) == {"key": f"k{i % 3}", "response": {"raw_text": str(i)}}
        cache.close()
        assert JsonlCache(path).get("k1") == {"raw_text": "4"}  # the last line wins

    def test_torn_last_line_skipped(self, tmp_path, caplog):
        path = str(tmp_path / "cache.jsonl")
        cache = JsonlCache(path)
        cache.put("a", {"raw_text": "1"})
        cache.put("b", {"raw_text": "2"})
        cache.close()
        with open(path, "a") as fh:
            fh.write('{"key": "c", "respo')  # a run killed mid-write
        with caplog.at_level(logging.WARNING, logger="clinnote.gateway"):
            reloaded = JsonlCache(path)
        assert "torn" in caplog.text
        assert reloaded.get("a") == {"raw_text": "1"}
        assert reloaded.get("b") == {"raw_text": "2"}
        assert reloaded.get("c") is None
        reloaded.put("c", {"raw_text": "3"})  # lands on a line of its own
        reloaded.close()
        assert JsonlCache(path).get("c") == {"raw_text": "3"}


class TestGatewayCache:
    def test_identical_request_hits_cache(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["reply one"])
        req = ChatRequest(system_prompt="sys", user_content="user")
        first = gw.chat(req)
        second = gw.chat(req)
        assert backend.calls == 1
        assert gw.network_calls == 1
        assert gw.cache_hits == 1
        assert first.raw_text == second.raw_text == "reply one"
        assert second.cached and not first.cached

    def test_different_temperature_misses_cache(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["a", "b"])
        gw.chat(ChatRequest(system_prompt="s", user_content="u", temperature=0.0))
        gw.chat(ChatRequest(system_prompt="s", user_content="u", temperature=0.3))
        assert backend.calls == 2

    def test_cache_survives_new_gateway(self, tmp_path, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["persisted"])
        req = ChatRequest(system_prompt="s", user_content="u")
        gw.chat(req)
        gw2 = LLMGateway(make_config(tmp_path), backend=backend)
        resp = gw2.chat(req)
        assert resp.cached
        assert backend.calls == 1

    def test_thinking_stripped_before_cache(self, scripted_gateway_factory):
        gw, _ = scripted_gateway_factory(["<think>w</think>clean"])
        req = ChatRequest(system_prompt="s", user_content="u")
        assert gw.chat(req).raw_text == "clean"
        cached = gw.chat(req)
        assert cached.raw_text == "clean"
        assert cached.thinking_text == "w"

    def test_empty_reply_raises(self, scripted_gateway_factory):
        gw, _ = scripted_gateway_factory(["   "])
        with pytest.raises(EmptyResponse):
            gw.chat(ChatRequest(system_prompt="s", user_content="u"))

    def test_chat_many_preserves_order(self, mock_gateway):
        backend = MockBackend(seed=0)
        for i in range(8):
            backend.register(f"q{i}", f"r{i}")
        mock_gateway.backend = backend
        reqs = [ChatRequest(system_prompt="s", user_content=f"q{i}") for i in range(8)]
        out = mock_gateway.chat_many(reqs)
        assert [r.raw_text for r in out] == [f"r{i}" for i in range(8)]

    def test_chat_many_empty(self, mock_gateway):
        assert mock_gateway.chat_many([]) == []


class _BlockingBackend:
    """Chat backend whose calls wait on ``release``; records peak overlap."""

    def __init__(self, fail_first=False):
        self.release = threading.Event()
        self.fail_first = fail_first
        self.calls = 0
        self.inflight = 0
        self.max_inflight = 0
        self._lock = threading.Lock()

    def chat(self, request):
        with self._lock:
            self.calls += 1
            call = self.calls
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            assert self.release.wait(timeout=10)
            if self.fail_first and call == 1:
                raise RequestFailed("endpoint down")
            return f"reply to {request.user_content}"
        finally:
            with self._lock:
                self.inflight -= 1


def _run_threads(target, n):
    out = [None] * n

    def run(i):
        try:
            out[i] = target()
        except Exception as exc:  # the test inspects what each caller got
            out[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    return threads, out


class TestConcurrency:
    def test_identical_inflight_requests_coalesce(self, tmp_path):
        backend = _BlockingBackend()
        gw = LLMGateway(make_config(tmp_path, cache_dir=""), backend=backend)
        req = ChatRequest(system_prompt="s", user_content="u")
        threads, out = _run_threads(lambda: gw.chat(req), 8)
        deadline = time.monotonic() + 10
        while backend.calls < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # let the other seven reach the wait
        backend.release.set()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert backend.calls == 1
        assert gw.network_calls == 1
        assert gw.cache_hits == 7
        assert [r.raw_text for r in out] == ["reply to u"] * 8
        assert sum(r.cached for r in out) == 7

    def test_waiter_takes_over_when_first_caller_fails(self, tmp_path):
        backend = _BlockingBackend(fail_first=True)
        gw = LLMGateway(make_config(tmp_path, cache_dir=""), backend=backend)
        req = ChatRequest(system_prompt="s", user_content="u")
        threads, out = _run_threads(lambda: gw.chat(req), 4)
        time.sleep(0.2)
        backend.release.set()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert backend.calls == 2
        assert sum(isinstance(r, RequestFailed) for r in out) == 1
        assert [r.raw_text for r in out if not isinstance(r, Exception)] == ["reply to u"] * 3

    @pytest.mark.parametrize("limit", [1, 3])
    def test_map_bounds_overlap_and_keeps_order(self, tmp_path, limit):
        backend = _BlockingBackend()
        backend.release.set()
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=limit), backend=backend)

        def slow_chat(i):
            time.sleep(0.02)
            return gw.chat(ChatRequest(system_prompt="s", user_content=f"q{i}"))

        out = gw.map(slow_chat, range(12))
        assert [r.raw_text for r in out] == [f"reply to q{i}" for i in range(12)]
        assert backend.max_inflight <= limit

    def test_map_runs_calls_concurrently(self, tmp_path):
        barrier = threading.Barrier(3, timeout=10)
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=3))
        # each call returns only once three are in flight together
        assert gw.map(lambda i: (barrier.wait(), i)[1], range(6)) == list(range(6))

    def test_map_propagates_first_failure_in_input_order(self, mock_gateway):
        def fn(i):
            if i in (2, 5):
                raise ValueError(i)
            return i

        with pytest.raises(ValueError, match="2"):
            mock_gateway.map(fn, range(8))

    def test_stress_counts_each_call_once(self, tmp_path):
        # more threads than cores and a tiny switch interval, so a lost
        # counter update or a doubly sent request would show
        backend = _BlockingBackend()
        backend.release.set()
        send = backend.chat

        def slow_send(request):
            time.sleep(0.002)  # so that copies of one request overlap
            return send(request)

        backend.chat = slow_send
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=8), backend=backend)
        requests = [ChatRequest(system_prompt="s", user_content=f"q{i // 16}") for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads, out = _run_threads(lambda: gw.chat_many(requests), 1)
            threads[0].join(timeout=60)
            assert not threads[0].is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert [r.raw_text for r in out[0]] == [f"reply to {r.user_content}" for r in requests]
        assert backend.calls == gw.network_calls == 25
        assert gw.cache_hits == 375


class TestEmbeddings:
    def test_mock_embedding_deterministic_unit(self):
        a = mock_embedding("some text", seed=3)
        b = mock_embedding("some text", seed=3)
        c = mock_embedding("some text", seed=4)
        assert a == b
        assert a != c
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_embed_caches_per_text(self, mock_gateway):
        gw = mock_gateway
        first = gw.embed(["alpha", "beta"])
        calls_after_first = gw.network_calls
        second = gw.embed(["beta", "alpha", "gamma"])
        assert gw.network_calls == calls_after_first + 1  # only "gamma" fetched
        by_text = {v.source_text: v.values for v in second}
        assert np.allclose(by_text["alpha"], first[0].values)
        assert np.allclose(by_text["beta"], first[1].values)

    def test_embed_empty_list_rejected(self, mock_gateway):
        with pytest.raises(InvalidInput):
            mock_gateway.embed([])

    def test_dimension_mismatch_raises(self, tmp_path):
        class BadBackend:
            def embed(self, model, texts):
                return [[1.0, 0.0], [1.0, 0.0, 0.0]][: len(texts)]

        gw = LLMGateway(make_config(tmp_path), backend=BadBackend())
        try:
            with pytest.raises(ProtocolError):
                gw.embed(["a", "b"])
        finally:
            gw.close()


class _FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text
        self.headers = headers or {}

    def json(self):
        return self._payload


class TestHttpBackend:
    def _patch_post(self, monkeypatch, responses):
        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append({"url": url, "json": json, "headers": headers})
            result = responses[min(len(calls) - 1, len(responses) - 1)]
            if isinstance(result, Exception):
                raise result
            return result

        import requests

        monkeypatch.setattr(requests, "post", fake_post)
        return calls

    def test_chat_parses_openai_payload(self, monkeypatch):
        payload = {"choices": [{"message": {"content": "hi there"}}]}
        calls = self._patch_post(monkeypatch, [_FakeResponse(200, payload)])
        backend = HttpBackend("http://x/v1", api_key="k")
        assert backend.chat(ChatRequest(system_prompt="s", user_content="u")) == "hi there"
        assert calls[0]["url"] == "http://x/v1/chat/completions"
        assert calls[0]["headers"]["Authorization"] == "Bearer k"
        roles = [m["role"] for m in calls[0]["json"]["messages"]]
        assert roles == ["system", "user"]

    def test_retry_then_success(self, monkeypatch):
        payload = {"choices": [{"message": {"content": "ok"}}]}
        calls = self._patch_post(
            monkeypatch, [_FakeResponse(500), _FakeResponse(200, payload)]
        )
        backend = HttpBackend("http://x", max_retries=2, backoff_s=0.0)
        assert backend.chat(ChatRequest(system_prompt="s", user_content="u")) == "ok"
        assert len(calls) == 2

    def test_4xx_not_retried(self, monkeypatch):
        calls = self._patch_post(monkeypatch, [_FakeResponse(401, text="denied")])
        backend = HttpBackend("http://x", max_retries=3, backoff_s=0.0)
        with pytest.raises(RequestFailed):
            backend.chat(ChatRequest(system_prompt="s", user_content="u"))
        assert len(calls) == 1

    def test_exhausted_retries_raise(self, monkeypatch):
        calls = self._patch_post(monkeypatch, [_FakeResponse(503)])
        backend = HttpBackend("http://x", max_retries=2, backoff_s=0.0)
        with pytest.raises(RequestFailed):
            backend.chat(ChatRequest(system_prompt="s", user_content="u"))
        assert len(calls) == 3

    def _patch_sleep(self, monkeypatch):
        delays = []
        monkeypatch.setattr("clinnote.gateway.time.sleep", delays.append)
        return delays

    def test_429_retried_after_header(self, monkeypatch):
        payload = {"choices": [{"message": {"content": "ok"}}]}
        calls = self._patch_post(monkeypatch, [
            _FakeResponse(429, headers={"Retry-After": "7"}),
            _FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            _FakeResponse(200, payload),
        ])
        delays = self._patch_sleep(monkeypatch)
        backend = HttpBackend("http://x", max_retries=3, backoff_s=1.0)
        assert backend.chat(ChatRequest(system_prompt="s", user_content="u")) == "ok"
        assert len(calls) == 3
        assert delays[0] == 7.0
        assert 1.0 <= delays[1] <= 3.0  # a date is not honoured: jittered backoff

    def test_backoff_is_jittered_exponential(self, monkeypatch):
        self._patch_post(monkeypatch, [_FakeResponse(503)])
        delays = self._patch_sleep(monkeypatch)
        backend = HttpBackend("http://x", max_retries=3, backoff_s=2.0)
        with pytest.raises(RequestFailed):
            backend.chat(ChatRequest(system_prompt="s", user_content="u"))
        assert len(delays) == 3
        for attempt, delay in enumerate(delays):
            assert 0.5 * 2.0 * 2**attempt <= delay <= 1.5 * 2.0 * 2**attempt
        monkeypatch.setattr("clinnote.gateway.random.uniform", lambda a, b: b)
        delays.clear()
        with pytest.raises(RequestFailed):
            backend.chat(ChatRequest(system_prompt="s", user_content="u"))
        assert delays == [3.0, 6.0, 12.0]

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_other_4xx_not_retried(self, monkeypatch, status):
        calls = self._patch_post(monkeypatch, [_FakeResponse(status)])
        delays = self._patch_sleep(monkeypatch)
        backend = HttpBackend("http://x", max_retries=3)
        with pytest.raises(RequestFailed):
            backend.chat(ChatRequest(system_prompt="s", user_content="u"))
        assert len(calls) == 1 and delays == []

    def test_malformed_payload(self, monkeypatch):
        self._patch_post(monkeypatch, [_FakeResponse(200, {"choices": []})])
        backend = HttpBackend("http://x")
        with pytest.raises(ProtocolError):
            backend.chat(ChatRequest(system_prompt="s", user_content="u"))

    def test_embeddings_reordered_by_index(self, monkeypatch):
        payload = {
            "data": [
                {"index": 1, "embedding": [0.0, 1.0]},
                {"index": 0, "embedding": [1.0, 0.0]},
            ]
        }
        self._patch_post(monkeypatch, [_FakeResponse(200, payload)])
        backend = HttpBackend("http://x")
        assert backend.embed("m", ["a", "b"]) == [[1.0, 0.0], [0.0, 1.0]]


class TestMockBackendDeterminism:
    def test_same_seed_same_reply(self):
        req = ChatRequest(
            system_prompt="You are extracting structured information from a discharge note.",
            user_content="Chief Complaint: chest pain\n",
        )
        a = MockBackend(seed=5).chat(req)
        b = MockBackend(seed=5).chat(req)
        assert a == b


class TestFindJson:
    @pytest.mark.parametrize("text,kind,want", [
        ('Score {0-5} below:\n{"score": 3, "matches": []}', dict,
         {"score": 3, "matches": []}),
        ('Categories [draft]:\n```json\n[{"label": "A"}]\n```', list, [{"label": "A"}]),
    ])
    def test_skips_stray_bracket_in_prose(self, text, kind, want):
        assert find_json(text, kind) == want

    @pytest.mark.parametrize("kind", [dict, list])
    def test_no_value_of_kind(self, kind):
        with pytest.raises(ParseFailure):
            find_json("no {JSON} [here]", kind)
