import json
import threading

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
        cache.put("k1", {"q": 1}, {"raw_text": "hello"})
        reloaded = JsonlCache(path)
        assert reloaded.get("k1") == {"raw_text": "hello"}
        assert reloaded.get("missing") is None

    def test_overwrite_same_key(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = JsonlCache(path)
        cache.put("k", {}, {"raw_text": "v1"})
        cache.put("k", {}, {"raw_text": "v2"})
        assert JsonlCache(path).get("k") == {"raw_text": "v2"}

    def test_no_partial_lines_on_disk(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = JsonlCache(path)
        for i in range(20):
            cache.put(f"k{i}", {}, {"raw_text": "x" * 100})
        with open(path) as fh:
            for line in fh:
                json.loads(line)  # every line is complete JSON

    def test_concurrent_puts(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = JsonlCache(path)

        def worker(base):
            for i in range(25):
                cache.put(f"{base}-{i}", {}, {"raw_text": str(i)})

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reloaded = JsonlCache(path)
        assert len(reloaded._entries) == 100


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


class TestEmbeddings:
    def test_mock_embedding_deterministic_unit(self):
        a = mock_embedding("some text", seed=3)
        b = mock_embedding("some text", seed=3)
        c = mock_embedding("some text", seed=4)
        assert a == b
        assert a != c
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_embed_caches_per_text(self, tmp_path):
        gw = LLMGateway(make_config(tmp_path))
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
        with pytest.raises(ProtocolError):
            gw.embed(["a", "b"])


class _FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text

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
