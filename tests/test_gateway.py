import contextvars
import gc
import hashlib
import json
import logging
import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

import clinnote.gateway as gateway_module
from clinnote.errors import (
    EmptyResponse,
    InvalidInput,
    ParseFailure,
    ProtocolError,
    RequestFailed,
)
from clinnote.gateway import (
    MOCK_EMBED_DIM,
    ChatRequest,
    HttpBackend,
    JsonlCache,
    LLMGateway,
    MockBackend,
    _key,
    find_json,
    mock_embedding,
    strip_thinking,
)
from clinnote.fixture import build_fixture
from clinnote.prompts import load_prompt

from conftest import KeyedBackend, ScriptedBackend, make_config


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

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_non_finite_temperature_rejected(self, temperature):
        with pytest.raises(InvalidInput, match="finite"):
            ChatRequest(system_prompt="a", user_content="b", temperature=temperature)


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
        assert first == second == "reply one"

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
        assert gw2.chat(req) == "persisted"
        assert backend.calls == 1
        assert gw2.cache_hits == 1

    def test_thinking_stripped_before_cache(self, scripted_gateway_factory):
        gw, _ = scripted_gateway_factory(["<think>w</think>clean"])
        req = ChatRequest(system_prompt="s", user_content="u")
        assert gw.chat(req) == "clean"
        assert gw.chat(req) == "clean"
        assert list(gw.cache._entries.values()) == [{"raw_text": "clean", "thinking_text": "w"}]

    def test_empty_reply_raises(self, scripted_gateway_factory):
        gw, _ = scripted_gateway_factory(["   "])
        with pytest.raises(EmptyResponse):
            gw.chat(ChatRequest(system_prompt="s", user_content="u"))

    def test_thinking_only_reply_raises_and_is_not_cached(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["<think>no answer yet</think>\n", "answer"])
        req = ChatRequest(system_prompt="s", user_content="u")
        with pytest.raises(EmptyResponse):
            gw.chat(req)
        assert gw.cache._entries == {}
        assert gw.chat(req) == "answer"
        assert backend.calls == 2

    def test_chat_many_preserves_order(self, mock_gateway):
        mock_gateway.backend = KeyedBackend({f"q{i}": f"r{i}" for i in range(8)})
        reqs = [ChatRequest(system_prompt="s", user_content=f"q{i}") for i in range(8)]
        out = mock_gateway.chat_many(reqs)
        assert out == [f"r{i}" for i in range(8)]

    def test_chat_many_empty(self, mock_gateway):
        assert mock_gateway.chat_many([]) == []


class TestCacheIdentity:
    """The backend is part of every cache key: mock replies never reach a
    live run, a mock seed gets its own replies, and a live key leaves the
    seed out so a seed change does not re-bill the endpoint."""

    LIVE = dict(mock_mode=False, endpoint_url="http://127.0.0.1:9/v1")

    @staticmethod
    def _ask(tmp_path, replies, **overrides):
        """One chat and one embed; the reply and the backend calls made."""
        backend = ScriptedBackend(replies)
        gw = LLMGateway(make_config(tmp_path, **overrides), backend=backend)
        try:
            reply = gw.chat(ChatRequest("s", "u"))
            gw.embed(["a"])
            return reply, backend.calls
        finally:
            gw.close()

    def test_live_gateway_misses_a_mock_filled_cache(self, tmp_path):
        assert self._ask(tmp_path, ["mock reply"]) == ("mock reply", 2)
        assert self._ask(tmp_path, ["live reply"], **self.LIVE) == ("live reply", 2)
        assert self._ask(tmp_path, [], **self.LIVE, seed=7) == ("live reply", 0)
        assert self._ask(tmp_path, []) == ("mock reply", 0)

    def test_mock_seed_change_misses(self, tmp_path):
        self._ask(tmp_path, ["seed 0"])
        assert self._ask(tmp_path, ["seed 1"], seed=1) == ("seed 1", 2)


class _BlockingBackend:
    """Chat backend whose calls wait on ``release``, then ``delay_s``;
    records peak overlap."""

    def __init__(self, fail_first=False, delay_s=0.0):
        self.release = threading.Event()
        self.fail_first = fail_first
        self.delay_s = delay_s
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
            time.sleep(self.delay_s)
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
        assert out == ["reply to u"] * 8

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
        assert [r for r in out if not isinstance(r, Exception)] == ["reply to u"] * 3

    @pytest.mark.parametrize("limit", [1, 3])
    def test_map_bounds_overlap_and_keeps_order(self, tmp_path, limit):
        backend = _BlockingBackend(delay_s=0.02)  # calls that wait, so map uses threads
        backend.release.set()
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=limit), backend=backend)

        def slow_chat(i):
            time.sleep(0.02)
            return gw.chat(ChatRequest(system_prompt="s", user_content=f"q{i}"))

        out = gw.map(slow_chat, range(12))
        gw.close()
        assert out == [f"reply to q{i}" for i in range(12)]
        assert backend.max_inflight == limit

    def test_nested_map_reaches_but_never_exceeds_the_bound(self, tmp_path):
        backend = _BlockingBackend(delay_s=0.01)
        backend.release.set()
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=4), backend=backend)

        def inner(i):
            return gw.map(
                lambda j: gw.chat(ChatRequest(system_prompt="s", user_content=f"q{i}.{j}")),
                range(4),
            )

        out = gw.map(inner, range(4))  # up to 16 threads, 4 slots
        gw.close()
        assert out == [
            [f"reply to q{i}.{j}" for j in range(4)] for i in range(4)
        ]
        assert backend.calls == 16
        assert backend.max_inflight == 4

    def test_coalesced_waiters_hold_no_slot(self, tmp_path):
        backend = _BlockingBackend()
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=2), backend=backend)
        first, _ = _run_threads(lambda: gw.chat(ChatRequest("s", "u")), 1)
        deadline = time.monotonic() + 10
        while backend.calls < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        waiters, _ = _run_threads(lambda: gw.chat(ChatRequest("s", "u")), 3)
        time.sleep(0.1)  # the waiters reach the wait on the first call
        other, _ = _run_threads(lambda: gw.chat(ChatRequest("s", "v")), 1)
        # with both slots taken by a waiter this would never reach the backend
        while backend.calls < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert backend.max_inflight == 2
        backend.release.set()
        for t in first + waiters + other:
            t.join(timeout=10)
            assert not t.is_alive()
        assert backend.calls == gw.network_calls == 2

    def test_map_runs_calls_concurrently(self, tmp_path):
        backend = _BlockingBackend(delay_s=0.01)
        backend.release.set()
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=3), backend=backend)
        gw.chat(ChatRequest("s", "u"))  # a call that waits: map now uses threads
        barrier = threading.Barrier(3, timeout=10)
        # each call returns only once three are in flight together
        assert gw.map(lambda i: (barrier.wait(), i)[1], range(6)) == list(range(6))
        gw.close()

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
            gw.close()
        assert out[0] == [f"reply to {r.user_content}" for r in requests]
        assert backend.calls == gw.network_calls == 25
        assert gw.cache_hits == 375


class _Overriding(MockBackend):
    """Replaces the mock's chat without saying whether it waits, as
    perfbench's LatencyBackend does."""

    def chat(self, request):
        return "reply"


class _SaysItComputes(MockBackend):
    waits = False

    def chat(self, request):
        time.sleep(0.002)  # still taken at its word
        return "reply"


class TestThreadsOnlyForWaits:
    def test_computing_backend_keeps_every_item_on_the_calling_thread(self, tmp_path):
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=4))
        notes = [row["text"] for row in build_fixture(seed=0)[2]][:16]
        system = load_prompt("extractor").text
        threads = []

        def ask(note):
            threads.append(threading.get_ident())
            return gw.chat(ChatRequest(system, note))

        def inner(i):
            threads.append(threading.get_ident())
            return gw.map(ask, notes[4 * i:4 * i + 4])

        out = gw.map(inner, range(4))
        assert [reply for replies in out for reply in replies] == [
            gw.backend.chat(ChatRequest(system, note)) for note in notes
        ]
        assert gw.network_calls == 16
        assert threads == [threading.get_ident()] * 20

    def test_all_cache_hits_start_no_thread(self, tmp_path, monkeypatch):
        requests = [ChatRequest("s", f"q{i}") for i in range(8)]
        replies = [f"reply to q{i}" for i in range(8)]
        backend = _BlockingBackend(delay_s=0.01)
        backend.release.set()
        filler = LLMGateway(make_config(tmp_path), backend=backend)
        assert filler.map(filler.chat, requests) == replies
        filler.close()
        monkeypatch.setattr(gateway_module, "_Map", None)  # a threaded map would fail
        gw = LLMGateway(make_config(tmp_path), backend=backend)
        assert gw.map(gw.chat, requests) == replies
        assert gw._workers == []  # and no worker was started
        assert gw.network_calls == 0
        assert gw.cache_hits == 8
        gw.close()

    def test_waiting_backend_moves_the_rest_to_threads(self, tmp_path):
        backend = _BlockingBackend(delay_s=0.01)
        backend.release.set()
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=4), backend=backend)
        first = []

        def ask(i):
            reply = gw.chat(ChatRequest("s", f"q{i}"))
            if i == 0:
                first.append((threading.get_ident(), backend.max_inflight))
            return reply

        assert gw.map(ask, range(13)) == [f"reply to q{i}" for i in range(13)]
        gw.close()
        assert first == [(threading.get_ident(), 1)]  # the first call ran alone
        assert backend.max_inflight == 4

    def test_serial_failure_stops_before_later_items(self, tmp_path):
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=4))
        called = []

        def fn(i):
            called.append(i)
            if i == 2:
                raise ValueError(i)
            return gw.chat(ChatRequest("s", f"q{i}"))

        with pytest.raises(ValueError, match="2"):
            gw.map(fn, range(8))
        assert called == [0, 1, 2]

    @pytest.mark.parametrize("make_backend, waits", [
        (MockBackend, False),
        (_Overriding, True),
        (_SaysItComputes, False),
        (lambda: ScriptedBackend(["reply"] * 8), True),  # a plain class without waits
    ], ids=["mock", "overriding-mock", "says-it-computes", "plain"])
    def test_calls_wait_as_the_backend_class_declares(self, tmp_path, make_backend, waits):
        gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=4),
                        backend=make_backend())
        threads = []

        def ask(i):
            threads.append(threading.get_ident())
            return gw.chat(ChatRequest("s", f"q{i}"))

        assert len(gw.map(ask, range(8))) == 8
        gw.close()
        assert gw.calls_wait == waits
        # the first item runs on the calling thread; the rest too unless calls wait
        on_caller = [thread == threading.get_ident() for thread in threads]
        assert on_caller == [True] + [not waits] * 7


def _waiting_gateway(tmp_path, limit):
    """A gateway over a backend whose calls sleep 5 ms, after one call, so
    that its maps use the worker pool."""
    backend = _BlockingBackend(delay_s=0.005)
    backend.release.set()
    gw = LLMGateway(make_config(tmp_path, cache_dir="", max_concurrency=limit), backend=backend)
    gw.chat(ChatRequest("s", "first"))
    assert gw.calls_wait
    return gw, backend


def _in_daemon(target):
    """Run ``target`` on a daemon thread, so a deadlock cannot keep pytest
    from exiting; returns the thread and a list that gets its result."""
    out = []
    thread = threading.Thread(target=lambda: out.append(target()), daemon=True)
    thread.start()
    return thread, out


class TestMapPool:
    @pytest.mark.parametrize("limit", [1, 2])
    def test_nested_map_completes(self, tmp_path, limit):
        gw, backend = _waiting_gateway(tmp_path, limit)

        def inner(i):  # on a worker, behind the outer map's unstarted items
            return gw.map(lambda j: gw.chat(ChatRequest("s", f"q{i}.{j}")), range(3))

        thread, out = _in_daemon(lambda: gw.map(inner, range(6)))
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert out == [[[f"reply to q{i}.{j}" for j in range(3)] for i in range(6)]]
        assert backend.max_inflight <= limit
        workers = list(gw._workers)
        assert len(workers) == (limit if limit > 1 else 0)
        gw.close()
        assert not any(worker.is_alive() for worker in workers)

    def test_failure_stops_the_map_and_raises_the_first_in_input_order(self, tmp_path):
        gw, _ = _waiting_gateway(tmp_path, 2)
        started, finished = [], []

        def fn(i):
            started.append(i)
            try:
                if i == 2:  # fails last, but comes first
                    time.sleep(0.05)
                    raise ValueError(i)
                if i == 3:
                    raise ValueError(i)
                time.sleep(0.01)
                return i
            finally:
                finished.append(i)

        with pytest.raises(ValueError, match="2"):
            gw.map(fn, range(8))
        assert sorted(finished) == sorted(started) == [0, 1, 2, 3]
        time.sleep(0.05)
        assert len(started) == 4  # nor did any start later
        gw.close()

    def test_queue_starts_the_highest_rank_first(self, tmp_path):
        gw, _ = _waiting_gateway(tmp_path, 2)
        holding, order = threading.Semaphore(0), []
        release = [threading.Event(), threading.Event()]

        def hold(i):
            holding.release()
            assert release[i].wait(10)

        def ranked_map(rank, name):
            context = contextvars.copy_context()
            context.run(gateway_module.RANK.set, rank)
            return context.run(gw.map, lambda i: order.append((name, i)), range(3))

        threads = [_in_daemon(lambda: gw.map(hold, range(2)))[0]]
        for _ in range(2):  # both workers are held
            assert holding.acquire(timeout=10)
        for rank, name in ((0, "low"), (1, "mid"), (6, "high"), (1, "mid again")):
            queued = gw._tasks.qsize() + 3
            threads.append(_in_daemon(lambda rank=rank, name=name: ranked_map(rank, name))[0])
            deadline = time.monotonic() + 10
            while gw._tasks.qsize() < queued and time.monotonic() < deadline:
                time.sleep(0.001)
        release[0].set()  # one worker takes the queued items, one at a time
        for thread in threads[1:]:
            thread.join(timeout=10)
            assert not thread.is_alive()
        release[1].set()
        assert [name for name, _ in order] == (
            ["high"] * 3 + ["mid"] * 3 + ["mid again"] * 3 + ["low"] * 3)
        gw.close()

    def test_collected_gateway_stops_its_workers(self, tmp_path):
        """Idle workers hold no map, so a gateway that is never closed is
        collected, and that stops its pool."""
        gw, _ = _waiting_gateway(tmp_path, 4)
        replies = gw.map(gw.chat, [ChatRequest("s", f"q{i}") for i in range(8)])
        assert replies == [f"reply to q{i}" for i in range(8)]
        workers = list(gw._workers)
        assert len(workers) == 4
        del gw
        gc.collect()
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)

    def test_process_that_never_closes_its_gateway_exits(self, tmp_path):
        code = textwrap.dedent("""
            import time
            from clinnote.config import Config
            from clinnote.gateway import ChatRequest, LLMGateway, MockBackend

            class Sleeping(MockBackend):
                def chat(self, request):
                    time.sleep(0.01)
                    return "reply"

            config = Config(mock_mode=True, cache_dir="", max_concurrency=4)
            gateway = LLMGateway(config, backend=Sleeping())
            replies = gateway.map(gateway.chat, [ChatRequest("s", f"q{i}") for i in range(12)])
            print(len(gateway._workers), len(replies))
        """)
        src = os.path.dirname(os.path.dirname(gateway_module.__file__))
        began = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["4", "12"]
        assert time.monotonic() - began < 20


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
        assert second.shape == (3, MOCK_EMBED_DIM)
        assert np.array_equal(second[:2], first[::-1])

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

    def test_dimension_mismatch_caches_nothing(self, tmp_path):
        class BadBackend:
            def embed(self, model, texts):
                return [[1, 0], [1, 0, 0]]

        cfg = make_config(tmp_path)
        gw = LLMGateway(cfg, backend=BadBackend())
        try:
            with pytest.raises(ProtocolError, match=r"mismatch in batch: \[2, 3\]"):
                gw.embed(["a", "b"])
        finally:
            gw.close()
        keys = [_key(kind="embed", backend=gw.backend_id, model=cfg.embed_model, text=t)
                for t in "ab"]
        for cache in (gw.cache, JsonlCache(gw.cache.path)):
            assert [cache.get(key) for key in keys] == [None, None]

    def test_reply_checked_against_the_rows_already_held(self, tmp_path):
        class Wide(MockBackend):
            def embed(self, model, texts):
                return [[*row, 0.0] for row in super().embed(model, texts)]

        cfg = make_config(tmp_path)
        gw = LLMGateway(cfg)
        try:
            gw.embed(["a"])
            gw.backend = Wide()
            with pytest.raises(ProtocolError, match="mismatch"):
                gw.embed(["a", "b"])
        finally:
            gw.close()
        key = _key(kind="embed", backend=gw.backend_id, model=cfg.embed_model, text="b")
        assert gw.cache.get(key) is None

    def test_older_cache_rows_of_two_dimensions_raise(self, tmp_path):
        cfg = make_config(tmp_path)
        os.makedirs(cfg.cache_dir)
        with open(os.path.join(cfg.cache_dir, "llm_cache.jsonl"), "w") as fh:
            for text, row in {"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]}.items():
                key = _key(kind="embed", backend=f"mock:{cfg.seed}", model=cfg.embed_model,
                           text=text)
                fh.write(json.dumps({"key": key, "response": {"values": row}}) + "\n")
        gw = LLMGateway(cfg)
        try:
            with pytest.raises(ProtocolError, match="mismatch"):
                gw.embed(["a", "b"])
        finally:
            gw.close()
        assert gw.network_calls == 0

    def test_short_reply_raises_before_caching(self, tmp_path):
        asked = []

        class Short(MockBackend):
            def embed(self, model, texts):
                return super().embed(model, texts)[:-1]

        class Recording(MockBackend):
            def embed(self, model, texts):
                asked.append(list(texts))
                return super().embed(model, texts)

        gw = LLMGateway(make_config(tmp_path), backend=Short())
        try:
            with pytest.raises(ProtocolError, match="asked for 3 embeddings, got 2"):
                gw.embed(["a", "b", "c"])
            gw.backend = Recording()
            vectors = gw.embed(["a", "b", "c"])
        finally:
            gw.close()
        assert asked == [["a", "b", "c"]]
        assert vectors.tolist() == [mock_embedding(t) for t in "abc"]


    def test_missing_texts_sent_in_capped_requests(self, tmp_path, monkeypatch):
        monkeypatch.setattr("clinnote.gateway.EMBED_BATCH", 2)
        asked = []

        class Recording(MockBackend):
            def embed(self, model, texts):
                asked.append(list(texts))
                return super().embed(model, texts)

        gw = LLMGateway(make_config(tmp_path, cache_dir=""), backend=Recording())
        texts = ["e", "d", "c", "b", "a"]
        rows = gw.embed(texts)
        assert [len(batch) for batch in asked] == [2, 2, 1]
        assert gw.network_calls == 3
        assert rows.tolist() == [mock_embedding(t) for t in texts]

    def test_short_chunk_caches_only_the_chunks_before_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr("clinnote.gateway.EMBED_BATCH", 2)
        asked = []

        class Recording(MockBackend):
            """Records each request; drops a vector from request number ``short``."""

            short = 2

            def embed(self, model, texts):
                asked.append(list(texts))
                vectors = super().embed(model, texts)
                return vectors[:-1] if len(asked) == self.short else vectors

        gw = LLMGateway(make_config(tmp_path, cache_dir=""), backend=Recording())
        texts = ["a", "b", "c", "d", "e"]
        with pytest.raises(ProtocolError, match="asked for 2 embeddings, got 1"):
            gw.embed(texts)
        asked.clear()
        gw.backend.short = None
        assert gw.embed(texts).tolist() == [mock_embedding(t) for t in texts]
        assert asked == [["c", "d"], ["e"]]

    def test_rows_held_as_float64_arrays(self, tmp_path):
        cfg = make_config(tmp_path)
        gw = LLMGateway(cfg)
        try:
            gw.embed(["alpha", "beta"])
        finally:
            gw.close()
        key = _key(kind="embed", backend=gw.backend_id, model=cfg.embed_model, text="alpha")
        reloaded = JsonlCache(gw.cache.path)
        for cache in (gw.cache, reloaded):
            row = cache.get(key)["values"]
            assert isinstance(row, np.ndarray) and row.dtype == np.float64
            assert row.tolist() == mock_embedding("alpha")

    def test_cache_bytes_unchanged(self, tmp_path):
        gw = LLMGateway(make_config(tmp_path))
        try:
            gw.embed(["alpha", "beta"])
        finally:
            gw.close()
        with open(gw.cache.path, "rb") as fh:
            data = fh.read()
        # the file that a cache holding lists of floats wrote for these rows
        assert hashlib.sha256(data).hexdigest() == (
            "516db07b8736211c215bbe359943e2bd640e755299268e2b3d882a298afff2fc")
        assert data == b"".join(
            json.dumps({"key": _key(kind="embed", backend=gw.backend_id,
                                    model=gw.config.embed_model, text=text),
                        "response": {"values": mock_embedding(text)}},
                       sort_keys=True).encode() + b"\n"
            for text in ("alpha", "beta"))

    def test_list_written_cache_loads_the_same_rows(self, tmp_path):
        cfg = make_config(tmp_path)
        values = {"a": [0.1, 1 / 3, -0.0, 5e-324], "b": [0.1 + 0.2, -2.5, 1e300, 7.0]}
        os.makedirs(cfg.cache_dir)
        with open(os.path.join(cfg.cache_dir, "llm_cache.jsonl"), "w") as fh:
            for text, row in values.items():
                key = _key(kind="embed", backend=f"mock:{cfg.seed}", model=cfg.embed_model,
                           text=text)
                fh.write(json.dumps({"key": key, "response": {"values": row}},
                                    sort_keys=True) + "\n")

        class NoEmbed(MockBackend):
            def embed(self, model, texts):
                raise AssertionError("every row should come from the cache")

        gw = LLMGateway(cfg, backend=NoEmbed())
        try:
            rows = gw.embed(["b", "a"])
        finally:
            gw.close()
        assert rows.dtype == np.float64
        assert rows.tobytes() == np.array([values["b"], values["a"]]).tobytes()
        assert gw.network_calls == 0


class _FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text
        self.headers = headers or {}

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
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
        with pytest.raises(RequestFailed) as failed:
            backend.chat(ChatRequest(system_prompt="s", user_content="u"))
        assert len(calls) == 1 and delays == []
        assert "not retried" in str(failed.value) and "after retries" not in str(failed.value)

    def test_malformed_payload(self, monkeypatch):
        self._patch_post(monkeypatch, [_FakeResponse(200, {"choices": []})])
        backend = HttpBackend("http://x")
        with pytest.raises(ProtocolError):
            backend.chat(ChatRequest(system_prompt="s", user_content="u"))

    def test_non_json_body_is_protocol_error(self, monkeypatch):
        import requests

        body = requests.JSONDecodeError("Expecting value", "<html>", 0)
        calls = self._patch_post(monkeypatch, [_FakeResponse(200, body)])
        backend = HttpBackend("http://x", max_retries=2)
        with pytest.raises(ProtocolError):
            backend.chat(ChatRequest(system_prompt="s", user_content="u"))
        with pytest.raises(ProtocolError):
            backend.embed("m", ["a"])
        assert len(calls) == 2

    def test_non_numeric_embedding_is_protocol_error(self, monkeypatch):
        payload = {"data": [{"index": 0, "embedding": [0.5, "n/a"]}]}
        self._patch_post(monkeypatch, [_FakeResponse(200, payload)])
        with pytest.raises(ProtocolError):
            HttpBackend("http://x").embed("m", ["a"])

    @pytest.mark.parametrize("indices", [[0, 0, 2], [1, 2, 3], [0, 1]])
    def test_embedding_indices_must_be_each_text_once(self, monkeypatch, indices):
        payload = {"data": [{"index": i, "embedding": [float(i), 1.0]} for i in indices]}
        self._patch_post(monkeypatch, [_FakeResponse(200, payload)])
        with pytest.raises(ProtocolError, match="indices"):
            HttpBackend("http://x").embed("m", ["a", "b", "c"])

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
