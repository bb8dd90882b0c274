"""Single point of contact with a chat-completion + embedding endpoint.

Speaks the OpenAI-compatible JSON protocol so any local model server can
be plugged in. Every request is cached on disk keyed by a SHA-256 of the
canonicalized request, which makes interrupted runs resumable and repeat
runs free. A deterministic mock backend keeps the whole pipeline runnable
offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyResponse,
    InvalidInput,
    ParseFailure,
    ProtocolError,
    ReplyUnusable,
    RequestFailed,
    SchemaViolation,
)

log = logging.getLogger(__name__)

_THINK_RE = re.compile(r"<think>(.*?)</think>", re.DOTALL)
_FENCE_RE = re.compile(r"```(?:json)?")
_JSON_OPENERS = {dict: "{", list: "["}

MOCK_EMBED_DIM = 64


def strip_thinking(text):
    """Remove <think>...</think> blocks; returns (clean_text, thinking or None).

    Idempotent: stripping already-clean text is a no-op.
    """
    blocks = _THINK_RE.findall(text)
    clean = _THINK_RE.sub("", text).strip()
    return clean, ("\n".join(b.strip() for b in blocks) if blocks else None)


@dataclass(frozen=True)
class ChatRequest:
    system_prompt: str
    user_content: str
    temperature: float = 0.0
    max_tokens: int = 2048
    model_name: str = ""

    def __post_init__(self):
        if not self.system_prompt or not self.user_content:
            raise InvalidInput("chat prompts must be non-empty")
        if self.temperature < 0:
            raise InvalidInput("temperature must be >= 0")


@dataclass
class ChatResponse:
    raw_text: str
    thinking_text: str | None = None
    usage: dict = field(default_factory=dict)
    latency_ms: float = 0.0
    cached: bool = False


@dataclass
class EmbeddingVector:
    values: np.ndarray
    source_text: str
    model_name: str


class JsonlCache:
    """Append-only JSONL store: one {"key", "response"} line per put.

    On load the last line for a key wins. A torn last line, left by a run
    killed mid-write, is skipped with a warning and cut off the file.
    """

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._entries = {}
        torn = b""
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                for line in fh:
                    if not line.endswith(b"\n"):
                        torn = line
                        break
                    try:
                        rec = json.loads(line)
                        self._entries[rec["key"]] = rec["response"]
                    except (ValueError, KeyError, TypeError):
                        log.warning("skipping an unreadable line in cache %s", path)
        if torn:
            log.warning("skipping the torn last line of cache %s", path)
            os.truncate(path, os.path.getsize(path) - len(torn))
        self._fh = None  # append handle, opened by the first put

    def get(self, key):
        with self._lock:
            return self._entries.get(key)

    def put(self, key, response):
        with self._lock:
            self._entries[key] = response
            if self.path:
                if self._fh is None:
                    self._fh = open(self.path, "a")
                rec = {"key": key, "response": response}
                self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
                self._fh.flush()

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _chat_key(request: ChatRequest) -> str:
    canon = json.dumps(
        {
            "kind": "chat",
            "model": request.model_name,
            "system": request.system_prompt,
            "user": request.user_content,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _embed_key(model, text) -> str:
    canon = json.dumps({"kind": "embed", "model": model, "text": text}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _retry_after_s(resp):
    """The seconds a numeric Retry-After header asks for, else None."""
    try:
        seconds = float(resp.headers.get("Retry-After", ""))
    except ValueError:
        return None
    return seconds if 0 <= seconds < float("inf") else None


class HttpBackend:
    """OpenAI-compatible HTTP client with retry + jittered exponential backoff.

    Connection errors, HTTP 5xx and HTTP 429 are retried; a numeric
    Retry-After header sets the wait. Other 4xx errors are not retried.
    """

    def __init__(self, endpoint_url, api_key="", max_retries=3, backoff_s=1.0, timeout_s=120):
        self.endpoint_url = endpoint_url.rstrip("/")
        self.api_key = api_key
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s

    def _post(self, route, payload):
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_err = None
        for attempt in range(self.max_retries + 1):
            delay = None
            try:
                resp = requests.post(
                    f"{self.endpoint_url}{route}",
                    json=payload,
                    headers=headers,
                    timeout=self.timeout_s,
                )
            except requests.RequestException as exc:
                last_err = exc
            else:
                if resp.status_code == 200:
                    return resp.json()
                last_err = RequestFailed(f"HTTP {resp.status_code}: {resp.text[:200]}")
                if 400 <= resp.status_code < 500 and resp.status_code != 429:
                    break  # client errors will not improve on retry
                delay = _retry_after_s(resp)
            if attempt < self.max_retries:
                if delay is None:
                    delay = self.backoff_s * 2**attempt * random.uniform(0.5, 1.5)
                time.sleep(delay)
        raise RequestFailed(f"{route} failed after retries: {last_err}")

    def chat(self, request: ChatRequest) -> str:
        data = self._post(
            "/chat/completions",
            {
                "model": request.model_name,
                "messages": [
                    {"role": "system", "content": request.system_prompt},
                    {"role": "user", "content": request.user_content},
                ],
                "temperature": request.temperature,
                "max_tokens": request.max_tokens,
            },
        )
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat completion payload: {exc}") from exc

    def embed(self, model, texts):
        data = self._post("/embeddings", {"model": model, "input": list(texts)})
        try:
            rows = sorted(data["data"], key=lambda d: d["index"])
            return [list(map(float, r["embedding"])) for r in rows]
        except (KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embeddings payload: {exc}") from exc


def mock_embedding(text, seed=0, dim=MOCK_EMBED_DIM):
    """Deterministic unit vector from a seeded hash of the text."""
    digest = hashlib.sha256(f"{seed}:{text}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    v = rng.standard_normal(dim)
    return (v / np.linalg.norm(v)).tolist()


class MockBackend:
    """Offline stand-in: canned replies plus rule-based agent behavior."""

    def __init__(self, seed=0, responder=None):
        self.seed = seed
        self._canned = {}
        if responder is None:
            from .mock_llm import MockResponder

            responder = MockResponder(seed=seed)
        self.responder = responder

    def register(self, user_content, reply):
        """Pin an exact user_content -> reply mapping (tests)."""
        self._canned[user_content] = reply

    def chat(self, request: ChatRequest) -> str:
        if request.user_content in self._canned:
            return self._canned[request.user_content]
        return self.responder.reply(request.system_prompt, request.user_content)

    def embed(self, model, texts):
        return [mock_embedding(t, seed=self.seed) for t in texts]


class LLMGateway:
    """Cached, concurrency-limited front end over a chat/embedding backend."""

    def __init__(self, config, backend=None):
        self.config = config
        if backend is None:
            if config.mock_mode:
                backend = MockBackend(seed=config.seed)
            else:
                backend = HttpBackend(
                    config.endpoint_url,
                    api_key=config.api_key(),
                    max_retries=config.max_retries,
                )
        self.backend = backend
        cache_path = None
        if config.cache_dir:
            os.makedirs(config.cache_dir, exist_ok=True)
            cache_path = os.path.join(config.cache_dir, "llm_cache.jsonl")
        self.cache = JsonlCache(cache_path)
        self.network_calls = 0
        self.cache_hits = 0
        self._lock = threading.Lock()  # guards the counters and _inflight
        self._inflight = {}  # chat key -> Event set when its first caller is done
        # the one bound on backend calls in flight, however maps are nested
        self._slots = threading.BoundedSemaphore(config.max_concurrency)

    def chat(self, request: ChatRequest) -> ChatResponse:
        """Cached chat; identical in-flight requests share one backend call.

        The first caller of a key asks the backend. Later callers wait for
        it, holding no concurrency slot, then read the cache as hits; if it
        failed, one of them asks.
        """
        key = _chat_key(request)
        while True:
            with self._lock:
                cached = self.cache.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    break
                pending = self._inflight.get(key)
                if pending is None:
                    self._inflight[key] = threading.Event()
                    break
            pending.wait()
        if cached is not None:
            return ChatResponse(
                raw_text=cached["raw_text"],
                thinking_text=cached.get("thinking_text"),
                usage=cached.get("usage", {}),
                cached=True,
            )
        try:
            return self._fetch(key, request)
        finally:
            with self._lock:
                self._inflight.pop(key).set()

    def _fetch(self, key, request):
        with self._slots:
            start = time.monotonic()
            text = self.backend.chat(request)
            latency = (time.monotonic() - start) * 1000.0
        with self._lock:
            self.network_calls += 1
        if not text or not text.strip():
            raise EmptyResponse("endpoint returned an empty completion")
        raw, thinking = strip_thinking(text)
        usage = {
            "prompt_tokens": len(request.system_prompt.split())
            + len(request.user_content.split()),
            "completion_tokens": len(text.split()),
        }
        self.cache.put(key, {"raw_text": raw, "thinking_text": thinking, "usage": usage})
        return ChatResponse(raw_text=raw, thinking_text=thinking, usage=usage, latency_ms=latency)

    def map(self, fn, items):
        """``fn`` over ``items`` on at most max_concurrency threads.

        Backend calls made by ``fn``, also from a nested ``map``, share the
        gateway's max_concurrency slots. Results keep input order. The
        exception of the first failing item, in input order, propagates;
        items not yet started are cancelled.
        """
        items = list(items)
        workers = min(self.config.max_concurrency, len(items))
        if workers <= 1:
            return [fn(item) for item in items]
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            return list(pool.map(fn, items))
        finally:
            pool.shutdown(cancel_futures=True)

    def chat_many(self, requests):
        """``chat`` over ``requests`` through ``map``."""
        return self.map(self.chat, requests)

    def close(self):
        """Close the cache file; a later put opens it again."""
        self.cache.close()

    def embed(self, texts):
        if not texts:
            raise InvalidInput("embed() requires a non-empty list of texts")
        model = self.config.embed_model
        out = [None] * len(texts)
        missing = []
        for i, text in enumerate(texts):
            cached = self.cache.get(_embed_key(model, text))
            if cached is not None:
                out[i] = cached["values"]
            else:
                missing.append(i)
        if missing:
            with self._slots:
                vectors = self.backend.embed(model, [texts[i] for i in missing])
            with self._lock:
                self.network_calls += 1
            for i, vec in zip(missing, vectors):
                self.cache.put(_embed_key(model, texts[i]), {"values": vec})
                out[i] = vec
        dims = {len(v) for v in out}
        if len(dims) != 1:
            raise ProtocolError(f"embedding dimension mismatch in batch: {sorted(dims)}")
        return [
            EmbeddingVector(values=np.asarray(v, dtype=float), source_text=t, model_name=model)
            for v, t in zip(out, texts)
        ]


def find_json(text, kind):
    """First decodable JSON value of ``kind`` (dict or list) in a reply.

    Code fences are ignored, and so is any prose around the JSON, including
    stray brackets that do not start a decodable value.
    """
    text = _FENCE_RE.sub("", text)
    decoder = json.JSONDecoder()
    for match in re.finditer(re.escape(_JSON_OPENERS[kind]), text):
        try:
            return decoder.raw_decode(text, match.start())[0]
        except json.JSONDecodeError:
            continue
    name = "object" if kind is dict else "array"
    raise ParseFailure(f"no JSON {name} found in model reply")


def chat_with_repair(gateway, system, user, parse, repair, temperature=0.0):
    """Send an agent prompt and parse the reply, re-prompting once to repair.

    ``parse`` maps the reply text to a result, raising ParseFailure or
    SchemaViolation when it cannot. On such an error the prompt is sent once
    more with ``repair`` appended; if that reply fails too, ReplyUnusable
    carries the last reply text and parse error.
    """
    content = user
    for attempt in range(2):
        response = gateway.chat(ChatRequest(
            system, content, temperature, gateway.config.max_tokens, gateway.config.chat_model
        ))
        try:
            return parse(response.raw_text)
        except (ParseFailure, SchemaViolation) as err:
            if attempt:
                raise ReplyUnusable(str(err), response.raw_text) from err
            log.info("agent reply unusable (%s); re-prompting once", err)
        content = f"{user}\n\n{repair}"
