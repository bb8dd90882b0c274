"""Single point of contact with a chat-completion + embedding endpoint.

Speaks the OpenAI-compatible JSON protocol so any local model server can
be plugged in. Every request is cached on disk keyed by a SHA-256 of the
canonicalized request and the backend's identity, which makes interrupted
runs resumable and repeat runs free. A deterministic mock backend keeps the
whole pipeline runnable offline.

Threads overlap backend waits; calls that compute in this interpreter, as
the mock backend's do, run one at a time on the stage thread, where threads
would only take turns on the interpreter lock. So ``LLMGateway.map``, and
the runner, use threads (the gateway's one pool of max_concurrency workers)
only once backend calls have waited longer than they computed (``calls_wait``).

Every agent request follows one failure policy. A gateway error
(RequestFailed, EmptyResponse, ProtocolError), raised by the backend once
its retries are spent or by ``LLMGateway.chat``, is never cached and fails
the stage: it propagates out of ``map``, so running the stage again asks
only for what is not cached. A reply that still fails to parse after its
one repair raises ReplyUnusable, which the agent records as that item's
outcome.
"""

from __future__ import annotations

import contextvars
import hashlib
import itertools
import json
import logging
import os
import queue
import random
import re
import threading
import time
import weakref
from dataclasses import dataclass

import numpy as np

try:  # Linux counts, per thread, the times it blocked
    from resource import RUSAGE_THREAD, getrusage
except ImportError:
    RUSAGE_THREAD = None

from .errors import (
    EmptyResponse,
    InvalidInput,
    ParseFailure,
    ProtocolError,
    ReplyUnusable,
    RequestFailed,
    SchemaViolation,
)
from .mock_llm import MockResponder

log = logging.getLogger(__name__)

_THINK_RE = re.compile(r"<think>(.*?)</think>", re.DOTALL)
_FENCE_RE = re.compile(r"```(?:json)?")
_JSON_OPENERS = {dict: "{", list: "["}

MOCK_EMBED_DIM = 64
EMBED_BATCH = 2048  # most texts in one embeddings request; OpenAI allows 2 048

# [network calls, cache hits] of this context's requests, if set: a runner
# sets one per stage, and map runs each item in a copy of its caller's context
REQUEST_COUNTS = contextvars.ContextVar("request_counts", default=None)
# the pool starts the items of maps of a higher rank first; a runner ranks a stage
RANK = contextvars.ContextVar("rank", default=0)
# called once, on the thread whose backend call is the first seen to wait
ON_FIRST_WAIT = contextvars.ContextVar("on_first_wait", default=None)


def _thread_blocks():
    """How often the calling thread has blocked (its voluntary context
    switches), or None where the platform does not count them.

    A thread that waits on a socket or a sleep blocks; one the scheduler
    or the VM preempts does not, though its wall time runs on as well.
    """
    if RUSAGE_THREAD is None:
        return None
    return getrusage(RUSAGE_THREAD).ru_nvcsw


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
        if not 0 <= self.temperature < float("inf"):  # also false for NaN
            raise InvalidInput(f"temperature must be finite and >= 0, got {self.temperature}")


class JsonlCache:
    """Append-only JSONL store: one {"key", "response"} line per put.

    On load the last line for a key wins. A torn last line, left by a run
    killed mid-write, is skipped with a warning and cut off the file.
    An embedding response's ``values`` are held in memory as a float64
    array, 8 bytes a value where a list of floats takes 32, and written as
    the same JSON list.
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
                        response = rec["response"]
                        if "values" in response:  # an embedding, held as an array row
                            response["values"] = np.array(response["values"], dtype=float)
                        self._entries[rec["key"]] = response
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
                # an array is written as its list: the line of a list of floats
                self._fh.write(json.dumps(rec, sort_keys=True, default=np.ndarray.tolist) + "\n")
                self._fh.flush()

    def close(self):
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _chat_key(backend_id, request: ChatRequest) -> str:
    canon = json.dumps(
        {
            "kind": "chat",
            "backend": backend_id,
            "model": request.model_name,
            "system": request.system_prompt,
            "user": request.user_content,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _embed_key(backend_id, model, text) -> str:
    canon = json.dumps(
        {"kind": "embed", "backend": backend_id, "model": model, "text": text}, sort_keys=True
    )
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
                    try:
                        return resp.json()
                    except ValueError as exc:  # requests' JSONDecodeError
                        raise ProtocolError(f"{route} reply is not JSON: {exc}") from exc
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
        texts = list(texts)
        data = self._post("/embeddings", {"model": model, "input": texts})
        try:
            rows = sorted(data["data"], key=lambda d: d["index"])
            indices = [r["index"] for r in rows]
            vectors = [list(map(float, r["embedding"])) for r in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed embeddings payload: {exc}") from exc
        if indices != list(range(len(texts))):  # each text's vector exactly once
            raise ProtocolError(
                f"embedding indices {indices[:10]} are not 0..{len(texts) - 1}"
            )
        return vectors


def mock_embedding(text, seed=0, dim=MOCK_EMBED_DIM):
    """Deterministic unit vector from a seeded hash of the text."""
    digest = hashlib.sha256(f"{seed}:{text}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    v = rng.standard_normal(dim)
    return (v / np.linalg.norm(v)).tolist()


class MockBackend:
    """Offline stand-in: canned replies plus rule-based agent behavior."""

    def __init__(self, seed=0):
        self.seed = seed
        self._canned = {}
        self.responder = MockResponder(seed=seed)

    def register(self, user_content, reply):
        """Pin an exact user_content -> reply mapping (tests)."""
        self._canned[user_content] = reply

    def chat(self, request: ChatRequest) -> str:
        if request.user_content in self._canned:
            return self._canned[request.user_content]
        return self.responder.reply(request.system_prompt, request.user_content)

    def embed(self, model, texts):
        return [mock_embedding(t, seed=self.seed) for t in texts]


class _Map:
    """One threaded ``map`` call; its items start in input order."""

    def __init__(self, fn, items):
        self.fn, self.items = fn, items
        self.contexts = [contextvars.copy_context() for _ in items]  # the caller's
        self.results, self.errors = [None] * len(items), {}  # errors: index -> exception
        self.started = self.running = 0
        self.stopped = False  # after a failure no item starts
        self.changed = threading.Condition()

    def run_next(self):
        """Run the next item unless all have started or one failed; whether it ran."""
        with self.changed:
            if self.stopped or self.started == len(self.items):
                return False
            i, self.started, self.running = self.started, self.started + 1, self.running + 1
        try:
            self.results[i] = self.contexts[i].run(self.fn, self.items[i])
        except BaseException as exc:  # raised again by map, on its calling thread
            self.errors[i] = exc
        with self.changed:
            self.stopped |= i in self.errors
            self.running -= 1
            self.changed.notify_all()
        return True

    def result(self, stop=False):
        """Once no item runs and none will start (none does after ``stop``),
        the results, or else the first failing item's exception by index."""
        with self.changed:
            self.stopped |= stop
            while self.running or not (self.stopped or self.started == len(self.items)):
                self.changed.wait()
        if self.errors and not stop:
            raise self.errors[min(self.errors)]
        return self.results


_STOP = (float("inf"), 0, None)  # sorts after every item; a worker puts it back as it stops


def _work(tasks):
    """A map worker: runs the queued items, highest rank first, until it meets _STOP."""
    while (run_next := tasks.get()[2]) is not None:
        run_next()
        del run_next  # an idle worker holds no map, so an unclosed gateway can be collected
    tasks.put(_STOP)


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
        # in every cache key, so replies never cross between backends; a
        # live endpoint's keys leave out the seed, which only the mock reads
        self.backend_id = f"mock:{config.seed}" if config.mock_mode else config.endpoint_url
        cache_path = None
        if config.cache_dir:
            os.makedirs(config.cache_dir, exist_ok=True)
            cache_path = os.path.join(config.cache_dir, "llm_cache.jsonl")
        self.cache = JsonlCache(cache_path)
        self.network_calls = 0
        self.cache_hits = 0
        self._lock = threading.Lock()  # guards the counters, the balance and _inflight
        self._inflight = {}  # chat key -> Event set when its first caller is done
        # the one bound on backend calls in flight, however maps are nested
        self._slots = threading.BoundedSemaphore(config.max_concurrency)
        # seconds backend calls waited less seconds they computed, summed
        # until positive; from then on map uses threads
        self._balance_s = 0.0
        # map workers, and their queue of (-rank, submission number, _Map.run_next)
        self._workers, self._tasks = [], None
        self._submitted = itertools.count()

    @property
    def calls_wait(self):
        """Whether backend calls waited longer than they computed; once true, stays true."""
        return self._balance_s > 0

    def chat(self, request: ChatRequest) -> str:
        """The reply text, thinking stripped, from the cache or the backend.

        Identical in-flight requests share one backend call: the first
        caller of a key asks the backend. Later callers wait for it, holding
        no concurrency slot, then read the cache as hits; if it failed, one
        of them asks.
        """
        key = _chat_key(self.backend_id, request)
        while True:
            with self._lock:
                cached = self.cache.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    if (counts := REQUEST_COUNTS.get()) is not None:
                        counts[1] += 1
                    break
                pending = self._inflight.get(key)
                if pending is None:
                    self._inflight[key] = threading.Event()
                    break
            pending.wait()
        if cached is not None:
            return cached["raw_text"]
        try:
            return self._fetch(key, request)
        finally:
            with self._lock:
                self._inflight.pop(key).set()

    def _fetch(self, key, request):
        text = self._call_backend(self.backend.chat, request)
        raw, thinking = strip_thinking(text or "")
        if not raw:  # nothing but whitespace or thinking
            raise EmptyResponse("endpoint returned an empty completion")
        self.cache.put(key, {"raw_text": raw, "thinking_text": thinking})
        return raw

    def _call_backend(self, call, *args):
        """``call(*args)`` holding a slot, counted in ``network_calls``.

        Calls wait once a balance, the seconds they waited less the seconds
        they computed, turns positive; it then stays put, so the decision
        never reverses. Each call takes its thread's CPU time off the balance
        and, if its thread blocked during the call, adds its wall time less
        that CPU time. A call that was only preempted adds no wait, so a busy
        machine cannot send computing calls to threads; where blocking is
        not counted, every call's wall time less CPU is a wait.
        """
        first_wait = False
        with self._slots:  # the clocks' own cost falls in the CPU time
            blocks, cpu, wall = _thread_blocks(), time.thread_time(), time.perf_counter()
            result = call(*args)
            wall = time.perf_counter() - wall
            cpu = time.thread_time() - cpu
            blocked = blocks is None or _thread_blocks() > blocks
        with self._lock:
            self.network_calls += 1
            if (counts := REQUEST_COUNTS.get()) is not None:
                counts[0] += 1
            if self._balance_s <= 0:
                self._balance_s += (wall - cpu if blocked else 0.0) - cpu
                first_wait = self._balance_s > 0
        if first_wait and (signal := ON_FIRST_WAIT.get()) is not None:
            signal()  # on this thread, holding no lock
        return result

    def map(self, fn, items):
        """``fn`` over ``items``, on threads only once backend calls wait.

        Items run one at a time on the calling thread until backend calls
        wait (``calls_wait``; ``_call_backend``). The rest queue,
        each in a copy of the caller's context, for the gateway's one pool
        of max_concurrency workers: the highest ``RANK`` first, then in
        submission order. Backend calls made by ``fn``, also from a nested
        ``map``, share the gateway's max_concurrency slots. Results keep
        input order. After a failure no item starts; once the started ones
        finish, the first failing item's exception, in input order, propagates.
        """
        items = list(items)
        results = []
        while len(results) < len(items) and not self.calls_wait:
            results.append(fn(items[len(results)]))
        rest = items[len(results):]
        if min(self.config.max_concurrency, len(rest)) <= 1:
            return results + [fn(item) for item in rest]
        with self._lock:
            if self._tasks is None:  # daemons: a process that never calls close can exit
                self._tasks = queue.PriorityQueue()
                self._workers = [threading.Thread(target=_work, args=(self._tasks,), daemon=True)
                                 for _ in range(self.config.max_concurrency)]
                for worker in self._workers:
                    worker.start()
                weakref.finalize(self, self._tasks.put, _STOP)
            tasks, workers = self._tasks, self._workers
        job = _Map(fn, rest)
        try:
            for _ in rest:
                tasks.put((-RANK.get(), next(self._submitted), job.run_next))
            # a worker runs its own map's items too, so nested maps cannot deadlock
            while threading.current_thread() in workers and job.run_next():
                pass
            return results + job.result()
        except BaseException:  # also Ctrl-C on the waiting thread: started items finish
            job.result(stop=True)
            raise

    def chat_many(self, requests):
        """``chat`` over ``requests`` through ``map``."""
        return self.map(self.chat, requests)

    def close(self):
        """Close the cache file and stop the map workers; a later put or
        threaded map makes them again."""
        self.cache.close()
        with self._lock:
            tasks, workers, self._tasks, self._workers = self._tasks, self._workers, None, []
        if tasks is not None:
            tasks.put(_STOP)
            for worker in workers:
                worker.join()

    def embed(self, texts):
        """One embedding row per text, in input order, as an (n, d) array.

        Texts missing from the cache are sent EMBED_BATCH to a request.
        """
        if not texts:
            raise InvalidInput("embed() requires a non-empty list of texts")
        model = self.config.embed_model
        keys = [_embed_key(self.backend_id, model, text) for text in texts]
        rows = [(self.cache.get(key) or {}).get("values") for key in keys]
        missing = [i for i, row in enumerate(rows) if row is None]
        for start in range(0, len(missing), EMBED_BATCH):
            chunk = missing[start:start + EMBED_BATCH]
            vectors = self._call_backend(self.backend.embed, model, [texts[i] for i in chunk])
            if len(vectors) != len(chunk):  # checked before any vector is cached
                raise ProtocolError(f"asked for {len(chunk)} embeddings, got {len(vectors)}")
            for i, vec in zip(chunk, vectors):
                rows[i] = np.asarray(vec, dtype=float)
                self.cache.put(keys[i], {"values": rows[i]})
        dims = {len(row) for row in rows}
        if len(dims) != 1:
            raise ProtocolError(f"embedding dimension mismatch in batch: {sorted(dims)}")
        return np.array(rows, dtype=float)


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


def chat_with_repair(gateway, system, user, parse, repair, temperature=None):
    """Send an agent prompt and parse the reply, re-prompting once to repair.

    Every agent request (extractor, scheme synthesis, labeler, judge and
    summarizer) goes through here. ``parse`` maps the reply text to a
    result, raising ParseFailure or SchemaViolation when it cannot. On such
    an error the prompt is sent once more with ``repair`` appended; if that
    reply fails too, ReplyUnusable carries the last reply text and parse
    error. ``temperature`` defaults to the config's ``temperature``.
    """
    if temperature is None:
        temperature = gateway.config.temperature
    content = user
    for attempt in range(2):
        reply = gateway.chat(ChatRequest(
            system, content, temperature, gateway.config.max_tokens, gateway.config.chat_model
        ))
        try:
            return parse(reply)
        except (ParseFailure, SchemaViolation) as err:
            if attempt:
                raise ReplyUnusable(str(err), reply) from err
            log.info("agent reply unusable (%s); re-prompting once", err)
        content = f"{user}\n\n{repair}"
