import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Span, Tracer, covered_length, nearest_ancestor, self_times


def _span(id, name, start, end, parent):
    return Span(id, name, start, end, parent, "r")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "stage", 0.0, 10.0, None),
        _span(1, "a", 1.0, 3.0, 0),
        _span(2, "b", 2.0, 5.0, 0),  # overlaps a, as a worker thread would
        _span(3, "c", 6.0, 7.0, 0),
        _span(4, "a.child", 1.5, 2.0, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    # self times of a tree without overlap add up to the root's duration
    flat = [s for s in spans if s.id != 2]
    assert sum(self_times(flat).values()) == pytest.approx(10.0)


def test_covered_length_clips_to_the_span():
    assert covered_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([], 0.0, 10.0) == 0.0


def test_nearest_ancestor_skips_unnamed_layers():
    spans = [_span(0, "extract", 0, 4, None), _span(1, "gateway.chat", 1, 3, 0),
             _span(2, "gateway.cache.get", 1, 2, 1), _span(3, "gateway.chat", 5, 6, None)]
    assert nearest_ancestor(spans, {"extract"}) == {0: None, 1: 0, 2: 0, 3: None}


def test_spans_in_worker_threads_find_the_caller():
    tracer = Tracer("r")
    stage = tracer.begin("pipeline.stage.extract")

    def work(_):
        span = tracer.begin("gateway.chat")
        tracer.end(span)

    with ThreadPoolExecutor(max_workers=3) as pool:
        list(pool.map(work, range(6)))
    tracer.end(stage)
    chats = [s for s in tracer.spans if s.name == "gateway.chat"]
    assert len(chats) == 6 and all(s.parent == stage.id for s in chats)


def test_wrap_records_spans_results_and_errors():
    def double(x):
        if x < 0:
            raise ValueError(x)
        return 2 * x

    module = types.SimpleNamespace(double=double)
    tracer = Tracer("r")
    seen, errors = [], []
    tracer.wrap(module, "double", "m.double",
                on_call=lambda result, args, kwargs: seen.append(result),
                on_error=errors.append)
    assert module.double(3) == 6
    with pytest.raises(ValueError):
        module.double(-1)
    assert seen == [6] and len(errors) == 1
    assert [s.name for s in tracer.spans] == ["m.double", "m.double"]
    assert all(s.end >= s.start for s in tracer.spans)


def test_wrap_endpoint_counts_overlapping_calls():
    barrier = threading.Barrier(3, timeout=10)

    class Backend:
        def chat(self, request):
            barrier.wait()
            return "ok"

        def embed(self, model, texts):
            return [[0.0] for _ in texts]

    backend, tracer = Backend(), Tracer("r")
    tracer.wrap_endpoint(backend)
    with ThreadPoolExecutor(max_workers=3) as pool:
        assert list(pool.map(backend.chat, range(3))) == ["ok"] * 3
    assert tracer.max_inflight == 3 and tracer.inflight == 0
