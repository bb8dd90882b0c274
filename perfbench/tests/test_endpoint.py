import random

from clinnote.gateway import ChatRequest
from clinnote.prompts import load_prompt

from endpoint import UNPARSEABLE_REPLY, LatencyBackend, is_faulted


def _requests(n):
    systems = [load_prompt(name).text for name in ("extractor", "labeler", "judge")]
    return [ChatRequest(system_prompt=systems[i % 3], user_content=f"note {i}")
            for i in range(n)]


def test_fault_selection_does_not_depend_on_call_order():
    requests = _requests(600)
    backend = LatencyBackend(latency_s=0.0)
    in_order = {r: backend.chat(r) for r in requests}
    shuffled = list(requests)
    random.Random(1).shuffle(shuffled)
    fresh = LatencyBackend(latency_s=0.0)
    assert {r: fresh.chat(r) for r in shuffled} == in_order


def test_about_two_percent_of_requests_are_faulted():
    requests = _requests(5000)
    faulted = sum(is_faulted(r.system_prompt, r.user_content) for r in requests)
    assert 0.015 < faulted / len(requests) < 0.025
    backend = LatencyBackend(latency_s=0.0)
    for r in requests[:600]:
        assert (backend.chat(r) == UNPARSEABLE_REPLY) == is_faulted(
            r.system_prompt, r.user_content)


def test_scheme_synthesis_is_never_faulted():
    backend = LatencyBackend(latency_s=0.0)
    system = load_prompt("normalizer").text
    for i in range(500):
        assert backend.chat(ChatRequest(system, f"Variable: v{i}\nEntries:\n- x")) != \
            UNPARSEABLE_REPLY
