"""The endpoint stand-in for the `endpoint_latency` workload.

It answers like the program's own mock backend, after a fixed sleep per
chat request and per embedding batch, and returns an unparseable reply to
about 2% of chat requests. The faulty requests are picked by a hash of the
request's system and user text, never by call order, so a run gives the
same outputs however its requests are scheduled.
"""

from __future__ import annotations

import hashlib
import time

from clinnote.gateway import MockBackend
from clinnote.prompts import load_prompt

FAULT_MODULUS = 50  # one request in 50 gets the unparseable reply
UNPARSEABLE_REPLY = "Sorry, I am unable to produce the requested format right now."


def is_faulted(system_prompt, user_content):
    digest = hashlib.sha256(f"{system_prompt}\x00{user_content}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % FAULT_MODULUS == 0


class LatencyBackend(MockBackend):
    def __init__(self, latency_s, seed=0):
        super().__init__(seed=seed)
        self.latency_s = latency_s
        # Scheme synthesis has no fallback: two bad replies in a row stop the
        # run. Its requests are never faulted, so no seed can end a run early.
        self._never_faulted = load_prompt("normalizer").text

    def chat(self, request):
        time.sleep(self.latency_s)
        if request.system_prompt != self._never_faulted and is_faulted(
            request.system_prompt, request.user_content
        ):
            return UNPARSEABLE_REPLY
        return super().chat(request)

    def embed(self, model, texts):
        time.sleep(self.latency_s)
        return super().embed(model, texts)
