"""The benchmark's tracing hooks still find every function they wrap.

`perfbench/layers.py` wraps program functions by name, so renaming one
breaks the traced benchmark run, and a mock backend that stops answering
through `MockResponder.reply` would read as a `mock_llm.reply.s` of zero.
`instrument` patches modules in place, so it runs in a subprocess that
leaves this test session untouched.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import json
import layers, spans
from clinnote.config import Config
from clinnote.gateway import ChatRequest, LLMGateway, MockBackend
from clinnote.prompts import load_prompt

tracer, backend = spans.Tracer(run_id="hooks"), MockBackend()
layers.instrument(tracer, backend)
gateway = LLMGateway(Config(mock_mode=True, cache_dir=""), backend=backend)
try:
    gateway.chat(ChatRequest(load_prompt("extractor").text, "Age: 70\\nHR 88"))
finally:
    gateway.close()
print(json.dumps([[s.id, s.name, s.parent] for s in tracer.spans]))
"""


def test_instrument_wraps_every_hooked_function(tmp_path):
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    spans = {i: (name, parent) for i, name, parent in json.loads(result.stdout)}
    replies = [i for i, (name, _) in spans.items() if name == "mock_llm.reply"]
    assert len(replies) == 1, spans
    # one mock chat call: gateway.chat -> gateway.backend -> mock_llm.reply
    backend = spans[replies[0]][1]
    assert backend is not None and spans[backend][0] == "gateway.backend", spans
    assert spans[spans[backend][1]][0] == "gateway.chat", spans
