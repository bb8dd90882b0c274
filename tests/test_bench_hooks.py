"""The benchmark scripts still find every program name they use.

`perfbench/layers.py` wraps program functions by name, so renaming one
breaks the traced benchmark run, and a mock backend that stops answering
through `MockResponder.reply` would read as a `mock_llm.reply.s` of zero.
`instrument` patches modules in place, so it runs in a subprocess that
leaves this test session untouched.

The scripts under `perfbench/` and `bench/`, and perfbench's own tests,
which this suite does not collect, also import program names and reach
into program modules by attribute; each of those must still resolve.
"""

import ast
import importlib
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


BENCH_SOURCES = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("perfbench/tests/*.py"),
                        *ROOT.glob("bench/*.py")])


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value)):
        return f"{base}.{node.attr}"
    return None


def _program_names(tree):
    """(line, dotted name) of every ``from clinnote... import name`` and
    every ``clinnote.module.Name[.attr]`` in a parsed file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level \
                and node.module.partition(".")[0] == "clinnote":
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Attribute) and (name := _dotted(node)) \
                and name.startswith("clinnote."):
            yield node.lineno, name


def _resolves(name):
    """Whether ``name`` imports as a module, or is an attribute chain on the
    longest prefix of it that does."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False


def test_benchmark_scripts_find_every_program_name():
    checked, missing = set(), []
    for path in BENCH_SOURCES:
        for line, name in _program_names(ast.parse(path.read_text(), str(path))):
            checked.add(name)
            if not _resolves(name):
                missing.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert {"clinnote.cohort.filter_hf_cohort", "clinnote.errors.JudgeFailed",
            "clinnote.gateway.MockBackend"} <= checked
    assert not missing, missing
