"""The benchmark's tracing hooks still find every function they wrap.

`perfbench/layers.py` wraps program functions by name, so renaming one
breaks the traced benchmark run. `instrument` patches modules in place,
so it runs in a subprocess that leaves this test session untouched.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import layers, spans
from clinnote.gateway import MockBackend
layers.instrument(spans.Tracer(run_id="hooks"), MockBackend())
"""


def test_instrument_wraps_every_hooked_function(tmp_path):
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
