import threading

import pytest

from clinnote import gateway as gateway_module
from clinnote.config import Config
from clinnote.gateway import LLMGateway


def _map_workers():
    return {t for t in threading.enumerate() if getattr(t, "_target", None) is gateway_module._work}


@pytest.fixture(autouse=True)
def no_map_workers_left_running():
    """Fail a test that leaves gateway map workers running after its teardown.

    A gateway that is not closed stops its workers only once it is
    collected, which wakes them in whatever test runs then. No garbage is
    collected here, so the leak fails the test that made it.
    """
    before = _map_workers()
    yield
    left = _map_workers() - before
    assert not left, f"{len(left)} map workers still running; close the gateway"


def make_config(tmp_path, **overrides):
    defaults = dict(mock_mode=True, cache_dir=str(tmp_path / "cache"), seed=0)
    defaults.update(overrides)
    return Config(**defaults)


@pytest.fixture
def mock_gateway(tmp_path):
    gateway = LLMGateway(make_config(tmp_path))
    yield gateway
    gateway.close()


class ScriptedBackend:
    """Backend replaying a fixed list of replies; counts calls."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def chat(self, request):
        self.calls += 1
        if not self.replies:
            raise AssertionError("scripted backend exhausted")
        return self.replies.pop(0)

    def embed(self, model, texts):
        self.calls += 1
        return [[1.0, 0.0] for _ in texts]


@pytest.fixture
def scripted_gateway_factory(tmp_path):
    made = []

    def factory(replies, **overrides):
        cfg = make_config(tmp_path, **overrides)
        backend = ScriptedBackend(replies)
        made.append(LLMGateway(cfg, backend=backend))
        return made[-1], backend

    yield factory
    for gateway in made:
        gateway.close()
