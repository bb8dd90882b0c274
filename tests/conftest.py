import pytest

from clinnote.config import Config
from clinnote.gateway import LLMGateway


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
