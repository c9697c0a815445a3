"""The names the benchmark patches from outside stay where it looks for them.

``perfbench/child.py`` traces the layers by replacing functions by name, and
its check run counts training rounds as calls to ``agents.backward_and_step``.
A refactor that moves one of those names leaves the benchmark's run
unchecked, so these tests fail first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ranpower import agents
from ranpower.config import RunConfig
from ranpower.runner import run

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture
def child(monkeypatch):
    """``perfbench/child.py`` as a module; the search-path entries it adds on
    import are dropped again afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_exists(child):
    tracer = child.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []


def test_training_rounds_call_backward_through_the_agents_module(tmp_path, monkeypatch):
    calls = []
    backward = agents.backward_and_step

    def counted(*args, **kwargs):
        calls.append(None)
        return backward(*args, **kwargs)

    monkeypatch.setattr(agents, "backward_and_step", counted)
    cfg = RunConfig(
        rings=1, episodes=60, search_iters=4, minibatch_size=20, replay_capacity=60,
        train_interval=5, seed=3,
    ).validate()
    rounds = run(cfg, tmp_path).summary["learner"]["training_rounds"]
    assert rounds > 0
    assert len(calls) == rounds
