"""The names the benchmark patches from outside stay where it looks for them,
and its check run passes on the simulator as it is.

``perfbench/child.py`` traces the layers by replacing functions by name, and
its check run counts training rounds as calls to ``agents.backward_and_step``.
A refactor that moves one of those names leaves the benchmark's run
unchecked, so these tests fail first.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ranpower import agents
from ranpower.config import RunConfig
from ranpower.runner import run
from ranpower.scenario import StepContext

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
    )
    rounds = run(cfg, tmp_path).summary["learner"]["training_rounds"]
    assert rounds > 0
    assert len(calls) == rounds


def test_every_dqn_search_rates_through_step_context_evaluate(tmp_path, monkeypatch):
    """The benchmark times candidate rating as ``StepContext.evaluate`` and
    reads a call's plans as its first positional argument: every DQN slot
    with an active station makes at least one such call, on a (K, B) batch."""
    plans, made = [], []
    evaluate = StepContext.evaluate

    def counted(ctx, *args, **kwargs):
        plans.append(args[0])
        return evaluate(ctx, *args, **kwargs)

    monkeypatch.setattr(StepContext, "evaluate", counted)
    cfg = RunConfig(rings=1, episodes=60, search_iters=10, seed=1)
    run(cfg, tmp_path, episode_hook=lambda t, ctx, out: made.append((len(plans), ctx.any_active)))
    calls = np.diff([0] + [n for n, _ in made])
    active = np.array([a for _, a in made])
    assert active.any()
    assert np.all(calls[active] >= 1) and np.all(calls[~active] == 0)
    assert all(p.ndim == 2 and 1 <= len(p) <= cfg.search_iters and p.shape[1] == 7 for p in plans)


@pytest.mark.parametrize("keys", [
    {"agent": "dqn", "search_iters": 10, "train_interval": 5, "per_sector_users": 2},
    {"agent": "sleep", "mobility": "waypoint"},
], ids=["desk-dqn", "waypoint-sleep"])
def test_check_run_finds_no_errors(child, tmp_path, keys):
    """The benchmark's check run reads the step context and each outcome
    (``sched_site``, ``site_to_user_gain``, ``serving_gain``, ``outcome.ev``)
    and recomputes the physics and the CSV from them independently."""
    cfg = RunConfig(rings=1, episodes=200, seed=1, **keys)
    checker = child.SlotChecker(cfg)
    result = run(cfg, tmp_path, episode_hook=checker)
    assert checker.errors == []
    assert checker.expected_ee_allb
    assert checker.checks.check_csv(
        result.csv_path.read_text(), cfg.episodes,
        result.summary["ee_overall_mbps_per_dbw"], checker.expected_ee_allb,
    ) == []
