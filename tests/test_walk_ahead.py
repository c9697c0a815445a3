"""Moving users walked ahead of the slot loop in a forked mobility process.

``runner.run`` forks that process for waypoint runs when ``os.fork`` exists
and ``runner.usable_cpus`` reads at least two; these tests set the count
themselves, so they hold on any host that can fork.
"""

import functools
import hashlib
import json
import os
import signal

import pytest

from ranpower import cli, runner
from ranpower.config import AGENTS, RunConfig
from ranpower.errors import RanPowerError
from ranpower.scenario import Scenario

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(runner, "usable_cpus", lambda: n)


def assert_reaped(pid):
    """``pid`` is no longer a child of this process, not even a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def digests(out):
    """sha256 of ``metrics.csv``, ``weights.bin`` (or None) and ``summary.json``
    without the fields that differ by construction between two runs."""
    summary = json.loads((out / "summary.json").read_text())
    del summary["wall_clock_s"], summary["config"]["out_dir"]
    weights = out / "weights.bin"
    return (
        hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest(),
        hashlib.sha256(weights.read_bytes()).hexdigest() if weights.exists() else None,
        json.dumps(summary, sort_keys=True),
    )


def waypoint_cfg(**kw):
    base = dict(rings=2, agent="sleep", mobility="waypoint", user_speed_mps=300.0,
                episodes=300, seed=7)
    return RunConfig(**{**base, **kw})


@pytest.mark.parametrize("speed", [1.0, 300.0])
@pytest.mark.parametrize("rings", [0, 1, 2])
@pytest.mark.parametrize("agent", AGENTS)
def test_walk_ahead_writes_the_bytes_of_an_in_process_walk(tmp_path, monkeypatch, forks,
                                                           agent, rings, speed):
    """The same run with its users walked in a forked process and in this
    one writes the same ``metrics.csv``, ``weights.bin`` and summary.  The
    DQN trains every fifth slot and syncs every third round, so its weights
    carry what the moving gains fed it."""
    cfg = waypoint_cfg(rings=rings, agent=agent, user_speed_mps=speed, episodes=80,
                       search_iters=10, minibatch_size=16, train_interval=5,
                       sync_interval=3, seed=rings + 1)
    set_cpus(monkeypatch, 2)
    runner.run(cfg, tmp_path / "ahead")
    assert len(forks) == 1
    set_cpus(monkeypatch, 1)
    runner.run(cfg, tmp_path / "here")
    assert len(forks) == 1
    if agent == "dqn":
        assert json.loads((tmp_path / "here" / "summary.json").read_text())[
            "learner"]["training_rounds"] > 0
    assert digests(tmp_path / "ahead") == digests(tmp_path / "here")


def test_no_mobility_process_outlives_a_run(tmp_path, monkeypatch, forks):
    """A run reaps its one mobility process when it returns, and when an
    ``episode_hook`` raises at slot 3 while the process is still walking."""
    set_cpus(monkeypatch, 2)
    runner.run(waypoint_cfg(episodes=20), tmp_path / "done")
    assert len(forks) == 1
    assert_reaped(forks[0])

    def stop(t, ctx, outcome):
        if t == 3:
            raise RuntimeError("stopped at slot 3")

    with pytest.raises(RuntimeError, match="slot 3"):
        runner.run(waypoint_cfg(), tmp_path / "stopped", episode_hook=stop)
    assert len(forks) == 2
    assert_reaped(forks[1])
    assert not (tmp_path / "stopped" / "metrics.csv").exists()


def kill_the_mobility_process(forks, t, ctx, outcome):
    if t == 3:
        os.kill(forks[-1], signal.SIGKILL)


def test_a_killed_mobility_process_fails_the_run(tmp_path, monkeypatch, forks):
    """Once the slots the killed process wrote are read, the run raises
    ``RanPowerError`` naming the signal, reaps the process and writes no
    ``metrics.csv``."""
    set_cpus(monkeypatch, 2)
    with pytest.raises(RanPowerError, match=r"mobility process ended early \(killed by signal 9\)"):
        runner.run(waypoint_cfg(), tmp_path / "out",
                   episode_hook=functools.partial(kill_the_mobility_process, forks))
    assert len(forks) == 1
    assert_reaped(forks[0])
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_a_failing_mobility_process_names_its_error(tmp_path, monkeypatch, forks, capfd):
    """A mobility process that raises prints one line naming the exception
    and exits 1; the run raises ``RanPowerError`` with that status."""
    walks = []
    real_walk = Scenario.walk

    def walk_then_fail(self, rng):
        walks.append(None)  # the child's copy of the list counts its walks
        if len(walks) == 3:
            raise MemoryError("no room for slot 3")
        real_walk(self, rng)

    monkeypatch.setattr(Scenario, "walk", walk_then_fail)
    set_cpus(monkeypatch, 2)
    with pytest.raises(RanPowerError, match=r"mobility process ended early \(exit status 1\)"):
        runner.run(waypoint_cfg(), tmp_path / "out")
    assert capfd.readouterr().err == "mobility process: MemoryError: no room for slot 3\n"
    assert walks == []
    assert len(forks) == 1
    assert_reaped(forks[0])
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_cli_exits_two_when_the_mobility_process_dies(tmp_path, monkeypatch, forks, capsys):
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run", functools.partial(
        runner.run, episode_hook=functools.partial(kill_the_mobility_process, forks)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rings = 2\nagent = sleep\nmobility = waypoint\nepisodes = 300\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: the mobility process ended early")
    assert err.count("\n") == 1
    assert not (out / "metrics.csv").exists()
    assert_reaped(forks[0])


def test_a_static_run_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a static run forked")

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    result = runner.run(RunConfig(rings=1, agent="sleep", episodes=30), tmp_path / "out")
    assert result.csv_path.exists()


def test_a_failed_fork_keeps_the_walk_in_process(tmp_path, monkeypatch):
    """Where the fork itself fails, the run walks its users here, with the
    bytes it would have written either way."""
    def no_fork():
        raise BlockingIOError("no process to spare")

    cfg = waypoint_cfg(episodes=40)
    set_cpus(monkeypatch, 1)
    runner.run(cfg, tmp_path / "here")
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    runner.run(cfg, tmp_path / "fallback")
    assert digests(tmp_path / "fallback") == digests(tmp_path / "here")
