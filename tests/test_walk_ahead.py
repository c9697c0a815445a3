"""Moving users walked ahead of the slot loop in a forked mobility process.

``runner.run`` forks that process for waypoint runs when ``os.fork`` exists
and ``runner.usable_cpus`` reads at least two; these tests set the count
themselves, so they hold on any host that can fork.  Where the test process
may run on two or more CPUs, the run and its mobility process pin
themselves to different ones; the tests of that skip elsewhere.
"""

import errno
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


def affinity():
    """This process's CPU set, or None where the platform reports none."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


needs_two_cpus = pytest.mark.skipif(len(affinity() or ()) < 2,
                                    reason="needs an affinity of two or more CPUs")


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(runner, "usable_cpus", lambda: n)


def refuse_affinity(monkeypatch, error):
    def refuse(pid, cpus):
        raise error

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)


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


def test_a_one_page_pipe_writes_the_bytes_of_an_in_process_walk(tmp_path, monkeypatch, forks):
    """With the pipe cut to 4096 bytes, one page and the smallest Linux
    allows, each slot's 26,904 bytes of positions and gains (19 sites, 57
    users) reach the run over several reads, and it writes the bytes of an
    in-process walk."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs F_SETPIPE_SZ (Linux)")
    real_pipe = os.pipe

    def one_page_pipe():
        read_fd, write_fd = real_pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        return read_fd, write_fd

    monkeypatch.setattr(os, "pipe", one_page_pipe)
    cfg = waypoint_cfg()
    set_cpus(monkeypatch, 2)
    runner.run(cfg, tmp_path / "ahead")
    assert len(forks) == 1
    set_cpus(monkeypatch, 1)
    runner.run(cfg, tmp_path / "here")
    assert len(forks) == 1
    assert digests(tmp_path / "ahead") == digests(tmp_path / "here")


@needs_two_cpus
def test_the_run_and_its_mobility_process_pin_different_cpus(tmp_path, monkeypatch, forks):
    """While the users walk, the mobility process holds exactly one CPU of
    the run's starting set and the run holds the rest; the run gets its
    whole set back when it returns."""
    start = os.sched_getaffinity(0)
    seen = []

    def look(t, ctx, outcome):
        if t == 3:
            seen.append((os.sched_getaffinity(0), os.sched_getaffinity(forks[-1])))

    set_cpus(monkeypatch, 2)
    runner.run(waypoint_cfg(episodes=20), tmp_path / "out", episode_hook=look)
    [(run_cpus, walker_cpus)] = seen
    assert walker_cpus == {max(start)}
    assert run_cpus.isdisjoint(walker_cpus)
    assert run_cpus | walker_cpus == start
    assert os.sched_getaffinity(0) == start


def test_a_refused_pin_writes_the_bytes_of_an_in_process_walk(tmp_path, monkeypatch, forks):
    """Where every pin raises ``OSError``, in the run and in the mobility
    process, which inherits the patch, both stay where they were and the run
    writes the bytes of an in-process walk."""
    cfg = waypoint_cfg(episodes=60)
    start = affinity()
    set_cpus(monkeypatch, 1)
    runner.run(cfg, tmp_path / "here")
    refuse_affinity(monkeypatch, PermissionError(errno.EPERM, "not allowed"))
    set_cpus(monkeypatch, 2)
    runner.run(cfg, tmp_path / "ahead")
    assert len(forks) == 1
    assert_reaped(forks[0])
    assert affinity() == start
    assert digests(tmp_path / "ahead") == digests(tmp_path / "here")


@pytest.mark.parametrize("cpus, walk_ahead", [(1, True), (2, False)], ids=["one-cpu", "here"])
def test_a_run_that_walks_here_never_sets_affinity(tmp_path, monkeypatch, forks,
                                                   cpus, walk_ahead):
    """A waypoint run on one CPU, or with ``walk_ahead`` False as a sweep's
    pool job runs, forks nothing and pins nothing."""
    refuse_affinity(monkeypatch, AssertionError("a run that walks here set its affinity"))
    set_cpus(monkeypatch, cpus)
    runner.run(waypoint_cfg(episodes=20), tmp_path / "out", walk_ahead=walk_ahead)
    assert forks == []


def test_no_mobility_process_outlives_a_run(tmp_path, monkeypatch, forks):
    """A run reaps its one mobility process and gets its CPU set back when
    it returns, and when an ``episode_hook`` raises at slot 3 while the
    process is still walking."""
    start = affinity()
    set_cpus(monkeypatch, 2)
    runner.run(waypoint_cfg(episodes=20), tmp_path / "done")
    assert len(forks) == 1
    assert_reaped(forks[0])
    assert affinity() == start

    def stop(t, ctx, outcome):
        if t == 3:
            raise RuntimeError("stopped at slot 3")

    with pytest.raises(RuntimeError, match="slot 3"):
        runner.run(waypoint_cfg(), tmp_path / "stopped", episode_hook=stop)
    assert len(forks) == 2
    assert_reaped(forks[1])
    assert affinity() == start
    assert not (tmp_path / "stopped" / "metrics.csv").exists()


def kill_the_mobility_process(forks, t, ctx, outcome):
    if t == 3:
        os.kill(forks[-1], signal.SIGKILL)


def test_a_killed_mobility_process_fails_the_run(tmp_path, monkeypatch, forks):
    """Once the slots the killed process wrote are read, the run raises
    ``RanPowerError`` naming the signal, reaps the process, gets its CPU set
    back and writes no ``metrics.csv``."""
    start = affinity()
    set_cpus(monkeypatch, 2)
    with pytest.raises(RanPowerError, match=r"mobility process ended early \(killed by signal 9\)"):
        runner.run(waypoint_cfg(), tmp_path / "out",
                   episode_hook=functools.partial(kill_the_mobility_process, forks))
    assert len(forks) == 1
    assert_reaped(forks[0])
    assert affinity() == start
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


class HalfReads:
    """A buffered reader whose every ``readinto`` fills half the array: a
    read that comes back short while the writer is still writing."""

    def __init__(self, pipe):
        self.pipe = pipe

    def readinto(self, array):
        view = memoryview(array).cast("B")
        return self.pipe.readinto(view[: len(view) // 2])

    def close(self):
        self.pipe.close()


def test_a_short_read_raises_instead_of_waiting_on_a_blocked_writer(tmp_path, monkeypatch,
                                                                     forks):
    """A read that comes back short while the mobility process is still
    walking closes the pipe before reaping: the process, blocked on the
    full pipe, gets EPIPE and ends, and the run raises ``RanPowerError``.
    Reaping first would wait on it forever; the alarm turns that into a
    failure within 20 seconds."""
    real_open = open

    def half_reads(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfReads(fh) if mode == "rb" else fh

    def hung(signum, frame):
        raise TimeoutError("the run waited on a mobility process blocked on its pipe")

    monkeypatch.setattr(runner, "open", half_reads, raising=False)
    set_cpus(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(RanPowerError, match="mobility process ended early"):
            runner.run(waypoint_cfg(episodes=2000), tmp_path / "out")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
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
    """Static users neither fork a mobility process, nor walk here, nor set
    the run's affinity."""
    def no_fork():
        raise AssertionError("a static run forked")

    def no_walk(self, rng):
        raise AssertionError("static users walked")

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(Scenario, "walk", no_walk)
    refuse_affinity(monkeypatch, AssertionError("a static run set its affinity"))
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


def test_a_failed_pipe_keeps_the_walk_in_process(tmp_path, monkeypatch, forks):
    """Where no descriptor is left for the pipe, the run forks nothing and
    walks its users here, with the bytes of a one-CPU run."""
    def no_pipe():
        raise OSError(errno.EMFILE, "too many open files")

    cfg = waypoint_cfg(episodes=40)
    set_cpus(monkeypatch, 1)
    runner.run(cfg, tmp_path / "here")
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "pipe", no_pipe)
    runner.run(cfg, tmp_path / "fallback")
    assert forks == []
    assert digests(tmp_path / "fallback") == digests(tmp_path / "here")
