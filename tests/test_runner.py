"""Run orchestration, output files, determinism, and the CLI."""

import json
import os
from dataclasses import replace
import subprocess
import sys

import numpy as np
import pytest

from ranpower import runner
from ranpower.agents import SleepAgent
from ranpower.cli import main
from ranpower.config import RunConfig
from ranpower.metrics import BLOCK_SLOTS, CSV_COLUMNS, MetricsAccumulator, format_row
from ranpower.runner import (
    STREAM_NAMES,
    make_streams,
    run,
    run_compare,
    run_oracle_check,
    run_sweep,
)

from test_config import SIZE_EDGES
from test_metrics import parse_lines, reference_lines, row_from_outcome


def small_cfg(**kw):
    base = dict(rings=0, episodes=40, search_iters=10, seed=3, agent="dqn")
    base.update(kw)
    return RunConfig(**base)


def test_streams_are_named_and_reproducible():
    a = make_streams(7)
    b = make_streams(7)
    assert set(a) == set(STREAM_NAMES)
    for name in STREAM_NAMES:
        assert a[name].random() == b[name].random()


def test_streams_differ_between_names_and_seeds():
    streams = make_streams(7)
    draws = {name: streams[name].random() for name in STREAM_NAMES}
    assert len(set(draws.values())) == len(STREAM_NAMES)
    assert make_streams(8)["model"].random() != make_streams(7)["model"].random()


def test_push_all_sleep_masks_everything():
    ctx = runner.make_scenario(small_cfg(), make_streams(0)).build_step()
    out = SleepAgent().run_episode(ctx, 0, False)
    assert out.all_sleep
    acc = MetricsAccumulator(15.2, ctx.n_sites)
    assert acc.push(5, ctx.phi, out) == ""
    (rec,) = parse_lines(acc.flush())
    assert rec["t"] == 5
    assert rec["zeta"] is None
    assert rec["n_star"] is None
    assert rec["ee_reward"] is None


@pytest.mark.parametrize("episodes", [BLOCK_SLOTS - 1, BLOCK_SLOTS, BLOCK_SLOTS + 1,
                                      2 * BLOCK_SLOTS + 3])
def test_csv_blocks_equal_the_per_row_reference(tmp_path, episodes):
    """However the slots fall into blocks, ``metrics.csv`` holds the per-row
    reference's lines, and the summary its last running means."""
    cfg = small_cfg(rings=1, agent="sleep", episodes=episodes)
    rows = []
    result = run(cfg, tmp_path / "out",
                 episode_hook=lambda t, ctx, out: rows.append(row_from_outcome(t, ctx.phi, out)))
    want = reference_lines(rows, cfg.p_max_dbw)
    assert result.csv_path.read_text() == ",".join(CSV_COLUMNS) + "\n" + want
    last = parse_lines(want)[-1]
    assert result.summary["episodes"] == episodes
    assert result.summary["ee_overall_mbps_per_dbw"] == last["ee_cum"]
    assert result.summary["throughput_overall_bps"] == last["thr_cum_bps"]
    assert result.summary["power_overall_dbw"] == last["pwr_cum_dbw"]
    assert result.summary["success_ratio_overall"] == last["success_cum"]
    assert result.summary["iterations_overall"] is None  # the sleep agent runs no search


def test_run_writes_csv_summary_and_weights(tmp_path):
    cfg = small_cfg()
    result = run(cfg, tmp_path / "out")
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == cfg.episodes + 1
    assert (tmp_path / "out" / "weights.bin").exists()

    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["agent"] == "dqn"
    assert summary["episodes"] == cfg.episodes
    assert summary["ee_overall_mbps_per_dbw"] == pytest.approx(
        result.summary["ee_overall_mbps_per_dbw"]
    )
    assert summary["config"]["seed"] == cfg.seed
    assert summary["config"]["out_dir"] == str(tmp_path / "out")
    assert result.config.out_dir == str(tmp_path / "out")


def test_run_without_learning_agent_writes_no_weights(tmp_path):
    sleep = run(small_cfg(agent="sleep"), tmp_path / "out")
    assert not (tmp_path / "out" / "weights.bin").exists()
    ql = run(small_cfg(agent="qlearning"), tmp_path / "ql")
    assert not (tmp_path / "ql" / "weights.bin").exists()
    assert "learner" not in sleep.summary and "learner" not in ql.summary


def test_learner_block_counts_rounds_by_the_interval_and_fill_rule(tmp_path):
    """A round runs at every train_interval-th slot after slot 0 once replay
    holds more than a minibatch, counting that slot's own pushes."""
    cfg = small_cfg(episodes=80, minibatch_size=6, train_interval=3, sync_interval=2,
                    replay_capacity=15)
    pushed = []

    def hook(t, ctx, outcome):
        accepted = outcome.feasible and not outcome.all_sleep
        pushed.append(ctx.active_sites.size if accepted else 0)

    result = run(cfg, tmp_path / "out", episode_hook=hook)
    fill = rounds = 0
    for t, n in enumerate(pushed):
        fill = min(cfg.replay_capacity, fill + n)
        if t > 0 and t % cfg.train_interval == 0 and fill > cfg.minibatch_size:
            rounds += 1
    learner = json.loads((tmp_path / "out" / "summary.json").read_text())["learner"]
    assert learner == result.summary["learner"]
    assert rounds > 0
    assert learner == {
        "training_rounds": rounds,
        "target_syncs": rounds // cfg.sync_interval,
        "replay_fill": fill,
    }


def test_interrupted_run_leaves_no_complete_looking_output(tmp_path):
    """Interrupted before and after the first block reaches the file."""
    cfg = small_cfg(episodes=BLOCK_SLOTS + 20)
    for stop in (5, BLOCK_SLOTS + 5):
        def interrupt(t, ctx, outcome):
            if t == stop:
                raise KeyboardInterrupt

        out = tmp_path / str(stop)
        with pytest.raises(KeyboardInterrupt):
            run(cfg, out, episode_hook=interrupt)
        assert not any(out.iterdir())

        run(cfg, out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert set(before) == {"metrics.csv", "summary.json", "weights.bin"}
        with pytest.raises(KeyboardInterrupt):
            run(replace(cfg, seed=4), out, episode_hook=interrupt)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_csv_floats_survive_a_parse_round_trip(tmp_path):
    run(small_cfg(), tmp_path / "out")
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    for line in lines[1:3]:
        cells = line.split(",")
        for cell in cells:
            if cell and "." in cell:
                assert repr(float(cell)) == cell


@pytest.mark.parametrize("agent", ["dqn", "qlearning", "sleep"])
def test_same_seed_gives_byte_identical_csv(tmp_path, agent):
    cfg = small_cfg(agent=agent)
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b


def test_different_seed_changes_the_csv(tmp_path):
    run(small_cfg(seed=3), tmp_path / "a")
    run(small_cfg(seed=4), tmp_path / "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a != b


def test_episode_hook_sees_every_step(tmp_path):
    seen = []
    run(
        small_cfg(episodes=12),
        tmp_path / "out",
        episode_hook=lambda t, ctx, outcome: seen.append((t, outcome.ev.power_idx.copy())),
    )
    assert [t for t, _ in seen] == list(range(12))


def test_run_compare_covers_all_agents(tmp_path):
    cfg = small_cfg(episodes=25)
    table = run_compare(cfg, tmp_path / "cmp")
    assert [entry["agent"] for entry in table] == ["dqn", "qlearning", "sleep"]
    for agent in ("dqn", "qlearning", "sleep"):
        assert (tmp_path / "cmp" / agent / "metrics.csv").exists()
    lines = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("agent,ee_overall_mbps_per_dbw")


def test_run_sweep_serial_and_parallel_agree(tmp_path):
    cfg = small_cfg(episodes=20)
    vary = {"seed": [0, 1], "agent": ["sleep"]}
    serial = run_sweep(cfg, vary, tmp_path / "s1", workers=1)
    parallel = run_sweep(cfg, vary, tmp_path / "s2", workers=2)
    assert len(serial) == 2
    key = "ee_overall_mbps_per_dbw"
    for a, b in zip(serial, parallel):
        assert a["seed"] == b["seed"]
        assert a[key] == b[key]
    assert (tmp_path / "s1" / "agent=sleep_seed=0" / "metrics.csv").exists()
    assert json.loads((tmp_path / "s1" / "sweep.json").read_text())[0]["agent"] == "sleep"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it was
    asked for and runs the jobs in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "workers, cpus, seeds, pool",
    [
        (10000, 2, [0, 1, 2], [2]),
        (10000, 64, [0, 1, 2], [3]),
        (2, 64, [0, 1, 2], [2]),
        (8, 4, [0], []),
        (8, None, [0, 1], []),
        (1, 4, [0, 1, 2], []),
    ],
    ids=["cpus", "jobs", "asked", "one-job", "cpus-unknown", "serial"],
)
def test_run_sweep_clamps_workers_to_jobs_and_cpus(tmp_path, monkeypatch, workers, cpus,
                                                    seeds, pool):
    """The CPUs are the ones this process may run on, which the machine's
    count (here 128) does not limit; without an affinity to read, the
    machine's count, and one CPU where even that is unknown."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    if cpus is None:
        monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 128)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    entries = run_sweep(small_cfg(episodes=3, agent="sleep"), {"seed": seeds},
                        tmp_path, workers=workers)
    assert RecordingPool.sizes == pool
    assert [entry["seed"] for entry in entries] == seeds


@pytest.mark.parametrize("affinity, cpu_count, usable", [
    ({3}, 8, 1), ({0, 1}, 8, 2), (None, 6, 6), (None, None, 1),
])
def test_usable_cpus_reads_the_affinity_where_there_is_one(monkeypatch, affinity, cpu_count,
                                                           usable):
    if affinity is None:
        monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(runner.os, "cpu_count", lambda: cpu_count)
    assert runner.usable_cpus() == usable


def waypoint_sweep_cfg(tmp_path):
    return write_cfg(tmp_path, "rings = 1\nagent = sleep\nmobility = waypoint\nepisodes = 30\n")


def test_sweep_on_one_cpu_runs_serially_and_forks_nothing(tmp_path, monkeypatch):
    """With one CPU in the affinity, ``--workers 4`` starts no pool, and the
    waypoint runs walk their users in this process."""
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(runner.os, "fork", no_fork)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", waypoint_sweep_cfg(tmp_path), "--vary", "seed=0,1",
                 "--workers", "4", "--out", str(out), "--quiet"]) == 0
    assert len(json.loads((out / "sweep.json").read_text())) == 2


def test_a_one_worker_sweep_walks_in_process_on_two_cpus(tmp_path, monkeypatch, forks):
    """``--workers 1`` keeps one process busy: its waypoint combos fork no
    mobility process.  A single combo with ``--workers 2`` runs like ``run``
    and walks ahead in its one allowed second process."""
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = waypoint_sweep_cfg(tmp_path)
    assert main(["sweep", "--config", cfg, "--vary", "seed=0,1", "--workers", "1",
                 "--out", str(tmp_path / "one"), "--quiet"]) == 0
    assert forks == []
    assert main(["sweep", "--config", cfg, "--vary", "seed=0", "--workers", "2",
                 "--out", str(tmp_path / "two"), "--quiet"]) == 0
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


def test_pool_jobs_walk_their_users_in_process(tmp_path, monkeypatch, forks):
    """A pool job keeps its worker the only busy process: a two-combo
    waypoint sweep on two CPUs, its jobs run here by the recording pool,
    forks no mobility process."""
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    assert main(["sweep", "--config", waypoint_sweep_cfg(tmp_path), "--vary", "seed=0,1",
                 "--workers", "2", "--out", str(tmp_path / "sw"), "--quiet"]) == 0
    assert RecordingPool.sizes == [2]
    assert forks == []


def _die_in_the_pool(job):
    os._exit(3)


def test_sweep_exits_two_when_a_pool_worker_dies(tmp_path, monkeypatch, capsys, forks):
    """A pool worker that dies breaks the pool: one ``runtime error:`` line
    naming ``BrokenProcessPool``, exit 2, no ``sweep.json``, and both
    workers, the only processes started, reaped."""
    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    monkeypatch.setattr(runner, "_sweep_one", _die_in_the_pool)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", waypoint_sweep_cfg(tmp_path), "--vary", "seed=0,1",
                 "--workers", "2", "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: BrokenProcessPool: ")
    assert err.count("\n") == 1
    assert not (out / "sweep.json").exists()
    assert len(forks) == 2
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_cli_rejects_fewer_than_one_worker(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "rings = 0\nepisodes = 3\n")
    for workers in ("0", "-3"):
        code = main(["sweep", "--config", cfg, "--vary", "seed=0,1", "--workers", workers,
                     "--out", str(tmp_path / "sw")])
        assert code == 1
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_oracle_check_scores_active_steps(tmp_path):
    stats = run_oracle_check(small_cfg(episodes=30), tmp_path / "oracle")
    assert stats["steps_scored"] > 0
    assert stats["mean_ratio"] <= 1.0 + 1e-12
    assert stats["min_ratio"] > 0.0
    lines = (tmp_path / "oracle" / "oracle.csv").read_text().splitlines()
    assert lines[0] == "t,achieved_ee,oracle_ee,ratio"
    assert len(lines) == stats["steps_scored"] + 1
    for line in lines[1:]:
        t, achieved, oracle, ratio = line.split(",")
        assert 0 <= int(t) < 30
        assert float(oracle) > 0.0
        assert float(ratio) == float(achieved) / float(oracle)


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_run_exit_zero_and_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, "rings = 0\nepisodes = 20\nsearch_iters = 5\n")
    code = main(
        ["run", "--config", cfg, "--seed", "9", "--agent", "sleep",
         "--out", str(tmp_path / "out"), "--quiet"]
    )
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 9
    assert summary["agent"] == "sleep"
    assert summary["config"]["out_dir"] == str(tmp_path / "out")


def test_cli_config_errors_exit_one(tmp_path, capsys):
    bad = write_cfg(tmp_path, "episodes ???\n")
    assert main(["run", "--config", bad]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    cfg = write_cfg(tmp_path, "rings = 0\n")
    assert main(["sweep", "--config", cfg, "--vary", "nonsense=1,2"]) == 1
    assert main(["sweep", "--config", cfg]) == 1
    cramped = write_cfg(tmp_path, "rings = 0\nisd_m = 18\n")  # no room to drop users
    assert main(["run", "--config", cramped, "--out", str(tmp_path / "out")]) == 1
    coincide = write_cfg(tmp_path, "rings = 0\ndelta_p_max_db = 1e-16\n")  # repeated levels
    assert main(["run", "--config", coincide, "--out", str(tmp_path / "out")]) == 1
    # A repeated --vary key or value would run two combos into one directory.
    tiny = write_cfg(tmp_path, "rings = 0\nepisodes = 3\n")
    for vary in (["seed=1", "--vary", "seed=2"], ["seed=1,1", "--workers", "2"],
                 ["isd_m=500,500.0"]):
        assert main(["sweep", "--config", tiny, "--vary", *vary,
                     "--out", str(tmp_path / "out")]) == 1
    # A negative seed is bad input, not a crash inside the seed sequence.
    assert main(["run", "--config", tiny, "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    assert main(["sweep", "--config", tiny, "--vary", "seed=-1",
                 "--out", str(tmp_path / "out")]) == 1
    wide = write_cfg(tmp_path, "rings = 2\nepisodes = 20\n")  # 5**19 oracle plans
    assert main(["oracle", "--config", wide, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert "config error" in err
    assert "'delta_p_max_db'" in err
    assert "--vary gives 'seed' twice" in err
    assert err.count("vary repeats a value") == 2
    assert "'rings' = 2 and 'n_power_levels' = 5" in err


@pytest.mark.parametrize("line", ["volume_hi_bits = inf", "isd_m = inf", "tx_gain_dbi = nan",
                                  "noise_dbw = -inf"])
def test_cli_non_finite_values_exit_one(tmp_path, capsys, line):
    """A non-finite float is a config error from a file, with the seed and
    agent overrides on top, and from ``--vary``; nothing is written."""
    cfg = write_cfg(tmp_path, f"rings = 0\nepisodes = 3\n{line}\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out]) == 1
    assert main(["run", "--config", cfg, "--seed", "4", "--agent", "sleep", "--out", out]) == 1
    key, _, value = line.partition(" = ")
    good = write_cfg(tmp_path, "rings = 0\nepisodes = 3\n")
    assert main(["sweep", "--config", good, "--vary", f"{key}=1.0,{value}", "--out", out]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, others, top", SIZE_EDGES)
def test_cli_oversized_configs_exit_one_and_write_nothing(tmp_path, capsys, key, others, top):
    """A config asking for an array beyond the cap is bad input: exit 1 before
    the output directory exists.  Validation rejects it; nothing is allocated."""
    lines = [f"{k} = {v}" for k, v in {"episodes": 3, **others, key: top + 1}.items()]
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"'{key}' = {top + 1}" in err
    assert not (tmp_path / "out").exists()


def format_cell(value):
    """The per-cell formatter the one-pass row formatter replaced."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def test_row_formatter_matches_the_cell_formatter():
    values = [0, 7, -3, np.int64(12), np.int64(-1), None, 0.1, -2.5e-7, 1e16, 123456.789,
              float("inf"), 15.199999999999998, np.float64(0.3), None]
    assert format_row(values) == ",".join(format_cell(v) for v in values) + "\n"
    rng = np.random.default_rng(3)
    floats = (rng.standard_normal(2000) * 10.0 ** rng.uniform(-30, 30, 2000)).tolist()
    assert format_row(floats) == ",".join(map(format_cell, floats)) + "\n"


def test_cli_runtime_errors_exit_two(tmp_path, capsys):
    """A failure past validation exits 2: here the output path is a regular
    file, so creating the run directory fails."""
    cfg = write_cfg(tmp_path, "rings = 0\nepisodes = 3\n")
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["run", "--config", cfg, "--out", str(taken), "--quiet"]) == 2
    assert "runtime error" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


def test_cli_any_other_subcommand_failure_exits_two_in_one_line(tmp_path, capsys, monkeypatch):
    """An exception that is neither the library's own nor an ``OSError``
    still exits 2 with a single ``runtime error:`` line, not a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the replay ring")

    monkeypatch.setattr("ranpower.cli.run", exhausted)
    cfg = write_cfg(tmp_path, "rings = 0\nepisodes = 3\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == "runtime error: MemoryError: cannot allocate the replay ring\n"


def test_cli_compare_and_sweep_end_to_end(tmp_path):
    cfg = write_cfg(
        tmp_path, "rings = 0\nepisodes = 15\nsearch_iters = 5\nseed = 1\n"
    )
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
    assert (tmp_path / "cmp" / "comparison.csv").exists()
    assert (
        main(
            ["sweep", "--config", cfg, "--vary", "seed=0,1",
             "--out", str(tmp_path / "sw"), "--quiet"]
        )
        == 0
    )
    assert (tmp_path / "sw" / "sweep.json").exists()


def test_cli_sweep_and_oracle_print_their_tables(tmp_path, capsys):
    """Without ``--quiet``, ``sweep`` prints one line per combo and
    ``oracle`` one line of its ratios, from the files they write."""
    cfg = write_cfg(tmp_path, "rings = 0\nepisodes = 15\nsearch_iters = 5\nseed = 1\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--vary", "seed=0,1", "--out", str(out)]) == 0
    entries = json.loads((out / "sweep.json").read_text())
    assert capsys.readouterr().out == "".join(
        f"{out / f'seed={seed}'}: ee={entry['ee_overall_mbps_per_dbw']:.4f}\n"
        for seed, entry in zip((0, 1), entries)
    )
    out = tmp_path / "oracle"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    stats = json.loads((out / "oracle_summary.json").read_text())
    assert stats["steps_scored"] > 0
    assert capsys.readouterr().out == (
        f"oracle check: {stats['steps_scored']} steps, "
        f"mean ratio {stats['mean_ratio']:.4f}, min {stats['min_ratio']:.4f}\n"
    )


def test_console_script_is_installed(tmp_path):
    cfg = write_cfg(tmp_path, "rings = 0\nepisodes = 5\nsearch_iters = 2\n")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ranpower.cli import main; sys.exit(main(sys.argv[1:]))",
         "run", "--config", cfg, "--agent", "sleep",
         "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "metrics.csv").exists()
