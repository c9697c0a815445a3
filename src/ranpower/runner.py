"""Run orchestration: wiring config to objects, the episode loop, and files.

:func:`run` hands its :class:`RunConfig` to the scenario and the agent,
which read what they need from it.

Determinism contract: all randomness flows from numpy's counter-based
Philox generator, seeded once per run and split into named sub-streams
(model initialisation, user drop, traffic, exploration, replay sampling,
mobility).  Because the streams are independent, switching an agent that
does not consume a stream cannot perturb the others, and two runs with the
same config and seed produce byte-identical CSV output.  The mobility
stream is drawn from by whichever process walks the users, this one or a
forked copy of it (see :func:`_walking_ahead`), so where they walk does not
change a byte.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .agents import (
    MAX_ORACLE_NODES,
    DqnAgent,
    EpisodeOutcome,
    QLearningAgent,
    SleepAgent,
    exhaustive_oracle,
)
from .config import AGENTS, RunConfig
from .errors import RanPowerError, ValidationError
from .metrics import CSV_COLUMNS, MetricsAccumulator, format_row
from .rl import save_weights
from .scenario import Scenario, drop_users, hex_site_positions, sector_gain_matrix

STREAM_NAMES = ("model", "topology", "traffic", "exploration", "replay", "mobility")
COMPARE_KEYS = ("ee_overall_mbps_per_dbw", "throughput_overall_bps", "power_overall_dbw",
                "success_ratio_overall", "iterations_overall")
# Capacity asked of the walk-ahead pipe: about nine slots of positions and
# gains at 19 sites and 57 users (26,904 bytes a slot).  Linux's default,
# 64 KiB, holds two: on a 2-vCPU host, 5,000-slot runs of that shape (sleep
# agent) read a median of about 3,600 slots/s with it against 4,100 here.
AHEAD_PIPE_BYTES = 256 * 1024


def make_streams(seed: int) -> dict[str, np.random.Generator]:
    """Named independent Philox streams derived from one seed."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {
        name: np.random.Generator(np.random.Philox(child))
        for name, child in zip(STREAM_NAMES, children)
    }


def make_scenario(cfg: RunConfig, streams: dict[str, np.random.Generator]) -> Scenario:
    sites = hex_site_positions(cfg.rings, cfg.isd_m)
    return Scenario(sites, cfg, drop_users(sites, cfg, streams["topology"]))


def make_agent(cfg: RunConfig, streams: dict[str, np.random.Generator]):
    if cfg.agent == "dqn":
        return DqnAgent(cfg, streams["model"], streams["exploration"], streams["replay"])
    if cfg.agent == "qlearning":
        return QLearningAgent(cfg, streams["exploration"])
    return SleepAgent()


@contextmanager
def _replacing(path: Path) -> Iterator[Path]:
    """Yield a temp path beside ``path`` and move it onto ``path`` only when
    the block completes, so an interrupted write never leaves a
    complete-looking file and an earlier ``path`` stays intact."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, obj) -> None:
    with _replacing(path) as tmp, open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# False in a sweep's pool workers and in a sweep asked for one worker,
# which may keep only one process busy.
_walk_ahead_allowed = True


def _walk_in_process() -> None:
    """Pool initializer: a sweep worker moves its users itself, so
    ``workers`` pool processes are all the busy processes a sweep has."""
    global _walk_ahead_allowed
    _walk_ahead_allowed = False


@contextmanager
def _walk_ahead_only_if(allowed: bool) -> Iterator[None]:
    """Runs in the block walk their users here unless ``allowed``."""
    global _walk_ahead_allowed
    saved = _walk_ahead_allowed
    _walk_ahead_allowed = saved and allowed
    try:
        yield
    finally:
        _walk_ahead_allowed = saved


def _read_into(fd: int, array: np.ndarray) -> bool:
    """Fill ``array`` from ``fd``; False if the writer closed its end first."""
    view = memoryview(array).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def _write_all(fd: int, array: np.ndarray) -> None:
    view = memoryview(array).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _walk_ahead_child(scn: Scenario, rng: np.random.Generator, slots: int,
                      fds: tuple[int, int]) -> None:
    """The forked mobility process: walk ``slots`` times and write each
    slot's positions and all-user gains to the pipe ``fds``.  It leaves only through
    ``os._exit``, so nothing the parent buffered is flushed twice and no
    traceback is printed; a closed pipe (the parent has stopped reading or
    is gone) ends it with status 0, any other failure with status 1, after
    one line naming the exception on stderr."""
    code = 1
    try:
        read_fd, fd = fds
        os.close(read_fd)
        for _ in range(slots):
            scn.walk(rng)
            _write_all(fd, scn.user_xy)
            _write_all(fd, sector_gain_matrix(scn.site_xy, scn.cfg, scn.user_xy, clamp=True))
        code = 0
    except BrokenPipeError:
        code = 0
    except Exception as exc:
        with suppress(OSError):
            os.write(2, f"mobility process: {type(exc).__name__}: {exc}\n".encode())
    finally:
        os._exit(code)


@contextmanager
def _walking_ahead(scn: Scenario, rng: np.random.Generator, slots: int) -> Iterator[None]:
    """Moving users walk ahead of the slot loop, in a second process.

    Where ``os.fork`` exists and this process may run on two CPUs, a forked
    child runs the same :meth:`Scenario.walk` on its copy of the scenario and
    of ``rng`` for each of the next ``slots`` applies and writes the positions
    and every user's gains to a pipe, whose capacity bounds how far ahead it
    gets; the scenario's ``apply`` reads them back.  A gain is computed per
    user, so the scheduled users' columns hold the bits an in-process walk
    computes for them alone, and every output byte is the same.  Static users, a sweep's pool workers, a sweep
    asked for one worker and a single CPU keep the walk in this process.
    The child is reaped on the way out, whether the block returns or raises;
    a child that ends before its last slot makes the read raise
    ``RanPowerError``.
    """
    if not (scn.user_speed_mps > 0.0 and _walk_ahead_allowed and hasattr(os, "fork")
            and usable_cpus() >= 2):
        yield
        return
    import fcntl  # here: only a walk-ahead run needs it

    read_fd, write_fd = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux; elsewhere the default capacity stays
        with suppress(OSError):
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, AHEAD_PIPE_BYTES)
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the walk stays here, with the same bytes
        pid = None
    if pid == 0:
        _walk_ahead_child(scn, rng, slots, (read_fd, write_fd))
    os.close(write_fd)
    if pid is None:
        os.close(read_fd)
        yield
        return
    reaped = False

    def read(user_xy: np.ndarray, gains: np.ndarray) -> None:
        nonlocal reaped
        if not (_read_into(read_fd, user_xy) and _read_into(read_fd, gains)):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped = True
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise RanPowerError(
                f"the mobility process ended early ({how}): "
                f"no positions for slot {scn.t - 1} of {slots}"
            )

    scn.walk_ahead = read
    try:
        yield
    finally:
        scn.walk_ahead = None
        os.close(read_fd)  # a child still walking stops at its next write
        if not reaped:
            os.waitpid(pid, 0)


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    out_dir: Path
    csv_path: Path
    summary: dict


def run(
    cfg: RunConfig,
    out_dir: str | Path | None = None,
    quiet: bool = True,
    episode_hook: Callable[[int, object, EpisodeOutcome], None] | None = None,
) -> RunResult:
    """Execute one configured run and write ``metrics.csv`` + ``summary.json``.

    The summary's config records the output directory actually used.
    ``episode_hook`` receives ``(t, step_context, outcome)`` after each step;
    the acceptance suite uses it to compare accepted actions against the
    exhaustive oracle on the very contexts the agent saw.  Moving users
    walk ahead of the slot loop in a second process where the host allows
    (see :func:`_walking_ahead`); a static run never forks.
    """
    started = time.perf_counter()
    out = Path(cfg.out_dir if out_dir is None else out_dir)
    cfg = replace(cfg, out_dir=str(out))
    streams = make_streams(cfg.seed)
    scn = make_scenario(cfg, streams)
    agent = make_agent(cfg, streams)

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "metrics.csv"

    acc = MetricsAccumulator(cfg.p_max_dbw, scn.n_sites)
    with (_walking_ahead(scn, streams["mobility"], cfg.episodes),
          _replacing(csv_path) as tmp, open(tmp, "w", newline="") as fh):
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for t in range(cfg.episodes):
            scn.spawn_arrivals(streams["traffic"])
            ctx = scn.build_step()
            outcome = agent.run_episode(ctx, t, t == cfg.episodes - 1)
            scn.apply(ctx, outcome.ev, streams["mobility"])
            fh.write(acc.push(t, ctx.phi, outcome))
            if episode_hook is not None:
                episode_hook(t, ctx, outcome)
        fh.write(acc.flush())

    summary = {
        "agent": cfg.agent,
        "seed": cfg.seed,
        **acc.summary(),
        "wall_clock_s": time.perf_counter() - started,
        "config": asdict(cfg),
    }
    if isinstance(agent, DqnAgent):
        with _replacing(out / "weights.bin") as tmp:
            save_weights(agent.predicted, str(tmp))
        summary["learner"] = {
            "training_rounds": agent.training_rounds,
            "target_syncs": agent.target_syncs,
            "replay_fill": len(agent.memory),
        }
    _write_json(out / "summary.json", summary)
    if not quiet:
        ee = summary["ee_overall_mbps_per_dbw"]
        print(f"[{cfg.agent}] seed={cfg.seed} episodes={cfg.episodes} ee={ee:.4f}")
    return RunResult(cfg, out, csv_path, summary)


def run_compare(
    cfg: RunConfig, out_dir: str | Path | None = None, quiet: bool = True
) -> list[dict]:
    """Run every agent on the same seed and write a joined comparison table."""
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table: list[dict] = []
    for agent in AGENTS:
        result = run(replace(cfg, agent=agent), out / agent, quiet=quiet)
        table.append({"agent": agent, **{k: result.summary[k] for k in COMPARE_KEYS}})
    with _replacing(out / "comparison.csv") as tmp, open(tmp, "w", newline="") as fh:
        fh.write(",".join(table[0]) + "\n")
        fh.writelines(format_row(entry.values()) for entry in table)
    return table


def _sweep_one(args: tuple[str, RunConfig]) -> dict:
    out, cfg = args
    result = run(cfg, out, quiet=True)
    return {
        "out": out,
        "agent": cfg.agent,
        "seed": cfg.seed,
        "ee_overall_mbps_per_dbw": result.summary["ee_overall_mbps_per_dbw"],
    }


def run_sweep(
    cfg: RunConfig,
    vary: dict[str, Sequence],
    out_dir: str | Path | None = None,
    workers: int = 1,
    quiet: bool = True,
) -> list[dict]:
    """Cartesian sweep over the listed keys; one subdirectory per combo.

    Combos are independent runs, so ``workers > 1`` executes them in
    parallel processes without changing any output.  The pool never holds
    more processes than there are combos or usable CPUs, and its workers
    move their users themselves, so it keeps at most ``workers`` processes
    busy.  A sweep left with one process runs its combos here: each like
    :func:`run` when ``workers`` is 2 or more, with its users walked here
    when it is 1.  A combo whose config is invalid, or two combos that
    would share a subdirectory (a repeated value, such as ``500`` and
    ``500.0`` for a float key), raise ``ValidationError`` before anything
    is written.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    keys = sorted(vary)
    jobs: dict[str, RunConfig] = {}
    for combo in itertools.product(*(vary[k] for k in keys)):
        tags = dict(zip(keys, combo))
        sub = str(out / "_".join(f"{k}={v}" for k, v in tags.items()))
        if sub in jobs:
            raise ValidationError(f"vary repeats a value: two combos would both write {sub}")
        jobs[sub] = replace(cfg, **tags)
    out.mkdir(parents=True, exist_ok=True)  # after every combo is built
    pool_size = min(workers, len(jobs), usable_cpus())
    if pool_size > 1:
        # Imported here: it loads multiprocessing, which no single run needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size, initializer=_walk_in_process) as pool:
            entries = list(pool.map(_sweep_one, jobs.items()))
    else:
        with _walk_ahead_only_if(workers > 1):
            entries = [_sweep_one(job) for job in jobs.items()]
    _write_json(out / "sweep.json", entries)
    if not quiet:
        for entry in entries:
            print(f"{entry['out']}: ee={entry['ee_overall_mbps_per_dbw']:.4f}")
    return entries


def run_oracle_check(
    cfg: RunConfig, out_dir: str | Path | None = None, quiet: bool = True
) -> dict:
    """Run the configured agent while scoring each step against the oracle.

    Only viable on small instances: a grid whose ``n_power_levels ** sites``
    exceeds the oracle's cap raises ``ValidationError`` naming ``'rings'``
    and ``'n_power_levels'`` before anything is written.  Writes
    ``oracle.csv`` with the per-step efficiency ratio and returns summary
    statistics.
    """
    sites = len(hex_site_positions(cfg.rings, cfg.isd_m))
    if cfg.n_power_levels ** sites > MAX_ORACLE_NODES:
        raise ValidationError(
            f"'rings' = {cfg.rings} and 'n_power_levels' = {cfg.n_power_levels} give "
            f"{cfg.n_power_levels}**{sites} joint assignments, beyond the oracle's "
            f"{MAX_ORACLE_NODES} cap"
        )
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ratios: list[tuple[int, float, float, float]] = []

    def hook(t: int, ctx, outcome: EpisodeOutcome) -> None:
        if outcome.all_sleep:
            return
        _, best_ee = exhaustive_oracle(ctx)
        achieved = outcome.ev.network_ee
        ratio = achieved / best_ee if best_ee > 0.0 else 1.0
        ratios.append((t, achieved, best_ee, ratio))

    run(cfg, out, quiet=True, episode_hook=hook)
    with _replacing(out / "oracle.csv") as tmp, open(tmp, "w", newline="") as fh:
        fh.write("t,achieved_ee,oracle_ee,ratio\n")
        fh.writelines(format_row(entry) for entry in ratios)
    stats = {
        "steps_scored": len(ratios),
        "mean_ratio": float(np.mean([r[3] for r in ratios])) if ratios else None,
        "min_ratio": float(np.min([r[3] for r in ratios])) if ratios else None,
    }
    _write_json(out / "oracle_summary.json", stats)
    if not quiet and stats["mean_ratio"] is not None:
        print(
            f"oracle check: {stats['steps_scored']} steps, "
            f"mean ratio {stats['mean_ratio']:.4f}, min {stats['min_ratio']:.4f}"
        )
    return stats
