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
forked copy of it (see :func:`_moving_users`), so where they walk does not
change a byte.  A forked copy sends each slot's positions and gains back
through a pipe, which each process wraps in a buffered file object, and it
and the run pin themselves to different CPUs while it walks, so that they
do not share one core; the run's CPU set is restored when it ends.

Independent runs, a sweep's combos or ``compare``'s agents, go through one
job runner, :func:`_run_jobs`.  Nothing here writes to stdout: the CLI
prints what each entry point returns.
"""

from __future__ import annotations

import functools
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
from .scenario import Scenario, drop_users, hex_site_positions

STREAM_NAMES = ("model", "topology", "traffic", "exploration", "replay", "mobility")
COMPARE_KEYS = ("ee_overall_mbps_per_dbw", "throughput_overall_bps", "power_overall_dbw",
                "success_ratio_overall", "iterations_overall")


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


def _pin(cpus: set[int]) -> bool:
    """Pin this process to ``cpus``; False, with nothing changed, where the
    platform refuses."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return True


def _walk_ahead_child(scn: Scenario, rng: np.random.Generator, slots: int,
                      fds: tuple[int, int], cpu: int | None) -> None:
    """The forked mobility process: pin itself to ``cpu`` unless it is None,
    then walk ``slots`` times and write the positions and all-user gains
    that each walk leaves to the pipe ``fds`` through a buffered file,
    flushed once a slot, so a slot's bytes are all in the pipe before the
    next walk.  It leaves only through ``os._exit``, so nothing the parent
    buffered is flushed twice and no traceback is printed; a closed pipe
    (the parent has stopped reading or is gone) ends it with status 0, any
    other failure with status 1, after one line naming the exception on
    stderr."""
    code = 1
    try:
        read_fd, write_fd = fds
        os.close(read_fd)
        if cpu is not None:
            _pin({cpu})
        with open(write_fd, "wb") as pipe:
            for _ in range(slots):
                scn.walk(rng)
                pipe.write(scn.user_xy)
                pipe.write(scn.gains)
                pipe.flush()
        code = 0
    except BrokenPipeError:
        code = 0
    except Exception as exc:
        with suppress(OSError):
            os.write(2, f"mobility process: {type(exc).__name__}: {exc}\n".encode())
    finally:
        os._exit(code)


@contextmanager
def _moving_users(scn: Scenario, rng: np.random.Generator, slots: int,
                  walk_ahead: bool) -> Iterator[Callable[[], None]]:
    """Yield the step that moves the users once a slot is applied.

    Static users never move, so their step does nothing.  Moving users walk
    ahead of the slot loop, in a second process, where ``walk_ahead``
    allows it, ``os.fork`` exists and this process may run on two CPUs: a
    forked child runs the same :meth:`Scenario.walk` on its copy of the
    scenario and of ``rng`` for each of the next ``slots`` steps and writes
    the positions and every user's gains that the walk leaves to a pipe,
    whose capacity bounds how far ahead it gets.  The step fills
    ``scn.user_xy`` and ``scn.gains`` with ``readinto`` on a buffered reader
    of the pipe, which returns fewer bytes than an array holds only once the
    child has closed its end.  Both processes run the same walk, so every
    output byte is the same.  Elsewhere, or where the pipe or the fork
    fails, the step is that walk, here.

    Where this process may run on two or more CPUs and can set its
    affinity, the child pins itself to the highest of them and this process
    pins itself to the rest, until the block ends and its own set is
    restored.  A kernel that does not balance load between CPUs otherwise
    tends to leave the child on its parent's CPU, where the two share one
    core.  A pin the platform refuses leaves that process where it was.

    The child is reaped on the way out, whether the block returns or
    raises; a short read makes the step close the pipe, reap the child and
    raise ``RanPowerError``.
    """
    if scn.user_speed_mps <= 0.0:
        yield lambda: None
        return
    walk_here = functools.partial(scn.walk, rng)
    if not (walk_ahead and hasattr(os, "fork") and usable_cpus() >= 2):
        yield walk_here
        return
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    walker_cpu = max(cpus) if len(cpus) >= 2 else None
    fds: tuple[int, ...] = ()
    pid = None
    with suppress(OSError):  # no descriptor or process to spare
        fds = os.pipe()
        pid = os.fork()
    if pid == 0:
        _walk_ahead_child(scn, rng, slots, fds, walker_cpu)
    if pid is None:  # the walk stays here, with the same bytes
        for fd in fds:
            os.close(fd)
        yield walk_here
        return
    read_fd, write_fd = fds
    os.close(write_fd)
    reaped = False
    pipe = open(read_fd, "rb")

    def read() -> None:
        nonlocal reaped
        if (pipe.readinto(scn.user_xy) < scn.user_xy.nbytes
                or pipe.readinto(scn.gains) < scn.gains.nbytes):
            # Closed first: a child still writing, blocked on a full pipe,
            # then gets EPIPE and ends, so the reap cannot wait forever.
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped = True
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise RanPowerError(
                f"the mobility process ended early ({how}): "
                f"no positions for slot {scn.t - 1} of {slots}"
            )

    pinned = walker_cpu is not None and _pin(cpus - {walker_cpu})
    try:
        yield read
    finally:
        pipe.close()  # a child still walking stops at its next write
        if not reaped:
            os.waitpid(pid, 0)
        if pinned:
            _pin(cpus)


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    out_dir: Path
    csv_path: Path
    summary: dict


def run(cfg: RunConfig, out_dir: str | Path | None = None,
        episode_hook: Callable[[int, object, EpisodeOutcome], None] | None = None,
        *, walk_ahead: bool = True) -> RunResult:
    """Execute one configured run and write ``metrics.csv`` + ``summary.json``.

    The summary's config records the output directory actually used.
    ``episode_hook`` receives ``(t, step_context, outcome)`` after each step;
    the acceptance suite uses it to compare accepted actions against the
    exhaustive oracle on the very contexts the agent saw.  Moving users
    walk ahead of the slot loop in a second process where the host and
    ``walk_ahead`` allow (see :func:`_moving_users`); with ``walk_ahead``
    False they walk in this process, and a static run never forks.
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
    with (_moving_users(scn, streams["mobility"], cfg.episodes, walk_ahead) as move,
          _replacing(csv_path) as tmp, open(tmp, "w", newline="") as fh):
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for t in range(cfg.episodes):
            scn.spawn_arrivals(streams["traffic"])
            ctx = scn.build_step()
            outcome = agent.run_episode(ctx, t, t == cfg.episodes - 1)
            scn.apply(ctx, outcome.ev)
            move()
            lines = acc.push(t, ctx.phi, outcome)
            if lines:  # a full block
                fh.write(lines)
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
    return RunResult(cfg, out, csv_path, summary)


def _run_jobs(jobs: Sequence[tuple[str, RunConfig]], workers: int) -> list[dict]:
    """Run each ``(out_dir, cfg)`` job and return its summary, in job order.

    Jobs are independent runs, so ``workers > 1`` executes them in parallel
    processes without changing any output.  The pool never holds more
    processes than there are jobs or usable CPUs, and its jobs run with
    ``walk_ahead`` False, so its workers move their users themselves and it
    keeps at most ``workers`` processes busy.  Left with one process, the
    jobs run here: each like :func:`run` when ``workers`` is 2 or more, and
    with ``walk_ahead`` False when it is 1.
    """
    pool_size = min(workers, len(jobs), usable_cpus())
    if pool_size <= 1:
        return [run(cfg, out, walk_ahead=workers > 1).summary for out, cfg in jobs]
    # Imported here: it loads multiprocessing, which no single run needs.
    from concurrent.futures import ProcessPoolExecutor

    outs, cfgs = zip(*jobs)
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        results = pool.map(functools.partial(run, walk_ahead=False), cfgs, outs)
        return [result.summary for result in results]


def run_compare(cfg: RunConfig, out_dir: str | Path | None = None) -> list[dict]:
    """Run every agent on the same seed, one job per agent through
    :func:`_run_jobs` with a worker each, and write a joined comparison
    table."""
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    jobs = [(str(out / agent), replace(cfg, agent=agent)) for agent in AGENTS]
    table = [{"agent": summary["agent"], **{k: summary[k] for k in COMPARE_KEYS}}
             for summary in _run_jobs(jobs, len(AGENTS))]
    with _replacing(out / "comparison.csv") as tmp, open(tmp, "w", newline="") as fh:
        fh.write(",".join(table[0]) + "\n")
        fh.writelines(format_row(entry.values()) for entry in table)
    return table


def run_sweep(
    cfg: RunConfig,
    vary: dict[str, Sequence],
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> list[dict]:
    """Cartesian sweep over the listed keys; one subdirectory per combo.

    The combos run through :func:`_run_jobs` with ``workers``, which sets
    how many processes they keep busy.  A combo whose config is invalid, or
    two combos that would share a subdirectory (a repeated value, such as
    ``500`` and ``500.0`` for a float key), raise ``ValidationError`` before
    anything is written.
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
    summaries = _run_jobs(list(jobs.items()), workers)
    entries = [{"out": sub, **{k: summary[k] for k in ("agent", "seed", "ee_overall_mbps_per_dbw")}}
               for sub, summary in zip(jobs, summaries)]
    _write_json(out / "sweep.json", entries)
    return entries


def run_oracle_check(cfg: RunConfig, out_dir: str | Path | None = None) -> dict:
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
    ratios: list[tuple[int, float, float, float]] = []

    def hook(t: int, ctx, outcome: EpisodeOutcome) -> None:
        if outcome.all_sleep:
            return
        _, best_ee = exhaustive_oracle(ctx)
        achieved = outcome.ev.network_ee
        ratio = achieved / best_ee if best_ee > 0.0 else 1.0
        ratios.append((t, achieved, best_ee, ratio))

    run(cfg, out, episode_hook=hook)
    with _replacing(out / "oracle.csv") as tmp, open(tmp, "w", newline="") as fh:
        fh.write("t,achieved_ee,oracle_ee,ratio\n")
        fh.writelines(format_row(entry) for entry in ratios)
    stats = {
        "steps_scored": len(ratios),
        "mean_ratio": float(np.mean([r[3] for r in ratios])) if ratios else None,
        "min_ratio": float(np.min([r[3] for r in ratios])) if ratios else None,
    }
    _write_json(out / "oracle_summary.json", stats)
    return stats
