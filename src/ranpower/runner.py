"""Run orchestration: wiring config to objects, the episode loop, and files.

:func:`run` hands its :class:`RunConfig` to the scenario and the agent,
which read what they need from it.

Determinism contract: all randomness flows from numpy's counter-based
Philox generator, seeded once per run and split into named sub-streams
(model initialisation, user drop, traffic, exploration, replay sampling,
mobility).  Because the streams are independent, switching an agent that
does not consume a stream cannot perturb the others, and two runs with the
same config and seed produce byte-identical CSV output.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
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
from .errors import ValidationError
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
    exhaustive oracle on the very contexts the agent saw.
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
    with _replacing(csv_path) as tmp, open(tmp, "w", newline="") as fh:
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
    more processes than there are combos or CPUs.  A combo whose config is
    invalid, or two combos that would share a subdirectory (a repeated
    value, such as ``500`` and ``500.0`` for a float key), raise
    ``ValidationError`` before anything is written.
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
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it loads multiprocessing, which no single run needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_sweep_one, jobs.items()))
    else:
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
