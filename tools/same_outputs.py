"""Check that a revision and the working tree write the same output bytes.

    python3 tools/same_outputs.py REV [--seeds 1 2 ...]

Run from the repository root.  Each shape in ``SHAPES`` runs at each seed
through ``python -m ranpower.cli run``: once on a ``git archive REV`` copy
in a temp directory and once on this working tree.  A waypoint shape runs
on the working tree a second time, pinned to one CPU by
``os.sched_setaffinity`` in that subprocess alone, so its users walk in the
run's own process instead of a forked one: both gain sources are checked
against the revision's bytes.  The sha256 of ``metrics.csv`` and, where
either side writes one, ``weights.bin`` must match, and so must
``summary.json``, which carries the ``learner`` block that no CSV byte
shows, without ``wall_clock_s`` and ``config.out_dir``: the first varies
run to run, and the two sides write to different temp directories.  Prints
one line per run and exits 1 on any difference or failed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAPER_DQN = {"rings": 2, "agent": "dqn", "search_iters": 100}
DESK_DQN = {"rings": 1, "per_sector_users": 2, "agent": "dqn", "search_iters": 10,
            "train_interval": 5}
# The benchmark's three workloads, then DQN with moving users at both shapes,
# Q-learning at both shapes and a small-batch DQN learner.  With 10
# candidates the desk search rates an 8-row head and, when that holds no
# feasible plan, a 2-row rest.  The small-batch learner trains every slot on
# two samples from a 50-slot ring and syncs every 3 rounds, so its rounds
# pad one-row needs for stored bootstrap values, meet batches with one live
# row at terminal steps, wrap the ring and re-evaluate after frequent syncs.
# The one-row learner samples a single transition, so every round takes the
# fewer-than-two-live-rows path and stores no bootstrap value.  The deep
# learner trains a three-hidden-layer network every other slot, so its
# backward pass writes errors into the activation buffers of three hidden
# layers.  The 37-site sleep run gives the metrics columns their widest row
# sums.  The 37-site DQN search sums the most stations into each
# interference entry and splits 100 candidates into a head and a rest.  The
# single-site DQN drops three users into each sector of one site, the one
# case of the user drop that no other shape reaches (every other shape has at
# least 7 sites and at most 2 users per sector), and trains on 64-row
# minibatches, since one site fills its replay by one transition a slot.
# The fast sleep run moves users at 30 m/s, 60 m over its 2,000 slots, so
# their per-slot gains cross sector edges; the other waypoint shapes walk at
# 1 m/s and move their users 0.6-5 m.
SHAPES = {
    "paper-dqn-search": {**PAPER_DQN, "episodes": 600},
    "desk-dqn-train": {**DESK_DQN, "episodes": 800},
    "paper-sleep-mobile": {"rings": 2, "agent": "sleep", "mobility": "waypoint",
                           "episodes": 5000},
    "paper-dqn-waypoint": {**PAPER_DQN, "mobility": "waypoint", "episodes": 600},
    "desk-dqn-waypoint": {**DESK_DQN, "mobility": "waypoint", "episodes": 800},
    "paper-qlearning": {**PAPER_DQN, "agent": "qlearning", "episodes": 600},
    "desk-qlearning": {**DESK_DQN, "agent": "qlearning", "episodes": 800},
    "desk-dqn-small-batch": {"rings": 1, "agent": "dqn", "search_iters": 4,
                             "minibatch_size": 2, "train_interval": 1, "sync_interval": 3,
                             "replay_capacity": 50, "episodes": 400},
    "desk-dqn-one-row": {"rings": 1, "agent": "dqn", "search_iters": 4,
                         "minibatch_size": 1, "train_interval": 1, "sync_interval": 3,
                         "replay_capacity": 20, "episodes": 300},
    "desk-dqn-deep": {"rings": 1, "agent": "dqn", "search_iters": 10, "hidden_layers": 3,
                      "hidden_units": 16, "minibatch_size": 64, "train_interval": 2,
                      "sync_interval": 3, "replay_capacity": 400, "episodes": 400},
    "wide-sleep": {"rings": 3, "agent": "sleep", "episodes": 2000},
    "wide-dqn": {"rings": 3, "agent": "dqn", "search_iters": 100, "episodes": 300},
    "single-site": {"rings": 0, "per_sector_users": 3, "agent": "dqn", "search_iters": 10,
                    "train_interval": 5, "minibatch_size": 64, "episodes": 600},
    "fast-waypoint": {"rings": 2, "agent": "sleep", "mobility": "waypoint",
                      "user_speed_mps": 30.0, "episodes": 2000},
}
OUTPUTS = ("metrics.csv", "weights.bin")


def sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def summary_sha256(path: Path) -> str:
    """Digest of ``summary.json`` without the fields that differ by construction."""
    summary = json.loads(path.read_text())
    del summary["wall_clock_s"]
    del summary["config"]["out_dir"]
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def one_cpu() -> None:
    """``preexec_fn`` of a pinned run: this child may use one CPU only."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_once(tree: Path, config: dict, seed: int, out: Path,
             pinned: bool = False) -> dict[str, str | None]:
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, "-m", "ranpower.cli", "run", "--config", str(cfg),
           "--seed", str(seed), "--out", str(out), "--quiet"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          preexec_fn=one_cpu if pinned else None)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return {**{name: sha256(out / name) for name in OUTPUTS},
            "summary.json": summary_sha256(out / "summary.json")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        base = Path(tmp) / "rev"
        base.mkdir()
        subprocess.run(
            f"git archive {shlex.quote(args.rev)} | tar -x -C {shlex.quote(str(base))}",
            shell=True, check=True, cwd=ROOT,
        )
        runs = 0
        for name, config in SHAPES.items():
            passes = (False, True) if config.get("mobility") == "waypoint" else (False,)
            for seed in args.seeds:
                want = None
                for pinned in passes:
                    runs += 1
                    label = f"{name} seed={seed}{' one-cpu' if pinned else ''}"
                    tag = f"{name}/{seed}"
                    try:
                        want = want or run_once(base, config, seed, Path(tmp) / "a" / tag)
                        got = run_once(ROOT, config, seed,
                                       Path(tmp) / ("c" if pinned else "b") / tag, pinned)
                    except RuntimeError as exc:
                        print(f"{label}: FAILED {exc}")
                        differ += 1
                        continue
                    diff = [k for k in want if want[k] != got[k]]
                    differ += bool(diff)
                    status = f"DIFFER in {', '.join(diff)}" if diff else "same"
                    print(f"{label}: {status} (metrics.csv {got['metrics.csv'][:12]})",
                          flush=True)
    print(f"{differ} of {runs} runs differ or failed")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
