"""Benchmark of the simulated slot, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of ``WORKLOADS`` or ``all``.
Every workload run is a fresh process (``child.py``) doing one
``ranpower.runner.run`` on the workload's config with ``--seed`` as the
program seed; processes run one at a time.  First comes one check run
(traced, with the independent checks of ``checks.py``), then whole rounds
of timed runs for about ``--seconds`` seconds.  With ``--trace 1`` a round
is one untraced and one traced run, and the per-layer figures are
printed instead of the end-to-end ones.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, environment included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads here or in any workload
# process: OpenBLAS's default pool makes learner timings bimodal.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 150.0
# slots_per_s and setup_s are wall-clock figures scaled to a host on which
# the workload process's speed probe (child.SlotClock.host_probe) takes this long.
NOMINAL_PROBE_S = 200e-6


@dataclass(frozen=True)
class Workload:
    """One program config; ``episodes`` slots per workload run.  The reasons
    for each workload are in BENCHMARK.json and README.md."""

    name: str
    config: dict
    episodes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-dqn-search",
            {"rings": 2, "agent": "dqn", "search_iters": 100, "mobility": "static"},
            episodes=600,
        ),
        Workload(
            "desk-dqn-train",
            {"rings": 1, "per_sector_users": 2, "agent": "dqn", "search_iters": 10,
             "train_interval": 5},
            episodes=800,
        ),
        Workload(
            "paper-sleep-mobile",
            {"rings": 2, "agent": "sleep", "mobility": "waypoint"},
            episodes=5000,
        ),
    )
}

# Deterministic per seed: taken from the check run, not a median of timings.
LAYER_COUNTS = ("agents.evaluate_calls_per_slot", "agents.distinct_candidate_ratio",
                "rl.train_rounds", "rl.forward_calls_per_round")


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def git_revision() -> str:
    """HEAD's commit id, read from ``.git`` without asking git to search parents."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def launch(workload: Workload, seed: int, mode: str, out: Path) -> dict | None:
    """Run one workload process to its end; its report, or None if it failed."""
    out.mkdir(parents=True)
    spec = {"config": workload.config, "episodes": workload.episodes, "seed": seed,
            "mode": mode, "out": str(out)}
    with open(out / "stderr.txt", "w") as err:
        spec["launched"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (out / "stderr.txt").read_text()[-2000:]
        print(f"{workload.name} {mode} run exited with {code}:\n{tail}", file=sys.stderr)
        return None
    return json.loads((out / "child.json").read_text())


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Check run, then timed rounds for ``seconds``; the result record."""
    import checks

    out = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    check = launch(workload, seed, "check", out / "check")
    if check is None:
        raise BenchError(f"the check run of {workload.name} failed")
    modes = ("timed", "traced") if trace else ("timed",)
    reports: dict[str, list[dict]] = {m: [] for m in modes}
    attempted, failed = 1, 0
    started = time.monotonic()
    rounds = 0
    while True:
        for mode in modes:
            attempted += 1
            report = launch(workload, seed, mode, out / f"{mode}{rounds}")
            if report is None:
                failed += 1
            else:
                reports[mode].append(report)
        rounds += 1
        elapsed = time.monotonic() - started
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    if not all(reports.values()):
        raise BenchError(f"every timed run of {workload.name} failed")

    done = [check] + [r for rs in reports.values() for r in rs]
    errors = check["errors"] + checks.check_digests([r["csv_sha256"] for r in done])
    timed = reports["timed"]
    speed = statistics.median(map(scaled_speed, timed))
    if trace:
        metrics = layer_metrics(check, reports["traced"], speed)
    else:
        metrics = {
            "slots_per_s": speed,
            "setup_s": statistics.median(map(scaled_setup, timed)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            "ee_mbps_per_dbw": timed[0]["ee"],
        }
    for r in done:
        r.pop("slot_ms")
    record = {
        "workload": workload.name,
        "config": {**workload.config, "episodes": workload.episodes, "seed": seed},
        "seconds": seconds,
        "trace": int(trace),
        "correct": not errors,
        "errors": errors[:50],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "wall_slots_per_s": statistics.median(r["slots"] / r["loop_s"] for r in timed),
        "wall_setup_s": statistics.median(r["setup_s"] for r in timed),
        "env": {
            "git_revision": git_revision(),
            "python": platform.python_version(),
            **check["env"],
            "blas_env": BLAS_ENV,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "seed": seed,
        },
        "check": check,
        "runs": reports,
    }
    for sub in out.iterdir():
        if sub.is_dir() and sub.name != "check":
            shutil.rmtree(sub)
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def scaled_speed(report: dict) -> float:
    """Slots per second of one run, scaled to the nominal host speed."""
    return report["slots"] / report["loop_s"] * report["probe_s"] / NOMINAL_PROBE_S


def scaled_setup(report: dict) -> float:
    """Set-up seconds of one run, scaled to the nominal host speed."""
    return report["setup_s"] * NOMINAL_PROBE_S / report["probe_s"]


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, as declared
    in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def layer_metrics(check: dict, traced: list[dict], untraced_speed: float) -> dict:
    """Per-layer figures: medians over traced runs, counts from the check run."""
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    for name in LAYER_COUNTS:
        layers[name] = check["layers"][name]
    layers["agents.fallbacks"] = check["fallbacks"]
    slot_ms = sorted(x for r in traced for x in r["slot_ms"])
    cuts = statistics.quantiles(slot_ms, n=100)
    layers["runner.slot_ms_p50"] = statistics.median(slot_ms)
    layers["runner.slot_ms_p99"] = cuts[98]
    traced_speed = statistics.median(map(scaled_speed, traced))
    layers["trace.overhead_pct"] = (untraced_speed / traced_speed - 1.0) * 100.0
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its workload process (see launch).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "ranpower" / "__init__.py").is_file():
        print(f"no ranpower package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    end_to_end, per_layer = metric_units()
    units = per_layer if args.trace else end_to_end
    records = []
    try:
        for name in names:
            records.append(run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        print(f"# {rec['workload']} seed={args.seed} correct={rec['correct']} "
              f"attempted={rec['attempted']} failed={rec['failed']} "
              f"wall_slots_per_s={rec['wall_slots_per_s']!r} wall_setup_s={rec['wall_setup_s']!r} "
              f"env={json.dumps(rec['env'])}")
        for err in rec["errors"]:
            print(f"# error: {err}")
        for name, unit in units.items():
            value = rec["metrics"][name]
            print(f"{prefix}{name} {value!r} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
