"""One workload process: a single ``ranpower.runner.run`` with a fixed config.

Started by ``run.py`` as ``python child.py SPEC_JSON`` and never imported by
the simulator.  ``SPEC_JSON`` holds the config, the mode and the launch time.
Modes:

* ``timed``: only a timestamp per slot through ``run``'s ``episode_hook``,
  and the host-speed probe (``SlotClock``).
* ``traced``: as timed, plus spans around the layers' public functions, patched from
  outside (see ``TRACE_POINTS``); kept in memory and written at the end.
* ``check``: traced, plus the independent checks of ``checks.py`` on every
  slot (levels) and on sampled slots (physics).  Never timed.

The result goes to ``child.json`` in the run's output directory.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

# (span name, module, attribute path) of every traced layer entry point.
# The rl functions are patched where ``agents`` looks them up.
TRACE_POINTS = (
    ("scenario.arrivals", "scenario", "Scenario.spawn_arrivals"),
    ("scenario.build_step", "scenario", "Scenario.build_step"),
    ("scenario.apply", "scenario", "Scenario.apply"),
    ("scenario.evaluate", "scenario", "StepContext.evaluate"),
    ("agents.run_episode", "agents", "DqnAgent.run_episode"),
    ("agents.run_episode", "agents", "SleepAgent.run_episode"),
    ("rl.push", "rl", "ReplayMemory.push"),
    ("rl.sample", "rl", "ReplayMemory.sample_minibatch"),
    ("rl.targets", "agents", "minibatch_targets"),
    ("rl.backward", "agents", "backward_and_step"),
    ("rl.sync", "agents", "sync_target"),
    ("metrics.push", "metrics", "MetricsAccumulator.push"),
)
PROBE_EVERY_S = 0.02
# Counted, not timed: network forwards made inside a training round.
FORWARD_POINT = ("rl", "QNetwork.forward_batch")
LEARNER_SPANS = frozenset({"rl.push", "rl.sample", "rl.targets", "rl.backward", "rl.sync"})
ROUND_SPANS = frozenset({"rl.sample", "rl.targets", "rl.backward"})


class Tracer:
    """Spans around calls into the simulator's layers.

    A span is ``(name, start, end, parent index)``; while a call is open its
    slot in ``spans`` holds just the name, so nested wrappers can see which
    layer called them.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.plans: dict[int, bytes] = {}
        self.forwards_in_round = 0
        self.absent: list[str] = []
        self.installed: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import importlib

        for name, module, path in TRACE_POINTS:
            owner, attr = self._resolve(importlib.import_module(f"ranpower.{module}"), path)
            if owner is None:
                self.absent.append(f"{module}.{path}")
                continue
            self._patch(owner, attr, self._span(getattr(owner, attr), name))
            self.installed.add(name)
        owner, attr = self._resolve(importlib.import_module("ranpower.rl"), FORWARD_POINT[1])
        if owner is None:
            self.absent.append(f"rl.{FORWARD_POINT[1]}")
        else:
            self._patch(owner, attr, self._round_counter(getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:  # inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    @staticmethod
    def _resolve(module, path: str):
        owner = module
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            return None, attr
        return owner, attr

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _span(self, fn, name: str):
        spans, stack, plans = self.spans, self.stack, self.plans
        perf_counter = time.perf_counter
        keep_plan = name == "scenario.evaluate"

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(name)
            stack.append(idx)
            if keep_plan and parent >= 0 and spans[parent] == "agents.run_episode":
                plan = args[1] if len(args) > 1 else kwargs["power_idx"]
                plans[idx] = bytes(memoryview(plan))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    def _round_counter(self, fn):
        spans, stack = self.spans, self.stack

        def counted(*args, **kwargs):
            if stack and spans[stack[-1]] in ROUND_SPANS:
                self.forwards_in_round += 1
            return fn(*args, **kwargs)

        return counted

    def train_rounds(self) -> int | None:
        """Gradient steps taken, or None when no learner function is traced."""
        for name in ("rl.backward", "rl.sample"):
            if name in self.installed:
                return sum(1 for span in self.spans if span[0] == name)
        return None

    def layers(self, stamps: list[float]) -> dict[str, float]:
        """Per-layer figures.  Times cover the slots after slot 0 (between
        the first and last slot stamps); counts cover every slot."""
        n_slots = len(stamps)
        window = n_slots - 1
        lo = stamps[0]
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        top = 0.0
        learner_in_episode = 0.0
        evaluated = 0
        per_episode: dict[int, set] = {}
        for idx, (name, t0, t1, parent) in enumerate(self.spans):
            if idx in self.plans:
                evaluated += 1
                per_episode.setdefault(parent, set()).add(self.plans[idx])
            if t0 < lo:
                continue
            d = t1 - t0
            total[name] = total.get(name, 0.0) + d
            count[name] = count.get(name, 0) + 1
            if parent < 0:
                top += d
            elif name in LEARNER_SPANS and self.spans[parent][0] not in LEARNER_SPANS:
                learner_in_episode += d
        distinct = sum(len(s) for s in per_episode.values())
        rounds = self.train_rounds()

        def per_slot(name: str, scale: float) -> float:
            return total.get(name, 0.0) / window * scale

        def per_round(name: str) -> float:
            return total.get(name, 0.0) / rounds * 1e3 if rounds else 0.0

        loop = stamps[-1] - stamps[0]
        return {
            "scenario.arrivals_us_per_slot": per_slot("scenario.arrivals", 1e6),
            "scenario.build_step_us_per_slot": per_slot("scenario.build_step", 1e6),
            "scenario.apply_us_per_slot": per_slot("scenario.apply", 1e6),
            "scenario.evaluate_us_per_call": (
                total.get("scenario.evaluate", 0.0) / count["scenario.evaluate"] * 1e6
                if count.get("scenario.evaluate") else 0.0
            ),
            "agents.search_ms_per_slot": (
                (total.get("agents.run_episode", 0.0) - learner_in_episode) / window * 1e3
            ),
            "agents.evaluate_calls_per_slot": evaluated / n_slots,
            "agents.distinct_candidate_ratio": distinct / evaluated if evaluated else 1.0,
            "rl.train_rounds": rounds or 0,
            "rl.sample_ms_per_round": per_round("rl.sample"),
            "rl.targets_ms_per_round": per_round("rl.targets"),
            "rl.backward_ms_per_round": per_round("rl.backward"),
            "rl.forward_calls_per_round": self.forwards_in_round / rounds if rounds else 0.0,
            "rl.replay_push_us_per_slot": per_slot("rl.push", 1e6),
            "metrics.push_us_per_slot": per_slot("metrics.push", 1e6),
            "runner.other_us_per_slot": (loop - top) / window * 1e6,
        }

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\n")


class SlotChecker:
    """``episode_hook`` of the check run: levels on every slot, physics on
    every ``sample_every``-th slot and the last, replay pushes for DQN."""

    def __init__(self, cfg) -> None:
        import checks

        self.checks = checks
        self.cfg = cfg
        self.levels = checks.power_set_dbw(cfg.p_max_dbw, cfg.delta_p_max_db, cfg.n_power_levels)
        self.sample_every = max(1, cfg.episodes // 50)
        self.errors: list[str] = []
        self.pushes: list[int] = []
        self.expected_ee_allb: dict[int, float] = {}
        self.fallbacks = 0

    def __call__(self, t: int, ctx, outcome) -> None:
        c = self.checks
        ev = outcome.ev
        sched_site = ctx.sched_site
        n_active = len(set(sched_site.tolist()))
        if not outcome.all_sleep and not outcome.feasible:
            self.fallbacks += 1
        self.pushes.append(n_active if outcome.feasible and not outcome.all_sleep else 0)
        self.errors += c.check_levels(
            t, ev.power_dbw, ev.rate_bps, sched_site, self.levels, self.cfg.agent == "sleep"
        )
        if t % self.sample_every and t != self.cfg.episodes - 1:
            return
        physics = c.slot_physics(
            ctx.site_to_user_gain, ctx.serving_gain, sched_site, ev.power_dbw,
            self.cfg.noise_dbw, self.cfg.bandwidth_hz,
        )
        self.errors += c.check_slot(t, physics, ev.user_rates_bps, ev.rate_bps, ev.network_ee)
        active = c.active_stations(sched_site, len(ev.power_dbw))
        self.expected_ee_allb[t] = c.ee_all_stations(physics[2], ev.power_dbw, active)


def blas_info() -> dict:
    """numpy's BLAS build and the thread count its pool actually runs with."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


class SlotClock:
    """``episode_hook`` of every run: a timestamp at the end of each slot.

    With ``probe`` it also times ``host_probe`` at most every
    ``PROBE_EVERY_S`` and takes that time out of the stamps.  The probe's
    median time tracks the host's speed, which on a shared VM can drift by
    ±20% over tens of seconds; ``run.py`` scales slot throughput by it.
    """

    def __init__(self, probe: bool) -> None:
        import numpy as np

        self.stamps: list[float] = []
        self.first_slot_end: float | None = None
        self.probe_s: list[float] = []
        self._probe = probe
        self._paused = 0.0
        self._next = 0.0
        self._gain = np.linspace(0.5, 2.0, 19 * 57).reshape(19, 57)
        self._power = np.linspace(1.0, 2.0, 19)
        self._site = np.arange(57) % 19

    def __call__(self, t, ctx, outcome) -> None:
        now = time.perf_counter()
        self.stamps.append(now - self._paused)
        if self.first_slot_end is None:
            self.first_slot_end = time.monotonic()
        if self._probe and now >= self._next:
            self.host_probe()
            end = time.perf_counter()
            self.probe_s.append(end - now)
            self._paused += end - now
            self._next = end + PROBE_EVERY_S

    def host_probe(self) -> float:
        """A fixed ~0.2 ms mix of what a slot does: small matrix products and
        ufuncs, a keyed Python sort and a bincount."""
        import numpy as np

        acc = 0.0
        users = range(57)
        for i in range(8):
            total = self._power @ self._gain
            own = self._power[i] * self._gain[i]
            acc += float(np.log2(1.0 + own / (total - own + 1e-3)).sum())
            acc += sum(sorted(users, key=lambda u: (u * 7919) % 57)[:3])
            acc += float(np.bincount(self._site, weights=total, minlength=19).sum())
        return acc


def main(spec: dict) -> dict:
    from ranpower import RunConfig, run

    cfg = RunConfig(episodes=spec["episodes"], seed=spec["seed"], **spec["config"]).validate()
    out = Path(spec["out"])
    mode = spec["mode"]
    clock = SlotClock(probe=mode != "check")
    tracer = Tracer() if mode in ("traced", "check") else None
    checker = SlotChecker(cfg) if mode == "check" else None

    def clock_and_check(t, ctx, outcome):
        clock(t, ctx, outcome)
        checker(t, ctx, outcome)

    if tracer is not None:
        tracer.install()
    cpu0 = time.process_time()
    result = run(cfg, out_dir=out, episode_hook=clock_and_check if checker else clock)
    cpu_loop = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    stamps = clock.stamps

    import checks

    report = {
        "mode": mode,
        "setup_s": clock.first_slot_end - spec["launched"],
        "slots": len(stamps) - 1,
        "loop_s": stamps[-1] - stamps[0],
        "cpu_s": cpu_loop,
        "probe_s": statistics.median(clock.probe_s) if clock.probe_s else None,
        "probes": len(clock.probe_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ee": result.summary["ee_overall_mbps_per_dbw"],
        "csv_sha256": checks.sha256_file(result.csv_path),
        "env": blas_info(),
        "slot_ms": [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
    }
    if tracer is not None:
        report["layers"] = tracer.layers(stamps)
        report["absent"] = tracer.absent
        tracer.write(out / "spans.tsv")
    if checker is not None:
        errors = list(checker.errors)
        errors += checks.check_csv(
            result.csv_path.read_text(), cfg.episodes,
            result.summary["ee_overall_mbps_per_dbw"], checker.expected_ee_allb,
        )
        if cfg.agent == "dqn":
            expected = checks.expected_train_rounds(
                checker.pushes, cfg.train_interval, cfg.minibatch_size, cfg.replay_capacity
            )
            errors += checks.check_train_rounds(tracer.train_rounds(), expected)
        report["errors"] = errors
        report["fallbacks"] = checker.fallbacks
        report["slots_checked"] = len(checker.expected_ee_allb)
    return report


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    report = main(spec)
    with open(Path(spec["out"]) / "child.json", "w") as fh:
        json.dump(report, fh)
    sys.exit(0)
