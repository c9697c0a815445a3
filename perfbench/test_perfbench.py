"""Fast tests of the benchmark itself: each workload path at a tiny shape,
and each correctness check failing on a perturbed input.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import run as bench  # noqa: E402

TINY = {
    "paper-dqn-search": ({"rings": 1, "search_iters": 8}, 40),
    "desk-dqn-train": ({"rings": 1, "search_iters": 4, "minibatch_size": 20,
                        "replay_capacity": 60}, 60),
    "paper-sleep-mobile": ({"rings": 1}, 60),
}


def tiny(name: str) -> bench.Workload:
    overrides, episodes = TINY[name]
    wl = bench.WORKLOADS[name]
    return dataclasses.replace(wl, config={**wl.config, **overrides}, episodes=episodes)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_path_runs_correct(name, trace, out_dir):
    record = bench.run_workload(tiny(name), seed=3, seconds=0.0, trace=trace)
    assert record["errors"] == []
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] == (3 if trace else 2)
    end_to_end, per_layer = bench.metric_units()
    assert set(per_layer if trace else end_to_end) <= set(record["metrics"])
    assert record["env"]["blas_threads"] in (1, None)
    assert record["check"]["slots_checked"] > 0
    if name == "desk-dqn-train" and trace:
        assert record["metrics"]["rl.train_rounds"] > 0
        assert record["metrics"]["rl.forward_calls_per_round"] == 20


def test_tracer_reports_a_removed_function_as_absent(monkeypatch):
    points = child.TRACE_POINTS + (("scenario.gone", "scenario", "Scenario.no_such_method"),)
    monkeypatch.setattr(child, "TRACE_POINTS", points)
    tracer = child.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["scenario.Scenario.no_such_method"]


@pytest.fixture(scope="module")
def slots(tmp_path_factory):
    """(ctx, outcome) of every slot of a small DQN run, plus its config."""
    from ranpower import RunConfig, run

    cfg = RunConfig(rings=1, episodes=30, search_iters=6, seed=5).validate()
    seen = []
    run(cfg, out_dir=tmp_path_factory.mktemp("slots"),
        episode_hook=lambda t, ctx, o: seen.append((t, ctx, o)))
    busy = [s for s in seen if len(s[1].sched_site) >= 2]
    assert busy
    return cfg, busy


def _slot_errors(cfg, t, ctx, ev, rates_scale=1.0, ee_shift=0.0):
    physics = checks.slot_physics(
        ctx.site_to_user_gain, ctx.serving_gain, ctx.sched_site, ev.power_dbw,
        cfg.noise_dbw, cfg.bandwidth_hz,
    )
    return checks.check_slot(
        t, physics, ev.user_rates_bps * rates_scale, ev.rate_bps, ev.network_ee + ee_shift
    )


def test_check_slot_passes_the_program_and_catches_a_scaled_rate(slots):
    cfg, busy = slots
    for t, ctx, outcome in busy:
        assert _slot_errors(cfg, t, ctx, outcome.ev) == []
    t, ctx, outcome = busy[0]
    assert _slot_errors(cfg, t, ctx, outcome.ev, rates_scale=1.0 + 1e-6)
    assert _slot_errors(cfg, t, ctx, outcome.ev, ee_shift=1e-6)


def test_slot_physics_matches_a_hand_computed_pair():
    gain = np.array([[1e-6, 2e-8], [3e-8, 4e-6]])
    power = np.array([10.0, 13.0])
    sinr, rate_u, rate_b, ee = checks.slot_physics(
        gain, np.array([1e-6, 4e-6]), np.array([0, 1]), power, -100.0, 1e6
    )
    p0, p1, n = 10.0, 10.0 ** 1.3, 1e-10
    want = [p0 * 1e-6 / (p1 * 3e-8 + n), p1 * 4e-6 / (p0 * 2e-8 + n)]
    assert np.allclose(sinr, want, rtol=1e-12)
    assert np.allclose(rate_b, 1e6 * np.log2(1 + np.array(want)), rtol=1e-12)
    assert ee == pytest.approx((rate_b[0] / 1e6 / 10.0 + rate_b[1] / 1e6 / 13.0) / 2)


def test_check_levels_catches_off_grid_levels_sleeper_rates_and_sleep_backoff():
    levels = checks.power_set_dbw(15.2, 2.0, 5)
    power = np.array([15.2, 13.2, 15.2])
    rate = np.array([5e6, 4e6, 0.0])
    sched = np.array([0, 1])
    assert checks.check_levels(0, power, rate, sched, levels, sleep_agent=False) == []
    assert checks.check_levels(0, power + [0, 0.1, 0], rate, sched, levels, False)
    assert checks.check_levels(0, power, rate + [0, 0, 1.0], sched, levels, False)
    assert checks.check_levels(0, power, rate, sched, levels, sleep_agent=True)
    assert checks.check_levels(0, np.full(3, 15.2), rate, sched, levels, sleep_agent=True) == []


def _csv(rows):
    return "t,ee_avg_allB\n" + "".join(f"{t},{e!r}\n" for t, e in rows)


def test_check_csv_catches_a_dropped_row_a_bad_t_and_a_wrong_value():
    rows = [(0, 0.5), (1, 0.7), (2, 0.9)]
    mean = (0.5 + 0.7 + 0.9) / 3
    assert checks.check_csv(_csv(rows), 3, mean, {1: 0.7}) == []
    assert checks.check_csv(_csv(rows[:2]), 3, mean, {1: 0.7})
    assert checks.check_csv(_csv([(0, 0.5), (2, 0.7), (1, 0.9)]), 3, mean, {})
    assert checks.check_csv(_csv(rows), 3, mean * (1 + 1e-6), {})
    assert checks.check_csv(_csv(rows), 3, mean, {1: 0.7 * (1 + 1e-6)})


def test_train_round_count_follows_interval_and_fill():
    # fill after slot t: 3, 6, 9, 12, 15, 18; more than 8 from slot 2 on
    pushes = [3] * 6
    assert checks.expected_train_rounds(pushes, 2, 8, 100) == 2  # slots 2 and 4
    assert checks.expected_train_rounds(pushes, 2, 8, 8) == 0  # capacity caps fill
    assert checks.check_train_rounds(2, 2) == []
    assert checks.check_train_rounds(3, 2)
    assert checks.check_train_rounds(None, 2)


def test_check_digests_catches_a_differing_repeat():
    assert checks.check_digests(["a", "a", "a"]) == []
    assert checks.check_digests(["a", "b", "a"])
