"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single ``criterion N: PASS/FAIL`` line (run with ``-s``
to see the lines as they appear) and then asserts.  The heavy scenario runs
are shared across criteria through module-scoped fixtures: a 5-seed
comparison of all three agents on the 7-station grid, and a 2000-episode
training run on the 3-station fixture.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from ranpower.agents import DqnAgent, _check_accepted, exhaustive_oracle, is_feasible
from ranpower.config import RunConfig
from ranpower.errors import InvariantViolation
from ranpower.radio import dbw_to_watts, watts_to_dbw
from ranpower.rl import empirical_policy_prob, minibatch_targets
from ranpower.runner import make_streams, run, run_sweep, usable_cpus
from ranpower.scenario import Scenario, StepEval

from conftest import GOLDEN_PATH, build_golden_scenario
from test_metrics import (
    library_record,
    make_row,
    read_metrics,
    reference_records,
    row_from_outcome,
)
from test_rl import extract_gradients, numeric_gradient, random_batch, random_network


def report(num, name, ok, detail=""):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# The defaults with the 3-station fixture's four power levels.
THREE_STATION_CFG = RunConfig(n_power_levels=4)


def three_station_scenario():
    """Three stations, one pinned static user each."""
    sites = np.array([[0.0, 0.0], [500.0, 0.0], [250.0, 433.0]])
    users = np.array([[80.0, 30.0], [560.0, 40.0], [180.0, 460.0]])
    return Scenario(sites, THREE_STATION_CFG, users)


@pytest.fixture(scope="module")
def small_dqn_run():
    """2000 training episodes on the 3-station fixture, scored per step."""
    started = time.perf_counter()
    scn = three_station_scenario()
    streams = make_streams(0)
    agent = DqnAgent(
        THREE_STATION_CFG, streams["model"], streams["exploration"], streams["replay"]
    )
    episodes = 2000
    ratios = []
    accepted_violations = 0
    push_violations = 0
    for t in range(episodes):
        scn.spawn_arrivals(streams["traffic"])
        ctx = scn.build_step()
        before = len(agent.memory)
        out = agent.run_episode(ctx, t, t == episodes - 1)
        growth = len(agent.memory) - before
        if before + 3 <= agent.memory.capacity:
            expected = ctx.active_sites.size if out.feasible else 0
            if growth != expected:
                push_violations += 1
        if out.feasible and not is_feasible(out.ev.rate_delta_sum):
            accepted_violations += 1
        if t >= episodes - 200:
            if out.all_sleep:
                ratios.append(None)
            else:
                _, best_ee = exhaustive_oracle(ctx)
                ratios.append(out.ev.network_ee / best_ee)
        scn.apply(ctx, out.ev)
    return {
        "agent": agent,
        "ratios": ratios,
        "accepted_violations": accepted_violations,
        "push_violations": push_violations,
        "elapsed_s": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """All three agents, shared seeds 0..4, on the 7-station grid.

    The 15 runs go through a sweep on every usable CPU, and their figures
    are read from the files each run writes.  A hook cannot cross the pool,
    so the per-slot rows of the DQN's seed-0 run come from one more run of
    it here, whose ``metrics.csv`` must equal the pooled run's.  Every run's
    accepted plans are already checked slot by slot: ``_search`` and
    ``SleepAgent`` pass each one through ``_check_accepted``, which raises
    ``InvariantViolation`` on an infeasible plan and so fails this fixture.
    """
    base_dir = tmp_path_factory.mktemp("desk")
    base_cfg = RunConfig(rings=1, episodes=2000, search_iters=50)
    started = time.perf_counter()
    agents = ("dqn", "qlearning", "sleep")
    run_sweep(base_cfg, {"agent": agents, "seed": range(5)}, base_dir, workers=usable_cpus())
    summaries = {
        agent: [json.loads((base_dir / f"agent={agent}_seed={seed}" / "summary.json").read_text())
                for seed in range(5)]
        for agent in agents
    }
    dqn_csv = {seed: read_metrics(base_dir / f"agent=dqn_seed={seed}" / "metrics.csv")
               for seed in range(5)}

    rows0 = []  # the DQN seed-0 run's slots, for the per-row reference

    def guard_and_keep(t, ctx, outcome):
        assert not outcome.feasible or is_feasible(outcome.ev.rate_delta_sum)
        rows0.append(row_from_outcome(t, ctx.phi, outcome))

    res = run(replace(base_cfg, agent="dqn", seed=0), base_dir / "dqn-0-rows",
              episode_hook=guard_and_keep)
    assert (res.csv_path.read_bytes()
            == (base_dir / "agent=dqn_seed=0" / "metrics.csv").read_bytes())
    return {
        "ee": {a: [s["ee_overall_mbps_per_dbw"] for s in summaries[a]] for a in agents},
        "iters": {a: [s["iterations_overall"] for s in summaries[a]] for a in agents},
        "dqn_csv": dqn_csv,
        "rows0": rows0,
        "elapsed_s": time.perf_counter() - started,
    }


def test_criterion_01_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        hidden = int(rng.integers(4, 12))
        n_actions = int(rng.integers(2, 6))
        net = random_network([2, hidden, n_actions], rng)
        target = random_network([2, hidden, n_actions], rng)
        batch = random_batch(rng, int(rng.integers(6, 16)), n_actions, terminal_every=3)
        targets = minibatch_targets(*batch, target, 0.9)
        grads_w, grads_b = extract_gradients(net, batch, targets)
        for layer in range(len(net.weights)):
            w = net.weights[layer]
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    num = numeric_gradient(net, batch, target, 0.9, w, i, j)
                    assert grads_w[layer][i, j] == pytest.approx(num, rel=1e-4, abs=1e-8)
                    if num != 0.0:
                        worst = max(worst, abs(grads_w[layer][i, j] - num) / abs(num))
            b = net.biases[layer]
            for i in range(b.shape[0]):
                num = numeric_gradient(net, batch, target, 0.9, b, i)
                assert grads_b[layer][i] == pytest.approx(num, rel=1e-4, abs=1e-8)
                if num != 0.0:
                    worst = max(worst, abs(grads_b[layer][i] - num) / abs(num))
    elapsed = time.perf_counter() - started
    report(
        1, "gradient oracle", elapsed < 30.0,
        f"50 instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_small_instance_oracle_equivalence(small_dqn_run):
    ratios = small_dqn_run["ratios"]
    assert len(ratios) == 200
    hits = sum(1 for r in ratios if r is None or r >= 0.95)
    frac = hits / len(ratios)
    elapsed = small_dqn_run["elapsed_s"]
    report(
        2, "small-instance oracle equivalence",
        frac >= 0.9 and elapsed < 120.0,
        f"{frac:.1%} of final 200 episodes within 95% of oracle, {elapsed:.1f}s",
    )


def test_criterion_03_algorithm_ordering(desk_runs):
    ee = {agent: float(np.mean(vals)) for agent, vals in desk_runs["ee"].items()}
    r_ql = ee["dqn"] / ee["qlearning"]
    r_sleep = ee["dqn"] / ee["sleep"]
    ordered = ee["dqn"] > ee["qlearning"] > ee["sleep"]
    elapsed = desk_runs["elapsed_s"]
    report(
        3, "algorithm ordering",
        ordered and r_ql >= 1.03 and r_sleep >= 1.06 and elapsed < 600.0,
        f"dqn/qlearning={r_ql:.4f} (need >=1.03), dqn/sleep={r_sleep:.4f} "
        f"(need >=1.06), ordered={ordered}, {elapsed:.0f}s",
    )


def test_criterion_04_throughput_constraint_soundness(small_dqn_run):
    with pytest.raises(InvariantViolation):
        _check_accepted(
            StepEval(
                power_idx=np.zeros(3, dtype=int),
                power_dbw=np.full(3, 13.2),
                user_rates_bps=np.zeros(3),
                rate_bps=np.zeros(3),
                rate_delta_sum=-1.0,
                link_ee=np.zeros(3),
                network_ee=0.0,
            )
        )
    ok = (
        small_dqn_run["accepted_violations"] == 0
        and small_dqn_run["push_violations"] == 0
    )
    report(
        4, "throughput constraint soundness", ok,
        "0 violations over 2000 episodes; negative delta sum aborts",
    )


def test_criterion_05_convergence_speed(desk_runs):
    ok = True
    reached = []
    for records in desk_runs["dqn_csv"].values():
        series = [rec["success_cum"] for rec in records]
        tail = series[199:]
        ok &= all(v is not None and v >= 0.9 for v in tail)
        first = next(
            (i for i, v in enumerate(series) if v is not None and v >= 0.9), None
        )
        reached.append(first)
    report(
        5, "convergence speed", ok,
        f"success ratio >=0.9 from episode {max(reached)} on, all 5 seeds",
    )


def test_criterion_06_iteration_complexity_ordering(desk_runs):
    n_dqn = float(np.mean(desk_runs["iters"]["dqn"]))
    n_ql = float(np.mean(desk_runs["iters"]["qlearning"]))
    report(
        6, "iteration complexity ordering", n_dqn < n_ql,
        f"mean accepted iteration {n_dqn:.2f} (dqn) vs {n_ql:.2f} (qlearning)",
    )


def test_criterion_07_metric_identities(desk_runs, small_dqn_run):
    records = desk_runs["dqn_csv"][0]
    reference = reference_records(desk_runs["rows0"], p_max_dbw=15.2)
    assert len(records) == len(reference)
    worst = 0.0
    for rec, ref in zip(records, reference):
        for key in ("ee_cum", "thr_cum_bps", "pwr_cum_dbw", "success_cum", "iter_cum"):
            if ref[key] is None:
                assert rec[key] is None
            else:
                worst = max(worst, abs(rec[key] - ref[key]))
    assert desk_runs["ee"]["dqn"][0] == pytest.approx(reference[-1]["ee_cum"], abs=1e-9)

    uniform = make_row(phi=np.ones(7), power_dbw=np.full(7, 14.2), rate_bps=np.ones(7),
                       link_ee=np.ones(7), n_star=1)
    power_err = abs(library_record(uniform)["pwr_avg_dbw"] - 14.2)

    memory = small_dqn_run["agent"].memory
    prob_sum = sum(empirical_policy_prob(memory, a, 0.1, 4) for a in range(4))
    prob_err = abs(prob_sum - 1.0)

    report(
        7, "metric identities",
        worst <= 1e-9 and power_err <= 1e-12 and prob_err <= 1e-9,
        f"csv vs per-row reference {worst:.1e}, identical-level power err {power_err:.1e}, "
        f"policy prob sum err {prob_err:.1e}",
    )


def test_criterion_08_unit_round_trips():
    grid = np.linspace(-200.0, 200.0, 4001)
    back = np.array([watts_to_dbw(dbw_to_watts(x)) for x in grid])
    nonzero = grid != 0.0
    rel = np.abs(back[nonzero] - grid[nonzero]) / np.abs(grid[nonzero])
    abs_zero = np.abs(back[~nonzero] - grid[~nonzero])
    spot = dbw_to_watts(15.2)
    report(
        8, "unit round trips",
        float(rel.max()) <= 1e-12 and float(abs_zero.max(initial=0.0)) <= 1e-12
        and round(spot, 3) == 33.113,
        f"max rel err {rel.max():.1e} over [-200,200] dBW, 15.2 dBW -> {spot:.3f} W",
    )


def test_criterion_09_determinism(tmp_path):
    cfg0 = RunConfig(rings=1, episodes=300, search_iters=50, seed=7)
    identical = True
    for agent in ("dqn", "qlearning", "sleep"):
        cfg = replace(cfg0, agent=agent)
        run(cfg, tmp_path / f"{agent}-a")
        run(cfg, tmp_path / f"{agent}-b")
        a = (tmp_path / f"{agent}-a" / "metrics.csv").read_bytes()
        b = (tmp_path / f"{agent}-b" / "metrics.csv").read_bytes()
        identical &= a == b
    report(
        9, "determinism", identical,
        "byte-identical metrics.csv for dqn, qlearning, sleep",
    )


def test_criterion_10_single_episode_physics():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    scn = build_golden_scenario(golden["inputs"])
    ctx = scn.build_step()
    want = golden["chosen"]
    ev = ctx.evaluate(np.asarray(golden["inputs"]["chosen_power_idx"]))
    rel = 1e-9
    ok = (
        ev.user_rates_bps == pytest.approx(want["user_rate_bps"], rel=rel)
        and ev.rate_bps == pytest.approx(want["site_rate_bps"], rel=rel)
        and ev.link_ee == pytest.approx(want["link_ee"], rel=rel)
        and ev.network_ee == pytest.approx(want["network_ee"], rel=rel)
        and ctx.full_power.rate_bps == pytest.approx(golden["reference"]["user_rate_bps"], rel=rel)
    )
    snr = 2.0 ** (ev.user_rates_bps / ctx.cfg.bandwidth_hz) - 1.0
    ok &= snr == pytest.approx(want["snr"], rel=1e-6)

    decl = golden["uniform_min_decline"]
    ev_min = ctx.evaluate(np.zeros(3, dtype=int))
    rec = library_record(
        make_row(phi=ctx.phi, power_dbw=ev_min.power_dbw, rate_bps=ev_min.rate_bps,
                 link_ee=ev_min.link_ee, ee_reward=ev_min.network_ee),
        golden["inputs"]["p_max_dbw"],
    )
    rsrp, itf, gap = rec["rsrp_decl_dbw"], rec["itf_decl_dbw"], rec["decl_gap_dbw"]
    ok &= rsrp == pytest.approx(decl["rsrp_decline_dbw"], rel=rel)
    ok &= itf == pytest.approx(decl["interference_decline_dbw"], rel=rel)
    ok &= gap == pytest.approx(decl["gap_dbw"], rel=rel)
    ok &= gap > 0.0
    report(
        10, "single-episode physics regression", ok,
        "SINR/rate/EE match the golden file at 1e-9; interference decline "
        "exceeds the serving-power decline on the cooperative fixture",
    )
