"""Inner search mechanics, the three agents, and the exhaustive oracle."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranpower import agents
from ranpower.agents import (
    DqnAgent,
    EpisodeOutcome,
    QLearningAgent,
    SleepAgent,
    _best_feasible,
    _check_accepted,
    _first_feasible,
    _search,
    exhaustive_oracle,
)
from ranpower.config import RunConfig
from ranpower.errors import InvariantViolation, ValidationError
from ranpower.rl import state_bin, tabular_q_update
from ranpower.runner import run
from ranpower.scenario import StepEval

from conftest import assert_same_eval, hex_scenario, make_scenario
from test_rl import reference_targets


@pytest.fixture
def loaded_ctx(three_site):
    """Three active stations, every user holding 1e5 pending bits."""
    scn = make_scenario(three_site, seed=11)
    scn.residual_bits[:] = 1e5
    scn.arrival_step[:] = 0
    return scn.build_step()


# A rate delta sum that the throughput constraint rejects, whichever sign it holds.
INFEASIBLE_DELTA = next(d for d in (-1.0, 1.0) if not agents.is_feasible(d))


class InfeasibleCtx:
    """Duck-typed step on which only the full-power assignment is feasible."""

    def __init__(self, n_sites=2, n_levels=3):
        self.n_sites = n_sites
        self.n_levels = n_levels
        self.active_sites = np.arange(n_sites)
        self.any_active = True
        self.features = np.full((n_sites, 2), 0.5)
        self.full_power = self.evaluate(np.full(n_sites, n_levels - 1))

    def evaluate(self, power_idx):
        power_idx = np.asarray(power_idx, dtype=int)
        plans = np.atleast_2d(power_idx)
        shape = plans.shape
        full = np.all(plans == self.n_levels - 1, axis=1)
        evs = StepEval(
            power_idx=plans,
            power_dbw=np.full(shape, 15.2),
            user_rates_bps=np.zeros(shape),
            rate_bps=np.full(shape, 1e6),
            rate_delta_sum=np.where(full, 0.0, INFEASIBLE_DELTA),
            link_ee=np.full(shape, 0.25),
            network_ee=np.full(shape[0], 0.25),
        )
        return evs if power_idx.ndim == 2 else evs.row(0)

    def next_features(self, ev):
        return self.features


class CountingCtx:
    """Forwards to a real step and records the number of plans of every
    evaluator call, keeping each batch it rated."""

    def __init__(self, ctx):
        self._ctx = ctx
        self.calls = []
        self.rated = []

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def evaluate(self, power_idx):
        self.calls.append(len(np.atleast_2d(power_idx)))
        self.rated.append(self._ctx.evaluate(power_idx))
        return self.rated[-1]


def full_batch_search(ctx, qrows, n_iterations, epsilon, rng):
    """The search as one batch of all K candidates, the reference that the
    best-first ``_search`` must equal: the same two draws, one evaluation
    of every candidate, and the highest-scoring feasible one, the earliest
    on ties.  Returns the outcome, the batch and each candidate's score."""
    active = ctx.active_sites
    greedy = np.argmax(qrows[active], axis=1)
    explore = rng.random((n_iterations, active.size)) < epsilon
    random_levels = rng.integers(qrows.shape[1], size=(n_iterations, active.size))
    picks = np.where(explore, random_levels, greedy)
    idx = np.full((n_iterations, ctx.n_sites), ctx.n_levels - 1, dtype=int)
    idx[:, active] = picks
    evs = ctx.evaluate(idx)
    scores = qrows[active, picks].sum(axis=1)
    feasible = agents.is_feasible(evs.rate_delta_sum)
    if not feasible.any():
        return EpisodeOutcome(ev=ctx.full_power, accepted_iteration=None), evs, scores
    best = int(np.argmax(np.where(feasible, scores, -np.inf)))
    return EpisodeOutcome(ev=evs.row(best), accepted_iteration=best + 1), evs, scores


def assert_same_outcome(got, want):
    """Same accepted iteration and the same executed eval, bit for bit."""
    assert got.accepted_iteration == want.accepted_iteration
    assert got.all_sleep == want.all_sleep
    assert_same_eval(got.ev, want.ev)


def search(ctx, qrows, n_iterations, epsilon, seed):
    """The search's outcome on ``ctx``, checked against the full-batch
    reference drawn from the same seed, plus that reference's batch of all
    K candidates and each candidate's score."""
    out = _search(ctx, qrows, n_iterations, epsilon, np.random.default_rng(seed))
    want, evs, scores = full_batch_search(
        ctx, qrows, n_iterations, epsilon, np.random.default_rng(seed)
    )
    assert_same_outcome(out, want)
    return out, evs, scores


def test_search_greedy_tie_keeps_earliest_iteration(loaded_ctx):
    """With no exploration every draw repeats, so iteration 1 must win."""
    qrows = np.zeros((3, loaded_ctx.n_levels))
    out, evs, _ = search(loaded_ctx, qrows, 10, 0.0, 0)
    assert out.accepted_iteration == 1
    assert len(evs.power_idx) == 10
    assert np.all(evs.rate_delta_sum >= 0.0)
    assert np.array_equal(out.ev.power_idx, np.zeros(3, dtype=int))


def test_search_ties_break_low(loaded_ctx):
    """Tied action values go to the lowest power level."""
    qrows = np.tile([7.0, 7.0, 1.0, 7.0], (3, 1))
    _, evs, _ = search(loaded_ctx, qrows, 5, 0.0, 0)
    assert np.all(evs.power_idx == 0)


def test_search_accepts_highest_scoring_feasible_candidate(loaded_ctx):
    qrows = np.random.default_rng(3).normal(size=(3, loaded_ctx.n_levels))
    out, evs, scores = search(loaded_ctx, qrows, 40, 0.5, 7)
    ev, n_star = out.ev, out.accepted_iteration
    feasible = evs.rate_delta_sum >= 0.0
    assert feasible.any(), "the draw should hit at least one feasible candidate"
    best = scores[feasible].max()
    assert feasible[n_star - 1]
    assert scores[n_star - 1] == pytest.approx(best, rel=1e-12)
    assert np.array_equal(ev.power_idx, evs.power_idx[n_star - 1])
    earlier = np.flatnonzero(feasible & (scores >= best - 1e-15))
    assert n_star == earlier[0] + 1


def test_search_rejects_higher_scoring_infeasible_candidates(loaded_ctx):
    """The greedy draw (0, 1, 0) is infeasible here and scores highest; the
    accepted candidate must come from the feasible exploration draws."""
    qrows = np.zeros((3, loaded_ctx.n_levels))
    qrows[0, 0] = qrows[1, 1] = qrows[2, 0] = 5.0
    assert loaded_ctx.evaluate(np.array([0, 1, 0])).rate_delta_sum < 0.0
    out, evs, scores = search(loaded_ctx, qrows, 60, 0.5, 1)
    assert out.feasible
    assert out.ev.rate_delta_sum >= 0.0
    assert np.any((evs.rate_delta_sum < 0.0) & (scores > scores[out.accepted_iteration - 1]))


def test_search_returns_none_when_nothing_is_feasible(loaded_ctx):
    """Pin the greedy draw to an infeasible assignment and disable
    exploration: no iteration is accepted and full power runs."""
    qrows = np.zeros((3, loaded_ctx.n_levels))
    qrows[0, 0] = qrows[1, 1] = qrows[2, 0] = 5.0
    out = _search(loaded_ctx, qrows, 8, 0.0, np.random.default_rng(0))
    assert out.accepted_iteration is None
    assert not out.feasible
    assert out.ev is loaded_ctx.full_power


def test_search_exploits_argmax(loaded_ctx):
    """With no exploration every candidate is each station's argmax."""
    qrows = np.zeros((3, loaded_ctx.n_levels))
    qrows[0, 1] = qrows[1, 2] = qrows[2, 3] = 1.0
    out, evs, scores = search(loaded_ctx, qrows, 5, 0.0, 0)
    assert np.all(evs.power_idx == [1, 2, 3])
    assert out.accepted_iteration == 1
    assert scores[0] == 3.0
    assert np.array_equal(out.ev.power_idx, [1, 2, 3])


def test_search_explore_is_roughly_uniform(loaded_ctx):
    """Epsilon 1 ignores the values: every level of every station is drawn
    about equally often."""
    qrows = np.tile([9.0, 0.0, 0.0, 0.0], (3, 1))
    _, evs, _ = search(loaded_ctx, qrows, 2000, 1.0, 12)
    counts = np.bincount(evs.power_idx.ravel(), minlength=4)
    # 6000 draws, each level expects 1500, sigma ~ 33.5; allow 4 sigma
    assert np.all(np.abs(counts - 1500) < 134)


def test_search_scale_invariance(loaded_ctx):
    qrows = np.random.default_rng(3).normal(size=(3, loaded_ctx.n_levels))
    a = _search(loaded_ctx, qrows, 30, 0.3, np.random.default_rng(4))
    b = _search(loaded_ctx, qrows * 37.5, 30, 0.3, np.random.default_rng(4))
    assert a.accepted_iteration == b.accepted_iteration
    assert np.array_equal(a.ev.power_idx, b.ev.power_idx)


def test_search_accepts_the_row_it_tested(loaded_ctx):
    """The head, and at most one more batch, rate the candidates, and the
    accepted eval is a row of the last batch rated: nothing is re-evaluated
    after the feasibility test."""
    ctx = CountingCtx(loaded_ctx)
    qrows = np.random.default_rng(3).normal(size=(3, loaded_ctx.n_levels))
    out = _search(ctx, qrows, 40, 0.5, np.random.default_rng(7))
    ev, n_star = out.ev, out.accepted_iteration
    assert ctx.calls in ([8], [8, 32])
    evs = ctx.rated[-1]
    (k, *_) = np.flatnonzero((evs.power_idx == ev.power_idx).all(axis=1))
    assert ev.rate_delta_sum == evs.rate_delta_sum[k]
    assert np.shares_memory(ev.user_rates_bps, evs.user_rates_bps)
    assert ev.rate_delta_sum >= 0.0
    _, full, _ = full_batch_search(loaded_ctx, qrows, 40, 0.5, np.random.default_rng(7))
    assert np.array_equal(ev.power_idx, full.power_idx[n_star - 1])
    _check_accepted(ev)


def seven_site_ctx():
    """Seven sites, two users per sector, every user holding 1e5 pending bits."""
    scn = hex_scenario(1, seed=3, per_sector_users=2)
    scn.residual_bits[:] = 1e5
    scn.arrival_step[:] = 0
    return scn.build_step()


@pytest.mark.parametrize("values", ["tied", "random"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("n_iterations", [1, 2, 8, 9, 10, 11, 100])
def test_best_first_search_equals_the_full_batch(loaded_ctx, n_iterations, epsilon, values):
    """Rating the top-scored head first, and the rest only when the head
    holds no feasible plan, accepts what one batch of all K does: the same
    eval bit for bit, the same iteration, the same fallback, and the
    generator left in the same state.  All-zero values tie every candidate,
    as a fresh Q-table does."""
    for ctx in (loaded_ctx, seven_site_ctx(), InfeasibleCtx()):
        for seed in range(4):
            if values == "tied":
                qrows = np.zeros((ctx.n_sites, ctx.n_levels))
            else:
                qrows = np.random.default_rng(seed).normal(size=(ctx.n_sites, ctx.n_levels))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _search(ctx, qrows, n_iterations, epsilon, rng)
            want, _, _ = full_batch_search(ctx, qrows, n_iterations, epsilon, ref_rng)
            assert_same_outcome(got, want)
            if want.accepted_iteration is None:
                assert got.ev is ctx.full_power
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n_iterations", [40, 100])
def test_search_rates_the_rest_only_when_the_head_has_no_feasible_plan(
    loaded_ctx, n_iterations
):
    """The stably sorted top ``SEARCH_HEAD`` candidates come first; a second
    batch of the rest follows exactly when none of them is feasible, and
    both happen across these seeds."""
    qrows = np.zeros((3, loaded_ctx.n_levels))
    qrows[0, 0] = qrows[1, 1] = qrows[2, 0] = 5.0  # the greedy plan is infeasible
    head = agents.SEARCH_HEAD
    seen = set()
    for seed in range(12):
        ctx = CountingCtx(loaded_ctx)
        _search(ctx, qrows, n_iterations, 0.7, np.random.default_rng(seed))
        _, evs, scores = full_batch_search(
            loaded_ctx, qrows, n_iterations, 0.7, np.random.default_rng(seed)
        )
        top = np.argsort(-scores, kind="stable")[:head]
        assert np.array_equal(ctx.rated[0].power_idx, evs.power_idx[top])
        head_feasible = bool(agents.is_feasible(evs.rate_delta_sum[top]).any())
        rest = [] if head_feasible else [n_iterations - head]
        assert ctx.calls == [head, *rest]
        seen.add(head_feasible)
    assert seen == {True, False}


def test_check_accepted_raises_on_negative_delta_sum(loaded_ctx):
    """An accepted plan that ``is_feasible`` rejects raises; the first such
    plan of the loaded step is taken, so the test follows the constraint."""
    plans = np.array(list(itertools.product(range(loaded_ctx.n_levels),
                                            repeat=loaded_ctx.n_sites)))
    evs = loaded_ctx.evaluate(plans)
    infeasible = np.flatnonzero(~agents.is_feasible(evs.rate_delta_sum))
    assert infeasible.size
    with pytest.raises(InvariantViolation):
        _check_accepted(evs.row(infeasible[0]))


def greedy_cfg(n_actions, **kw):
    """A config with ``n_actions`` power levels that never explores."""
    return RunConfig(n_power_levels=n_actions, epsilon=0.0, **kw)


def make_dqn(cfg):
    """Model, exploration and replay generators seeded 0, 1 and 2."""
    return DqnAgent(cfg, *(np.random.default_rng(s) for s in range(3)))


def make_ql(cfg):
    return QLearningAgent(cfg, np.random.default_rng(1))


def test_dqn_fresh_network_picks_lowest_level_everywhere(loaded_ctx):
    agent = make_dqn(greedy_cfg(loaded_ctx.n_levels))
    out = agent.run_episode(loaded_ctx, 1, False)
    assert out.feasible
    assert np.array_equal(out.ev.power_idx, np.zeros(3, dtype=int))
    assert out.accepted_iteration == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), min_size=1, max_size=40))
def test_first_feasible_row_in_score_order_is_the_best_feasible(rows):
    """On a chunk in the order the search rates it, scores descending and
    ties in index order, the first feasible row is the row that
    ``_best_feasible``'s masked argmax picks by score, or None for both."""
    rows.sort(key=lambda row: -row[0])  # stable: ties keep their order
    scores = np.array([float(score) for score, _ in rows])
    feasible = np.array([ok for _, ok in rows])
    k = len(rows)
    evs = StepEval(
        power_idx=np.zeros((k, 2), dtype=int), power_dbw=np.ones((k, 2)),
        user_rates_bps=np.zeros((k, 2)), rate_bps=np.zeros((k, 2)),
        rate_delta_sum=np.where(feasible, 0.0, INFEASIBLE_DELTA),
        link_ee=np.zeros((k, 2)), network_ee=np.zeros(k),
    )
    assert _first_feasible(evs) == _best_feasible(evs, scores)


def test_dqn_pushes_one_transition_per_active_station(loaded_ctx):
    agent = make_dqn(greedy_cfg(loaded_ctx.n_levels))
    out = agent.run_episode(loaded_ctx, 1, False)
    n = loaded_ctx.active_sites.size
    mem = agent.memory
    assert len(mem) == n
    nxt = loaded_ctx.next_features(out.ev)
    assert nxt.shape == (n, 2)
    for k, b in enumerate(loaded_ctx.active_sites):
        assert mem.r[k] == pytest.approx(out.ev.network_ee, rel=1e-12)
        assert mem.a[k] == int(out.ev.power_idx[b])
        assert np.array_equal(mem.s[k], loaded_ctx.features[b])
        assert np.allclose(mem.s_next[k], nxt[k])
        assert mem.live[k]


def test_dqn_terminal_step_stores_no_next_state(loaded_ctx):
    agent = make_dqn(greedy_cfg(loaded_ctx.n_levels))
    agent.run_episode(loaded_ctx, 1, True)
    assert len(agent.memory) == loaded_ctx.active_sites.size
    assert not agent.memory.live[: len(agent.memory)].any()


def test_dqn_fallback_keeps_full_power_and_pushes_nothing():
    ctx = InfeasibleCtx()
    agent = make_dqn(greedy_cfg(ctx.n_levels))
    out = agent.run_episode(ctx, 1, False)
    assert not out.feasible
    assert out.accepted_iteration is None
    assert np.array_equal(out.ev.power_idx, np.full(2, ctx.n_levels - 1))
    assert len(agent.memory) == 0


def test_dqn_all_idle_step_is_inert(three_site):
    ctx = make_scenario(three_site, seed=11).build_step()
    assert not ctx.any_active
    agent = make_dqn(greedy_cfg(ctx.n_levels))
    out = agent.run_episode(ctx, 1, False)
    assert out.all_sleep
    assert out.ev.network_ee == 0.0
    assert out.accepted_iteration is None
    assert len(agent.memory) == 0


def test_dqn_trains_on_interval_once_replay_is_deep_enough(loaded_ctx):
    agent = make_dqn(
        greedy_cfg(loaded_ctx.n_levels, minibatch_size=4, train_interval=2, sync_interval=1)
    )

    agent.run_episode(loaded_ctx, 2, False)
    assert agent.training_rounds == 0, "replay must hold more than one minibatch"

    agent.run_episode(loaded_ctx, 3, False)
    assert agent.training_rounds == 0, "episode 3 is off the training interval"

    agent.run_episode(loaded_ctx, 4, False)
    assert agent.training_rounds == 1
    for w_pred, w_tgt in zip(agent.predicted.weights, agent.target.weights):
        assert np.array_equal(w_pred, w_tgt), "sync interval 1 copies every round"


def test_dqn_target_lags_until_sync_round(loaded_ctx):
    agent = make_dqn(RunConfig(
        n_power_levels=loaded_ctx.n_levels, epsilon=0.2, minibatch_size=2, train_interval=1,
        sync_interval=10,
    ))
    before = [w.copy() for w in agent.target.weights]
    for t in range(1, 4):
        agent.run_episode(loaded_ctx, t, False)
    assert agent.training_rounds >= 1
    for w_now, w_then in zip(agent.target.weights, before):
        assert np.array_equal(w_now, w_then)


def test_ql_fresh_table_picks_lowest_level_everywhere(loaded_ctx):
    agent = make_ql(greedy_cfg(loaded_ctx.n_levels))
    out = agent.run_episode(loaded_ctx, 0, False)
    assert out.feasible
    assert np.array_equal(out.ev.power_idx, np.zeros(3, dtype=int))
    assert out.accepted_iteration == 1


def test_ql_update_matches_replayed_rule(loaded_ctx):
    """The agent must apply the one-step update per active station in station
    order, including the case where stations share a bin."""
    agent = make_ql(greedy_cfg(loaded_ctx.n_levels))
    out = agent.run_episode(loaded_ctx, 0, False)

    expected = np.zeros_like(agent.table)
    nxt = loaded_ctx.next_features(out.ev)
    for k, b in enumerate(loaded_ctx.active_sites):
        tabular_q_update(
            expected,
            tuple(state_bin(loaded_ctx.features[b], agent.cfg.q_bins)),
            int(out.ev.power_idx[b]),
            out.ev.network_ee,
            tuple(state_bin(nxt[k], agent.cfg.q_bins)),
            agent.cfg.discount,
            agent.cfg.q_alpha,
        )
    assert np.array_equal(agent.table, expected)
    assert np.count_nonzero(agent.table) > 0


def test_ql_terminal_update_drops_bootstrap(loaded_ctx):
    agent = make_ql(greedy_cfg(loaded_ctx.n_levels))
    out = agent.run_episode(loaded_ctx, 0, True)
    bins = tuple(state_bin(loaded_ctx.features[0], agent.cfg.q_bins))
    # three stations share this bin, each folding in alpha * reward
    a = agent.cfg.q_alpha
    expected = 0.0
    for _ in range(3):
        expected += a * (out.ev.network_ee - expected)
    assert agent.table[bins][0] == pytest.approx(expected, rel=1e-12)


def test_ql_fallback_leaves_table_unchanged():
    ctx = InfeasibleCtx()
    agent = make_ql(greedy_cfg(ctx.n_levels))
    out = agent.run_episode(ctx, 0, False)
    assert not out.feasible
    assert out.accepted_iteration is None
    assert np.count_nonzero(agent.table) == 0


def test_sleep_agent_full_power_for_active_zero_iterations(loaded_ctx):
    out = SleepAgent().run_episode(loaded_ctx, 0, False)
    assert out.feasible
    assert out.accepted_iteration == 0
    assert np.array_equal(
        out.ev.power_idx, np.full(3, loaded_ctx.n_levels - 1)
    )
    assert out.ev.rate_delta_sum == 0.0


def test_sleep_agent_all_idle(three_site):
    ctx = make_scenario(three_site, seed=11).build_step()
    out = SleepAgent().run_episode(ctx, 0, False)
    assert out.all_sleep
    assert out.ev.network_ee == 0.0
    assert out.accepted_iteration is None


@pytest.mark.parametrize("case, accepted, feasible", [
    ("accepted", 1, True),
    ("fallback", None, False),
    ("all_sleep", None, False),
    ("sleep_agent", 0, True),
])
def test_feasible_means_an_accepted_iteration(
    case, accepted, feasible, loaded_ctx, three_site
):
    """The success flag is ``accepted_iteration is not None``; the sleep
    agent's 0 counts as accepted."""
    if case == "accepted":
        out = make_dqn(greedy_cfg(loaded_ctx.n_levels)).run_episode(loaded_ctx, 1, False)
    elif case == "fallback":
        ctx = InfeasibleCtx()
        out = make_dqn(greedy_cfg(ctx.n_levels)).run_episode(ctx, 1, False)
    elif case == "all_sleep":
        idle = make_scenario(three_site, seed=11).build_step()
        out = make_dqn(greedy_cfg(idle.n_levels)).run_episode(idle, 1, False)
        assert out.all_sleep
    else:
        out = SleepAgent().run_episode(loaded_ctx, 0, False)
    assert out.accepted_iteration == accepted
    assert out.feasible is feasible
    assert out.feasible == (out.accepted_iteration is not None)


def test_agents_never_accept_negative_delta_sums(loaded_ctx):
    """Both learners, run with heavy exploration, only ever accept feasible
    assignments even though infeasible ones are drawn along the way."""
    cfg = RunConfig(n_power_levels=loaded_ctx.n_levels, epsilon=0.5)
    explore, replay = np.random.default_rng(1), np.random.default_rng(2)
    dqn = DqnAgent(cfg, np.random.default_rng(0), explore, replay)
    ql = QLearningAgent(cfg, explore)
    ctx = CountingCtx(loaded_ctx)
    for t in range(30):
        for agent in (dqn, ql):
            out = agent.run_episode(ctx, t, False)
            if out.feasible:
                assert out.ev.rate_delta_sum >= 0.0
    assert any(np.any(evs.rate_delta_sum < 0.0) for evs in ctx.rated)
    assert np.all(dqn.memory.r[: len(dqn.memory)] >= 0.0)


def test_exhaustive_oracle_matches_hand_enumeration(loaded_ctx, monkeypatch):
    """A per-plan evaluate loop is the reference; any chunking of the batched
    enumeration must give its result."""
    best_idx, best_ee = None, -np.inf
    for combo in itertools.product(range(loaded_ctx.n_levels), repeat=3):
        ev = loaded_ctx.evaluate(np.asarray(combo, dtype=int))
        if agents.is_feasible(ev.rate_delta_sum) and ev.network_ee > best_ee:
            best_idx, best_ee = np.asarray(combo, dtype=int), ev.network_ee

    for chunk in (agents.ORACLE_CHUNK, 1, 5, 64):
        monkeypatch.setattr(agents, "ORACLE_CHUNK", chunk)
        idx, ee = exhaustive_oracle(loaded_ctx)
        assert np.array_equal(idx, best_idx)
        assert ee == pytest.approx(best_ee, rel=1e-12)


@pytest.mark.parametrize("chunk", [1, 4, 4096])
def test_exhaustive_oracle_ties_go_to_the_smallest_plan(monkeypatch, chunk):
    """Every plan scores the same here; the lexicographically first feasible
    plan wins across chunk boundaries too."""
    class FlatCtx(InfeasibleCtx):
        def evaluate(self, power_idx):
            evs = super().evaluate(power_idx)
            feasible = np.asarray(power_idx).sum(axis=-1) >= 2
            return replace(evs, rate_delta_sum=np.where(feasible, 0.0, INFEASIBLE_DELTA))

    monkeypatch.setattr(agents, "ORACLE_CHUNK", chunk)
    idx, ee = exhaustive_oracle(FlatCtx(n_sites=2, n_levels=3))
    assert np.array_equal(idx, [0, 2])
    assert ee == 0.25


def test_exhaustive_oracle_beats_or_ties_every_feasible_assignment(loaded_ctx):
    _, ee = exhaustive_oracle(loaded_ctx)
    for combo in itertools.product(range(loaded_ctx.n_levels), repeat=3):
        ev = loaded_ctx.evaluate(np.asarray(combo, dtype=int))
        if agents.is_feasible(ev.rate_delta_sum):
            assert ee >= ev.network_ee - 1e-12


def test_exhaustive_oracle_respects_node_cap():
    """The loaded 19-site grid has 5**19 plans, beyond the cap: the oracle
    raises before it rates any."""
    scn = hex_scenario(2)
    scn.residual_bits[:] = 1e5
    scn.arrival_step[:] = 0
    ctx = CountingCtx(scn.build_step())
    assert ctx.active_sites.size == 19 and ctx.n_levels == 5
    with pytest.raises(ValidationError, match=f"{5**19} joint assignments exceed the "
                                              f"{agents.MAX_ORACLE_NODES} cap"):
        exhaustive_oracle(ctx)
    assert ctx.calls == []


def test_exhaustive_oracle_all_idle(three_site):
    ctx = make_scenario(three_site, seed=11).build_step()
    idx, ee = exhaustive_oracle(ctx)
    assert np.array_equal(idx, np.full(3, ctx.n_levels - 1))
    assert ee == 0.0


def test_dqn_rounds_on_stored_bootstrap_values_train_as_direct_targets(tmp_path, monkeypatch):
    """A DQN run whose rounds read stored bootstrap values ends with the
    predicted network, and writes the metrics, of a run whose every round
    runs the target network on all live successors."""
    cfg = RunConfig(
        rings=1, episodes=150, search_iters=4, minibatch_size=6, train_interval=1,
        sync_interval=3, replay_capacity=40, seed=5,
    )
    stored_reads = []
    targets = agents.minibatch_targets

    def counted(memory, slots, target_net, discount):
        live = slots[memory.live[slots]]
        stored_reads.append(np.count_nonzero(memory.boot_version[live] == target_net.version))
        return targets(memory, slots, target_net, discount)

    monkeypatch.setattr(agents, "minibatch_targets", counted)
    reuse = run(cfg, tmp_path / "reuse")
    monkeypatch.setattr(agents, "minibatch_targets", reference_targets)
    direct = run(cfg, tmp_path / "direct")
    assert reuse.summary["learner"]["training_rounds"] > 100
    assert reuse.summary["learner"]["target_syncs"] > 30
    assert sum(stored_reads) > 0
    for name in ("weights.bin", "metrics.csv"):
        assert (reuse.out_dir / name).read_bytes() == (direct.out_dir / name).read_bytes()
