"""Power-control agents and the exhaustive search oracle.

Every agent answers one call per step, ``run_episode(ctx, t, terminal)``,
gets the random generators it draws from at construction, and returns an
:class:`EpisodeOutcome`: the executed :class:`StepEval` and which candidate
was accepted.  The two learners read their constants (search width,
exploration, learning rates, network and table sizes) from the run's
:class:`RunConfig`.

Both learning agents share one search on a frozen step: draw K joint power
assignments for the active stations (epsilon-greedy per station), score
each by its summed action values, and rate them best-first in batched
evaluations, so every station's SINR reflects the others' draws: the
top-scored few first, the rest only when none of those is feasible.  A
candidate is feasible when its summed rate deltas stay non-negative; the
search accepts the feasible candidate with the largest score, the one
rating all K together would, or keeps full power when none is.  The oracle
picks from its enumeration with the same mask-and-argmax, scored by
efficiency.  Only the accepted candidate touches the environment or the
learners, and its network efficiency is their reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import InvariantViolation, ValidationError
from .rl import (
    QNetwork,
    ReplayMemory,
    backward_and_step,
    minibatch_targets,
    state_bin,
    sync_target,
    tabular_q_update,
)
from .scenario import StepContext, StepEval

MAX_ORACLE_NODES = 1_000_000
# Joint assignments rated per batched evaluation in the oracle.
ORACLE_CHUNK = 4096
# Top-scored candidates the search rates before the rest.
SEARCH_HEAD = 8


@dataclass(frozen=True, eq=False)
class EpisodeOutcome:
    """What one step produced: the executed assignment and its bookkeeping.

    ``accepted_iteration`` is the 1-based index of the accepted candidate,
    ``None`` when no candidate was feasible (the full-power fallback ran) or
    when every station slept, and 0 for the sleep agent, which runs no
    search.  The step's reward is the executed efficiency,
    ``ev.network_ee``, which is 0 when every station slept.
    """

    ev: StepEval
    accepted_iteration: int | None
    all_sleep: bool = False

    @property
    def feasible(self) -> bool:
        """The step's success flag: an assignment was accepted."""
        return self.accepted_iteration is not None


def is_feasible(rate_delta_sum: float | np.ndarray) -> bool | np.ndarray:
    """The throughput constraint, for one sum or an array of them: the
    summed rate deltas (reference minus achieved) stay non-negative."""
    return rate_delta_sum >= 0.0


def _best_feasible(evs: StepEval, scores: np.ndarray) -> int | None:
    """Row of ``evs`` with the highest score among the feasible ones, the
    earliest on ties; ``None`` when no row is feasible."""
    feasible = is_feasible(evs.rate_delta_sum)
    if not feasible.any():
        return None
    return int(np.argmax(np.where(feasible, scores, -np.inf)))


def _check_accepted(ev: StepEval) -> None:
    if not is_feasible(ev.rate_delta_sum):
        raise InvariantViolation(
            f"accepted an assignment with rate delta sum {ev.rate_delta_sum}"
        )


def _all_sleep(ctx: StepContext) -> EpisodeOutcome:
    """No station has traffic: nothing to decide, and no reward."""
    return EpisodeOutcome(ev=ctx.full_power, accepted_iteration=None, all_sleep=True)


def _search(
    ctx: StepContext,
    qrows: np.ndarray,
    n_iterations: int,
    epsilon: float,
    rng: np.random.Generator,
) -> EpisodeOutcome:
    """Draw all candidates at once, rate them best-first, and accept the
    best feasible one, or keep full power when none is feasible.

    Each active station explores with probability ``epsilon`` (a uniform
    level) and otherwise takes its greedy level, the lowest index among its
    largest action values.  The explore mask and the random levels are two
    (K, active) draws, filled candidate by candidate.  A candidate scores
    the sum of its stations' action values; ties keep the earliest feasible
    candidate, which is also what makes the recorded iteration count
    meaningful as a search cost.  The accepted eval is the very row the
    feasibility test saw.

    Candidates are rated in score order: the ``SEARCH_HEAD`` top-scored
    ones (a stable sort, so ties stay in index order) in one batch, and the
    rest in a second batch only when the head holds no feasible one.  Every
    candidate outside the head scores no higher, and ties there come later,
    and a row rates the same bits in any batch, so the first chunk holding a
    feasible candidate picks what rating all K together would.
    """
    active = ctx.active_sites
    n_actions = qrows.shape[1]
    greedy = np.argmax(qrows[active], axis=1)
    explore = rng.random((n_iterations, active.size)) < epsilon
    random_levels = rng.integers(n_actions, size=(n_iterations, active.size))
    picks = np.where(explore, random_levels, greedy)
    scores = qrows[active, picks].sum(axis=1)
    order = np.argsort(-scores, kind="stable")
    for chunk in (order[:SEARCH_HEAD], order[SEARCH_HEAD:]):
        if not chunk.size:
            break
        idx = np.full((chunk.size, ctx.n_sites), ctx.n_levels - 1, dtype=int)
        idx[:, active] = picks[chunk]
        evs = ctx.evaluate(idx)
        best = _best_feasible(evs, scores[chunk])
        if best is not None:
            ev = evs.row(best)
            _check_accepted(ev)
            return EpisodeOutcome(ev=ev, accepted_iteration=int(chunk[best]) + 1)
    return EpisodeOutcome(ev=ctx.full_power, accepted_iteration=None)


class DqnAgent:
    """Deep Q-learning over the shared per-station network with replay.

    The same predicted network scores every station's actions; accepted
    decisions are pushed to replay per station with the shared network-wide
    efficiency as the reward.  Every ``train_interval`` steps (once replay
    holds strictly more than one minibatch) a single gradient-descent round
    runs, and every ``sync_interval`` rounds the target network catches up.
    ``rng_init`` draws the initial weights, ``exploration`` the search's
    candidates and ``replay`` the minibatches.
    """

    def __init__(
        self,
        cfg: RunConfig,
        rng_init: np.random.Generator,
        exploration: np.random.Generator,
        replay: np.random.Generator,
    ) -> None:
        self.cfg = cfg
        sizes = (2, *(cfg.hidden_units,) * cfg.hidden_layers, cfg.n_power_levels)
        self.predicted = QNetwork.create(sizes, rng_init)
        self.target = self.predicted.clone()
        self.memory = ReplayMemory(cfg.replay_capacity)
        self.exploration = exploration
        self.replay = replay
        self.training_rounds = 0
        self.target_syncs = 0

    def run_episode(self, ctx: StepContext, t: int, terminal: bool) -> EpisodeOutcome:
        outcome = self._act(ctx, terminal)
        self._maybe_train(t)
        return outcome

    def _act(self, ctx: StepContext, terminal: bool) -> EpisodeOutcome:
        if not ctx.any_active:
            return _all_sleep(ctx)
        qrows = self.predicted.forward_batch(ctx.features)
        outcome = _search(ctx, qrows, self.cfg.search_iters, self.cfg.epsilon, self.exploration)
        if outcome.feasible:
            ev, active = outcome.ev, ctx.active_sites
            self.memory.push(
                ctx.features[active],
                ev.power_idx[active],
                ev.network_ee,
                None if terminal else ctx.next_features(ev)[active],
            )
        return outcome

    def _maybe_train(self, t: int) -> None:
        cfg, memory = self.cfg, self.memory
        due = t > 0 and t % cfg.train_interval == 0
        if not due or len(memory) <= cfg.minibatch_size:
            return
        slots = memory.sample_minibatch(cfg.minibatch_size, self.replay)
        targets = minibatch_targets(memory, slots, self.target, cfg.discount)
        backward_and_step(
            self.predicted, memory.s[slots], memory.a[slots], targets, cfg.learning_rate
        )
        self.training_rounds += 1
        if self.training_rounds % cfg.sync_interval == 0:
            sync_target(self.predicted, self.target)
            self.target_syncs += 1


class QLearningAgent:
    """Tabular baseline: same inner search, but values live in a binned table
    and every accepted decision updates the table online.  ``exploration``
    draws the search's candidates."""

    def __init__(self, cfg: RunConfig, exploration: np.random.Generator) -> None:
        self.cfg = cfg
        self.table = np.zeros((cfg.q_bins, cfg.q_bins, cfg.n_power_levels))
        self.exploration = exploration

    def run_episode(self, ctx: StepContext, t: int, terminal: bool) -> EpisodeOutcome:
        if not ctx.any_active:
            return _all_sleep(ctx)
        cfg = self.cfg
        bins = state_bin(ctx.features, cfg.q_bins)
        qrows = self.table[bins[:, 0], bins[:, 1]]
        outcome = _search(ctx, qrows, cfg.search_iters, cfg.epsilon, self.exploration)
        if not outcome.feasible:
            return outcome
        ev = outcome.ev
        cell = [tuple(c) for c in bins.tolist()]
        nxt = [None] * ctx.n_sites if terminal else [
            tuple(c) for c in state_bin(ctx.next_features(ev), cfg.q_bins).tolist()
        ]
        # One station at a time, in order: two stations may share a cell.
        for b in ctx.active_sites.tolist():
            tabular_q_update(
                self.table, cell[b], int(ev.power_idx[b]), ev.network_ee, nxt[b],
                cfg.discount, cfg.q_alpha,
            )
        return outcome


class SleepAgent:
    """Non-learning reference: pending traffic means full power, idle means
    sleep.  No search runs, so the accepted-iteration count is recorded as 0."""

    def run_episode(self, ctx: StepContext, t: int, terminal: bool) -> EpisodeOutcome:
        if not ctx.any_active:
            return _all_sleep(ctx)
        _check_accepted(ctx.full_power)
        return EpisodeOutcome(ev=ctx.full_power, accepted_iteration=0)


def exhaustive_oracle(ctx: StepContext) -> tuple[np.ndarray, float]:
    """Enumerate every joint assignment over the active stations and return
    the feasible one with the highest network efficiency.

    Assignments are rated in lexicographic chunks of ``ORACLE_CHUNK``, so
    memory stays bounded, and ties resolve to the lexicographically smallest
    index vector.  The full-power assignment has zero rate deltas by
    construction, so the feasible set is never empty.  Raises
    ``ValidationError`` when the enumeration would exceed
    ``MAX_ORACLE_NODES`` assignments.
    """
    active = ctx.active_sites
    if active.size == 0:
        full = np.full(ctx.n_sites, ctx.n_levels - 1, dtype=int)
        return full, 0.0
    n_nodes = ctx.n_levels ** active.size
    if n_nodes > MAX_ORACLE_NODES:
        raise ValidationError(
            f"{n_nodes} joint assignments exceed the {MAX_ORACLE_NODES} cap"
        )
    shape = (ctx.n_levels,) * active.size
    best_idx: np.ndarray | None = None
    best_ee = -np.inf
    for start in range(0, n_nodes, ORACLE_CHUNK):
        plans = np.arange(start, min(start + ORACLE_CHUNK, n_nodes))
        idx = np.full((plans.size, ctx.n_sites), ctx.n_levels - 1, dtype=int)
        idx[:, active] = np.stack(np.unravel_index(plans, shape), axis=1)
        evs = ctx.evaluate(idx)
        k = _best_feasible(evs, evs.network_ee)
        if k is not None and evs.network_ee[k] > best_ee:
            best_idx, best_ee = idx[k].copy(), evs.network_ee[k]
    if best_idx is None:
        raise InvariantViolation("the full-power assignment should be feasible")
    return best_idx, float(best_ee)
