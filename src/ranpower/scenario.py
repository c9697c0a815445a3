"""Deployment geometry, traffic arrivals, and per-step network state.

Every function and class here reads the run's :class:`RunConfig` directly
for its radio, traffic and deployment constants, and the power set from
:meth:`RunConfig.power_levels_dbw`.  Sites and users are (B, 2) and (U, 2)
arrays of planar positions; every site has the sectors of :data:`BORESIGHTS_DEG`.
A :class:`Scenario` owns the mutable simulation state (pending volumes,
current power levels, user positions).  Each time step it freezes the
physics into a :class:`StepContext`: which users are scheduled and the gain
of every site towards every scheduled user, from which the context derives,
as it is built, the active sites.  Agents then rate candidate joint power
assignments against that frozen context without touching the scenario, each
against the full-power assignment, whose rates are the reference; one
:class:`StepEval` holds the outcome of one assignment, or of a batch with a
leading candidate axis.  The runner applies exactly one accepted assignment
per step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import ValidationError
from .radio import (
    MIN_DISTANCE_M,
    MIN_DROP_RADIUS_M,
    SPEED_OF_LIGHT_M_S,
    dbw_to_watts,
)

BORESIGHTS_DEG = (0.0, 120.0, 240.0)
SECTORS_PER_SITE = len(BORESIGHTS_DEG)
SECTOR_WIDTH_DEG = 120.0
SLOT_S = 1e-3  # length of one simulated slot, in seconds

# Sector s's arc is ``lo <= azimuth < hi`` for lo, hi = its boresight -/+ half
# the width (mod 360), wrapping through 0 when lo > hi; the arcs tile [0, 360).
# So the count c of sorted arc edges at or below an azimuth in [0, 360] picks
# its arc: the one ending at ``_EDGES_DEG[c]``, where count S wraps to the
# first edge.  ``_COUNT_IN_ARC[s, c]`` says whether count c is sector s's arc,
# and ``_PATTERN_ROW[s]`` is the flat index of (s, 0) in that (S, S + 1) table.
_ARC_END = [(b + SECTOR_WIDTH_DEG / 2.0) % 360.0 for b in BORESIGHTS_DEG]
_EDGES_DEG = sorted(_ARC_END)
_COUNT_IN_ARC = np.array(
    [[end == _EDGES_DEG[c % SECTORS_PER_SITE] for c in range(SECTORS_PER_SITE + 1)]
     for end in _ARC_END]
)
_PATTERN_ROW = np.arange(SECTORS_PER_SITE, dtype=np.uint8)[:, None] * (SECTORS_PER_SITE + 1)


def hex_site_positions(rings: int, isd_m: float) -> np.ndarray:
    """Hexagonal grid positions (B, 2) of 1 + 3*rings*(rings+1) sites, centre first."""
    sites: list[tuple[int, float, float, float]] = []
    for q in range(-rings, rings + 1):
        for r in range(-rings, rings + 1):
            s = -q - r
            ring = max(abs(q), abs(r), abs(s))
            if ring > rings:
                continue
            x = isd_m * (q + 0.5 * r)
            y = isd_m * (math.sqrt(3.0) / 2.0) * r
            sites.append((ring, math.atan2(y, x) % (2.0 * math.pi), x, y))
    sites.sort(key=lambda t: (t[0], t[1]))
    return np.array([(x, y) for _, _, x, y in sites])


def drop_users(site_xy: np.ndarray, cfg: RunConfig, rng: np.random.Generator) -> np.ndarray:
    """Drop ``per_sector_users`` users uniformly in each sector's annular wedge.

    Radii span [10 m, isd/2] with uniform density in area; azimuths stay
    inside the sector's 120-degree arc around its boresight.  Returns (U, 2)
    positions site by site, then sector by sector; each user draws its
    squared radius, then its azimuth offset.
    """
    half = SECTOR_WIDTH_DEG / 2.0
    draws = rng.uniform(
        (MIN_DROP_RADIUS_M**2, -half), ((cfg.isd_m / 2.0) ** 2, half),
        (len(site_xy), SECTORS_PER_SITE, cfg.per_sector_users, 2),
    )
    radius = np.sqrt(draws[..., 0])
    azim = np.radians(np.asarray(BORESIGHTS_DEG)[:, None] + draws[..., 1])
    offset = np.stack([radius * np.cos(azim), radius * np.sin(azim)], axis=-1)
    return (site_xy[:, None, None] + offset).reshape(-1, 2)


def sector_gain_matrix(
    site_xy: np.ndarray, cfg: RunConfig, user_xy: np.ndarray, *, clamp: bool = False
) -> np.ndarray:
    """Channel gain from every (site, sector) to every user, shape (B, S, U).

    The antenna pattern is ideal: full transmit gain inside the sector's arc
    and a flat backlobe attenuation outside it.  Each (site, user) azimuth is
    classified once, by counting the sorted arc edges at or below it, and
    the count takes every sector's pattern value from an (S, S + 1) table.
    With ``clamp`` the distance is floored at the model minimum instead of
    raising; the moving-user path uses that so a drifting user cannot crash
    a long run.
    """
    dx = user_xy[:, 0] - site_xy[:, 0, None]
    dy = user_xy[:, 1] - site_xy[:, 1, None]
    dist = np.hypot(dx, dy)
    np.square(dist, out=dist)
    dist += (cfg.user_height_m - cfg.bs_height_m) ** 2
    np.sqrt(dist, out=dist)
    if clamp:
        np.maximum(dist, MIN_DISTANCE_M, out=dist)
    elif (dist < MIN_DISTANCE_M).any():
        raise ValidationError("a user sits closer to a site than the model allows")

    angles = np.degrees(np.arctan2(dy, dx))  # [-180, 180]
    np.add(angles, 360.0, out=angles, where=angles < 0.0)
    count = np.zeros(angles.shape, dtype=np.uint8)
    for edge in _EDGES_DEG:
        count += angles >= edge
    tx = 10.0 ** (cfg.tx_gain_dbi / 10.0)
    pattern = np.where(_COUNT_IN_ARC, tx, tx * 10.0 ** (-cfg.backlobe_atten_db / 10.0))
    gains = pattern.take(count[:, None, :] + _PATTERN_ROW)
    dist *= 4.0 * math.pi * cfg.fc_hz
    path = np.divide(SPEED_OF_LIGHT_M_S, dist, out=dist)
    path **= cfg.path_loss_exponent
    gains *= path[:, None, :]
    gains *= 10.0 ** (cfg.rx_gain_dbi / 10.0)
    return gains


def arrival_probability(cfg: RunConfig, t: int) -> float:
    """Bernoulli arrival probability of an idle user in slot ``t``: ``traffic_p0``
    with a slow sinusoidal load modulation over ``traffic_period`` slots (0 for
    none), clamped to [0, 1]."""
    if cfg.traffic_period == 0:
        return cfg.traffic_p0
    p = cfg.traffic_p0 * (1.0 + 0.5 * math.sin(2.0 * math.pi * t / cfg.traffic_period))
    return min(max(p, 0.0), 1.0)


def generate_traffic(
    t: int, idle_users: np.ndarray, rng: np.random.Generator, cfg: RunConfig
) -> tuple[np.ndarray, np.ndarray]:
    """This step's new requests for the idle users: (users hit, volumes in bits).
    All hits are drawn before all volumes, so no volume depends on who was hit."""
    if idle_users.size == 0:
        return idle_users, np.zeros(0)
    p = arrival_probability(cfg, t)
    hits = rng.random(idle_users.size) < p
    volumes = rng.uniform(cfg.volume_lo_bits, cfg.volume_hi_bits, idle_users.size)
    return idle_users[hits], volumes[hits]


@dataclass(frozen=True, eq=False)
class StepEval:
    """Outcome of joint power assignments on a frozen step.

    For one assignment the per-site arrays are (B,), the user rates (U,) and
    the two sums floats.  A batch of K assignments carries a leading
    candidate axis on every field: (K, B), (K, U) and (K,); :meth:`row`
    takes one candidate out of it.
    """

    power_idx: np.ndarray
    power_dbw: np.ndarray
    user_rates_bps: np.ndarray
    rate_bps: np.ndarray
    rate_delta_sum: float | np.ndarray
    link_ee: np.ndarray
    network_ee: float | np.ndarray

    def row(self, k: int) -> StepEval:
        return StepEval(
            power_idx=self.power_idx[k],
            power_dbw=self.power_dbw[k],
            user_rates_bps=self.user_rates_bps[k],
            rate_bps=self.rate_bps[k],
            rate_delta_sum=float(self.rate_delta_sum[k]),
            link_ee=self.link_ee[k],
            network_ee=float(self.network_ee[k]),
        )


@dataclass(frozen=True, eq=False)
class StepContext:
    """Frozen physics of one time step, shared by every candidate evaluation.

    It takes only what it cannot derive, so a hand-built context cannot
    contradict itself: the run's ``cfg``, the power set in dBW and in watts,
    the scheduled users with their sites, gains and pending volumes, and each
    station's power before this step, ``prior_power_w``, from which
    ``features`` are computed when first read.  Construction keeps a
    C-ordered copy of ``site_to_user_gain`` (the layout the rates are summed
    in) and derives from ``sched_site`` and that gain the site count
    ``n_sites``; ``phi``, 1 for each site serving a scheduled user and 0 for
    a sleeping one; ``active_sites``, the former; and ``own_gain[u]``, the
    gain of user u's own site towards it (all of that site's active
    sectors), the diagonal of ``site_to_user_gain`` along ``sched_site``.
    """

    cfg: RunConfig
    power_levels_dbw: np.ndarray
    power_levels_w: np.ndarray
    sched_users: np.ndarray
    sched_site: np.ndarray
    serving_gain: np.ndarray
    site_to_user_gain: np.ndarray
    residual_bits: np.ndarray
    prior_power_w: np.ndarray
    n_sites: int = field(init=False)
    phi: np.ndarray = field(init=False, repr=False)
    active_sites: np.ndarray = field(init=False)
    own_gain: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        gain = np.ascontiguousarray(self.site_to_user_gain)
        n_sites, n_users = gain.shape
        phi = np.zeros(n_sites)
        phi[self.sched_site] = 1.0
        object.__setattr__(self, "site_to_user_gain", gain)
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "active_sites", phi.nonzero()[0])
        object.__setattr__(self, "own_gain", gain[self.sched_site, np.arange(n_users)])

    @property
    def n_levels(self) -> int:
        return int(self.power_levels_dbw.size)

    @property
    def any_active(self) -> bool:
        return bool(self.active_sites.size)

    @functools.cached_property
    def full_power(self) -> StepEval:
        """Every station at the top level: the reference, rated alone, whose
        rate deltas are zero.  It is the first row of every :meth:`evaluate`
        batch, bit for bit."""
        full = self._full_plan()
        rates, rate_b = self._rates(full)
        return self._outcome(full, rates, rate_b, rate_b[0]).row(0)

    def evaluate(self, power_idx: np.ndarray) -> StepEval:
        """Rates, deltas and efficiencies of one joint assignment of shape
        (B,), or of K at once of shape (K, B).

        The full-power assignment rides as an extra first row of the batch,
        and its site rates are the reference the deltas are taken against.
        Sleeping sites neither transmit nor count toward averages regardless
        of the index they carry.
        """
        power_idx = np.asarray(power_idx)
        plans = np.concatenate([self._full_plan(), power_idx.reshape(-1, self.n_sites)])
        rates, rate_b = self._rates(plans)
        evs = self._outcome(plans[1:], rates[1:], rate_b[1:], rate_b[0])
        return evs if power_idx.ndim == 2 else evs.row(0)

    def _full_plan(self) -> np.ndarray:
        return np.full((1, self.n_sites), self.n_levels - 1)

    def _rates(self, power_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scheduled users' rates (K, U) and their sums per site (K, B) for K
        plans (K, B).  Each is a sum in a fixed order, so a row's bits do not
        depend on which rows share its batch."""
        power_w = self.power_levels_w.take(power_idx) * self.phi
        total = np.einsum("...b,bu->...u", power_w, self.site_to_user_gain)
        site_w = power_w.take(self.sched_site, axis=-1)
        noise_w = dbw_to_watts(self.cfg.noise_dbw)
        snr = site_w * self.serving_gain / (total - site_w * self.own_gain + noise_w)
        rates = self.cfg.bandwidth_hz * np.log2(1.0 + snr)
        # Row k's users land in bins k*B + site, summed in column order.
        bins = self.sched_site + self.n_sites * np.arange(len(power_idx))[:, None]
        rate_b = np.bincount(
            bins.ravel(), weights=rates.ravel(), minlength=power_idx.size
        ).reshape(power_idx.shape)
        return rates, rate_b

    def _outcome(
        self, power_idx: np.ndarray, rates: np.ndarray, rate_b: np.ndarray, ref_rate_b: np.ndarray
    ) -> StepEval:
        """The records of K plans from their rates, deltas against ``ref_rate_b``."""
        power_dbw = self.power_levels_dbw.take(power_idx)
        delta_sum = (self.phi * (ref_rate_b - rate_b)).sum(axis=-1)
        link_ee = self.phi * (rate_b / 1e6) / power_dbw
        n_active = self.active_sites.size
        network_ee = link_ee.sum(axis=-1) / n_active if n_active else np.zeros(len(power_idx))
        return StepEval(power_idx, power_dbw, rates, rate_b, delta_sum, link_ee, network_ee)

    @functools.cached_property
    def features(self) -> np.ndarray:
        """Per-site (volume, RSRP) features at the start of the step, shape (B, 2)."""
        return self._site_features(self.residual_bits, self.prior_power_w)

    @functools.cached_property
    def _sched_counts(self) -> np.ndarray:
        """Scheduled users of each active site, in ``active_sites`` order."""
        return np.bincount(self.sched_site, minlength=self.n_sites)[self.active_sites]

    def drained_residual(self, ev: StepEval) -> np.ndarray:
        """Pending volume of each scheduled user after serving one slot."""
        return np.maximum(self.residual_bits - ev.user_rates_bps * SLOT_S, 0.0)

    def next_features(self, ev: StepEval) -> np.ndarray:
        """Per-site (volume, RSRP) features after applying ``ev``, shape (B, 2)."""
        return self._site_features(
            self.drained_residual(ev), self.power_levels_w[ev.power_idx]
        )

    def _site_features(self, residual: np.ndarray, power_w: np.ndarray) -> np.ndarray:
        feats = np.zeros((self.n_sites, 2))
        act, site = self.active_sites, self.sched_site
        volume_b = np.bincount(site, weights=residual, minlength=self.n_sites)[act]
        rsrp_u = power_w[site] * self.serving_gain
        rsrp_b = np.bincount(site, weights=rsrp_u, minlength=self.n_sites)[act]
        feats[act, 0] = volume_b / self.cfg.volume_hi_bits
        rsrp_dbw = 10.0 * np.log10(rsrp_b / self._sched_counts)
        feats[act, 1] = (rsrp_dbw - self.cfg.noise_dbw) / -self.cfg.noise_dbw
        return feats


class Scenario:
    """Mutable simulation state plus the machinery to freeze each step.

    It is built from the site positions, the config and the user positions,
    keeps copies of both arrays, and raises ``ValidationError`` for no sites,
    no users or coordinates not shaped (N, 2); the power set is the config's,
    from which the learners size their actions.  Users move only under
    ``waypoint`` mobility, at ``user_speed_mps``, one :meth:`walk` a slot,
    which the runner calls after :meth:`apply`.  ``gains`` (B, S, U) holds
    every user's gains where they stand: the drop-time matrix for static
    users, refreshed by each walk for moving ones.
    """

    def __init__(self, site_xy: np.ndarray, cfg: RunConfig, user_xy: np.ndarray) -> None:
        self.cfg = cfg
        self.site_xy = _planar(site_xy, "site")
        self.user_xy = _planar(user_xy, "user")
        self.n_sites, self.n_users = len(self.site_xy), len(self.user_xy)
        self.user_speed_mps = cfg.user_speed_mps if cfg.mobility == "waypoint" else 0.0
        self.gains = sector_gain_matrix(self.site_xy, cfg, self.user_xy)
        # Each user attaches to the (site, sector) with the strongest full-power
        # RSRP; ties go to the lowest site id, then the lowest sector id.
        best = self.gains.reshape(-1, self.n_users).argmax(axis=0)
        self.serving_site, self.serving_sector = np.divmod(best, SECTORS_PER_SITE)
        self.power_levels_dbw = cfg.power_levels_dbw()
        self.power_levels_w = 10.0 ** (self.power_levels_dbw / 10.0)
        self.residual_bits = np.zeros(self.n_users)
        self.arrival_step = np.full(self.n_users, -1, dtype=int)
        self.current_power_idx = np.full(self.n_sites, cfg.n_power_levels - 1, dtype=int)
        self.t = 0
        self._waypoints: np.ndarray | None = None

    @property
    def idle_users(self) -> np.ndarray:
        return (self.residual_bits <= 0.0).nonzero()[0]

    def spawn_arrivals(self, rng: np.random.Generator) -> int:
        """Draw new requests for idle users; returns how many arrived."""
        users, volumes = generate_traffic(self.t, self.idle_users, rng, self.cfg)
        self.residual_bits[users] = volumes
        self.arrival_step[users] = self.t
        return users.size

    def _schedule(self) -> np.ndarray:
        """Pick one pending user per sector, oldest request first (lower user
        id on ties); returned by site, then user id."""
        pending = (self.residual_bits > 0.0).nonzero()[0]
        # pending is ascending, so a stable sort on arrival breaks ties by id
        order = pending[self.arrival_step[pending].argsort(kind="stable")]
        site = self.serving_site[order]
        key = site * SECTORS_PER_SITE + self.serving_sector[order]
        by_sector = key.argsort(kind="stable")
        key = key[by_sector]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        taken = by_sector[first]
        rank = site[taken] * self.n_users + order[taken]
        return order[taken[rank.argsort()]]

    def build_step(self) -> StepContext:
        """Freeze the current step: scheduling and gains.  The scheduled users
        gather their columns of ``gains``, and one contraction sums each
        site's scheduled sectors."""
        sched_users = self._schedule()
        sched_site = self.serving_site[sched_users]
        sched_sector = self.serving_sector[sched_users]
        # take keeps the gather C-ordered, the layout the contraction's bits depend on
        gains = self.gains.take(sched_users, axis=2)
        serving_gain = gains[sched_site, sched_sector, np.arange(sched_users.size)]
        sector_active = np.zeros((self.n_sites, SECTORS_PER_SITE))
        sector_active[sched_site, sched_sector] = 1.0
        # Sums each site's scheduled sectors in sector order: g * 1.0 or g * 0.0.
        site_to_user = np.einsum("bsu,bs->bu", gains, sector_active)
        return StepContext(
            cfg=self.cfg,
            power_levels_dbw=self.power_levels_dbw,
            power_levels_w=self.power_levels_w,
            sched_users=sched_users,
            sched_site=sched_site,
            serving_gain=serving_gain,
            site_to_user_gain=site_to_user,
            residual_bits=self.residual_bits[sched_users],
            prior_power_w=self.power_levels_w[self.current_power_idx],
        )

    def apply(self, ctx: StepContext, ev: StepEval) -> None:
        """Advance traffic and power by one slot under the accepted assignment;
        the users stay where they are (see :meth:`walk`)."""
        drained = ctx.drained_residual(ev)
        self.residual_bits[ctx.sched_users] = drained
        self.arrival_step[ctx.sched_users[drained <= 0.0]] = -1
        self.current_power_idx[ctx.active_sites] = ev.power_idx[ctx.active_sites]
        self.t += 1

    def walk(self, rng: np.random.Generator) -> None:
        """Moving users take one random-waypoint step: each walks toward its
        waypoint and draws a new one from ``rng`` on arrival; then every
        user's ``gains`` are computed where they now stand."""
        if self._waypoints is None:
            self._waypoints = self._draw_waypoints(rng, np.arange(self.n_users))
        step = self.user_speed_mps * SLOT_S
        delta = self._waypoints - self.user_xy
        dist = np.hypot(delta[:, 0], delta[:, 1])
        arrived = dist <= step
        # Far users (dist > step >= 0) walk one step; arrived ones add zero here.
        scale = np.divide(step, dist, out=np.zeros_like(dist), where=~arrived)
        delta *= scale[:, None]
        self.user_xy += delta
        if arrived.any():
            self.user_xy[arrived] = self._waypoints[arrived]
            self._waypoints[arrived] = self._draw_waypoints(rng, np.flatnonzero(arrived))
        self.gains = sector_gain_matrix(self.site_xy, self.cfg, self.user_xy, clamp=True)

    def _draw_waypoints(self, rng: np.random.Generator, users: np.ndarray) -> np.ndarray:
        anchors = self.site_xy[self.serving_site[users]]
        radius = np.sqrt(
            rng.uniform(MIN_DROP_RADIUS_M**2, (self.cfg.isd_m / 2.0) ** 2, users.size)
        )
        theta = rng.uniform(0.0, 2.0 * math.pi, users.size)
        return anchors + np.stack(
            [radius * np.cos(theta), radius * np.sin(theta)], axis=1
        )


def _planar(xy: np.ndarray, what: str) -> np.ndarray:
    """A float copy of ``xy``, which must be a non-empty (N, 2) array."""
    xy = np.array(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValidationError(f"{what} coordinates must be shaped (N, 2), got {xy.shape}")
    if not len(xy):
        raise ValidationError(f"a scenario needs at least one {what}")
    return xy
