"""Site geometry, traffic, scheduling, and the frozen per-step physics."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ranpower.agents import is_feasible
from ranpower.config import RunConfig
from ranpower.errors import ValidationError
from ranpower.radio import (
    MIN_DISTANCE_M,
    MIN_DROP_RADIUS_M,
    SPEED_OF_LIGHT_M_S,
    dbw_to_watts,
)
from ranpower.runner import _moving_users
from ranpower.scenario import (
    BORESIGHTS_DEG,
    SECTOR_WIDTH_DEG,
    SECTORS_PER_SITE,
    SLOT_S,
    Scenario,
    StepEval,
    arrival_probability,
    drop_users,
    generate_traffic,
    hex_site_positions,
    sector_gain_matrix,
)

from conftest import assert_same_eval, hex_scenario, make_scenario
from test_radio import channel_gain

DEFAULTS = RunConfig()
TX_GAIN = 10.0 ** (DEFAULTS.tx_gain_dbi / 10.0)
RX_GAIN = 10.0 ** (DEFAULTS.rx_gain_dbi / 10.0)
ORIGIN_XY = np.zeros((1, 2))  # one site at the origin


def test_power_level_set_spot_values(level_set):
    assert level_set == pytest.approx([13.2, 13.7, 14.2, 14.7, 15.2], rel=1e-12)
    assert RunConfig(delta_p_max_db=5.0, n_power_levels=2).power_levels_dbw() == pytest.approx(
        [10.2, 15.2]
    )


def test_hex_ring_counts():
    for rings, count in [(0, 1), (1, 7), (2, 19), (3, 37)]:
        assert len(hex_site_positions(rings, 500.0)) == count


def test_hex_centre_first_and_ring_distances():
    sites = hex_site_positions(1, 500.0)
    assert sites.shape == (7, 2) and sites.dtype == np.float64
    assert sites[0].tolist() == [0.0, 0.0]
    assert np.hypot(sites[1:, 0], sites[1:, 1]) == pytest.approx([500.0] * 6, rel=1e-12)


def test_hex_positions_are_distinct():
    sites = hex_site_positions(2, 500.0)
    assert len(np.unique(sites.round(6), axis=0)) == 19


def test_drop_users_counts_and_annulus(single_site):
    rng = np.random.default_rng(4)
    users = drop_users(single_site, RunConfig(per_sector_users=2), rng)
    assert users.shape == (6, 2)
    r = np.hypot(users[:, 0], users[:, 1])
    assert np.all((10.0 <= r) & (r <= 250.0))


def test_drop_users_deterministic(single_site):
    a = drop_users(single_site, DEFAULTS, np.random.default_rng(9))
    b = drop_users(single_site, DEFAULTS, np.random.default_rng(9))
    assert a.tobytes() == b.tobytes()


def reference_drop(site_xy, cfg, rng):
    """The per-user scalar loop that ``drop_users`` replaced: site by site,
    sector by sector, each user drawing its squared radius, then its azimuth
    offset."""
    r_lo, r_hi = MIN_DROP_RADIUS_M, cfg.isd_m / 2.0
    half = SECTOR_WIDTH_DEG / 2.0
    users = []
    for x, y in site_xy.tolist():
        for boresight in BORESIGHTS_DEG:
            for _ in range(cfg.per_sector_users):
                radius = math.sqrt(rng.uniform(r_lo**2, r_hi**2))
                azim = math.radians(boresight + rng.uniform(-half, half))
                users.append((x + radius * math.cos(azim), y + radius * math.sin(azim)))
    return np.array(users)


@pytest.mark.parametrize("rings", [0, 1, 2])
@pytest.mark.parametrize("per_sector_users", [1, 2, 3])
def test_drop_users_matches_the_scalar_loop_bit_for_bit(rings, per_sector_users):
    """One whole-array draw gives the loop's positions, and leaves the
    generator where the loop leaves it."""
    cfg = RunConfig(rings=rings, per_sector_users=per_sector_users)
    sites = hex_site_positions(rings, cfg.isd_m)
    for seed in range(6):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = drop_users(sites, cfg, got_rng), reference_drop(sites, cfg, want_rng)
        assert got.shape == want.shape == (len(sites) * 3 * per_sector_users, 2)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()


def test_sector_gain_boresight_and_backlobe():
    # user straight down sector 0's boresight at 100 m ground distance
    user_xy = np.array([[100.0, 0.0]])
    gains = sector_gain_matrix(ORIGIN_XY, DEFAULTS, user_xy)
    d = math.sqrt(100.0**2 + (25.0 - 1.5) ** 2)
    expected = channel_gain(TX_GAIN, RX_GAIN, DEFAULTS.fc_hz, d)
    assert gains[0, 0, 0] == pytest.approx(expected, rel=1e-12)
    # the other two sectors of the same site only leak backlobe
    assert gains[0, 1, 0] == pytest.approx(expected * 10 ** (-2.5), rel=1e-12)
    assert gains[0, 2, 0] == pytest.approx(expected * 10 ** (-2.5), rel=1e-12)


def test_sector_arc_membership():
    # +61 degrees falls outside sector 0 (into sector 1), -59 falls inside
    out = np.array([[100.0 * math.cos(math.radians(61.0)), 100.0 * math.sin(math.radians(61.0))]])
    inside = np.array([[100.0 * math.cos(math.radians(-59.0)), 100.0 * math.sin(math.radians(-59.0))]])
    g_out = sector_gain_matrix(ORIGIN_XY, DEFAULTS, out)
    g_in = sector_gain_matrix(ORIGIN_XY, DEFAULTS, inside)
    assert g_out[0, 0, 0] < g_in[0, 0, 0]
    assert g_out[0, 1, 0] > g_out[0, 0, 0]


def test_user_at_sixty_degrees_gets_the_full_gain_of_sector_zero():
    """``cos`` and ``sin`` put a user at 60 degrees on azimuth
    59.99999999999999, one ulp inside sector 0's arc [300, 60): it gets that
    sector's full transmit gain and the backlobe of the other two."""
    azim = math.radians(60.0)
    user_xy = np.array([[100.0 * math.cos(azim), 100.0 * math.sin(azim)]])
    assert np.degrees(np.arctan2(user_xy[0, 1], user_xy[0, 0])) == np.nextafter(60.0, 0.0)
    gains = sector_gain_matrix(ORIGIN_XY, DEFAULTS, user_xy)
    d = math.sqrt(100.0**2 + (25.0 - 1.5) ** 2)
    expected = channel_gain(TX_GAIN, RX_GAIN, DEFAULTS.fc_hz, d)
    assert gains[0, 0, 0] == pytest.approx(expected, rel=1e-12)
    assert gains[0, 1:, 0] == pytest.approx([expected * 10 ** (-2.5)] * 2, rel=1e-12)


def test_sector_gain_rejects_near_field_without_clamp():
    under = np.array([[0.0, 0.0]])
    cfg = RunConfig(user_height_m=24.5)
    with pytest.raises(ValidationError, match="closer to a site than the model allows"):
        sector_gain_matrix(ORIGIN_XY, cfg, under)
    clamped = sector_gain_matrix(ORIGIN_XY, cfg, under, clamp=True)
    assert np.all(np.isfinite(clamped))


def reference_gain_matrix(site_xy, cfg, user_xy, arcs):
    """The (B, S, U) gains, clamped, with the arc membership that ``arcs``
    gives the (B, U) azimuths in [-180, 180]; returns both."""
    dxy = user_xy[None, :, :] - site_xy[:, None, :]
    planar = np.hypot(dxy[:, :, 0], dxy[:, :, 1])
    height = cfg.user_height_m - cfg.bs_height_m
    dist = np.maximum(np.sqrt(planar**2 + height**2), MIN_DISTANCE_M)
    in_arc = arcs(np.degrees(np.arctan2(dxy[:, :, 1], dxy[:, :, 0])))
    pattern = np.where(in_arc, 1.0, 10.0 ** (-cfg.backlobe_atten_db / 10.0))
    path = (
        SPEED_OF_LIGHT_M_S / (4.0 * math.pi * cfg.fc_hz * dist)
    ) ** cfg.path_loss_exponent
    return TX_GAIN * pattern * path[:, None, :] * RX_GAIN, in_arc


def remainder_arcs(angles):
    """Both angle folds done by ``% 360``."""
    boresights = np.asarray(BORESIGHTS_DEG)
    offset = ((angles % 360.0)[:, None, :] - boresights[:, None] + SECTOR_WIDTH_DEG / 2.0) % 360.0
    return offset < SECTOR_WIDTH_DEG


def interval_arcs(angles):
    """Negative azimuths folded by adding 360, then sector s's arc is
    ``lo <= azimuth < hi`` with lo, hi = boresight -/+ 60 (mod 360), wrapping
    through 0 when lo > hi."""
    angles = angles + np.where(angles < 0.0, 360.0, 0.0)
    boresights = np.asarray(BORESIGHTS_DEG)[:, None]
    lo = (boresights - SECTOR_WIDTH_DEG / 2.0) % 360.0
    hi = (boresights + SECTOR_WIDTH_DEG / 2.0) % 360.0
    above, below = angles[:, None, :] >= lo, angles[:, None, :] < hi
    return np.where(lo < hi, above & below, above | below)


NINETEEN_SITES_XY = hex_site_positions(2, DEFAULTS.isd_m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sector_gain_matches_remainder_and_puts_each_user_in_one_arc(seed):
    """Random users, plus users on the sector edges (the boresights +-60
    degrees, nudged by an ulp either way) and due west of a site (+-180
    degrees, with dy = +0.0 and -0.0).  Every (site, user) pair lies in
    exactly one sector's arc; every gain carries the bits of the interval
    arc test ``lo <= azimuth < hi``; wherever the ``%`` form puts a pair in
    an arc, its gains carry that form's bits too; and any subset of the users
    carries the full matrix's bits.  The ``%`` form puts an azimuth one ulp
    below a sector edge in no arc at all, so it is no reference there."""
    site_xy, cfg = NINETEEN_SITES_XY, DEFAULTS
    rng = np.random.default_rng(seed)
    anchor = site_xy[rng.integers(len(site_xy), size=30)]
    edge = np.radians(rng.choice([60.0, 180.0, 300.0, -60.0, 0.0, 120.0, 240.0], 30))
    radius = rng.uniform(2.0, 600.0, 30)
    on_edge = anchor + np.stack([radius * np.cos(edge), radius * np.sin(edge)], axis=1)
    on_edge[::2] = np.nextafter(on_edge[::2], rng.choice([-np.inf, np.inf], (15, 2)))
    west = np.array([[-100.0, 0.0], [-100.0, -0.0], [site_xy[3, 0] - 40.0, site_xy[3, 1]]])
    user_xy = np.concatenate([rng.uniform(-1400.0, 1400.0, (40, 2)), on_edge, west])
    got = sector_gain_matrix(site_xy, cfg, user_xy, clamp=True)
    # A sector in its arc has the full transmit gain, above its site's backlobe.
    in_arc = got > got.min(axis=1, keepdims=True)
    assert np.all(in_arc.sum(axis=1) == 1)
    want, want_in_arc = reference_gain_matrix(site_xy, cfg, user_xy, interval_arcs)
    assert np.array_equal(in_arc, want_in_arc)
    assert got.tobytes() == want.tobytes()
    ref, ref_in_arc = reference_gain_matrix(site_xy, cfg, user_xy, remainder_arcs)
    covered = ref_in_arc.any(axis=1)  # (B, U)
    pairs_got, pairs_ref = got.transpose(0, 2, 1)[covered], ref.transpose(0, 2, 1)[covered]
    assert pairs_got.tobytes() == pairs_ref.tobytes()
    sub = rng.choice(len(user_xy), size=rng.integers(1, len(user_xy)), replace=False)
    part = sector_gain_matrix(site_xy, cfg, user_xy[sub], clamp=True)
    assert part.tobytes() == np.ascontiguousarray(got[:, :, sub]).tobytes()


def test_association_picks_nearest_site(three_site):
    users = np.array([[40.0, 0.0], [480.0, 10.0]])
    scn = Scenario(three_site, RunConfig(n_power_levels=4), users)
    assert scn.serving_site.tolist() == [0, 1]
    assert 0 <= scn.serving_sector[0] < 3


def test_scenario_moves_its_own_copy_of_the_users(three_site):
    """Waypoint users move in the scenario's array, never in the caller's."""
    cfg = RunConfig(n_power_levels=4, mobility="waypoint", user_speed_mps=5000.0)
    site_xy = three_site.copy()
    user_xy = drop_users(three_site, cfg, np.random.default_rng(11))
    given = user_xy.copy()
    scn = Scenario(three_site, cfg, user_xy)
    scn.residual_bits[:] = 1e5
    ctx = scn.build_step()
    scn.apply(ctx, ctx.evaluate(np.zeros(ctx.n_sites, dtype=int)))
    scn.walk(np.random.default_rng(3))
    assert np.any(scn.user_xy != given)
    assert user_xy.tobytes() == given.tobytes()
    assert three_site.tobytes() == site_xy.tobytes()


def test_arrival_probability_modulation():
    cfg = RunConfig(traffic_p0=0.4, traffic_period=400)
    assert arrival_probability(cfg, 0) == pytest.approx(0.4)
    assert arrival_probability(cfg, 100) == pytest.approx(0.6)
    assert arrival_probability(cfg, 300) == pytest.approx(0.2)
    flat = RunConfig(traffic_p0=0.4, traffic_period=0)
    assert arrival_probability(flat, 123) == 0.4


def test_arrival_probability_clamps():
    cfg = RunConfig(traffic_p0=0.9, traffic_period=4)
    assert arrival_probability(cfg, 1) == 1.0


def test_generate_traffic_extremes():
    idle = np.array([0, 1, 2])
    users, volumes = generate_traffic(0, idle, np.random.default_rng(0), RunConfig(traffic_p0=0.0))
    assert users.size == 0 and volumes.size == 0
    cfg = RunConfig(traffic_p0=1.0, traffic_period=0, volume_lo_bits=1e4, volume_hi_bits=2e4)
    users, volumes = generate_traffic(0, idle, np.random.default_rng(0), cfg)
    assert users.tolist() == [0, 1, 2]
    assert np.all((1e4 <= volumes) & (volumes <= 2e4))
    users, volumes = generate_traffic(0, np.array([], dtype=int), np.random.default_rng(0), cfg)
    assert users.size == 0 and volumes.size == 0


def test_generate_traffic_volume_stream_is_stable():
    # the k-th idle user's volume must not depend on who else was hit
    idle = np.array([3, 5, 8, 9])
    cfg_half = RunConfig(traffic_p0=0.5, traffic_period=0)
    cfg_full = RunConfig(traffic_p0=1.0, traffic_period=0)
    half = dict(zip(*generate_traffic(7, idle, np.random.default_rng(2), cfg_half)))
    full = dict(zip(*generate_traffic(7, idle, np.random.default_rng(2), cfg_full)))
    assert 0 < len(half) < len(full)
    for user, volume in half.items():
        assert volume == full[user]


def manual_step(scn, volumes):
    """Load the given per-user volumes and freeze a step."""
    scn.residual_bits[: len(volumes)] = volumes
    scn.arrival_step[: len(volumes)] = 0
    return scn.build_step()


def test_evaluate_against_scalar_oracle(three_site_scenario):
    scn = three_site_scenario
    ctx = manual_step(scn, [1e5] * scn.n_users)
    idx = np.array([0, 2, 1])
    ev = ctx.evaluate(idx)

    # independent scalar recomputation from the frozen gain tables
    levels = ctx.power_levels_dbw
    rates = np.zeros(ctx.n_sites)
    for k, u in enumerate(ctx.sched_users):
        site = ctx.sched_site[k]
        serving = dbw_to_watts(levels[idx[site]]) * ctx.serving_gain[k]
        interference = 0.0
        for other in range(ctx.n_sites):
            if other != site and ctx.phi[other]:
                interference += (
                    dbw_to_watts(levels[idx[other]]) * ctx.site_to_user_gain[other, k]
                )
        snr = serving / (interference + dbw_to_watts(ctx.cfg.noise_dbw))
        rates[site] += ctx.cfg.bandwidth_hz * math.log2(1.0 + snr)

    assert ev.rate_bps == pytest.approx(rates, rel=1e-12)
    for b in range(ctx.n_sites):
        assert ev.link_ee[b] == pytest.approx(
            (rates[b] / 1e6) / levels[idx[b]], rel=1e-12
        )
    assert ev.network_ee == pytest.approx(ev.link_ee.sum() / 3.0, rel=1e-12)


@functools.lru_cache(maxsize=None)
def seven_site_step():
    """Seven sites, two users per sector, about 60% of the users of sites
    0-4 pending: sites 5 and 6 sleep, the others serve up to three sectors."""
    scn = hex_scenario(1, seed=3, per_sector_users=2)
    coin = np.random.default_rng(4).random(scn.n_users) < 0.6
    pending = coin & (scn.serving_site < 5)
    scn.residual_bits[pending] = 1e5
    scn.arrival_step[pending] = 0
    ctx = scn.build_step()
    assert 0 < ctx.active_sites.size < ctx.n_sites
    assert np.bincount(ctx.sched_site).max() > 1
    return ctx


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 4), min_size=7, max_size=7), min_size=1, max_size=12
    )
)
def test_batch_rows_match_lone_evaluations(plans):
    """Each row of a batched evaluation is the single-plan evaluation of that
    row, bit for bit in every field."""
    ctx = seven_site_step()
    idx = np.array(plans)
    evs = ctx.evaluate(idx)
    for k, plan in enumerate(idx):
        assert_same_eval(evs.row(k), ctx.evaluate(plan))


def test_full_power_reference_has_zero_delta(three_site_scenario):
    ctx = manual_step(three_site_scenario, [1e5] * three_site_scenario.n_users)
    full = np.full(ctx.n_sites, ctx.n_levels - 1)
    ev = ctx.evaluate(full)
    assert ev.rate_delta_sum == 0.0
    assert np.all(ctx.phi * (ctx.full_power.rate_bps - ev.rate_bps) == 0.0)


def loaded_hex_step(rings, rng, share, **keys):
    """A step on the hex grid of ``rings`` rings, two users per sector, with
    each user pending with probability ``share``; ``keys`` are config keys."""
    scn = hex_scenario(rings, seed=rings, per_sector_users=2, **keys)
    pending = rng.random(scn.n_users) < share
    scn.residual_bits[:] = np.where(pending, 1e5, 0.0)
    scn.arrival_step[:] = np.where(pending, 0, -1)
    return scn.build_step()


@pytest.mark.parametrize("rings", [0, 1, 2, 3])
def test_a_full_power_row_has_zero_delta_anywhere_in_any_batch(rings):
    """The full-power plan's deltas are exactly 0 wherever it sits in a batch
    and whatever shares that batch, so full power is always feasible."""
    rng = np.random.default_rng(rings + 5)
    ctx = loaded_hex_step(rings, rng, 0.7)
    for size in (1, 2, 3, 8, 9, 33, 100):
        idx = rng.integers(ctx.n_levels, size=(size, ctx.n_sites))
        full_rows = rng.random(size) < 0.3
        full_rows[rng.integers(size)] = True
        idx[full_rows] = ctx.n_levels - 1
        evs = ctx.evaluate(idx)
        assert np.all(evs.rate_delta_sum[full_rows] == 0.0)
        assert np.all(is_feasible(evs.rate_delta_sum[full_rows]))


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.floats(0.05, 1.0))
def test_evaluate_rows_equal_the_phi_weighted_formulas(seed, rings, share):
    """On random plans in which sleeping sites carry random levels, every
    row's ``rate_delta_sum``, ``link_ee`` and ``network_ee`` equal the
    formulas weighted by ``phi``, bit for bit: a sleeping site serves no
    scheduled user, so its rate is exactly 0.0 and the evaluator needs no
    products with ``phi``."""
    rng = np.random.default_rng(seed)
    ctx = loaded_hex_step(rings, rng, share)
    plans = rng.integers(ctx.n_levels, size=(int(rng.integers(1, 20)), ctx.n_sites))
    evs = ctx.evaluate(plans)
    ref = ctx.full_power.rate_bps
    n_active = ctx.active_sites.size
    for k in range(len(plans)):
        rate_b, power_dbw = evs.rate_bps[k], evs.power_dbw[k]
        link_ee = ctx.phi * (rate_b / 1e6) / power_dbw
        assert bits(evs.rate_delta_sum[k]) == bits((ctx.phi * (ref - rate_b)).sum())
        assert bits(evs.link_ee[k]) == bits(link_ee)
        network_ee = link_ee.sum() / n_active if n_active else 0.0
        assert bits(evs.network_ee[k]) == bits(network_ee)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.floats(0.0, 1.0))
def test_full_power_rated_alone_is_the_full_row_of_any_batch(seed, rings, share):
    """``full_power``, rated in one pass on (B,) arrays, equals in every
    field the full-power row of a batch, wherever that row sits, on grids
    with sleeping sites and with none active."""
    rng = np.random.default_rng(seed)
    ctx = loaded_hex_step(rings, rng, share)
    plans = rng.integers(ctx.n_levels, size=(int(rng.integers(1, 12)), ctx.n_sites))
    row = int(rng.integers(len(plans)))
    plans[row] = ctx.n_levels - 1
    assert_same_eval(ctx.full_power, ctx.evaluate(plans).row(row))


def test_uniform_reduction_is_feasible(three_site_scenario):
    ctx = manual_step(three_site_scenario, [1e5] * three_site_scenario.n_users)
    ev = ctx.evaluate(np.zeros(ctx.n_sites, dtype=int))
    assert ev.rate_delta_sum >= 0.0
    active = ctx.active_sites
    assert np.all(ev.power_dbw[active] < ctx.power_levels_dbw[-1])


def test_sleeping_site_is_masked(three_site_scenario):
    scn = three_site_scenario
    volumes = np.zeros(scn.n_users)
    served_by_zero = np.flatnonzero(scn.serving_site == 0)
    volumes[served_by_zero] = 1e5
    ctx = manual_step(scn, volumes)
    assert list(ctx.active_sites) == [0]
    ev = ctx.evaluate(np.zeros(ctx.n_sites, dtype=int))
    assert ev.link_ee[1] == 0.0
    assert ev.link_ee[2] == 0.0
    assert ev.network_ee == pytest.approx(ev.link_ee[0], rel=1e-12)
    # no interference from sleepers: per-user SNR uses serving power alone
    k = 0
    serving = ctx.power_levels_w[0] * ctx.serving_gain[k]
    expected = ctx.cfg.bandwidth_hz * math.log2(1.0 + serving / dbw_to_watts(ctx.cfg.noise_dbw))
    assert ev.user_rates_bps[k] == pytest.approx(expected, rel=1e-12)


def test_drain_and_conservation(three_site_scenario):
    scn = three_site_scenario
    ctx = manual_step(scn, [2.5e5] * scn.n_users)
    ev = ctx.evaluate(np.full(ctx.n_sites, ctx.n_levels - 1))
    drained = ctx.drained_residual(ev)
    manual = np.maximum(ctx.residual_bits - ev.user_rates_bps * SLOT_S, 0.0)
    assert drained == pytest.approx(manual, rel=1e-12)


def test_next_features_reflect_chosen_power(three_site_scenario):
    ctx = manual_step(three_site_scenario, [1e5] * three_site_scenario.n_users)
    lo = ctx.next_features(ctx.evaluate(np.zeros(ctx.n_sites, dtype=int)))
    hi = ctx.next_features(ctx.evaluate(np.full(ctx.n_sites, ctx.n_levels - 1)))
    # lower transmit power means weaker serving RSRP in the next state
    assert lo.shape == hi.shape == (ctx.active_sites.size, 2)
    assert np.all(lo[:, 1] < hi[:, 1])
    assert np.all((0.0 <= lo) & (lo <= 1.5))


def eager_features(scn, ctx):
    """The features as build_step computed them before any controller ran:
    the active stations' rows, and zeros for the sleeping ones."""
    feats = np.zeros((ctx.n_sites, 2))
    feats[ctx.active_sites] = ctx._site_features(
        ctx.residual_bits, scn.power_levels_w[scn.current_power_idx]
    )
    return feats


@pytest.mark.parametrize("moving", [False, True])
def test_features_on_read_equal_the_eager_ones(moving):
    """``features`` is computed when first read, from the power levels the
    step started with: the same bits whether read before or after
    ``apply`` moved the state on and moving users walked."""
    scn = moving_scenario(seed=21) if moving else static_scenario(2, 1)
    rng = np.random.default_rng(21)
    for step in range(6):
        pending = rng.random(scn.n_users) < 0.7
        scn.residual_bits[:] = np.where(pending, rng.uniform(1e4, 2e5, scn.n_users), 0.0)
        scn.arrival_step[:] = np.where(pending, 0, -1)
        ctx = scn.build_step()
        want = eager_features(scn, ctx).copy()
        plan = rng.integers(ctx.n_levels, size=ctx.n_sites)
        if step % 2:
            assert ctx.features.tobytes() == want.tobytes()
        scn.apply(ctx, ctx.evaluate(plan))
        if moving:
            scn.walk(rng)
        assert ctx.features.tobytes() == want.tobytes()
        assert ctx.features is ctx.features


def reference_schedule(scn):
    """The sort / setdefault / sort loop the array scheduler replaced."""
    pending = np.flatnonzero(scn.residual_bits > 0.0)
    order = sorted(pending, key=lambda u: (scn.arrival_step[u], u))
    taken = {}
    for u in order:
        taken.setdefault((int(scn.serving_site[u]), int(scn.serving_sector[u])), u)
    sched = sorted(taken.values(), key=lambda u: (scn.serving_site[u], u))
    return np.asarray(sched, dtype=int)


@functools.lru_cache(maxsize=None)
def seven_site_scenario():
    return hex_scenario(1, seed=5, per_sector_users=3)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_schedule_matches_the_sort_and_setdefault_loop(data):
    """Random pending sets, arrival steps with many ties, and any number of
    users per sector: the array scheduler picks the same users in the same
    order as the loop it replaced."""
    scn = seven_site_scenario()
    n = scn.n_users
    n_sites = data.draw(st.integers(1, 7))
    n_steps = data.draw(st.integers(1, 6))
    ints = lambda hi: st.lists(st.integers(0, hi), min_size=n, max_size=n)  # noqa: E731
    scn.serving_site = np.array(data.draw(ints(n_sites - 1)))
    scn.serving_sector = np.array(data.draw(ints(2)))
    scn.arrival_step = np.array(data.draw(ints(n_steps - 1)))
    scn.residual_bits = np.array(data.draw(ints(1)), dtype=float) * 1e5
    got = scn._schedule()
    want = reference_schedule(scn)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_schedule_is_fifo_within_sector(three_site):
    scn = make_scenario(three_site, seed=11, per_sector_users=2)
    # two users share each sector; stagger their arrival steps
    scn.residual_bits[:] = 1e5
    scn.arrival_step[:] = 5
    first = np.flatnonzero((scn.serving_site == 0) & (scn.serving_sector == 0))
    assert first.size >= 2
    scn.arrival_step[first[1]] = 2
    ctx = scn.build_step()
    assert first[1] in ctx.sched_users
    assert first[0] not in ctx.sched_users


def test_apply_advances_state(three_site_scenario):
    scn = three_site_scenario
    ctx = manual_step(scn, [1e4] * scn.n_users)
    before_idx, before_t = scn.current_power_idx.copy(), scn.t
    ev = ctx.evaluate(np.zeros(ctx.n_sites, dtype=int))
    scn.apply(ctx, ev)
    assert scn.t == before_t + 1
    assert np.all(scn.current_power_idx[ctx.active_sites] == 0)
    sleepers = np.flatnonzero(ctx.phi == 0.0)
    assert np.all(scn.current_power_idx[sleepers] == before_idx[sleepers])


def test_all_idle_step_has_no_active_sites(three_site_scenario):
    scn = three_site_scenario
    scn.residual_bits[:] = 0.0
    ctx = scn.build_step()
    assert not ctx.any_active
    assert ctx.sched_users.size == 0


def test_completed_requests_free_the_user(three_site):
    scn = make_scenario(three_site, seed=11)
    scn.residual_bits[0] = 1.0  # tiny request: drains in one slot
    scn.arrival_step[0] = 0
    ctx = scn.build_step()
    ev = ctx.evaluate(np.full(ctx.n_sites, ctx.n_levels - 1))
    scn.apply(ctx, ev)
    assert scn.residual_bits[0] == 0.0
    assert scn.arrival_step[0] == -1
    assert 0 in scn.idle_users


def test_mobility_moves_users(three_site):
    # exaggerated speed so one slot moves visibly
    scn = make_scenario(three_site, seed=11, mobility="waypoint", user_speed_mps=5000.0)
    scn.residual_bits[:] = 1e5
    scn.arrival_step[:] = 0
    before = scn.user_xy.copy()
    rng = np.random.default_rng(3)
    ctx = scn.build_step()
    scn.apply(ctx, ctx.evaluate(np.zeros(ctx.n_sites, dtype=int)))
    scn.walk(rng)
    assert np.any(scn.user_xy != before)


def reference_move(scn, rng):
    """The boolean-index random-waypoint step that ``walk``'s whole-array
    moves replaced."""
    step = scn.user_speed_mps * SLOT_S
    delta = scn._waypoints - scn.user_xy
    dist = np.hypot(delta[:, 0], delta[:, 1])
    arrived = dist <= step
    far = ~arrived
    scn.user_xy[far] += delta[far] * (step / dist[far])[:, None]
    if arrived.any():
        scn.user_xy[arrived] = scn._waypoints[arrived]
        scn._waypoints[arrived] = scn._draw_waypoints(rng, np.flatnonzero(arrived))


def test_move_users_matches_the_boolean_index_reference(three_site):
    """Whole-array moves give the same positions and waypoints, including
    users exactly one step from their waypoint and users standing on it."""
    got, want = (  # one metre a slot
        make_scenario(three_site, seed=11, mobility="waypoint", user_speed_mps=1000.0)
        for _ in range(2)
    )
    for scn in (got, want):
        scn._waypoints = scn.user_xy + np.random.default_rng(5).uniform(-3.0, 3.0, (scn.n_users, 2))
        scn._waypoints[0] = scn.user_xy[0] + [1.0, 0.0]  # dist == step
        scn._waypoints[1] = scn.user_xy[1]  # dist == 0
        scn.user_xy[2] = scn._waypoints[2] - [0.0, 1.0]  # one step away, up to rounding
    assert np.hypot(*(got._waypoints[0] - got.user_xy[0])) == 1.0
    rng_got, rng_want = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(8):
        got.walk(rng_got)
        reference_move(want, rng_want)
        assert got.user_xy.tobytes() == want.user_xy.tobytes()
        assert got._waypoints.tobytes() == want._waypoints.tobytes()


def test_static_scenario_ignores_motion_rng(three_site_scenario):
    """The runner's move step for static users neither moves them nor draws
    from the mobility stream, even with walk-ahead allowed."""
    scn = three_site_scenario
    scn.residual_bits[:] = 1e5
    scn.arrival_step[:] = 0
    before = scn.user_xy.copy()
    rng = np.random.default_rng(0)
    rng_state = rng.bit_generator.state
    with _moving_users(scn, rng, slots=1, walk_ahead=True) as move:
        ctx = scn.build_step()
        scn.apply(ctx, ctx.evaluate(np.zeros(ctx.n_sites, dtype=int)))
        move()
    assert np.array_equal(scn.user_xy, before)
    assert rng.bit_generator.state == rng_state


def moving_scenario(seed=11):
    # 0.3 metres a slot, so positions drift visibly
    return hex_scenario(
        1, seed=seed, per_sector_users=2, mobility="waypoint", user_speed_mps=300.0
    )


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_moving_build_step_matches_the_full_matrix_slice(seed):
    """A moving step's gains equal the masked sector sum over the slice of
    the full (B, S, U) matrix recomputed where the users stand, so every
    evaluation rounds the same."""
    scn = moving_scenario(seed)
    rng, plans = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    for _ in range(8):
        pending = rng.random(scn.n_users) < 0.6
        scn.residual_bits[:] = np.where(pending, 1e5, 0.0)
        scn.arrival_step[:] = np.where(pending, rng.integers(0, 3, scn.n_users), -1)
        ctx = scn.build_step()
        users, site = ctx.sched_users, ctx.sched_site
        full = sector_gain_matrix(scn.site_xy, scn.cfg, scn.user_xy, clamp=True)
        sector_active = np.zeros((ctx.n_sites, SECTORS_PER_SITE), dtype=bool)
        sector_active[site, scn.serving_sector[users]] = True
        stu = np.where(sector_active[:, :, None], full[:, :, users], 0.0).sum(axis=1)
        ref = dataclasses.replace(
            ctx,
            site_to_user_gain=stu,
            serving_gain=full[site, scn.serving_sector[users], users],
        )
        assert ctx.site_to_user_gain.tobytes() == np.ascontiguousarray(stu).tobytes()
        assert ctx.serving_gain.tobytes() == ref.serving_gain.tobytes()
        idx = plans.integers(ctx.n_levels, size=(6, ctx.n_sites))
        for plan in idx:
            assert ctx.evaluate(plan).user_rates_bps.tobytes() == (
                ref.evaluate(plan).user_rates_bps.tobytes()
            )
        assert ctx.evaluate(idx).user_rates_bps.tobytes() == (
            ref.evaluate(idx).user_rates_bps.tobytes()
        )
        scn.apply(ctx, ctx.full_power)
        scn.walk(rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from([1, 3]))
def test_static_build_step_matches_the_masked_sector_sum(seed, rings, per_sector):
    """Static users' site-to-user gains equal the ``where``/``sum`` over the
    fancy-indexed (B, S, |sched|) slice of the drop-time matrix, bit for bit,
    on every grid size, and the serving gains equal that matrix's entries.
    Contracting the fancy-indexed slice itself, users outermost, sums the
    sectors in another order and misses by an ulp."""
    scn = pending_static_scenario(seed, rings, per_sector)
    ctx = scn.build_step()
    users, site = ctx.sched_users, ctx.sched_site
    sector = scn.serving_sector[users]
    sector_active = np.zeros((ctx.n_sites, SECTORS_PER_SITE), dtype=bool)
    sector_active[site, sector] = True
    want = np.ascontiguousarray(
        np.where(sector_active[:, :, None], scn.gains[:, :, users], 0.0).sum(axis=1)
    )
    assert ctx.site_to_user_gain.tobytes() == want.tobytes()
    assert ctx.serving_gain.tobytes() == scn.gains[site, sector, users].tobytes()
    assert ctx.own_gain.tobytes() == want[site, np.arange(users.size)].tobytes()


@functools.lru_cache(maxsize=None)
def static_scenario(rings, per_sector):
    return hex_scenario(rings, seed=per_sector, per_sector_users=per_sector)


def pending_static_scenario(seed, rings, per_sector):
    """:func:`static_scenario` with a random share of its users pending."""
    scn = static_scenario(rings, per_sector)
    rng = np.random.default_rng(seed)
    pending = rng.random(scn.n_users) < rng.uniform(0.05, 1.0)
    scn.residual_bits[:] = np.where(pending, 1e5, 0.0)
    scn.arrival_step[:] = np.where(pending, rng.integers(0, 3, scn.n_users), -1)
    return scn


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(1, 3))
def test_both_gain_sources_agree_while_no_user_has_moved(seed, rings, per_sector):
    """Before any user moves, the drop-time matrix and the all-user matrix a
    walk refreshes where the users stand freeze the same step bit for bit,
    so a layout slip in either source shows."""
    scn = pending_static_scenario(seed, rings, per_sector)
    static = scn.build_step()
    drop_gains = scn.gains
    try:
        scn.gains = sector_gain_matrix(scn.site_xy, scn.cfg, scn.user_xy, clamp=True)
        moving = scn.build_step()
    finally:
        scn.gains = drop_gains
    for name in ("site_to_user_gain", "serving_gain", "own_gain", "sched_users"):
        assert getattr(static, name).tobytes() == getattr(moving, name).tobytes(), name


@pytest.mark.parametrize("rings", [0, 1, 2])
def test_a_walk_refreshes_every_users_gains(rings):
    """After each walk in this process, ``gains`` is the clamped all-user
    matrix where the users now stand, bit for bit, C-ordered as the
    mobility process writes it."""
    scn = hex_scenario(rings, seed=rings, per_sector_users=2, mobility="waypoint",
                       user_speed_mps=300.0)
    rng = np.random.default_rng(rings)
    for _ in range(5):
        scn.walk(rng)
        want = sector_gain_matrix(scn.site_xy, scn.cfg, scn.user_xy, clamp=True)
        assert scn.gains.flags.c_contiguous
        assert scn.gains.shape == want.shape
        assert scn.gains.tobytes() == want.tobytes()


@pytest.mark.parametrize("moving", [False, True])
def test_full_power_is_the_evaluation_of_the_full_plan(three_site_scenario, moving):
    """``ctx.full_power`` is ``evaluate`` of the all-top-level plan in every
    field, bit for bit, on loaded, partly loaded and all-idle steps, with
    the drop-time gains and with gains computed where walked users stand."""
    scn = three_site_scenario
    if moving:
        scn.user_speed_mps = 1.0
        scn.walk(np.random.default_rng(0))
    n = scn.n_users
    for volumes, n_active in (([1e5] * n, 3), ([1e5] + [0.0] * (n - 1), 1), ([0.0] * n, 0)):
        ctx = manual_step(scn, volumes)
        assert ctx.active_sites.size == n_active
        full = ctx.evaluate(np.full(ctx.n_sites, ctx.n_levels - 1))
        assert_same_eval(ctx.full_power, full)
        assert ctx.full_power.rate_delta_sum == 0.0


@pytest.mark.parametrize("rings", [0, 1, 2, 3])
def test_the_gain_layout_does_not_change_a_rating(rings):
    """A context built from C- or F-ordered copies of the same gains rates
    every plan, alone and in a batch, with the same bits: the context picks
    the layout its sums run over, not the caller."""
    rng = np.random.default_rng(rings)
    ctx = loaded_hex_step(rings, rng, 0.8)
    c_ctx, f_ctx = (
        dataclasses.replace(ctx, site_to_user_gain=order(ctx.site_to_user_gain))
        for order in (np.ascontiguousarray, np.asfortranarray)
    )
    assert all(c.site_to_user_gain.flags.c_contiguous for c in (c_ctx, f_ctx))
    idx = rng.integers(ctx.n_levels, size=(40, ctx.n_sites))
    assert_same_eval(c_ctx.evaluate(idx), f_ctx.evaluate(idx))
    for plan in idx[:10]:
        assert_same_eval(c_ctx.evaluate(plan), f_ctx.evaluate(plan))
    assert_same_eval(c_ctx.full_power, f_ctx.full_power)


@pytest.mark.parametrize("moving", [False, True])
@pytest.mark.parametrize("rings", [0, 1, 2, 3])
def test_batch_rows_do_not_depend_on_the_rest_of_the_batch(rings, moving):
    """Any rows of a batch, one alone included, in any order, rate bit for
    bit as they do inside the whole batch, at 1 to 37 sites with static and
    moving users.  The best-first search rests on this: it rates the
    top-scored candidates, and maybe the rest, in separate batches and must
    accept the very eval that one batch of all of them would."""
    keys = {"mobility": "waypoint", "user_speed_mps": 300.0} if moving else {}
    rng = np.random.default_rng(rings)
    ctx = loaded_hex_step(rings, rng, 0.8, **keys)
    fields = [f.name for f in dataclasses.fields(StepEval)]

    def assert_rows(idx, whole, rows):
        part = ctx.evaluate(idx[rows])
        for name in fields:
            assert getattr(part, name).tobytes() == getattr(whole, name)[rows].tobytes(), name

    idx = rng.integers(ctx.n_levels, size=(7, ctx.n_sites))
    idx[3] = ctx.n_levels - 1  # a full-power candidate
    whole = ctx.evaluate(idx)
    for size in range(1, len(idx) + 1):
        for rows in itertools.combinations(range(len(idx)), size):
            assert_rows(idx, whole, np.array(rows))
            assert_rows(idx, whole, rng.permutation(rows))
    # a paper-width batch cut into a head and the rest, as the search cuts it
    idx = rng.integers(ctx.n_levels, size=(100, ctx.n_sites))
    whole = ctx.evaluate(idx)
    for _ in range(20):
        order, cut = rng.permutation(len(idx)), rng.integers(1, len(idx))
        assert_rows(idx, whole, order[:cut])
        assert_rows(idx, whole, order[cut:])
