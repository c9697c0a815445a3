"""Link-budget arithmetic against hand-computed values and round trips.

The scalar conversions and the reference ``channel_gain`` are checked
directly; distance, SINR, rate, rate deltas and efficiency are checked where
the simulation computes them, in ``sector_gain_matrix`` and
``StepContext.evaluate`` on steps built by hand.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ranpower.config import RunConfig
from ranpower.errors import ValidationError
from ranpower.radio import (
    MIN_DISTANCE_M,
    SPEED_OF_LIGHT_M_S,
    dbw_to_watts,
    watts_to_dbw,
)
from ranpower.scenario import StepContext, StepEval, sector_gain_matrix

# Sites 0 and 2 serve users 0 and 1 at 2e-10 and hear each other at 5e-11;
# site 1 serves nobody, so it sleeps, though its gains are the largest.
GAIN = [[2e-10, 5e-11], [1e-6, 1e-6], [5e-11, 2e-10]]
SCHED_SITE = [0, 2]
# 10 W serving, 0.5 nW interference: SINR and Shannon rate over 10 MHz.
SINR = 3.9974717768605763
RATE_BPS = 23211984.19396464
# The same at the top level, 14.2 dBW: the step's reference rate.
TOP_RATE_BPS = 23216506.14769019


def hand_step(gain=GAIN, sched_site=SCHED_SITE, noise_dbw=-125.0):
    """A frozen step: ``gain[b][u]`` from site b to user u, user u served by
    site ``sched_site[u]`` with all of that site's gain, sites serving nobody
    asleep, and the power levels 10 and 14.2 dBW over the default 10 MHz."""
    gain = np.asarray(gain, dtype=float)
    sched_site = np.asarray(sched_site)
    n_sites, n_users = gain.shape
    levels = np.array([10.0, 14.2])
    return StepContext(
        cfg=RunConfig(noise_dbw=noise_dbw),
        power_levels_dbw=levels, power_levels_w=10.0 ** (levels / 10.0),
        sched_users=np.arange(n_users), sched_site=sched_site,
        serving_gain=gain[sched_site, np.arange(n_users)], site_to_user_gain=gain,
        residual_bits=np.full(n_users, 1e5), prior_power_w=np.zeros(n_sites),
    )


def lowest_level(ctx):
    return ctx.evaluate(np.zeros(ctx.n_sites, dtype=int))


# The default 17 dBi transmit and 0 dBi receive gains, linear.
TX_GAIN, RX_GAIN = 10.0**1.7, 1.0


def channel_gain(
    tx_gain_lin: float,
    rx_gain_lin: float,
    fc_hz: float,
    d_m: float,
    exponent: float = 1.0,
) -> float:
    """Effective channel gain of one link: the scalar reference for each entry
    of ``sector_gain_matrix``.

    The propagation term is ``(c / (4 pi fc d)) ** exponent`` with the
    antenna gains applied outside the exponent.  ``exponent`` defaults to 1,
    matching the amplitude-style free-space factor used throughout the
    simulator; pass 2 for a conventional power-law path loss.
    """
    if d_m < MIN_DISTANCE_M:
        raise ValidationError(f"distance {d_m} m is below {MIN_DISTANCE_M} m")
    if fc_hz <= 0.0:
        raise ValidationError(f"carrier frequency {fc_hz} Hz must be positive")
    path = (SPEED_OF_LIGHT_M_S / (4.0 * math.pi * fc_hz * d_m)) ** exponent
    return tx_gain_lin * path * rx_gain_lin


def test_distance_matches_pythagoras():
    """A user 3 m east and 4 m north of a site 12 m above it is 13 m away."""
    cfg = RunConfig(bs_height_m=13.5)
    gains = sector_gain_matrix(np.zeros((1, 2)), cfg, np.array([[3.0, 4.0]]))
    expected = channel_gain(TX_GAIN, RX_GAIN, cfg.fc_hz, 13.0)
    assert gains[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_distance_uses_height():
    cfg = RunConfig()
    gains = sector_gain_matrix(np.zeros((1, 2)), cfg, np.array([[0.0, 0.0]]))
    expected = channel_gain(TX_GAIN, RX_GAIN, cfg.fc_hz, 23.5)
    assert gains[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_dbw_spot_values():
    assert dbw_to_watts(15.2) == pytest.approx(33.11311214825911, rel=1e-12)
    assert dbw_to_watts(-3.0) == pytest.approx(0.5011872336272722, rel=1e-12)
    assert dbw_to_watts(0.0) == 1.0
    assert watts_to_dbw(2.0) == pytest.approx(3.010299956639812, rel=1e-12)
    assert watts_to_dbw(1.0) == 0.0


def test_watts_to_dbw_rejects_nonpositive():
    with pytest.raises(ValidationError, match="cannot express 0.0 W in dBW"):
        watts_to_dbw(0.0)
    with pytest.raises(ValidationError, match="cannot express -4.0 W in dBW"):
        watts_to_dbw(-4.0)


@given(st.floats(min_value=-200.0, max_value=200.0))
def test_dbw_round_trip(p_dbw):
    assert watts_to_dbw(dbw_to_watts(p_dbw)) == pytest.approx(p_dbw, abs=1e-10)


def test_channel_gain_spot_value():
    # 17 dBi transmit gain, isotropic receive, 2.6 GHz carrier, 100 m.
    g = channel_gain(10**1.7, 1.0, 2.6e9, 100.0)
    assert g == pytest.approx(0.004598725540459307, rel=1e-12)


def test_channel_gain_quadratic_exponent():
    g = channel_gain(10**1.7, 1.0, 2.6e9, 100.0, exponent=2.0)
    assert g == pytest.approx(4.21963593194804e-07, rel=1e-12)


def test_channel_gain_monotone_in_distance():
    near = channel_gain(1.0, 1.0, 2.6e9, 50.0)
    far = channel_gain(1.0, 1.0, 2.6e9, 400.0)
    assert near > far
    assert near / far == pytest.approx(8.0, rel=1e-12)


def test_channel_gain_rejects_near_field():
    with pytest.raises(ValidationError, match="distance 0.5 m is below 1.0 m"):
        channel_gain(1.0, 1.0, 2.6e9, 0.5)


def test_channel_gain_rejects_bad_frequency():
    with pytest.raises(ValidationError, match="carrier frequency 0.0 Hz must be positive"):
        channel_gain(1.0, 1.0, 0.0, 100.0)


def test_link_budget_skips_inactive_interferers():
    """Whatever level the sleeping site carries, it adds no interference."""
    ctx = hand_step()
    for level in (0, 1):
        ev = ctx.evaluate(np.array([0, level, 0]))
        assert ev.user_rates_bps == pytest.approx([RATE_BPS, RATE_BPS], rel=1e-12)


def test_sinr_spot_value():
    rates = lowest_level(hand_step()).user_rates_bps
    assert 2.0 ** (rates / 1e7) - 1.0 == pytest.approx([SINR, SINR], rel=1e-12)


def test_data_rate_spot_value():
    ev = lowest_level(hand_step())
    assert ev.user_rates_bps == pytest.approx([RATE_BPS, RATE_BPS], rel=1e-12)
    assert ev.rate_bps == pytest.approx([RATE_BPS, 0.0, RATE_BPS], rel=1e-12)


def test_data_rate_zero_sinr_is_zero():
    """A user its own site does not reach at all gets no rate."""
    ctx = hand_step()
    ev = lowest_level(replace(ctx, serving_gain=np.array([2e-10, 0.0])))
    assert ev.user_rates_bps[1] == 0.0
    assert ev.user_rates_bps[0] == pytest.approx(RATE_BPS, rel=1e-12)


def test_power_and_rate_delta_active():
    """The deltas run against the step's own top-level rates."""
    ctx = hand_step()
    ref = ctx.full_power.rate_bps
    assert ref == pytest.approx([TOP_RATE_BPS, 0.0, TOP_RATE_BPS], rel=1e-12)
    ev = lowest_level(ctx)
    gap = TOP_RATE_BPS - RATE_BPS
    assert ctx.phi * (ref - ev.rate_bps) == pytest.approx([gap, 0.0, gap], abs=1e-6)
    assert ev.rate_delta_sum == pytest.approx(2 * gap, abs=1e-6)


def test_power_and_rate_delta_sleeping_station_is_zero():
    """A sleeping site has no reference rate and no delta, whatever level
    it carries."""
    ctx = hand_step()
    assert ctx.full_power.rate_bps[1] == 0.0
    for level in (0, 1):
        ev = ctx.evaluate(np.array([0, level, 0]))
        assert ctx.phi[1] * (ctx.full_power.rate_bps[1] - ev.rate_bps[1]) == 0.0
        assert ev.rate_delta_sum == pytest.approx(2 * (TOP_RATE_BPS - RATE_BPS), abs=1e-6)


def test_full_power_station_has_zero_deltas():
    """Measured against the top level's own rates, the top level has no delta."""
    ctx = hand_step()
    ev = ctx.evaluate(np.ones(3, dtype=int))
    assert ev.rate_bps == pytest.approx([TOP_RATE_BPS, 0.0, TOP_RATE_BPS], rel=1e-12)
    assert np.all(ctx.phi * (ctx.full_power.rate_bps - ev.rate_bps) == 0.0)
    assert ev.rate_delta_sum == 0.0


def test_hand_built_full_power_is_the_full_plan():
    """Construction rates nothing; ``full_power``, rated when first read, is
    ``evaluate`` of the top-level plan bit for bit, with no delta."""
    ctx = hand_step()
    assert "full_power" not in vars(ctx)
    want = ctx.evaluate(np.ones(3, dtype=int))
    for f in fields(StepEval):
        got, exp = np.asarray(getattr(ctx.full_power, f.name)), np.asarray(getattr(want, f.name))
        assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes(), f.name
    assert ctx.full_power.rate_delta_sum == 0.0


def test_a_hand_built_step_derives_who_is_active_and_the_own_gains():
    """``sched_site`` and ``site_to_user_gain`` alone say who serves whom: the
    activity mask, the active sites and each user's own-site gain follow from
    them, also after ``dataclasses.replace``."""
    ctx = hand_step()
    assert (ctx.n_sites, ctx.phi.tolist(), ctx.active_sites.tolist()) == (3, [1, 0, 1], [0, 2])
    assert ctx.own_gain.tolist() == [2e-10, 2e-10]
    moved = replace(ctx, sched_site=np.array([1, 2]))
    assert (moved.phi.tolist(), moved.active_sites.tolist()) == ([0, 1, 1], [1, 2])
    assert moved.own_gain.tolist() == [1e-6, 2e-10]
    assert moved.full_power.rate_bps[0] == 0.0 and moved.full_power.rate_bps[1] > 0.0


def test_link_ee_spot_value():
    ev = lowest_level(hand_step())
    assert ev.link_ee == pytest.approx([RATE_BPS / 1e7, 0.0, RATE_BPS / 1e7], rel=1e-12)


def test_network_ee_averages_active_only():
    ev = hand_step().evaluate(np.array([0, 0, 1]))
    assert ev.link_ee[1] == 0.0
    assert ev.network_ee == pytest.approx((ev.link_ee[0] + ev.link_ee[2]) / 2, rel=1e-12)


@given(st.permutations([0, 1, 2]), st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_network_ee_permutation_invariant(perm, levels):
    """Relabelling the sites, with their gains and levels, keeps the average."""
    ctx = hand_step()
    perm = np.asarray(perm)
    inverse = np.argsort(perm)
    relabelled = hand_step(np.asarray(GAIN)[perm], inverse[SCHED_SITE])
    ee = ctx.evaluate(np.asarray(levels)).network_ee
    assert relabelled.evaluate(np.asarray(levels)[perm]).network_ee == pytest.approx(
        ee, rel=1e-12
    )


def test_ee_decreases_when_only_power_rises():
    """Without noise (-1000 dBW, 1e-100 W), raising every site one level
    leaves each SINR and rate as it was, so every link's efficiency falls."""
    ctx = hand_step(noise_dbw=-1000.0)
    low, high = lowest_level(ctx), ctx.evaluate(np.ones(3, dtype=int))
    assert high.rate_bps == pytest.approx(low.rate_bps, rel=1e-12)
    assert np.all(high.link_ee[[0, 2]] < low.link_ee[[0, 2]])
