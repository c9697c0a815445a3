"""Shared fixtures: small topologies, radio parameters, and run configs."""

from pathlib import Path

import numpy as np
import pytest

from ranpower.config import RunConfig
from ranpower.radio import Position
from ranpower.scenario import (
    ArrivalConfig,
    RadioParams,
    Scenario,
    Topology,
    build_topology,
    power_level_set,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_three_site.json"


@pytest.fixture
def radio_params():
    return RadioParams()


@pytest.fixture
def single_site():
    return build_topology(rings=0, isd_m=500.0, p_max_dbw=15.2, delta_p_max_db=2.0, n_levels=5)


@pytest.fixture
def three_site():
    """Triangle of three sites: the origin plus two manual positions.

    Small enough for exhaustive enumeration, asymmetric enough that the
    stations interfere with each other at different strengths.
    """
    base = build_topology(rings=0, isd_m=500.0, p_max_dbw=15.2, delta_p_max_db=2.0, n_levels=4)
    positions = base.site_positions + (
        Position(500.0, 0.0),
        Position(250.0, 433.0),
    )
    return Topology(
        site_positions=positions,
        isd_m=base.isd_m,
        power_levels_dbw=base.power_levels_dbw,
        boresights_deg=base.boresights_deg,
        backlobe_atten_db=base.backlobe_atten_db,
    )


def make_scenario(topo, radio, seed=0, arrival=None, per_sector=1):
    """Drop one user per sector and wire up a scenario around ``topo``."""
    from ranpower.scenario import drop_users

    rng = np.random.default_rng(seed)
    users = drop_users(topo, per_sector, rng)
    return Scenario(
        topo,
        radio,
        users,
        arrival or ArrivalConfig(),
    )


@pytest.fixture
def three_site_scenario(three_site, radio_params):
    return make_scenario(three_site, radio_params, seed=11)


def build_golden_scenario(inputs):
    """Rebuild the frozen three-station fixture from its recorded inputs."""
    topo = Topology(
        site_positions=tuple(Position(x, y) for x, y in inputs["sites_xy"]),
        isd_m=500.0,
        power_levels_dbw=power_level_set(
            inputs["p_max_dbw"], inputs["delta_p_max_db"], inputs["n_levels"]
        ),
        backlobe_atten_db=inputs["backlobe_atten_db"],
    )
    radio = RadioParams(
        fc_hz=inputs["fc_hz"],
        tx_gain_dbi=inputs["tx_gain_dbi"],
        rx_gain_dbi=inputs["rx_gain_dbi"],
        bandwidth_hz=inputs["bandwidth_hz"],
        noise_dbw=inputs["noise_dbw"],
        bs_height_m=inputs["site_height_m"],
        user_height_m=inputs["user_height_m"],
    )
    users = [Position(x, y) for x, y in inputs["users_xy"]]
    scn = Scenario(topo, radio, users, ArrivalConfig())
    scn.residual_bits[:] = 1e6
    scn.arrival_step[:] = 0
    return scn


@pytest.fixture
def desk_config():
    return RunConfig(rings=1, episodes=60, search_iters=10, seed=5)


@pytest.fixture
def level_set():
    return power_level_set(15.2, 2.0, 5)
