"""Shared fixtures: small topologies, scenarios around them, and run configs."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ranpower.config import RunConfig
from ranpower.radio import Position
from ranpower.scenario import (
    Scenario,
    StepEval,
    Topology,
    build_topology,
    drop_users,
    power_level_set,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_three_site.json"


@pytest.fixture
def single_site():
    return build_topology(RunConfig(rings=0))


@pytest.fixture
def three_site():
    """Triangle of three sites: the origin plus two manual positions.

    Small enough for exhaustive enumeration, asymmetric enough that the
    stations interfere with each other at different strengths.
    """
    return Topology(
        site_positions=(Position(0.0, 0.0), Position(500.0, 0.0), Position(250.0, 433.0)),
        power_levels_dbw=power_level_set(15.2, 2.0, 4),
    )


def topo_config(topo, **overrides):
    """The default config with ``topo``'s number of power levels."""
    return RunConfig(n_power_levels=topo.n_levels, **overrides)


def make_scenario(topo, seed=0, **overrides):
    """Drop ``per_sector_users`` users per sector (one unless overridden) and
    wire up a scenario around ``topo``; ``overrides`` are config keys."""
    cfg = topo_config(topo, **overrides)
    return Scenario(topo, cfg, drop_users(topo, cfg, np.random.default_rng(seed)))


@pytest.fixture
def three_site_scenario(three_site):
    return make_scenario(three_site, seed=11)


def build_golden_scenario(inputs):
    """Rebuild the frozen three-station fixture from its recorded inputs."""
    topo = Topology(
        site_positions=tuple(Position(x, y) for x, y in inputs["sites_xy"]),
        power_levels_dbw=power_level_set(
            inputs["p_max_dbw"], inputs["delta_p_max_db"], inputs["n_levels"]
        ),
    )
    cfg = RunConfig(
        p_max_dbw=inputs["p_max_dbw"],
        delta_p_max_db=inputs["delta_p_max_db"],
        n_power_levels=inputs["n_levels"],
        backlobe_atten_db=inputs["backlobe_atten_db"],
        fc_hz=inputs["fc_hz"],
        tx_gain_dbi=inputs["tx_gain_dbi"],
        rx_gain_dbi=inputs["rx_gain_dbi"],
        bandwidth_hz=inputs["bandwidth_hz"],
        noise_dbw=inputs["noise_dbw"],
        bs_height_m=inputs["site_height_m"],
        user_height_m=inputs["user_height_m"],
    )
    users = [Position(x, y) for x, y in inputs["users_xy"]]
    scn = Scenario(topo, cfg, users)
    scn.residual_bits[:] = 1e6
    scn.arrival_step[:] = 0
    return scn


@pytest.fixture
def desk_config():
    return RunConfig(rings=1, episodes=60, search_iters=10, seed=5)


@pytest.fixture
def level_set():
    return power_level_set(15.2, 2.0, 5)


def assert_same_eval(a, b):
    """Every field of two step records holds the same bits."""
    for field in dataclasses.fields(StepEval):
        x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
