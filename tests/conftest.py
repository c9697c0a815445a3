"""Shared fixtures: small site layouts, scenarios around them, and run configs."""

import os

# One BLAS thread, as perfbench/run.py and tools/same_outputs.py run: a
# second OpenBLAS thread only spins beside the main one on these small
# products.  The variables are read when numpy is first imported, so they
# are set before anything here imports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
from pathlib import Path

import numpy as np
import pytest

from ranpower.config import RunConfig
from ranpower.scenario import Scenario, StepEval, drop_users, hex_site_positions

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_three_site.json"


@pytest.fixture
def single_site():
    return np.zeros((1, 2))


@pytest.fixture
def three_site():
    """Triangle of three sites: the origin plus two manual positions.

    Small enough for exhaustive enumeration, asymmetric enough that the
    stations interfere with each other at different strengths.
    """
    return np.array([[0.0, 0.0], [500.0, 0.0], [250.0, 433.0]])


def make_scenario(sites, seed=0, **overrides):
    """Drop ``per_sector_users`` users per sector (one unless overridden) and
    wire up a scenario around ``sites``; ``overrides`` are config keys.  The
    power set has four levels unless they say otherwise, few enough to
    enumerate every joint plan of the three-site triangle."""
    cfg = RunConfig(**{"n_power_levels": 4, **overrides})
    return Scenario(sites, cfg, drop_users(sites, cfg, np.random.default_rng(seed)))


def hex_scenario(rings, seed=0, **overrides):
    """:func:`make_scenario` on the standard hex grid of ``rings`` rings,
    with the config's default power set."""
    cfg = RunConfig()
    sites = hex_site_positions(rings, cfg.isd_m)
    return make_scenario(sites, seed, **{"n_power_levels": cfg.n_power_levels, **overrides})


@pytest.fixture
def three_site_scenario(three_site):
    return make_scenario(three_site, seed=11)


def build_golden_scenario(inputs):
    """Rebuild the frozen three-station fixture from its recorded inputs."""
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
    scn = Scenario(np.array(inputs["sites_xy"]), cfg, np.array(inputs["users_xy"]))
    scn.residual_bits[:] = 1e6
    scn.arrival_step[:] = 0
    return scn


@pytest.fixture
def desk_config():
    return RunConfig(rings=1, episodes=60, search_iters=10, seed=5)


@pytest.fixture
def level_set():
    return RunConfig().power_levels_dbw()


def assert_same_eval(a, b):
    """Every field of two step records holds the same bits."""
    for field in dataclasses.fields(StepEval):
        x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
