"""Run configuration parsing, defaults, and validation, and the one error
class that every entry point raises for bad input."""

import dataclasses
import math

import numpy as np
import pytest

from ranpower.config import RunConfig, load_config, parse_config_text
from ranpower.errors import RanPowerError, ValidationError
from ranpower.radio import watts_to_dbw
from ranpower.rl import QNetwork, ReplayMemory
from ranpower.scenario import Scenario


def test_defaults_describe_the_large_reference_network():
    cfg = RunConfig()
    assert cfg.validate() is cfg
    assert cfg.rings == 2
    assert cfg.per_sector_users == 1
    assert cfg.p_max_dbw == 15.2
    assert cfg.delta_p_max_db == 2.0
    assert cfg.n_power_levels == 5
    assert cfg.bandwidth_hz == 1e7
    assert cfg.noise_dbw == -125.0
    assert cfg.episodes == 20000
    assert cfg.search_iters == 100
    assert cfg.discount == 0.9
    assert cfg.epsilon == 0.1
    assert cfg.replay_capacity == 5000
    assert cfg.minibatch_size == 1000
    assert cfg.train_interval == 500
    assert cfg.agent == "dqn"
    assert cfg.mobility == "static"


def test_parse_reads_comments_blank_lines_and_types():
    text = """
    # deployment
    rings = 1

    episodes = 250   # short run
    traffic_p0 = 0.25
    agent = qlearning
    """
    values = parse_config_text(text)
    assert values == {
        "rings": 1,
        "episodes": 250,
        "traffic_p0": 0.25,
        "agent": "qlearning",
    }
    assert isinstance(values["rings"], int)
    assert isinstance(values["traffic_p0"], float)


def test_parse_rejects_malformed_line_with_line_number():
    with pytest.raises(ValidationError, match="line 2"):
        parse_config_text("rings = 1\nepisodes")


def test_parse_rejects_empty_value():
    with pytest.raises(ValidationError, match="line 1"):
        parse_config_text("rings =")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ValidationError, match="duplicate key 'rings'"):
        parse_config_text("rings = 1\nrings = 2")


def test_parse_rejects_unknown_key():
    with pytest.raises(ValidationError, match="unknown config key 'ringz'"):
        parse_config_text("ringz = 1")


def test_parse_rejects_wrong_type():
    with pytest.raises(ValidationError, match="'episodes' expects int"):
        parse_config_text("episodes = soon")


OUT_OF_RANGE = [
    ("rings", -1),
    ("isd_m", 0.0),
    ("isd_m", 20.0),  # no room between the 10 m drop floor and isd / 2
    ("per_sector_users", 0),
    ("mobility", "drunkard"),
    ("noise_dbw", 3.0),
    ("p_max_dbw", 0.5),
    ("delta_p_max_db", 0.0),
    ("delta_p_max_db", 1e-15),  # below the spacing of doubles at p_max: repeated levels
    ("n_power_levels", 1),
    ("traffic_p0", 1.5),
    ("traffic_period", -1),
    ("volume_lo_bits", 0.0),
    ("volume_hi_bits", 1e3),
    ("agent", "sarsa"),
    ("episodes", 0),
    ("search_iters", 0),
    ("discount", 0.0),
    ("epsilon", -0.1),
    ("epsilon", 1.5),
    ("learning_rate", 0.0),
    ("minibatch_size", 0),
    ("minibatch_size", 5000),
    ("train_interval", 0),
    ("sync_interval", 0),
    ("q_bins", 1),
    ("q_alpha", 1.5),
    ("q_alpha", 2.0),
    ("seed", -1),
]
FLOAT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type in (float, "float")]
INT_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.type in (int, "int")]
NON_FINITE = [math.inf, -math.inf, math.nan]
WRONG_TYPE = [
    *[(key, value) for key in INT_KEYS for value in (2.5, 4.0, True, "3")],
    *[(key, value) for key in FLOAT_KEYS for value in (True, "500", None)],
    ("out_dir", 5), ("agent", None),
]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE)
def test_validation_names_the_offending_key(key, value):
    with pytest.raises(ValidationError, match=f"'{key}'"):
        RunConfig(**{key: value})


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", NON_FINITE)
def test_validation_rejects_non_finite_floats(key, value):
    with pytest.raises(ValidationError, match=f"'{key}' has non-finite value"):
        RunConfig(**{key: value})


@pytest.mark.parametrize("key, value", WRONG_TYPE)
def test_validation_rejects_values_of_the_wrong_type(key, value):
    with pytest.raises(ValidationError, match=f"'{key}' expects"):
        RunConfig(**{key: value})


@pytest.mark.parametrize("key, value", [
    *OUT_OF_RANGE, *[(key, value) for key in FLOAT_KEYS for value in NON_FINITE], *WRONG_TYPE,
])
def test_an_invalid_config_cannot_be_built_or_derived(key, value):
    """A config that exists is valid: deriving one from a valid config with
    ``dataclasses.replace`` runs the rule set, as building one does (the three
    tests above build each case)."""
    with pytest.raises(ValidationError, match=f"'{key}'"):
        dataclasses.replace(RunConfig(), **{key: value})


# (key, other keys, the key's largest value under MAX_ARRAY_ELEMENTS): the
# gain matrix, the search batch, the replay ring, the Q-table, a network
# layer and a minibatch pass each hold at most that many elements.  The other
# keys keep every array but the one under test well inside the cap.
SIZE_EDGES = [
    ("rings", {}, 18),  # 1027 sites: 9 * 1027**2 gains
    ("per_sector_users", {"rings": 0, "search_iters": 1}, 1_111_111),
    ("search_iters", {}, 175_437),  # 175_438 rows of 57 users
    ("replay_capacity", {}, 10**7),
    ("q_bins", {}, 1414),
    ("n_power_levels", {"minibatch_size": 100}, 39_062),  # 16 * 16 * 39_062 cells
    ("hidden_units", {}, 3162),
    ("minibatch_size", {"replay_capacity": 200_000}, 156_250),  # 64 units wide
]


@pytest.mark.parametrize("key, others, top", SIZE_EDGES)
def test_validation_caps_the_largest_array_a_config_asks_for(key, others, top):
    """The largest value of each size key validates and one more raises,
    naming the key; validation only, nothing is allocated."""
    assert getattr(RunConfig(**others, **{key: top}), key) == top
    with pytest.raises(ValidationError, match=f"'{key}' = {top + 1}\\b.*exceeds the cap"):
        RunConfig(**others, **{key: top + 1})


def test_non_finite_values_fail_from_a_file_and_with_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    for line in ("volume_hi_bits = inf", "isd_m = inf", "tx_gain_dbi = nan"):
        path.write_text(f"{line}\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_config(path)
        with pytest.raises(ValidationError, match="non-finite"):
            load_config(path, seed=2, agent="sleep")


def test_validation_guards_lowest_power_level():
    with pytest.raises(ValidationError, match="'delta_p_max_db' pushes the lowest power level"):
        RunConfig(p_max_dbw=2.0, delta_p_max_db=1.9)


def test_load_config_defaults_without_file():
    assert load_config() == RunConfig()


def test_load_config_file_plus_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rings = 1\nepisodes = 100\nseed = 3\n")
    cfg = load_config(path, seed=7, agent="sleep")
    assert cfg.rings == 1
    assert cfg.episodes == 100
    assert cfg.seed == 7, "overrides win over the file"
    assert cfg.agent == "sleep"


def test_load_config_ignores_none_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\n")
    cfg = load_config(path, seed=None)
    assert cfg.seed == 3


def test_load_config_rejects_unknown_override():
    with pytest.raises(ValidationError, match="unknown config key"):
        load_config(None, not_a_key=1)


def test_load_config_rejects_a_file_that_is_not_text(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"rings = 1\n\xff\xfe\n")
    with pytest.raises(ValidationError, match="run.cfg is not text"):
        load_config(path)


def test_load_config_validates_merged_result(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("episodes = 100\n")
    with pytest.raises(ValidationError, match="'episodes'"):
        load_config(path, episodes=0)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: parse_config_text("rings = 1\nepisodes"), "line 2",
                 id="parse_config_text"),
    pytest.param(lambda: RunConfig(episodes=0), "'episodes'",
                 id="RunConfig.validate"),
    pytest.param(lambda: Scenario(np.zeros((1, 2)), RunConfig(), np.zeros((0, 2))),
                 "at least one user", id="Scenario"),
    pytest.param(lambda: Scenario(np.zeros((0, 2)), RunConfig(), np.array([[30.0, 0.0]])),
                 "at least one site", id="Scenario-no-sites"),
    pytest.param(lambda: Scenario(np.zeros((1, 2)),
                                  RunConfig(bs_height_m=1.5, user_height_m=1.5),
                                  np.array([[0.5, 0.0]])),
                 "closer to a site than the model allows", id="Scenario-near-field"),
    pytest.param(lambda: Scenario(np.zeros((1, 3)), RunConfig(), np.array([[30.0, 0.0]])),
                 r"site coordinates must be shaped \(N, 2\), got \(1, 3\)", id="Scenario-shape"),
    pytest.param(lambda: Scenario(np.zeros((1, 2)), RunConfig(), np.array([30.0, 0.0])),
                 r"user coordinates must be shaped \(N, 2\), got \(2,\)",
                 id="Scenario-user-shape"),
    pytest.param(lambda: ReplayMemory(0), "replay capacity", id="ReplayMemory"),
    pytest.param(lambda: ReplayMemory(4).sample_minibatch(4, np.random.default_rng(0)),
                 "need more than 4", id="ReplayMemory.sample_minibatch"),
    pytest.param(lambda: QNetwork([np.zeros((2, 4))], [np.zeros(3)]), "does not fit",
                 id="QNetwork"),
    pytest.param(lambda: watts_to_dbw(0.0), "cannot express 0.0 W", id="watts_to_dbw"),
])
def test_every_entry_point_raises_validation_error(call, match):
    """Bad input raises the one error class wherever it enters, with a
    message that says where: the key, the line, the argument or the part at
    fault."""
    with pytest.raises(ValidationError, match=match) as info:
        call()
    assert isinstance(info.value, RanPowerError) and isinstance(info.value, ValueError)
