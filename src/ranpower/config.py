"""Flat key-value run configuration: parsing, defaults, validation.

A config document is plain text, one ``key = value`` pair per line, with
``#`` starting a comment.  Every key is optional; omitted keys keep the
defaults below, which reproduce the reference large-network setup (19-site
hex grid, 57 users, 15.2 dBW ceiling, 10 MHz carriers, 20000 steps).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ValidationError
from .radio import MIN_DROP_RADIUS_M, MIN_POWER_DBW

AGENTS = ("dqn", "qlearning", "sleep")
MOBILITY_MODES = ("static", "waypoint")
# The most elements any one array of a run may hold: 80 MB of doubles.
MAX_ARRAY_ELEMENTS = 10**7


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of a run; see the README for the key reference.

    Building one, ``dataclasses.replace`` included, runs :meth:`validate`,
    the one rule set, so the scenario, the agents and the runner read it as
    given.  The power set is :meth:`power_levels_dbw`, computed from it.
    """

    # Deployment
    rings: int = 2
    isd_m: float = 500.0
    bs_height_m: float = 25.0
    user_height_m: float = 1.5
    per_sector_users: int = 1
    mobility: str = "static"
    user_speed_mps: float = 1.0

    # Radio
    fc_hz: float = 2.6e9
    bandwidth_hz: float = 1e7
    tx_gain_dbi: float = 17.0
    rx_gain_dbi: float = 0.0
    backlobe_atten_db: float = 25.0
    path_loss_exponent: float = 1.0
    noise_dbw: float = -125.0

    # Power control
    p_max_dbw: float = 15.2
    delta_p_max_db: float = 2.0
    n_power_levels: int = 5

    # Traffic
    traffic_p0: float = 0.3
    traffic_period: int = 500
    volume_lo_bits: float = 2e4
    volume_hi_bits: float = 2e5

    # Learning
    agent: str = "dqn"
    episodes: int = 20000
    search_iters: int = 100
    discount: float = 0.9
    epsilon: float = 0.1
    learning_rate: float = 1e-3
    replay_capacity: int = 5000
    minibatch_size: int = 1000
    train_interval: int = 500
    sync_interval: int = 10
    hidden_units: int = 64
    hidden_layers: int = 2
    q_bins: int = 16
    q_alpha: float = 0.1

    # Run control
    seed: int = 0
    out_dir: str = "runs"

    def __post_init__(self) -> None:
        self.validate()

    def power_levels_dbw(self) -> np.ndarray:
        """Evenly spaced dBW levels on [p_max - delta_p_max, p_max], ascending."""
        return np.linspace(
            self.p_max_dbw - self.delta_p_max_db, self.p_max_dbw, self.n_power_levels
        )

    def validate(self) -> "RunConfig":
        """Raise ``ValidationError`` naming the first key at fault; else ``self``."""
        for key, kind in FIELD_TYPES.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
                raise ValidationError(f"config key '{key}' expects {kind}, got {value!r}")
            if kind == "float" and not math.isfinite(value):
                raise ValidationError(f"config key '{key}' has non-finite value {value!r}")
        checks: list[tuple[str, bool]] = [
            ("rings", self.rings >= 0),
            ("isd_m", self.isd_m > 2.0 * MIN_DROP_RADIUS_M),
            ("bs_height_m", self.bs_height_m >= 0.0),
            ("user_height_m", self.user_height_m >= 0.0),
            ("per_sector_users", self.per_sector_users >= 1),
            ("mobility", self.mobility in MOBILITY_MODES),
            ("user_speed_mps", self.user_speed_mps >= 0.0),
            ("fc_hz", self.fc_hz > 0.0),
            ("bandwidth_hz", self.bandwidth_hz > 0.0),
            ("backlobe_atten_db", self.backlobe_atten_db >= 0.0),
            ("path_loss_exponent", self.path_loss_exponent > 0.0),
            ("noise_dbw", self.noise_dbw < 0.0),
            ("p_max_dbw", self.p_max_dbw > MIN_POWER_DBW),
            ("delta_p_max_db", 0.0 < self.delta_p_max_db),
            ("n_power_levels", self.n_power_levels >= 2),
            ("traffic_p0", 0.0 <= self.traffic_p0 <= 1.0),
            ("traffic_period", self.traffic_period >= 0),
            ("volume_lo_bits", self.volume_lo_bits > 0.0),
            ("volume_hi_bits", self.volume_hi_bits >= self.volume_lo_bits),
            ("agent", self.agent in AGENTS),
            ("episodes", self.episodes >= 1),
            ("search_iters", self.search_iters >= 1),
            ("discount", 0.0 < self.discount <= 1.0),
            ("epsilon", 0.0 <= self.epsilon <= 1.0),
            ("learning_rate", self.learning_rate > 0.0),
            ("replay_capacity", self.replay_capacity >= 2),
            ("minibatch_size", 1 <= self.minibatch_size < self.replay_capacity),
            ("train_interval", self.train_interval >= 1),
            ("sync_interval", self.sync_interval >= 1),
            ("hidden_units", self.hidden_units >= 1),
            ("hidden_layers", self.hidden_layers >= 1),
            ("q_bins", self.q_bins >= 2),
            ("q_alpha", 0.0 <= self.q_alpha <= 1.0),
            ("seed", self.seed >= 0),
        ]
        for key, ok in checks:
            if not ok:
                raise ValidationError(
                    f"config key '{key}' has invalid value {getattr(self, key)!r}"
                )
        n_sectors = 3 * (1 + 3 * self.rings * (self.rings + 1))  # three per hex-grid site
        n_users = n_sectors * self.per_sector_users
        width = max(self.hidden_units, self.n_power_levels)  # the network's widest layer
        for keys, array, n in [
            ("rings per_sector_users", "gain matrix", n_sectors * n_users),
            ("search_iters rings per_sector_users", "search batch",
             (self.search_iters + 1) * n_users),
            ("replay_capacity", "replay ring", self.replay_capacity),
            ("q_bins n_power_levels", "Q-table", self.q_bins**2 * self.n_power_levels),
            ("hidden_units n_power_levels", "network layer", self.hidden_units * width),
            ("minibatch_size hidden_units n_power_levels", "minibatch",
             self.minibatch_size * width),
        ]:
            if n > MAX_ARRAY_ELEMENTS:
                named = ", ".join(f"'{key}' = {getattr(self, key)!r}" for key in keys.split())
                raise ValidationError(f"config {named}: a {n}-element {array} exceeds the cap")
        if self.p_max_dbw - self.delta_p_max_db < MIN_POWER_DBW:
            raise ValidationError(
                "config key 'delta_p_max_db' pushes the lowest power level "
                f"below the {MIN_POWER_DBW} dBW guard"
            )
        if np.any(np.diff(self.power_levels_dbw()) <= 0.0):
            raise ValidationError(
                f"config key 'delta_p_max_db' has value {self.delta_p_max_db!r}, too small "
                f"to tell {self.n_power_levels} power levels apart"
            )
        return self


# Under ``from __future__ import annotations`` each type is its name: "int", "float" or "str".
FIELD_TYPES: dict[str, str] = {f.name: f.type for f in fields(RunConfig)}  # type: ignore[misc]
# What a value of each type may be; a bool is none of them.
_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def coerce_value(key: str, raw: str) -> Any:
    kind = FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValidationError(f"config key '{key}' expects {kind}, got {raw!r}") from exc


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse a key-value document into typed values, without validation."""
    values: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            raise ValidationError(f"line {lineno}: empty key or value in {line!r}")
        if key not in FIELD_TYPES:
            raise ValidationError(f"unknown config key '{key}' (line {lineno})")
        if key in values:
            raise ValidationError(f"line {lineno}: duplicate key '{key}'")
        values[key] = coerce_value(key, raw)
    return values


def load_config(path: str | Path | None = None, **overrides: Any) -> RunConfig:
    """Build a :class:`RunConfig` from a file plus overrides.

    ``path=None`` yields the pure defaults.  Overrides (e.g. the CLI's seed
    and agent flags) are applied after the file, and the two are checked
    together as the config is built.
    """
    values: dict[str, Any] = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"config file {path} is not text: {exc}") from exc
        values.update(parse_config_text(text))
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in FIELD_TYPES:
            raise ValidationError(f"unknown config key '{key}'")
        values[key] = val
    return RunConfig(**values)
