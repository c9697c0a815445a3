"""Collaborative multi-cell downlink power management.

A deterministic system-level simulator for dense cellular deployments in
which a central learner picks per-station transmit power levels to raise
network energy efficiency without giving up throughput, plus the agents that
drive it: a from-scratch deep Q-network, a tabular Q-learning baseline, and
a non-learning sleep scheme.
"""

from .agents import DqnAgent, QLearningAgent, SleepAgent, exhaustive_oracle
from .config import RunConfig, load_config
from .metrics import CSV_COLUMNS, MetricsAccumulator
from .rl import QNetwork, ReplayMemory
from .runner import run, run_compare, run_oracle_check, run_sweep
from .scenario import Scenario, StepContext, drop_users

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "DqnAgent",
    "MetricsAccumulator",
    "QLearningAgent",
    "QNetwork",
    "ReplayMemory",
    "RunConfig",
    "Scenario",
    "SleepAgent",
    "StepContext",
    "drop_users",
    "exhaustive_oracle",
    "load_config",
    "run",
    "run_compare",
    "run_oracle_check",
    "run_sweep",
]
