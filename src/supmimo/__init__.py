"""Multi-cell massive MIMO uplink simulator.

Channel estimation and detection for superimposed, time-multiplexed, and
hybrid pilot schemes, their closed-form SINR/rate predictions, the greedy
pilot-type partitioner, and a reproducible Monte-Carlo harness.
"""

from .sysmodel import (
    PathLossMap,
    PowerAllocation,
    Scenario1,
    Scenario2,
    SystemConfig,
    UserLayout,
    draw_channels,
    hex_centers,
    path_loss,
    place_users,
    received_sir,
    uniform_power,
)
from .hybrid import Partition, brute_force_partition, greedy_partition, total_cost
from .simharness import EXPERIMENTS, MetricsRecord, RunOptions, run_experiment

__version__ = "0.1.0"

__all__ = [
    "EXPERIMENTS",
    "MetricsRecord",
    "Partition",
    "PathLossMap",
    "PowerAllocation",
    "RunOptions",
    "Scenario1",
    "Scenario2",
    "SystemConfig",
    "UserLayout",
    "brute_force_partition",
    "draw_channels",
    "greedy_partition",
    "hex_centers",
    "path_loss",
    "place_users",
    "received_sir",
    "run_experiment",
    "total_cost",
    "uniform_power",
    "__version__",
]
