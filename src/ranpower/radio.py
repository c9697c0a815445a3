"""Link-level constants and scalar conversions.

The distance and power guards and the dBW/watt conversions.  Sites and
users sit at (N, 2) planar coordinates in metres, heights in ``RunConfig``.
The simulation computes gains, SINR, rates and efficiencies on arrays in
:mod:`ranpower.scenario`.  Energy efficiency is expressed in Mbps per dBW,
i.e. the rate in Mbps divided by the transmit power level in dBW, which is
why transmit levels are kept above ``MIN_POWER_DBW``.
"""

from __future__ import annotations

import math

from .errors import ValidationError

SPEED_OF_LIGHT_M_S = 299792458.0

# Transmit levels below 1 dBW make the Mbps-per-dBW ratio blow up or flip
# sign, so the power set is required to stay at or above this guard.
MIN_POWER_DBW = 1.0

# Free-space amplitude term is meaningless in the near field; distances
# below one metre are rejected rather than extrapolated.
MIN_DISTANCE_M = 1.0

# Users are dropped no closer to their own site than this, so a deployment
# needs more than twice this inter-site distance to leave them any room.
MIN_DROP_RADIUS_M = 10.0


def dbw_to_watts(p_dbw: float) -> float:
    """Convert a dBW level to watts."""
    return 10.0 ** (p_dbw / 10.0)


def watts_to_dbw(p_w: float) -> float:
    """Convert watts to dBW.  Raises ``ValidationError`` for p <= 0."""
    if p_w <= 0.0:
        raise ValidationError(f"cannot express {p_w} W in dBW")
    return 10.0 * math.log10(p_w)

