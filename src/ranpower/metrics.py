"""Per-step records, running averages, and the CSV row layout.

Power statistics average in the linear watt domain and only then convert
back to dBW; a sleeping station contributes zero watts.  Quantities that are
undefined on a step (the power average when everyone sleeps, the declines
when nobody backed off, the success flag when there was nothing to decide)
are carried as ``None`` and excluded from any running mean, so a running
mean divides by the number of steps on which the quantity existed.

Every running statistic exists twice: streamed by :class:`MetricsAccumulator`
while a run writes its CSV, and recomputed from scratch by the batch
functions below.  Both take each step's figures from the same step
functions, so per step they agree exactly; tests hold the running means to
1e-9.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

CSV_COLUMNS = (
    "t",
    "ee_reward",
    "ee_avg_allB",
    "ee_cum",
    "thr_cum_bps",
    "pwr_avg_dbw",
    "pwr_cum_dbw",
    "rsrp_decl_dbw",
    "itf_decl_dbw",
    "decl_gap_dbw",
    "zeta",
    "n_star",
    "success_cum",
    "iter_cum",
)


@dataclass(frozen=True, eq=False)
class MetricsRow:
    """Everything one step contributes to the aggregate metrics."""

    t: int
    phi: np.ndarray
    power_dbw: np.ndarray
    rate_bps: np.ndarray
    link_ee: np.ndarray
    ee_reward: float | None
    zeta: int | None
    n_star: int | None

    @property
    def n_sites(self) -> int:
        return int(self.phi.size)

    @functools.cached_property
    def watts(self) -> np.ndarray:
        """Each station's power level in watts, asleep or not; computed once
        for both the power and the decline figures."""
        return 10.0 ** (self.power_dbw / 10.0)


def ee_step(row: MetricsRow) -> float:
    """Mean link efficiency over all stations; sleepers contribute zero."""
    return float(row.link_ee.sum() / row.n_sites)


def throughput_step(row: MetricsRow) -> float:
    """Mean downlink rate over all stations in bit/s."""
    return float(row.rate_bps.sum() / row.n_sites)


def power_step_dbw(row: MetricsRow) -> float | None:
    """Average transmit power of one step in dBW.

    Watts are averaged over all stations with sleepers at zero, then the
    mean is converted to dBW; with every station asleep the value does not
    exist.
    """
    lin = float((row.phi * row.watts).sum() / row.n_sites)
    if lin <= 0.0:
        return None
    return 10.0 * float(np.log10(lin))


def decline_step(row: MetricsRow, p_max_dbw: float) -> tuple[
    float | None, float | None, float | None
]:
    """Per-step decline of serving power and of interference, in dBW.

    Both are linear-watt gaps below the full-power level, averaged over all
    stations; each station's gap shows up once in its own decline and once
    per other station in the interference decline.  A step on which nobody
    backed off has no decline, and a single-station network sees no
    interference decline at all.  The third value is the dB gap between the
    two, defined when both exist.
    """
    gaps = row.phi * (10.0 ** (p_max_dbw / 10.0) - row.watts)
    own = float(gaps.sum() / row.n_sites)
    rsrp = 10.0 * float(np.log10(own)) if own > 0.0 else None
    itf_lin = (row.n_sites - 1) * own
    itf = 10.0 * float(np.log10(itf_lin)) if itf_lin > 0.0 else None
    gap = itf - rsrp if rsrp is not None and itf is not None else None
    return rsrp, itf, gap


def _prefix_means(values: list[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    return np.cumsum(arr) / np.arange(1, arr.size + 1)


def _masked_prefix_means(values: list[float | None]) -> list[float | None]:
    out: list[float | None] = []
    total = 0.0
    count = 0
    for v in values:
        if v is not None:
            total += v
            count += 1
        out.append(total / count if count else None)
    return out


def ee_averages(rows: list[MetricsRow]) -> tuple[np.ndarray, float]:
    """Running and overall mean of the all-station link efficiency."""
    series = _prefix_means([ee_step(r) for r in rows])
    return series, float(series[-1]) if series.size else 0.0


def throughput_averages(rows: list[MetricsRow]) -> tuple[np.ndarray, float]:
    """Running and overall mean of the all-station downlink rate."""
    series = _prefix_means([throughput_step(r) for r in rows])
    return series, float(series[-1]) if series.size else 0.0


def power_averages(
    rows: list[MetricsRow],
) -> tuple[list[float | None], list[float | None]]:
    """Per-step dBW power averages and their running mean over defined steps."""
    step = [power_step_dbw(r) for r in rows]
    return step, _masked_prefix_means(step)


def complexity_averages(
    rows: list[MetricsRow],
) -> tuple[list[float | None], float | None, list[float | None], float | None]:
    """Running success ratio and running mean accepted-iteration count.

    Steps with nothing to decide carry no success flag; iteration counts of
    zero mark agents that run no search and stay out of the mean.
    """
    zeta = [None if r.zeta is None else float(r.zeta) for r in rows]
    iters = [
        float(r.n_star) if r.n_star is not None and r.n_star > 0 else None
        for r in rows
    ]
    z_series = _masked_prefix_means(zeta)
    n_series = _masked_prefix_means(iters)
    z_overall = z_series[-1] if z_series else None
    n_overall = n_series[-1] if n_series else None
    return z_series, z_overall, n_series, n_overall


class MetricsAccumulator:
    """Streams the running statistics row by row for CSV emission."""

    def __init__(self, p_max_dbw: float) -> None:
        self.p_max_dbw = p_max_dbw
        self.n_rows = 0
        self._ee_sum = 0.0
        self._thr_sum = 0.0
        self._pwr_sum = 0.0
        self._pwr_count = 0
        self._zeta_sum = 0.0
        self._zeta_count = 0
        self._iter_sum = 0.0
        self._iter_count = 0

    def push(self, row: MetricsRow) -> dict[str, float | int | None]:
        """Fold one row in and return its CSV record keyed by column name."""
        self.n_rows += 1
        ee = ee_step(row)
        self._ee_sum += ee
        self._thr_sum += throughput_step(row)
        pwr = power_step_dbw(row)
        if pwr is not None:
            self._pwr_sum += pwr
            self._pwr_count += 1
        if row.zeta is not None:
            self._zeta_sum += row.zeta
            self._zeta_count += 1
        if row.n_star is not None and row.n_star > 0:
            self._iter_sum += row.n_star
            self._iter_count += 1
        rsrp, itf, gap = decline_step(row, self.p_max_dbw)
        return {
            "t": row.t,
            "ee_reward": row.ee_reward,
            "ee_avg_allB": ee,
            "ee_cum": self.ee_overall,
            "thr_cum_bps": self.throughput_overall,
            "pwr_avg_dbw": pwr,
            "pwr_cum_dbw": self.power_overall,
            "rsrp_decl_dbw": rsrp,
            "itf_decl_dbw": itf,
            "decl_gap_dbw": gap,
            "zeta": row.zeta,
            "n_star": row.n_star,
            "success_cum": self.success_overall,
            "iter_cum": self.iterations_overall,
        }

    @property
    def ee_overall(self) -> float:
        return self._ee_sum / self.n_rows if self.n_rows else 0.0

    @property
    def throughput_overall(self) -> float:
        return self._thr_sum / self.n_rows if self.n_rows else 0.0

    @property
    def power_overall(self) -> float | None:
        return self._pwr_sum / self._pwr_count if self._pwr_count else None

    @property
    def success_overall(self) -> float | None:
        return self._zeta_sum / self._zeta_count if self._zeta_count else None

    @property
    def iterations_overall(self) -> float | None:
        return self._iter_sum / self._iter_count if self._iter_count else None

    def summary(self) -> dict[str, float | int | None]:
        return {
            "episodes": self.n_rows,
            "ee_overall_mbps_per_dbw": self.ee_overall,
            "throughput_overall_bps": self.throughput_overall,
            "power_overall_dbw": self.power_overall,
            "success_ratio_overall": self.success_overall,
            "iterations_overall": self.iterations_overall,
        }
