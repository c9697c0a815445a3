"""Per-slot figures, their running means, and the CSV rows.

Power statistics average in the linear watt domain and only then convert
back to dBW; a sleeping station contributes zero watts.  Quantities that are
undefined on a slot (the power average when everyone sleeps, the declines
when nobody backed off, the success flag when there was nothing to decide)
are NaN in the arrays, an empty cell in the CSV, and excluded from any
running mean, so a running mean divides by the number of slots on which the
quantity existed.

:class:`MetricsAccumulator` copies each slot's raw figures into block arrays
of ``BLOCK_SLOTS`` rows and turns a full block into its CSV lines with
row-wise array operations, carrying the running sums and counts from block
to block.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InvariantViolation

# At 37 sites the block arrays take about 300 kB.  The cost per slot measured
# flat from 64 to 1,024 slots per block, so 256 is not tuned further.
BLOCK_SLOTS = 256

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
_INT_COLUMNS = [CSV_COLUMNS.index(c) for c in ("t", "zeta", "n_star")]


def format_row(values: Iterable[float | int | str | None]) -> str:
    """One CSV line in one pass: ``None`` is an empty cell, anything else its
    ``str``, which for a float is its ``repr``, so a parsed cell is the
    exact double."""
    return ",".join(["" if v is None else str(v) for v in values]) + "\n"


def _dbw(watts: np.ndarray) -> np.ndarray:
    """``10 log10`` of each positive entry; NaN where there is no power."""
    return 10.0 * np.log10(watts, out=np.full(watts.shape, np.nan), where=watts > 0.0)


class MetricsAccumulator:
    """Collects each slot's raw figures and writes them out a block at a time."""

    def __init__(self, p_max_dbw: float, n_sites: int) -> None:
        self.p_max_dbw = p_max_dbw
        # Sums and counts of ee, throughput, power, success and iterations.
        self.totals = np.zeros((2, 5))
        self.filled = 0
        self.t = np.empty(BLOCK_SLOTS)
        self.phi = np.empty((BLOCK_SLOTS, n_sites))
        self.power_dbw = np.empty((BLOCK_SLOTS, n_sites))
        self.rate_bps = np.empty((BLOCK_SLOTS, n_sites))
        self.link_ee = np.empty((BLOCK_SLOTS, n_sites))
        self.reward = np.empty(BLOCK_SLOTS)
        self.zeta = np.empty(BLOCK_SLOTS)
        self.n_star = np.empty(BLOCK_SLOTS)

    def push(self, t: int, phi: np.ndarray, outcome) -> str:
        """Record one slot's :class:`~ranpower.agents.EpisodeOutcome`.

        Returns the block's CSV lines when this slot fills it, else ``""``.
        A slot on which every station slept has no reward and no success
        flag.
        """
        i = self.filled
        ev = outcome.ev
        self.t[i] = t
        self.phi[i] = phi
        self.power_dbw[i] = ev.power_dbw
        self.rate_bps[i] = ev.rate_bps
        self.link_ee[i] = ev.link_ee
        asleep = outcome.all_sleep
        self.reward[i] = np.nan if asleep else ev.network_ee
        self.zeta[i] = np.nan if asleep else outcome.feasible
        n_star = outcome.accepted_iteration
        self.n_star[i] = np.nan if n_star is None else n_star
        self.filled = i + 1
        return self.flush() if self.filled == BLOCK_SLOTS else ""

    def flush(self) -> str:
        """The CSV lines of the slots pushed since the last flush, one per
        slot, with the running sums and counts advanced past them.

        Per slot: link efficiency and rate are means over all stations,
        sleepers at zero.  The declines are linear-watt gaps below the
        full-power level, averaged over all stations; each station's gap
        shows up once in its own decline and once per other station in the
        interference decline, so a single-station network has none.
        Iteration counts of zero mark agents that run no search and stay out
        of their mean.
        """
        n = self.filled
        self.filled = 0
        phi = self.phi[:n]
        n_sites = phi.shape[1]
        watts = 10.0 ** (self.power_dbw[:n] / 10.0)
        ee = self.link_ee[:n].sum(axis=1) / n_sites
        thr = self.rate_bps[:n].sum(axis=1) / n_sites
        pwr = _dbw((phi * watts).sum(axis=1) / n_sites)
        own = (phi * (10.0 ** (self.p_max_dbw / 10.0) - watts)).sum(axis=1) / n_sites
        rsrp = _dbw(own)
        itf = _dbw((n_sites - 1) * own)
        zeta, n_star = self.zeta[:n], self.n_star[:n]
        iters = np.where(n_star > 0, n_star, np.nan)

        steps = np.column_stack([ee, thr, pwr, zeta, iters])
        defined = ~np.isnan(steps)
        sums = np.cumsum(np.vstack([self.totals[0], np.where(defined, steps, 0.0)]), axis=0)
        counts = self.totals[1] + np.cumsum(defined, axis=0)
        self.totals[0] = sums[-1]
        self.totals[1] += defined.sum(axis=0)
        with np.errstate(invalid="ignore"):  # 0/0 before a mean's first defined slot
            running = sums[1:] / counts
        ee_cum, thr_cum, pwr_cum, success_cum, iter_cum = running.T
        table = np.column_stack([
            self.t[:n], self.reward[:n], ee, ee_cum, thr_cum, pwr, pwr_cum, rsrp, itf,
            itf - rsrp, zeta, n_star, success_cum, iter_cum,
        ])
        missing = np.isnan(table)
        cells = table.astype(object)
        cells[:, _INT_COLUMNS] = np.where(missing, 0.0, table)[:, _INT_COLUMNS].astype(np.int64)
        cells[missing] = None
        return "".join(map(format_row, cells.tolist()))

    def summary(self) -> dict[str, float | int | None]:
        """Overall means of every slot pushed; the efficiency and throughput
        means read 0 before any slot, the others ``None``.

        Raises :class:`~ranpower.errors.InvariantViolation` while pushed
        slots wait for :meth:`flush`, as their lines are not written yet.
        """
        if self.filled:
            raise InvariantViolation(
                f"summary() with {self.filled} slots not yet flushed"
            )
        sums, counts = self.totals.tolist()
        ee, thr, pwr, success, iters = [
            s / c if c else None for s, c in zip(sums, counts)
        ]
        return {
            "episodes": int(counts[0]),
            "ee_overall_mbps_per_dbw": 0.0 if ee is None else ee,
            "throughput_overall_bps": 0.0 if thr is None else thr,
            "power_overall_dbw": pwr,
            "success_ratio_overall": success,
            "iterations_overall": iters,
        }
