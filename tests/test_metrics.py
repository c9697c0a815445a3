"""Tests for the slot metrics: the accumulator's columns and running means.

The per-row reference below computes every figure from one slot at a time
with Python scalars and running sums; the library computes whole blocks with
array operations.  The two must write the same CSV bytes.
"""

from typing import NamedTuple

import numpy as np
import pytest

from ranpower.agents import EpisodeOutcome
from ranpower.errors import InvariantViolation
from ranpower.metrics import CSV_COLUMNS, MetricsAccumulator, format_row
from ranpower.scenario import StepEval

P_MAX = 15.2


class Row(NamedTuple):
    """One slot's raw figures."""

    t: int
    phi: np.ndarray
    power_dbw: np.ndarray
    rate_bps: np.ndarray
    link_ee: np.ndarray
    ee_reward: float | None
    zeta: int | None
    n_star: int | None


def row_from_outcome(t, phi, outcome):
    """A slot's row from what ``run`` hands its episode hook."""
    ev = outcome.ev
    asleep = outcome.all_sleep
    return Row(
        t, phi.copy(), ev.power_dbw, ev.rate_bps, ev.link_ee,
        None if asleep else ev.network_ee,
        None if asleep else int(outcome.feasible),
        outcome.accepted_iteration,
    )


def ee_step(row):
    return float(row.link_ee.sum() / row.phi.size)


def throughput_step(row):
    return float(row.rate_bps.sum() / row.phi.size)


def power_step_dbw(row):
    watts = 10.0 ** (row.power_dbw / 10.0)
    lin = float((row.phi * watts).sum() / row.phi.size)
    return 10.0 * float(np.log10(lin)) if lin > 0.0 else None


def decline_step(row, p_max_dbw):
    watts = 10.0 ** (row.power_dbw / 10.0)
    own = float((row.phi * (10.0 ** (p_max_dbw / 10.0) - watts)).sum() / row.phi.size)
    rsrp = 10.0 * float(np.log10(own)) if own > 0.0 else None
    itf_lin = (row.phi.size - 1) * own
    itf = 10.0 * float(np.log10(itf_lin)) if itf_lin > 0.0 else None
    gap = itf - rsrp if rsrp is not None and itf is not None else None
    return rsrp, itf, gap


def reference_records(rows, p_max_dbw=P_MAX):
    """Each row's CSV record, one row at a time: every running mean divides
    a Python sum by the count of rows on which its figure existed."""
    sums = [0.0] * 5
    counts = [0] * 5
    records = []
    for row in rows:
        ee, pwr = ee_step(row), power_step_dbw(row)
        iters = row.n_star if row.n_star is not None and row.n_star > 0 else None
        means = []
        for k, value in enumerate((ee, throughput_step(row), pwr, row.zeta, iters)):
            if value is not None:
                sums[k] += value
                counts[k] += 1
            means.append(sums[k] / counts[k] if counts[k] else None)
        rsrp, itf, gap = decline_step(row, p_max_dbw)
        records.append(dict(zip(CSV_COLUMNS, (
            row.t, row.ee_reward, ee, means[0], means[1], pwr, means[2], rsrp, itf, gap,
            row.zeta, row.n_star, means[3], means[4],
        ))))
    return records


def reference_lines(rows, p_max_dbw=P_MAX):
    return "".join(format_row(rec.values()) for rec in reference_records(rows, p_max_dbw))


def outcome_of(row):
    """An :class:`EpisodeOutcome` carrying ``row``'s figures; the row's
    ``zeta`` must be what the outcome implies."""
    asleep = row.ee_reward is None
    assert row.zeta == (None if asleep else int(row.n_star is not None))
    ev = StepEval(
        power_idx=np.zeros(row.phi.size, dtype=int), power_dbw=row.power_dbw,
        user_rates_bps=row.rate_bps, rate_bps=row.rate_bps,
        rate_delta_sum=0.0, link_ee=row.link_ee,
        network_ee=0.0 if asleep else row.ee_reward,
    )
    return EpisodeOutcome(ev, row.n_star, all_sleep=asleep)


def library_lines(rows, p_max_dbw=P_MAX, acc=None):
    """The lines the accumulator writes for ``rows`` pushed and then
    flushed; pass ``acc`` to carry its running means across calls."""
    if acc is None:
        acc = MetricsAccumulator(p_max_dbw, rows[0].phi.size)
    pushed = "".join(acc.push(r.t, r.phi, outcome_of(r)) for r in rows)
    return pushed + acc.flush()


def parse_lines(text):
    """CSV lines back into records: an empty cell is ``None``, ``t``,
    ``zeta`` and ``n_star`` are ints and the rest floats."""
    ints = {"t", "zeta", "n_star"}
    return [
        {
            key: None if cell == "" else (int(cell) if key in ints else float(cell))
            for key, cell in zip(CSV_COLUMNS, line.split(","), strict=True)
        }
        for line in text.splitlines()
    ]


def read_metrics(path):
    """The records of a ``metrics.csv``."""
    header, body = path.read_text().split("\n", 1)
    assert header == ",".join(CSV_COLUMNS)
    return parse_lines(body)


def library_record(row, p_max_dbw=P_MAX):
    """The library's CSV record of ``row`` pushed alone."""
    return parse_lines(library_lines([row], p_max_dbw))[0]


def make_row(
    t=0,
    phi=(1, 1, 1),
    power_dbw=(15.2, 15.2, 15.2),
    rate_bps=(1e7, 2e7, 3e7),
    link_ee=(0.5, 1.0, 1.5),
    ee_reward=1.0,
    zeta=1,
    n_star=3,
):
    return Row(
        t=t,
        phi=np.asarray(phi, dtype=float),
        power_dbw=np.asarray(power_dbw, dtype=float),
        rate_bps=np.asarray(rate_bps, dtype=float),
        link_ee=np.asarray(link_ee, dtype=float),
        ee_reward=ee_reward,
        zeta=zeta,
        n_star=n_star,
    )


def test_ee_step_divides_by_all_sites():
    row = make_row(link_ee=(0.6, 0.0, 1.2), phi=(1, 0, 1))
    assert library_record(row)["ee_avg_allB"] == pytest.approx((0.6 + 1.2) / 3, rel=1e-12)


def test_throughput_step_counts_sleepers_as_zero():
    row = make_row(rate_bps=(4e6, 0.0, 8e6), phi=(1, 0, 1))
    assert library_record(row)["thr_cum_bps"] == pytest.approx(4e6, rel=1e-12)


def test_power_step_identical_levels_is_exact():
    row = make_row(power_dbw=(14.2, 14.2, 14.2))
    assert library_record(row)["pwr_avg_dbw"] == pytest.approx(14.2, abs=1e-12)


def test_power_step_averages_in_watts():
    row = make_row(phi=(1, 1), power_dbw=(10.0, 20.0), rate_bps=(1, 1), link_ee=(1, 1))
    expected = 10.0 * np.log10((10.0 + 100.0) / 2.0)
    assert library_record(row)["pwr_avg_dbw"] == pytest.approx(expected, rel=1e-12)


def test_power_step_sleeper_contributes_zero_watts():
    row = make_row(phi=(1, 0), power_dbw=(10.0, 20.0), rate_bps=(1, 0), link_ee=(1, 0))
    expected = 10.0 * np.log10(10.0 / 2.0)
    assert library_record(row)["pwr_avg_dbw"] == pytest.approx(expected, rel=1e-12)


def test_power_step_all_asleep_is_undefined():
    row = make_row(phi=(0, 0, 0), link_ee=(0, 0, 0), rate_bps=(0, 0, 0))
    rec = library_record(row)
    assert rec["pwr_avg_dbw"] is None
    assert rec["pwr_cum_dbw"] is None


def declines(rec):
    return rec["rsrp_decl_dbw"], rec["itf_decl_dbw"], rec["decl_gap_dbw"]


def test_decline_step_values():
    row = make_row(phi=(1, 1, 1), power_dbw=(13.2, 15.2, 15.2))
    gap_w = 10 ** (P_MAX / 10) - 10 ** (13.2 / 10)
    own = gap_w / 3
    rsrp, itf, gap = declines(library_record(row))
    assert rsrp == pytest.approx(10 * np.log10(own), rel=1e-12)
    assert itf == pytest.approx(10 * np.log10(2 * own), rel=1e-12)
    assert gap == pytest.approx(10 * np.log10(2), rel=1e-12)


def test_decline_gap_is_station_count_constant():
    """The dB gap between the declines depends only on the station count."""
    for b in (2, 3, 7):
        row = make_row(
            phi=np.ones(b),
            power_dbw=np.linspace(13.2, 14.8, b),
            rate_bps=np.ones(b),
            link_ee=np.ones(b),
        )
        _, _, gap = declines(library_record(row))
        assert gap == pytest.approx(10 * np.log10(b - 1), rel=1e-12)


def test_decline_step_no_backoff_is_undefined():
    row = make_row(power_dbw=(15.2, 15.2, 15.2))
    assert declines(library_record(row)) == (None, None, None)


def test_decline_step_single_station_has_no_interference_decline():
    row = make_row(phi=(1,), power_dbw=(13.2,), rate_bps=(1e6,), link_ee=(0.1,))
    rsrp, itf, gap = declines(library_record(row))
    assert rsrp is not None
    assert itf is None
    assert gap is None


def test_decline_step_sleeping_station_counts_no_gap():
    """A sleeping station backs off nothing; its gap term is masked out."""
    awake = make_row(phi=(1, 1), power_dbw=(13.2, 13.2), rate_bps=(1, 1), link_ee=(1, 1))
    half = make_row(phi=(1, 0), power_dbw=(13.2, 13.2), rate_bps=(1, 0), link_ee=(1, 0))
    r_awake = library_record(awake)["rsrp_decl_dbw"]
    r_half = library_record(half)["rsrp_decl_dbw"]
    assert r_half == pytest.approx(r_awake - 10 * np.log10(2), rel=1e-12)


def mixed_rows():
    """A sequence exercising every None case the running means must skip."""
    rows = [
        make_row(t=0, power_dbw=(13.2, 14.2, 15.2), zeta=1, n_star=4),
        make_row(t=1, phi=(0, 0, 0), link_ee=(0, 0, 0), rate_bps=(0, 0, 0),
                 power_dbw=(15.2, 15.2, 15.2), ee_reward=None, zeta=None, n_star=None),
        make_row(t=2, power_dbw=(15.2, 15.2, 15.2), zeta=0, n_star=None),
        make_row(t=3, power_dbw=(13.2, 13.2, 13.2), zeta=1, n_star=1),
        make_row(t=4, phi=(1, 1, 0), link_ee=(0.3, 0.4, 0.0),
                 rate_bps=(1e6, 2e6, 0.0), power_dbw=(14.2, 15.2, 15.2),
                 zeta=1, n_star=7),
    ]
    return rows


def test_ee_running_mean_matches_hand_value():
    rows = mixed_rows()
    records = parse_lines(library_lines(rows))
    per_step = [rec["ee_avg_allB"] for rec in records]
    assert records[0]["ee_cum"] == pytest.approx(per_step[0], rel=1e-12)
    assert records[-1]["ee_cum"] == pytest.approx(sum(per_step) / len(per_step), rel=1e-12)


def test_masked_means_skip_undefined_steps():
    rows = mixed_rows()
    records = parse_lines(library_lines(rows))
    step = [rec["pwr_avg_dbw"] for rec in records]
    assert step[1] is None
    defined = [s for s in step if s is not None]
    assert records[-1]["pwr_cum_dbw"] == pytest.approx(sum(defined) / len(defined), rel=1e-12)
    assert len(records) == len(rows)


def test_masked_means_are_none_until_first_defined_step():
    rows = [
        make_row(t=0, phi=(0, 0, 0), link_ee=(0, 0, 0), rate_bps=(0, 0, 0),
                 ee_reward=None, zeta=None, n_star=None),
        make_row(t=1),
    ]
    records = parse_lines(library_lines(rows))
    assert records[0]["pwr_cum_dbw"] is None
    assert records[1]["pwr_cum_dbw"] is not None


def test_complexity_means_exclude_searchless_agents():
    """Zero accepted iterations marks an agent with no search to run."""
    rows = mixed_rows()
    rows.append(make_row(t=5, zeta=1, n_star=0))
    records = parse_lines(library_lines(rows))
    assert records[-1]["success_cum"] == pytest.approx((1 + 0 + 1 + 1 + 1) / 5, rel=1e-12)
    assert records[-1]["iter_cum"] == pytest.approx((4 + 1 + 7) / 3, rel=1e-12)
    assert records[1]["success_cum"] == pytest.approx(1.0, rel=1e-12)
    assert records[2]["iter_cum"] == pytest.approx(4.0, rel=1e-12)
    assert records[-1]["n_star"] == 0


SUMMARY_OF_CUM = {
    "ee_overall_mbps_per_dbw": "ee_cum",
    "throughput_overall_bps": "thr_cum_bps",
    "power_overall_dbw": "pwr_cum_dbw",
    "success_ratio_overall": "success_cum",
    "iterations_overall": "iter_cum",
}


def assert_summary_is_last_record(summary, records):
    """The summary's overall means are the last record's running means."""
    assert summary["episodes"] == len(records)
    for key, column in SUMMARY_OF_CUM.items():
        assert summary[key] is not None
        assert summary[key] == records[-1][column], key


def test_streaming_matches_batch_within_1e9():
    """Blocks of every length, their running means carried from block to
    block, agree with the per-row reference over the whole sequence, and
    the summary with its last running means."""
    rows = mixed_rows() * 4
    want = reference_records(rows)
    for cut in ([], [1], [3, 7], [5, 6, 19]):
        acc = MetricsAccumulator(P_MAX, 3)
        got = []
        for lo, hi in zip([0, *cut], [*cut, len(rows)]):
            got += parse_lines(library_lines(rows[lo:hi], acc=acc))
        for rec, ref in zip(got, want, strict=True):
            for key in ("ee_cum", "thr_cum_bps", "pwr_cum_dbw", "success_cum", "iter_cum"):
                if ref[key] is None:
                    assert rec[key] is None
                else:
                    assert rec[key] == pytest.approx(ref[key], abs=1e-9)
        summary = acc.summary()
        assert summary["episodes"] == len(rows)
        for key, column in SUMMARY_OF_CUM.items():
            assert summary[key] == pytest.approx(want[-1][column], abs=1e-9), key


def step_rows(n_sites, rng):
    """Random rows, all-asleep rows and rows with one station awake."""
    levels = np.linspace(13.2, 15.2, 5)
    rows = []
    for k in range(40):
        phi = (rng.random(n_sites) < 0.7).astype(float)
        if k % 10 == 0:
            phi[:] = 0.0
        elif k % 10 == 1:
            phi[:] = 0.0
            phi[rng.integers(n_sites)] = 1.0
        rate = phi * rng.uniform(1e6, 5e7, n_sites)
        power = rng.choice(levels, n_sites)
        asleep = not phi.any()
        n_star = None if asleep or k % 7 == 3 else int(rng.integers(0, 20))
        rows.append(make_row(
            t=k, phi=phi, power_dbw=power, rate_bps=rate, link_ee=phi * (rate / 1e6) / power,
            ee_reward=None if asleep else float(rng.random()),
            zeta=None if asleep else int(n_star is not None), n_star=n_star,
        ))
    return rows


def test_push_equals_the_step_functions_exactly():
    """Pushed slots, flushed once or every few slots, write the per-row
    reference's bytes: ``==`` and not merely close, as the CSV depends on
    it.  The summary holds the reference's last running means."""
    for n_sites in (1, 3, 7, 19, 37):
        rows = step_rows(n_sites, np.random.default_rng(n_sites))
        want = reference_lines(rows)
        acc = MetricsAccumulator(P_MAX, n_sites)
        assert "".join(acc.push(r.t, r.phi, outcome_of(r)) for r in rows) == ""
        assert acc.flush() == want
        assert_summary_is_last_record(acc.summary(), reference_records(rows))
        acc = MetricsAccumulator(P_MAX, n_sites)
        assert "".join(library_lines(rows[i:i + 9], acc=acc)
                       for i in range(0, len(rows), 9)) == want


def test_summary_refuses_unflushed_slots():
    """Slots still in the block are not in the running sums yet."""
    row = make_row()
    acc = MetricsAccumulator(P_MAX, 3)
    acc.push(row.t, row.phi, outcome_of(row))
    with pytest.raises(InvariantViolation, match="1 slots not yet flushed"):
        acc.summary()
    acc.flush()
    assert acc.summary()["episodes"] == 1


def test_streaming_records_per_step_fields():
    row = make_row(power_dbw=(13.2, 14.2, 15.2))
    rec = library_record(row)
    (ref,) = reference_records([row])
    assert rec["t"] == row.t
    assert rec["ee_reward"] == row.ee_reward
    for key in ("ee_avg_allB", "pwr_avg_dbw", "rsrp_decl_dbw", "itf_decl_dbw",
                "decl_gap_dbw"):
        assert rec[key] == pytest.approx(ref[key], rel=1e-12)
    assert rec["zeta"] == row.zeta
    assert rec["n_star"] == row.n_star


def test_record_keys_match_csv_columns():
    line = library_lines([make_row()])
    assert line.endswith("\n") and line.count("\n") == 1
    assert len(line.split(",")) == len(CSV_COLUMNS)


def test_empty_accumulator_summary():
    acc = MetricsAccumulator(P_MAX, 3)
    assert acc.flush() == ""
    summary = acc.summary()
    assert summary["episodes"] == 0
    assert summary["ee_overall_mbps_per_dbw"] == 0.0
    assert summary["power_overall_dbw"] is None
    assert summary["success_ratio_overall"] is None
    assert summary["iterations_overall"] is None
