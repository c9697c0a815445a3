"""Tests for per-step metrics, running means, and the streaming accumulator."""

import numpy as np
import pytest

from ranpower.metrics import (
    CSV_COLUMNS,
    MetricsAccumulator,
    MetricsRow,
    complexity_averages,
    decline_step,
    ee_averages,
    ee_step,
    power_averages,
    power_step_dbw,
    throughput_averages,
    throughput_step,
)

P_MAX = 15.2


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
    return MetricsRow(
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
    assert ee_step(row) == pytest.approx((0.6 + 1.2) / 3, rel=1e-12)


def test_throughput_step_counts_sleepers_as_zero():
    row = make_row(rate_bps=(4e6, 0.0, 8e6), phi=(1, 0, 1))
    assert throughput_step(row) == pytest.approx(4e6, rel=1e-12)


def test_power_step_identical_levels_is_exact():
    row = make_row(power_dbw=(14.2, 14.2, 14.2))
    assert power_step_dbw(row) == pytest.approx(14.2, abs=1e-12)


def test_power_step_averages_in_watts():
    row = make_row(phi=(1, 1), power_dbw=(10.0, 20.0), rate_bps=(1, 1), link_ee=(1, 1))
    expected = 10.0 * np.log10((10.0 + 100.0) / 2.0)
    assert power_step_dbw(row) == pytest.approx(expected, rel=1e-12)


def test_power_step_sleeper_contributes_zero_watts():
    row = make_row(phi=(1, 0), power_dbw=(10.0, 20.0), rate_bps=(1, 0), link_ee=(1, 0))
    expected = 10.0 * np.log10(10.0 / 2.0)
    assert power_step_dbw(row) == pytest.approx(expected, rel=1e-12)


def test_power_step_all_asleep_is_undefined():
    row = make_row(phi=(0, 0, 0), link_ee=(0, 0, 0), rate_bps=(0, 0, 0))
    assert power_step_dbw(row) is None


def test_decline_step_values():
    row = make_row(phi=(1, 1, 1), power_dbw=(13.2, 15.2, 15.2))
    gap_w = 10 ** (P_MAX / 10) - 10 ** (13.2 / 10)
    own = gap_w / 3
    rsrp, itf, gap = decline_step(row, P_MAX)
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
        _, _, gap = decline_step(row, P_MAX)
        assert gap == pytest.approx(10 * np.log10(b - 1), rel=1e-12)


def test_decline_step_no_backoff_is_undefined():
    row = make_row(power_dbw=(15.2, 15.2, 15.2))
    assert decline_step(row, P_MAX) == (None, None, None)


def test_decline_step_single_station_has_no_interference_decline():
    row = make_row(phi=(1,), power_dbw=(13.2,), rate_bps=(1e6,), link_ee=(0.1,))
    rsrp, itf, gap = decline_step(row, P_MAX)
    assert rsrp is not None
    assert itf is None
    assert gap is None


def test_decline_step_sleeping_station_counts_no_gap():
    """A sleeping station backs off nothing; its gap term is masked out."""
    awake = make_row(phi=(1, 1), power_dbw=(13.2, 13.2), rate_bps=(1, 1), link_ee=(1, 1))
    half = make_row(phi=(1, 0), power_dbw=(13.2, 13.2), rate_bps=(1, 0), link_ee=(1, 0))
    r_awake, _, _ = decline_step(awake, P_MAX)
    r_half, _, _ = decline_step(half, P_MAX)
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
    series, overall = ee_averages(rows)
    per_step = [ee_step(r) for r in rows]
    assert series[0] == pytest.approx(per_step[0], rel=1e-12)
    assert overall == pytest.approx(sum(per_step) / len(per_step), rel=1e-12)


def test_masked_means_skip_undefined_steps():
    rows = mixed_rows()
    step, running = power_averages(rows)
    assert step[1] is None
    defined = [s for s in step if s is not None]
    assert running[-1] == pytest.approx(sum(defined) / len(defined), rel=1e-12)
    assert len(running) == len(rows)


def test_masked_means_are_none_until_first_defined_step():
    rows = [
        make_row(t=0, phi=(0, 0, 0), link_ee=(0, 0, 0), rate_bps=(0, 0, 0),
                 zeta=None, n_star=None),
        make_row(t=1),
    ]
    _, running = power_averages(rows)
    assert running[0] is None
    assert running[1] is not None


def test_complexity_means_exclude_searchless_agents():
    """Zero accepted iterations marks an agent with no search to run."""
    rows = mixed_rows()
    rows.append(make_row(t=5, zeta=1, n_star=0))
    z_series, z_overall, n_series, n_overall = complexity_averages(rows)
    assert z_overall == pytest.approx((1 + 0 + 1 + 1 + 1) / 5, rel=1e-12)
    assert n_overall == pytest.approx((4 + 1 + 7) / 3, rel=1e-12)
    assert z_series[1] == pytest.approx(1.0, rel=1e-12)
    assert n_series[2] == pytest.approx(4.0, rel=1e-12)


def test_streaming_matches_batch_within_1e9():
    rows = mixed_rows() * 4
    acc = MetricsAccumulator(P_MAX)
    records = [acc.push(r) for r in rows]

    ee_series, ee_overall = ee_averages(rows)
    thr_series, thr_overall = throughput_averages(rows)
    _, pwr_running = power_averages(rows)
    z_series, z_overall, n_series, n_overall = complexity_averages(rows)

    for i, rec in enumerate(records):
        assert rec["ee_cum"] == pytest.approx(ee_series[i], abs=1e-9)
        assert rec["thr_cum_bps"] == pytest.approx(thr_series[i], abs=1e-9)
        for key, batch in (
            ("pwr_cum_dbw", pwr_running),
            ("success_cum", z_series),
            ("iter_cum", n_series),
        ):
            if batch[i] is None:
                assert rec[key] is None
            else:
                assert rec[key] == pytest.approx(batch[i], abs=1e-9)

    summary = acc.summary()
    assert summary["episodes"] == len(rows)
    assert summary["ee_overall_mbps_per_dbw"] == pytest.approx(ee_overall, abs=1e-9)
    assert summary["throughput_overall_bps"] == pytest.approx(thr_overall, abs=1e-9)
    assert summary["success_ratio_overall"] == pytest.approx(z_overall, abs=1e-9)
    assert summary["iterations_overall"] == pytest.approx(n_overall, abs=1e-9)


def step_rows():
    """Random rows, an all-asleep row and rows with one station awake."""
    rng = np.random.default_rng(7)
    levels = np.linspace(13.2, 15.2, 5)
    rows = []
    for k in range(40):
        n = int(rng.integers(1, 20))
        phi = (rng.random(n) < 0.7).astype(float)
        if k % 10 == 0:
            phi[:] = 0.0
        elif k % 10 == 1:
            phi[:] = 0.0
            phi[rng.integers(n)] = 1.0
        rate = phi * rng.uniform(1e6, 5e7, n)
        power = rng.choice(levels, n)
        rows.append(make_row(t=k, phi=phi, power_dbw=power, rate_bps=rate,
                             link_ee=phi * (rate / 1e6) / power))
    return rows


def test_push_equals_the_step_functions_exactly():
    """The streamed per-step figures are the batch step functions' values,
    ``==`` and not merely close: the CSV bytes depend on them."""
    acc = MetricsAccumulator(P_MAX)
    thr_total = 0.0
    for n, row in enumerate(step_rows(), start=1):
        rec = acc.push(row)
        assert rec["ee_avg_allB"] == ee_step(row)
        assert rec["pwr_avg_dbw"] == power_step_dbw(row)
        assert (rec["rsrp_decl_dbw"], rec["itf_decl_dbw"], rec["decl_gap_dbw"]) == (
            decline_step(row, P_MAX)
        )
        thr_total += throughput_step(row)
        assert rec["thr_cum_bps"] == thr_total / n


def test_streaming_records_per_step_fields():
    row = make_row(power_dbw=(13.2, 14.2, 15.2))
    acc = MetricsAccumulator(P_MAX)
    rec = acc.push(row)
    rsrp, itf, gap = decline_step(row, P_MAX)
    assert rec["t"] == row.t
    assert rec["ee_reward"] == row.ee_reward
    assert rec["ee_avg_allB"] == pytest.approx(ee_step(row), rel=1e-12)
    assert rec["pwr_avg_dbw"] == pytest.approx(power_step_dbw(row), rel=1e-12)
    assert rec["rsrp_decl_dbw"] == pytest.approx(rsrp, rel=1e-12)
    assert rec["itf_decl_dbw"] == pytest.approx(itf, rel=1e-12)
    assert rec["decl_gap_dbw"] == pytest.approx(gap, rel=1e-12)
    assert rec["zeta"] == row.zeta
    assert rec["n_star"] == row.n_star


def test_record_keys_match_csv_columns():
    acc = MetricsAccumulator(P_MAX)
    rec = acc.push(make_row())
    assert tuple(rec.keys()) == CSV_COLUMNS


def test_empty_accumulator_summary():
    acc = MetricsAccumulator(P_MAX)
    summary = acc.summary()
    assert summary["episodes"] == 0
    assert summary["ee_overall_mbps_per_dbw"] == 0.0
    assert summary["power_overall_dbw"] is None
    assert summary["success_ratio_overall"] is None
    assert summary["iterations_overall"] is None
