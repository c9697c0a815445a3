"""Correctness checks of a workload run, computed apart from the simulator.

Nothing here imports ``ranpower``.  The physics is recomputed from the
step's own gains with this file's formula, the power set from the config
values, and the CSV figures from the CSV text.  Every check returns a list
of error strings; an empty list means the check passed.  No check looks at
the sign of the feasibility rule.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

import numpy as np

RTOL = 1e-9


def power_set_dbw(p_max_dbw: float, delta_p_max_db: float, n_levels: int) -> np.ndarray:
    """The documented power set: ``n_levels`` even steps over the top ``delta`` dB."""
    step = delta_p_max_db / (n_levels - 1)
    return np.array([p_max_dbw - delta_p_max_db + k * step for k in range(n_levels)])


def _close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=RTOL, atol=1e-12))


def active_stations(sched_site: np.ndarray, n_sites: int) -> np.ndarray:
    """Boolean mask of the stations that have a scheduled user this slot."""
    mask = np.zeros(n_sites, dtype=bool)
    mask[np.asarray(sched_site, dtype=int)] = True
    return mask


def slot_physics(
    gain: np.ndarray,
    serving_gain: np.ndarray,
    sched_site: np.ndarray,
    power_dbw: np.ndarray,
    noise_dbw: float,
    bandwidth_hz: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """SINR and Shannon rate of every scheduled user, per-station rate and
    the slot's network EE (Mbps/dBW averaged over transmitting stations).

    ``gain[b, u]`` is station b's gain towards scheduled user u, and
    ``serving_gain[u]`` the gain of u's serving sector.  Stations without a
    scheduled user do not transmit.
    """
    n_sites = gain.shape[0]
    active = active_stations(sched_site, n_sites)
    watts = np.where(active, 10.0 ** (np.asarray(power_dbw, dtype=float) / 10.0), 0.0)
    noise_w = 10.0 ** (noise_dbw / 10.0)
    n_users = len(sched_site)
    sinr = np.empty(n_users)
    for u in range(n_users):
        s = int(sched_site[u])
        interference = sum(watts[b] * gain[b, u] for b in range(n_sites) if b != s)
        sinr[u] = watts[s] * serving_gain[u] / (interference + noise_w)
    rate_u = np.array([bandwidth_hz * math.log2(1.0 + x) for x in sinr])
    rate_b = np.zeros(n_sites)
    for u in range(n_users):
        rate_b[int(sched_site[u])] += rate_u[u]
    ee_b = [rate_b[b] / 1e6 / power_dbw[b] for b in range(n_sites) if active[b]]
    network_ee = sum(ee_b) / len(ee_b) if ee_b else 0.0
    return sinr, rate_u, rate_b, network_ee


def check_slot(
    t: int,
    physics: tuple,
    user_rates_bps: np.ndarray,
    rate_bps: np.ndarray,
    network_ee: float,
) -> list[str]:
    """Compare the program's rates and EE for one slot with ``slot_physics``."""
    _, rate_u, rate_b, ee = physics
    errors = []
    if not _close(user_rates_bps, rate_u):
        errors.append(f"slot {t}: user rates differ from the recomputed Shannon rates")
    if not _close(rate_bps, rate_b):
        errors.append(f"slot {t}: station rates differ from the recomputed sums")
    if not _close(network_ee, ee):
        errors.append(f"slot {t}: network EE {network_ee!r} != recomputed {ee!r}")
    return errors


def ee_all_stations(rate_bps: np.ndarray, power_dbw: np.ndarray, active: np.ndarray) -> float:
    """The CSV's ``ee_avg_allB``: link EE summed over active stations, / all stations."""
    ee = [rate_bps[b] / 1e6 / power_dbw[b] for b in range(len(active)) if active[b]]
    return sum(ee) / len(active)


def check_levels(
    t: int,
    power_dbw: np.ndarray,
    rate_bps: np.ndarray,
    sched_site: np.ndarray,
    levels_dbw: np.ndarray,
    sleep_agent: bool,
) -> list[str]:
    """Accepted levels lie in the power set; sleeping stations carry zero
    rate; under the sleep agent every station with traffic is at the top."""
    active = active_stations(sched_site, len(power_dbw))
    errors = []
    p = np.asarray(power_dbw, dtype=float)[active]
    in_set = np.isclose(p[:, None], levels_dbw[None, :], rtol=0.0, atol=1e-9).any(axis=1)
    if not in_set.all():
        errors.append(f"slot {t}: levels {p[~in_set].tolist()} are not in the power set")
    if np.any(np.asarray(rate_bps)[~active] != 0.0):
        errors.append(f"slot {t}: a sleeping station carries a non-zero rate")
    if sleep_agent and not np.allclose(p, levels_dbw[-1], rtol=0.0, atol=1e-9):
        errors.append(f"slot {t}: the sleep agent left a station with traffic below the top level")
    return errors


def expected_train_rounds(
    pushes_per_slot: list[int], train_interval: int, minibatch_size: int, capacity: int
) -> int:
    """Training rounds the DQN owes: one at every ``train_interval``-th slot
    (never slot 0) once replay holds more than a minibatch, counting that
    slot's own pushes."""
    fill = 0
    rounds = 0
    for t, pushed in enumerate(pushes_per_slot):
        fill = min(capacity, fill + pushed)
        if t > 0 and t % train_interval == 0 and fill > minibatch_size:
            rounds += 1
    return rounds


def check_train_rounds(observed: int | None, expected: int) -> list[str]:
    if observed is None:
        return ["no learner function to count training rounds with"]
    if observed != expected:
        return [f"{observed} training rounds, but the interval and replay fill imply {expected}"]
    return []


def check_csv(
    csv_text: str,
    episodes: int,
    ee_overall: float,
    expected_ee_allb: dict[int, float],
) -> list[str]:
    """Row count, the ``t`` sequence, the summary's overall EE recomputed
    from ``ee_avg_allB``, and the sampled slots' ``ee_avg_allB``."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    errors = []
    if len(rows) != episodes:
        errors.append(f"metrics.csv has {len(rows)} rows, expected {episodes}")
    ts = [int(r["t"]) for r in rows]
    if ts != list(range(len(rows))):
        errors.append("metrics.csv column t is not the sequence 0, 1, 2, ...")
    ee = [float(r["ee_avg_allB"]) for r in rows]
    mean = math.fsum(ee) / len(ee) if ee else 0.0
    if not _close(mean, ee_overall):
        errors.append(f"mean ee_avg_allB {mean!r} != summary ee_overall {ee_overall!r}")
    by_t = dict(zip(ts, ee))
    for t, want in expected_ee_allb.items():
        if t not in by_t or not _close(by_t[t], want):
            errors.append(f"slot {t}: ee_avg_allB {by_t.get(t)!r} != recomputed {want!r}")
    return errors


def check_digests(digests: list[str]) -> list[str]:
    if len(set(digests)) > 1:
        return [f"repeats of one seed wrote {len(set(digests))} different metrics.csv files"]
    return []


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
