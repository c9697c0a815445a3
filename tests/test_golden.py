"""Physics regression against the frozen three-station fixture.

``tests/data/golden_three_site.json`` was produced by an independent
spreadsheet-style evaluation (``generate_golden.py``, plain ``math``); the
package must match it to 1e-9 relative.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLDEN_PATH, build_golden_scenario
from test_metrics import library_record, make_row

DATA_DIR = Path(__file__).parent / "data"

REL = 1e-9


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ctx(golden):
    scn = build_golden_scenario(golden["inputs"])
    return scn.build_step(), scn


def test_generator_reproduces_committed_file(tmp_path):
    """The committed fixture must be exactly what the generator writes."""
    script = DATA_DIR / "generate_golden.py"
    workdir = tmp_path / "data"
    workdir.mkdir()
    copy = workdir / script.name
    copy.write_text(script.read_text())
    subprocess.run([sys.executable, str(copy)], check=True, capture_output=True)
    fresh = (workdir / "golden_three_site.json").read_bytes()
    assert fresh == (DATA_DIR / "golden_three_site.json").read_bytes()


def test_power_levels_match(golden, ctx):
    step, _ = ctx
    assert step.power_levels_dbw == pytest.approx(
        golden["inputs"]["power_levels_dbw"], rel=1e-12
    )


def test_association_matches(golden, ctx):
    _, scn = ctx
    pairs = [[int(b), int(s)] for b, s in zip(scn.serving_site, scn.serving_sector)]
    assert pairs == golden["association"]


def test_site_to_user_gains_match(golden, ctx):
    step, _ = ctx
    expected = np.asarray(golden["site_to_user_gain"])
    assert step.site_to_user_gain == pytest.approx(expected, rel=REL)


def test_reference_rates_match(golden, ctx):
    step, _ = ctx
    full = np.full(3, step.n_levels - 1)
    ev = step.evaluate(full)
    assert ev.user_rates_bps == pytest.approx(
        golden["reference"]["user_rate_bps"], rel=REL
    )
    assert step.full_power.rate_bps == pytest.approx(
        golden["reference"]["user_rate_bps"], rel=REL
    )


def test_chosen_assignment_physics_match(golden, ctx):
    step, _ = ctx
    want = golden["chosen"]
    ev = step.evaluate(np.asarray(golden["inputs"]["chosen_power_idx"]))
    assert ev.power_dbw == pytest.approx(want["power_dbw"], rel=1e-12)
    snr = 2.0 ** (ev.user_rates_bps / step.cfg.bandwidth_hz) - 1.0
    assert snr == pytest.approx(want["snr"], rel=1e-6)
    assert ev.user_rates_bps == pytest.approx(want["user_rate_bps"], rel=REL)
    assert ev.rate_bps == pytest.approx(want["site_rate_bps"], rel=REL)
    assert ev.link_ee == pytest.approx(want["link_ee"], rel=REL)
    assert ev.network_ee == pytest.approx(want["network_ee"], rel=REL)
    delta = step.phi * (step.full_power.rate_bps - ev.rate_bps)
    assert delta == pytest.approx(want["rate_delta_bps"], rel=REL)
    assert ev.rate_delta_sum == pytest.approx(want["rate_delta_sum"], rel=REL)


def test_declines_match_and_interference_decline_exceeds_rsrp(golden, ctx):
    """Cooperative uniform reduction: every station backs off, and the
    interference decline comes out above the serving-power decline."""
    step, _ = ctx
    want = golden["uniform_min_decline"]
    ev = step.evaluate(np.zeros(3, dtype=int))
    rec = library_record(
        make_row(phi=step.phi, power_dbw=ev.power_dbw, rate_bps=ev.rate_bps,
                 link_ee=ev.link_ee, ee_reward=ev.network_ee),
        golden["inputs"]["p_max_dbw"],
    )
    rsrp, itf, gap = rec["rsrp_decl_dbw"], rec["itf_decl_dbw"], rec["decl_gap_dbw"]
    assert rsrp == pytest.approx(want["rsrp_decline_dbw"], rel=REL)
    assert itf == pytest.approx(want["interference_decline_dbw"], rel=REL)
    assert gap == pytest.approx(want["gap_dbw"], rel=REL)
    assert gap > 0.0
    assert itf > rsrp
