"""Unit tests for the dc_scale artifact: determinism and the fleet
consolidation cost curve."""

import json

import pytest

from repro.costmodel.racks import fleet_consolidation_row
from repro.experiments.dc_scale import (
    _dc_point,
    format_dc_scale,
    run_dc_scale,
)
from repro.sim import ms


def small_params():
    return {"racks": 2, "users": 200, "run_ns": ms(3), "vmhosts": 1,
            "vms_per_host": 1, "sidecores": 1, "spines": 1,
            "oversubscription": 4.0}


def test_dc_point_shape_and_sanity():
    row = _dc_point(small_params())
    assert row["racks"] == 2 and row["users"] == 200
    assert row["offered"] > 0
    assert 0 < row["completed"] <= row["offered"]
    assert row["p99_us"] > 0
    assert row["fabric_forwarded"] > 0
    assert row["trunk_mb"] > 0
    assert row["fleet_savings_usd"] == pytest.approx(
        fleet_consolidation_row(2)["savings_usd"])


def test_dc_point_is_deterministic():
    a = _dc_point(small_params())
    b = _dc_point(small_params())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_dc_scale_sweeps_the_grid():
    rows = run_dc_scale(rack_counts=(1, 2), user_counts=(100,),
                        run_ns=ms(2), vmhosts=1)
    assert [(r["racks"], r["users"]) for r in rows] == [(1, 100), (2, 100)]
    # The §3 fleet cost curve scales linearly with rack count.
    assert rows[1]["fleet_savings_usd"] == pytest.approx(
        2 * rows[0]["fleet_savings_usd"])
    table = format_dc_scale(rows)
    assert "p99" in table and "racks" in table


def test_fleet_consolidation_row_scales_linearly():
    one = fleet_consolidation_row(1)
    eight = fleet_consolidation_row(8)
    assert eight["vm_cores"] == 8 * one["vm_cores"]
    assert eight["savings_usd"] == pytest.approx(8 * one["savings_usd"])
    assert eight["savings_percent"] == pytest.approx(one["savings_percent"])
    with pytest.raises(ValueError):
        fleet_consolidation_row(0)
