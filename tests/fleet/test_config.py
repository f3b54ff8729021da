"""FleetConfig validation and round-robin helpers."""

import pytest

from repro.sim.config import FleetConfig


def test_defaults_are_valid():
    fleet = FleetConfig()
    assert fleet.tenants == 3
    assert fleet.tiers == 3
    assert fleet.qos is True


@pytest.mark.parametrize("kwargs", [
    {"tenants": 0},
    {"tiers": 4},
    {"tiers": 1},
    {"bench": "  "},
    {"pooled_capacity_gb": 0.0, "tiers": 3},
    {"chain_headroom_frac": 1.0},
    {"chain_headroom_frac": -0.1},
    {"chain_pull_budget": -1},
    {"weights": "1,0"},
    {"weights": "1,-2"},
])
def test_rejects_bad_shapes(kwargs):
    with pytest.raises(ValueError):
        FleetConfig(**kwargs)


def test_two_tier_fleet_ignores_pooled_capacity():
    # pooled_capacity_gb only constrains 3-tier fleets.
    fleet = FleetConfig(tiers=2, pooled_capacity_gb=0.0)
    assert fleet.tiers == 2


def test_bench_round_robin():
    fleet = FleetConfig(tenants=5, bench="mcf, roms ,bc")
    assert fleet.bench_list() == ["mcf", "roms", "bc", "mcf", "roms"]


def test_weights_default_equal():
    assert FleetConfig(tenants=3).weight_list() == [1.0, 1.0, 1.0]


def test_weights_round_robin():
    fleet = FleetConfig(tenants=4, weights="1, 2")
    assert fleet.weight_list() == [1.0, 2.0, 1.0, 2.0]
