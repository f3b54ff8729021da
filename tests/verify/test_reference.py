"""``as_reference`` / ``as_exact_sequence``: how the per-access models
are bound onto built components."""

import pickle

import numpy as np
import pytest

from repro.core.trackers import ExactTopK
from repro.cxl.pac import PageAccessCounter
from repro.memory.address import PAGE_SIZE, AddressRegion
from repro.sim import SimConfig, Simulation
from repro.verify import as_exact_sequence, as_reference
from repro.workloads import build

REGION = AddressRegion(0x1000_0000, 16 * PAGE_SIZE)


def small_sim():
    config = SimConfig(total_accesses=60_000, chunk_size=15_000, ddr_pages=512,
                       cxl_pages=4096, pages_per_gb=1024)
    return Simulation(build("mcf", seed=0), config, policy="m5-hpt+hwt",
                      enable_wac=True)


def test_binding_is_per_instance():
    ref = as_reference(PageAccessCounter(REGION))
    fast = PageAccessCounter(REGION)
    assert "observe" in vars(ref)
    assert "observe" not in vars(fast)
    addresses = np.uint64(REGION.start) + np.arange(0, 16 * PAGE_SIZE, 1000,
                                                    dtype=np.uint64)
    ref.observe(addresses)
    fast.observe(addresses)
    assert np.array_equal(ref.counts(), fast.counts())


def test_simulation_binds_every_hot_path_component():
    sim = as_reference(small_sim())
    assert {"translate", "record_epoch_accesses"} <= set(vars(sim.memory))
    assert "record_accesses" in vars(sim.mglru)
    assert {"promote", "demote"} <= set(vars(sim.engine))
    for snoop in sim.controller.snoops:  # PAC, WAC, HPT, HWT
        assert "observe_batch" in vars(snoop)
    for tracker in (sim.epoch_policy.hpt, sim.epoch_policy.hwt):
        assert "offer_batch" in vars(tracker.cam)


def test_damon_simulation_binds_region_twins():
    config = SimConfig(total_accesses=60_000, chunk_size=15_000, ddr_pages=512,
                       cxl_pages=4096, pages_per_gb=1024)
    sim = as_reference(Simulation(build("mcf", seed=0), config, policy="damon"))
    assert {"record_hot", "_detect", "_promote_hot", "_merge_regions",
            "_split_regions"} <= set(vars(sim.epoch_policy))
    assert "access" in vars(sim.epoch_policy.page_table.tlb)


def test_bindings_survive_a_pickle_round_trip():
    sim = pickle.loads(pickle.dumps(as_reference(small_sim())))
    assert sim.memory.translate.args == (sim.memory,)
    assert sim.run().promoted == small_sim().run().promoted


def test_exact_sequence_needs_a_per_access_model():
    tracker = as_exact_sequence(ExactTopK(4))
    with pytest.raises(TypeError, match="no exact-sequence model"):
        tracker.observe(np.array([0x1000], dtype=np.uint64))
