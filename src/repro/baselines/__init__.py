"""CPU-driven page-migration baselines (paper §2.1): ANB, DAMON, full
PTE scanning, and PEBS-style sampling, plus the no-migration control."""

from repro.baselines.base import (
    EpochPolicy,
    EpochView,
    MigrationPolicy,
    NoMigration,
    PolicyCosts,
    PolicyDecision,
)
from repro.baselines.anb import AutoNumaBalancing
from repro.baselines.damon import Damon
from repro.baselines.ptescan import PteScanner
from repro.baselines.pebs import PebsSampler
from repro.baselines.tpp import Tpp

__all__ = [
    "EpochPolicy",
    "EpochView",
    "MigrationPolicy",
    "NoMigration",
    "PolicyCosts",
    "PolicyDecision",
    "AutoNumaBalancing",
    "Damon",
    "PteScanner",
    "PebsSampler",
    "Tpp",
]
