"""M5 core: streaming top-K trackers (HPT/HWT), their hardware cost
model, and the M5-manager policy stack."""

from repro.core.sketch import CountMinSketch
from repro.core.spacesaving import MisraGries, SpaceSaving
from repro.core.topk import SortedCam
from repro.core.trackers import (
    CmSketchTopK,
    ExactTopK,
    MisraGriesTopK,
    SpaceSavingTopK,
    TopKTracker,
    make_hpt,
    make_hwt,
)
from repro.core import hwcost
from repro.core.manager import (
    Elector,
    M5Manager,
    Monitor,
    Nominator,
    Promoter,
    power_fscale,
)

__all__ = [
    "CountMinSketch",
    "MisraGries",
    "SpaceSaving",
    "SortedCam",
    "CmSketchTopK",
    "ExactTopK",
    "MisraGriesTopK",
    "SpaceSavingTopK",
    "TopKTracker",
    "make_hpt",
    "make_hwt",
    "hwcost",
    "Elector",
    "M5Manager",
    "Monitor",
    "Nominator",
    "Promoter",
    "power_fscale",
]
