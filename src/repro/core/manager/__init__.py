"""M5-manager (paper §5.2): Monitor, Nominator, Elector, Promoter."""

from repro.core.manager.elector import (
    Elector,
    ElectorDecision,
    exp_fscale,
    power_fscale,
)
from repro.core.manager.manager import M5Manager, ManagerStepResult
from repro.core.manager.monitor import Monitor, MonitorSample
from repro.core.manager.nominator import (
    HPT_DRIVEN,
    HPT_ONLY,
    HWT_DRIVEN,
    MODES,
    HpaEntry,
    Nomination,
    Nominator,
)
from repro.core.manager.promoter import ProcFile, PromotionReport, Promoter

__all__ = [
    "Elector",
    "ElectorDecision",
    "exp_fscale",
    "power_fscale",
    "M5Manager",
    "ManagerStepResult",
    "Monitor",
    "MonitorSample",
    "HPT_DRIVEN",
    "HPT_ONLY",
    "HWT_DRIVEN",
    "MODES",
    "HpaEntry",
    "Nomination",
    "Nominator",
    "ProcFile",
    "PromotionReport",
    "Promoter",
]
