"""Extensions beyond the paper: DVFS slack reclamation, policy variants.

These implement the "optional / future-work" perimeter around the DATE'05
algorithm: what the thermal-aware scheduling literature did next.  Nothing
in :mod:`repro.core` depends on this package.
"""

from .dvfs import (
    DEFAULT_LEVELS,
    DVFSLevel,
    DVFSResult,
    reclaim_slack,
    retime_schedule,
)
from .policies import HybridThermalPolicy, ThermalPeakPolicy

__all__ = [
    "DVFSLevel",
    "DEFAULT_LEVELS",
    "DVFSResult",
    "reclaim_slack",
    "retime_schedule",
    "ThermalPeakPolicy",
    "HybridThermalPolicy",
]
