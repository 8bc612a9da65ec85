"""Co-flow simulation driver.

Runs any flow-level policy (co-flow-aware or oblivious) through the
online simulator and reports metrics at both granularities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.coflow.metrics import CoflowMetrics
from repro.coflow.model import CoflowInstance
from repro.core.metrics import ScheduleMetrics
from repro.core.schedule import Schedule
from repro.online.policies import OnlinePolicy
from repro.online.simulator import simulate


@dataclass(frozen=True)
class CoflowSimulationResult:
    """Flow- and co-flow-level outcomes of one simulation."""

    schedule: Schedule
    flow_metrics: ScheduleMetrics
    coflow_metrics: CoflowMetrics
    stats: Dict[str, int] = field(default_factory=dict, repr=False)


def simulate_coflows(
    cf: CoflowInstance, policy: OnlinePolicy
) -> CoflowSimulationResult:
    """Simulate ``policy`` on the flattened instance of ``cf``."""
    result = simulate(cf.instance, policy)
    return CoflowSimulationResult(
        schedule=result.schedule,
        flow_metrics=result.metrics,
        coflow_metrics=CoflowMetrics.of(cf, result.schedule),
        stats=result.stats,
    )
