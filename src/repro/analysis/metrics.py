"""Run metrics matching the paper's reporting.

Fig. 2 and Fig. 10 report, per run: the overall time (the slowest NDP
unit), the *average* time across units (the max/avg gap measures load
imbalance) and the *wait* time (total time minus the critical unit's
actual task-execution time -- idle cycles spent waiting for messages).
:class:`RunMetrics` captures those plus the energy breakdown and traffic
counters used by the remaining figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import Design, SystemConfig
from ..energy import EnergyBreakdown, account_energy


@dataclass
class RunMetrics:
    """Everything a benchmark needs from one finished run."""

    design: str
    app: str
    makespan: int
    avg_unit_time: float
    max_unit_time: int
    wait_fraction: float
    total_busy_cycles: int
    tasks_executed: int
    task_messages: int
    data_messages: int
    energy: Optional[EnergyBreakdown] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def avg_over_max(self) -> float:
        """Load-balance quality: 1.0 means perfectly balanced."""
        if self.max_unit_time == 0:
            return 1.0
        return self.avg_unit_time / self.max_unit_time

    def as_dict(self) -> dict:
        out = {
            "design": self.design,
            "app": self.app,
            "makespan": self.makespan,
            "avg_unit_time": self.avg_unit_time,
            "max_unit_time": self.max_unit_time,
            "wait_fraction": self.wait_fraction,
            "tasks_executed": self.tasks_executed,
            "task_messages": self.task_messages,
            "data_messages": self.data_messages,
        }
        if self.energy is not None:
            out["energy"] = self.energy.as_dict()
        out.update(self.extra)
        return out


def collect_metrics(system: "object", app_name: str) -> RunMetrics:
    """Build :class:`RunMetrics` from a finished NDP or host system."""
    config: SystemConfig = system.config
    units = list(system.units)
    finish_times = [getattr(u, "finish_time", 0) for u in units]
    busy = [getattr(u, "busy_cycles", 0) for u in units]
    makespan = max(finish_times) if finish_times else 0
    # Per-unit "time" in Fig. 2 / Fig. 10 is the actual task-execution
    # time of each unit; the max/avg gap measures load imbalance (epoch
    # barriers equalize finish times, so finish time would hide it).
    avg_time = sum(busy) / len(busy) if busy else 0.0
    # Wait time of the critical (slowest) unit: its total time minus the
    # cycles it actually spent executing tasks.
    if makespan > 0:
        critical = max(range(len(units)), key=lambda i: finish_times[i])
        wait_fraction = max(0.0, 1.0 - busy[critical] / makespan)
    else:
        wait_fraction = 0.0

    is_host = config.design is Design.H or not hasattr(system, "addr_map")
    task_msgs = 0
    data_msgs = 0
    energy = None
    if not is_host and hasattr(system, "stats"):
        stats = system.stats
        task_msgs, lent, returned = stats.sum_suffixes(
            ".tasks_forwarded", ".blocks_lent", ".blocks_returned"
        )
        data_msgs = lent + returned
        energy = account_energy(config, stats, makespan, sum(busy))

    return RunMetrics(
        design=config.design.value,
        app=app_name,
        makespan=makespan,
        avg_unit_time=avg_time,
        max_unit_time=makespan,
        wait_fraction=wait_fraction,
        total_busy_cycles=sum(busy),
        tasks_executed=system.total_tasks_executed,
        task_messages=task_msgs,
        data_messages=data_msgs,
        energy=energy,
    )
