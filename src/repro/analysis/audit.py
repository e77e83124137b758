"""Post-run consistency audit of the load-balancing metadata.

The data-first scheduling protocol (Section VI-B) maintains a delicate
invariant set across the isLent bitmaps, the two levels of dataBorrowed
tables, and the in-flight messages.  ``audit_system`` sweeps a finished
system and reports violations -- tests run it after every balanced
execution so protocol regressions surface as named failures rather than
silently wrong schedules.

Checked invariants (for a *quiescent* system):

* I1  every block marked lent by its home unit is held by exactly one
      borrower (or a lend/return is still being accounted);
* I2  no unit holds a borrowed block whose home does not mark it lent;
* I3  a rank bridge's dataBorrowed entries point at units that actually
      borrowed the block (table inclusivity);
* I4  no tasks remain parked, queued or in any buffer;
* I5  task accounting balances: created == completed, nothing in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class AuditReport:
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.ok:
            return "audit: OK"
        return "audit: " + "; ".join(self.violations)


def audit_system(system) -> AuditReport:
    """Audit a finished :class:`~repro.runtime.system.NDPSystem`."""
    report = AuditReport()
    tracker = system.tracker

    # I5: global accounting.
    if tracker.total_created != tracker.total_completed:
        report.add(
            f"I5: {tracker.total_created} tasks created but "
            f"{tracker.total_completed} completed"
        )
    if tracker.task_messages_in_flight:
        report.add(
            f"I5: {tracker.task_messages_in_flight} task messages in flight"
        )

    # Build the borrower map.
    borrowers: Dict[int, List[int]] = {}
    for unit in system.units:
        for entry in unit.borrowed.entries():
            borrowers.setdefault(entry.block_id, []).append(unit.unit_id)

    for unit in system.units:
        # I4: no residual work.
        if unit.queue:
            report.add(f"I4: unit {unit.unit_id} has {len(unit.queue)} "
                       "queued tasks")
        parked = sum(len(v) for v in unit.parked.values())
        if parked:
            report.add(f"I4: unit {unit.unit_id} has {parked} parked tasks")
        if not unit.mailbox.is_empty():
            report.add(f"I4: unit {unit.unit_id} mailbox not empty")

        # I1: every lent block has exactly one borrower.
        for block in list(unit.islent.lent):
            holders = borrowers.get(block, [])
            if len(holders) > 1:
                report.add(
                    f"I1: block {block} lent by unit {unit.unit_id} has "
                    f"{len(holders)} borrowers {holders}"
                )

    # I2: borrowed blocks are marked lent at home.
    for block, holders in borrowers.items():
        home = system.addr_map.unit_of_block(block)
        if not system.units[home].islent.is_lent(block):
            report.add(
                f"I2: block {block} held by {holders} but home unit "
                f"{home} does not mark it lent"
            )

    # I3: bridge entries point at real borrowers.
    for bridge in getattr(system.fabric, "rank_bridges", []):
        for entry in bridge.borrowed.entries():
            holder_ids = borrowers.get(entry.block_id, [])
            if entry.value not in holder_ids:
                report.add(
                    f"I3: bridge {bridge.global_rank} maps block "
                    f"{entry.block_id} to unit {entry.value}, actual "
                    f"holders {holder_ids}"
                )
    return report
