"""Dynamic communication triggering (Section V-C).

The parent bridge decides when to run a message gather/scatter round:

* a child whose mailbox is empty is never gathered;
* if any child's ``L_mailbox`` reaches ``G_xfer``, gather immediately
  (bandwidth will be fully used);
* otherwise gather only if some child is idle, at most every ``I_min``
  (the duration of one full round) -- prompt delivery for idle units;
* messages already inside the bridge (scatter/backup buffers) also demand
  a round, since only rounds drain them.

``FIXED`` mode gathers unconditionally every ``I_min`` and ``FIXED_2X``
every ``2 * I_min`` -- the Fig. 14(b) comparison points.
"""

from __future__ import annotations

from typing import Sequence

from ..config import CommConfig, TriggerMode


class CommTrigger:
    """Decides whether to start a gather/scatter round now."""

    def __init__(self, config: CommConfig):
        self.config = config

    def should_start_round(
        self,
        now: int,
        last_round_end: int,
        i_min: int,
        mailbox_lens: Sequence[int],
        any_idle_child: bool,
        internal_pending: bool,
    ) -> bool:
        elapsed = now - last_round_end
        mode = self.config.trigger_mode
        if mode is TriggerMode.FIXED:
            return elapsed >= i_min
        if mode is TriggerMode.FIXED_2X:
            return elapsed >= 2 * i_min
        # Dynamic triggering: one pass over the lengths.
        g_xfer = self.config.g_xfer_bytes
        have_traffic = internal_pending
        for length in mailbox_lens:
            if length >= g_xfer:
                return True
            if length > 0:
                have_traffic = True
        if not have_traffic or elapsed < i_min:
            return False
        return internal_pending or any_idle_child

    def gathers_empty_children(self) -> bool:
        """Fixed modes issue GATHERs blindly (the wasted-energy source)."""
        return self.config.trigger_mode is not TriggerMode.DYNAMIC
