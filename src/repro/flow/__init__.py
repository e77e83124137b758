"""simflow -- message-protocol static analysis + lifecycle auditing.

simlint (:mod:`repro.lint`) checks per-file determinism invariants;
simflow checks the *protocol*: the cross-module send->handle graph of
TASK/DATA/STATE messages through the bridge hierarchy, plus a runtime
conservation audit of every message a sanitized run creates.

Static rules (:mod:`repro.flow.rules` over :mod:`repro.flow.graph`, run
by ``python -m repro.analyze src``):

=======  ==============================================================
rule     invariant
=======  ==============================================================
FL001    every produced message type has a reachable handler under
         every fabric design (C/B/W/O/H/R) it can be created on
FL002    every bounded ``Mailbox.enqueue()`` / ``MessageBuffer.push()``
         call site handles the False backpressure return
FL003    rejection branches provably escape (raise / return False /
         spill unbounded) -- a blocking wait can deadlock the bridge
         buffer cycle (one gather burst of 128 KiB > 64 KiB backup)
FL004    isLent/dataBorrowed balance metadata is touched only through
         the public API of balance/metadata.py
=======  ==============================================================

Suppress per line with ``# simflow: ignore[FL002]`` (bare ``ignore``
silences the line).

Runtime half: ``NDPBRIDGE_SANITIZE=1`` attaches a
:class:`~repro.flow.auditor.MessageAuditor` that tags every message id
and proves ``created == delivered + dropped + in_flight`` at run()
exit, flagging leaks, double deliveries, and rejections the stats
never recorded.  Importing the auditor loads none of the static rules.
"""
