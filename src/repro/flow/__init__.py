"""simflow -- message-protocol static analysis + lifecycle auditing.

simlint (:mod:`repro.lint`) checks per-file determinism invariants;
simflow checks the *protocol* the bridge hierarchy relies on: what a
call site does when a bounded container refuses a message, and who may
touch the balance metadata.  Like simlint, every rule checks one module
at a time, plus a runtime conservation audit of every message a
sanitized run creates.

Static rules (:mod:`repro.flow.rules`, run by ``python -m repro.analyze
src``):

=======  ==============================================================
rule     invariant
=======  ==============================================================
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
and proves ``created == delivered + in_flight`` at run()
exit, flagging leaks, double deliveries, and rejections the stats
never recorded.  Importing the auditor loads none of the static rules.
"""
