"""Runtime message-lifecycle auditing.

``NDPBRIDGE_SANITIZE=1`` attaches a
:class:`~repro.flow.auditor.MessageAuditor` that tags every message id
and proves ``created == delivered + in_flight`` at run() exit, flagging
leaks, double deliveries, and rejections the stats never recorded.

The static checks of the message protocol -- every bounded enqueue/push
handles backpressure (SL011) and every rejection branch escapes (SL012)
-- are simlint rules (:mod:`repro.lint.rules`); importing the auditor
loads none of them.
"""
