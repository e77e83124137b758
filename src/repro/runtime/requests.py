"""Open-loop request driving: inject requests into a *running* system.

Closed-loop runs (:func:`~repro.runtime.runner.run_app`) seed every task
up front and report makespan.  This module drives the index apps as
*services* instead: requests from :func:`repro.workloads.openloop
.generate_requests` are injected at their arrival cycles into a live
:class:`~repro.runtime.system.NDPSystem` via the ``start()`` /
``advance()`` / ``finish()`` split, and each request's birth->completion
latency is recorded per tenant by an exact
:class:`~repro.analysis.latency.LatencyRecorder`.

Design notes (the composition oracles depend on these):

* **The run is held open by a sentinel.**  The tracker finishes a run
  when the current epoch is quiescent with no future work -- which,
  open-loop, would happen in the first idle gap between arrivals.
  ``seed_tasks`` therefore registers one sentinel task at ts=0 that is
  only completed by the *last* injection event, so quiescence is
  unreachable until the full stream is in.
* **Injection is a chain of simulator events.**  ``_pump`` (a bound
  method, so no closure holds run state) injects every request of the
  current cycle through ``system.seed_task`` and schedules itself at
  the next arrival cycle.
* **The request list is pure data.**  Generated deterministically
  before the run starts and stored on the app, so a run paused with
  ``advance()`` resumes with the same stream still to inject.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, cast

from ..analysis.latency import LatencyRecorder
from ..analysis.metrics import collect_metrics
from ..config import ConfigError, Design, SystemConfig
from ..workloads.openloop import OpenLoopSpec, Request, generate_requests
from .runner import RunResult, VerificationError, build_system, \
    check_serial

if TYPE_CHECKING:  # avoid a circular import; apps build on the runtime
    from ..apps.base import NDPApplication

__all__ = [
    "OpenLoopApp",
    "RequestDriver",
    "run_openloop",
]


class OpenLoopApp:
    """Adapter presenting an open-loop request stream as an application.

    Wraps a request-capable index app (``supports_requests``): ``build``
    delegates to the inner app and installs the completion listener;
    ``seed_tasks`` schedules the arrival pump instead of seeding tasks.
    Because it satisfies the same ``attach``/``seed_tasks``/``verify``
    protocol, every existing harness -- ``run_app``, exec cells --
    drives it unmodified.
    """

    def __init__(self, inner: "NDPApplication", spec: OpenLoopSpec) -> None:
        if not getattr(inner, "supports_requests", False):
            raise ConfigError(
                f"app {inner.name!r} does not support request mode "
                "(open-loop driving needs ll, ht or tree)"
            )
        self.inner = inner
        self.spec = spec
        self.name = f"ol-{inner.name}"
        self.seed = inner.seed
        self.recorder = LatencyRecorder()
        self.completions = 0
        self._system = None
        self._requests: List[Request] = []
        self._next = 0

    # -- application protocol --------------------------------------------
    def attach(self, system) -> None:
        self._system = system
        self.inner.attach(system)
        self.inner.set_request_listener(self._on_complete)
        self._requests = generate_requests(
            self.spec.tenants, self.inner.request_keyspace(), self.seed
        )
        self._next = 0

    def seed_tasks(self, system) -> None:
        # The sentinel: one ts=0 task that only the last pump completes,
        # holding epoch 0 (and therefore the run) open across idle gaps.
        # Registered directly on the tracker: it is not a real task.
        system.tracker.task_created(0)
        system.sim.schedule_at(self._requests[0].arrival, self._pump)

    def verify(self) -> bool:
        if self.completions != len(self._requests):
            return False
        spans = 0
        for req in self._requests:
            spans += self.inner.request_span(req.rank)
        return self.inner.request_visits() == spans

    # -- the arrival pump -------------------------------------------------
    def _pump(self) -> None:
        system = self._system
        requests = self._requests
        now = system.sim.now
        i = self._next
        n = len(requests)
        while i < n and requests[i].arrival == now:
            req = requests[i]
            system.seed_task(
                self.inner.make_request_task(req.rank, req.req_id)
            )
            i += 1
        self._next = i
        if i < n:
            system.sim.schedule_at(requests[i].arrival, self._pump)
        else:
            # Stream fully injected: release the sentinel.  The injected
            # tasks are still outstanding, so this cannot finish the run
            # by itself -- it merely makes quiescence reachable.
            system.tracker.task_completed(0)

    def _on_complete(self, req_id: int, now: int) -> None:
        req = self._requests[req_id]
        self.completions += 1
        if req.arrival >= self.spec.warmup:
            self.recorder.record(req.tenant, now - req.arrival)

    # -- result plumbing ---------------------------------------------------
    def latency_extra(self) -> Dict[str, float]:
        """The flat ``RunMetrics.extra`` entries for this run."""
        out = {
            "ol/requests": float(len(self._requests)),
            "ol/completed": float(self.completions),
            "ol/warmup": float(self.spec.warmup),
            "ol/last_arrival": float(self._requests[-1].arrival),
        }
        out.update(self.recorder.summary())
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"OpenLoopApp({self.inner.name}, "
            f"tenants={len(self.spec.tenants)})"
        )


class RequestDriver:
    """Explicit start/advance/finish control over one open-loop run.

    ``run_openloop`` drives it straight through; tests and perfbench
    use the split form to pause mid-stream between arrivals.
    """

    def __init__(self, app: OpenLoopApp, config: SystemConfig) -> None:
        self.app = app
        self.config = config
        self.system = build_system(config)
        app.attach(self.system)
        app.seed_tasks(self.system)

    def start(self) -> "RequestDriver":
        self.system.start()
        return self

    def advance(self, until: int) -> "RequestDriver":
        self.system.advance(until=until)
        return self

    def finish(self, verify: bool = True) -> RunResult:
        self.system.finish()
        if verify and not self.app.verify():
            raise VerificationError(
                f"{self.app.name} on design {self.config.design.value}: "
                f"completed {self.app.completions} of "
                f"{len(self.app._requests)} requests or span mismatch"
            )
        metrics = collect_metrics(self.system, self.app.name)
        metrics.extra.update(self.app.latency_extra())
        # OpenLoopApp satisfies the application protocol by duck typing;
        # the cast papers over the missing nominal base class.
        return RunResult(app=cast(Any, self.app), system=self.system,
                         metrics=metrics)


def run_openloop(
    app: str,
    config: SystemConfig,
    spec: OpenLoopSpec,
    *,
    scale: float = 1.0,
    seed: int = 1,
    verify: bool = True,
    shards: int = 1,
) -> RunResult:
    """Run one open-loop cell; the ``run_app`` twin for request driving.

    Returns a :class:`~repro.runtime.runner.RunResult` whose metrics
    carry the per-tenant latency report in ``extra`` (flat ``lat/...``
    keys -- cache- and JSON-safe).  ``shards`` follows ``run_app``:
    only ``1`` is accepted.
    """
    check_serial(shards)
    if config.design is Design.H:
        raise ConfigError(
            "open-loop driving targets the NDP designs (C/B/W/O); "
            "design H has no request-mode runtime"
        )
    from ..apps import make_app

    ol_app = OpenLoopApp(make_app(app, scale=scale, seed=seed), spec)
    return RequestDriver(ol_app, config).start().finish(verify=verify)
