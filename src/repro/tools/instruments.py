"""One instrumentation handle per world.

:func:`attach` is the only way to instrument a world.  It installs a
:class:`~repro.tools.observe.RequestObserver` and, on request, a
:class:`~repro.tools.tracing.TracingInterceptor` and a
:class:`~repro.tools.registry.MetricsRegistry`, and makes every link
between them and the world here, in one place.  The returned
:class:`Instruments` handle names what was installed, and its
:meth:`~Instruments.detach` undoes every hook.

The world's hooks, all set by :func:`attach`:

* ``orb.observer`` — the ORB's one instrumentation seam (spans, request
  lifecycles, CDR bytes, transfer schedules);
* ``transport.observers`` — the observer's packet trace;
* the interceptor chain — the tracer, when ``tracing=True``.  It shares
  no link with the observer: it stores each request's trace context on
  the request's interceptor info, and the request's state machine hands
  that context to ``orb.observer`` with every span.

Everything belongs to ``world``: instruments of other worlds in the same
process never see its counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .observe import RequestObserver
from .registry import MetricsRegistry, _world_registry
from .tracing import TracingInterceptor

__all__ = ["Instruments", "attach"]


@dataclass(eq=False)
class Instruments:
    """The instruments :func:`attach` installed on one world (each
    ``None`` when not requested)."""

    observer: RequestObserver
    tracer: Optional[TracingInterceptor] = None
    registry: Optional[MetricsRegistry] = None
    _world: Any = field(default=None, repr=False)

    def detach(self) -> None:
        """Unhook every instrument from the world; what they recorded
        stays readable.  Idempotent.

        A request's state machine reads ``orb.observer`` once, when the
        request starts, and keeps its trace context on its interceptor
        info, so a request in flight at ``detach()`` finishes its spans,
        with their trace ids, and its request record, in the observer it
        started with; requests started afterwards reach no instrument.
        """
        world, self._world = self._world, None
        if world is None:
            return
        obs = self.observer
        orb = world.services["orb"]
        orb.observer = None
        world.transport.observers.remove(obs.packet_trace)
        if self.tracer is not None:
            orb.unregister_interceptor(self.tracer)


def attach(world, *, tracing: bool = False, metrics: bool = False,
           label: str = "") -> Instruments:
    """Instrument ``world`` (before ``run()``); returns the handle.

    The observer is always installed.  ``tracing`` adds a tracer on the
    interceptor chain whose contexts annotate every span; ``metrics`` a
    registry collecting every layer's counters.  Raises ``ValueError`` if
    the world is already instrumented.
    """
    orb = world.services["orb"]
    if orb.observer is not None:
        raise ValueError("world is already instrumented; detach() the "
                         "existing handle first")
    obs = RequestObserver(label=label)
    obs.orb = orb
    obs.zero_copy = world.transport.buffer_pool.stats
    orb.observer = obs
    world.transport.observers.append(obs.packet_trace)
    handle = Instruments(obs, _world=world)
    if tracing:
        handle.tracer = orb.register_interceptor(TracingInterceptor())
    if metrics:
        handle.registry = _world_registry(world, handle.tracer)
        obs.bind_metrics(handle.registry)
    return handle
