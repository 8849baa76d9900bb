"""Client-side throttling: the client half of the backpressure contract.

Admission-controlled servers annotate replies two ways (see
:mod:`repro.services.admission`): a ``pardis.backpressure`` hint when
their queue passes its high watermark, and a ``pardis.overload`` marker
on shed requests.  The :class:`ThrottleInterceptor` honors both with
jittered exponential backoff, charged as compute time *before* the next
request leaves the same client thread — so a backed-off client thread
simply offers load later, which is exactly what the saturation
experiment measures.

Jitter comes from a seeded ``random.Random`` so simulations stay
deterministic.
"""

from __future__ import annotations

import random

from ..core.pipeline.interceptors import ClientRequestInfo, RequestInterceptor
from ..core.request import BACKPRESSURE_CONTEXT, OVERLOAD_CONTEXT

__all__ = ["ThrottleInterceptor"]

#: First delay after a shed reply (virtual s); each further shed
#: multiplies the delay by BACKOFF_MULTIPLIER, up to MAX_BACKOFF.
BASE_BACKOFF = 1e-3
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF = 0.25
#: Factor applied to the delay by each clean reply without a hint; a
#: delay below BASE_BACKOFF / 4 is dropped.
BACKOFF_DECAY = 0.5
#: Every applied delay is scaled by a uniform factor in
#: [1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER].
BACKOFF_JITTER = 0.2


class ThrottleInterceptor(RequestInterceptor):
    """Backs off request emission per client thread.

    * an **overload** reply (request shed) multiplies the thread's delay
      (:data:`BASE_BACKOFF` at first, then exponential up to
      :data:`MAX_BACKOFF`);
    * a **backpressure** hint on any reply raises the delay to at least
      the server's suggested value;
    * a clean reply with no hint decays the delay toward zero.

    Every applied delay is jittered by up to ±:data:`BACKOFF_JITTER`
    (fraction) to de-synchronize retrying clients; ``seed`` seeds that
    jitter.
    """

    name = "throttle"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        #: (program_id, thread rank) -> current pre-send delay
        self._delay: dict[tuple, float] = {}
        #: counters for tests / metrics
        self.throttled = 0
        self.total_backoff = 0.0

    def _key(self, info: ClientRequestInfo) -> tuple:
        return (info.ctx.program.program_id, info.ctx.rank)

    # -- interception points -------------------------------------------------

    def send_request(self, info: ClientRequestInfo) -> None:
        delay = self._delay.get(self._key(info), 0.0)
        if delay > 0.0:
            pause = delay * (1.0 + BACKOFF_JITTER
                             * (2.0 * self._rng.random() - 1.0))
            self.throttled += 1
            self.total_backoff += pause
            info.ctx.compute(pause)

    def receive_reply(self, info: ClientRequestInfo) -> None:
        key = self._key(info)
        hint = info.reply_service_contexts.get(BACKPRESSURE_CONTEXT)
        if hint:
            self._delay[key] = min(MAX_BACKOFF,
                                   max(self._delay.get(key, 0.0), hint))
            return
        current = self._delay.get(key, 0.0)
        if current > 0.0:
            decayed = current * BACKOFF_DECAY
            if decayed < BASE_BACKOFF / 4.0:
                self._delay.pop(key, None)
            else:
                self._delay[key] = decayed

    def receive_exception(self, info: ClientRequestInfo) -> None:
        if not info.reply_service_contexts.get(OVERLOAD_CONTEXT):
            return
        key = self._key(info)
        current = self._delay.get(key, 0.0)
        grown = (BASE_BACKOFF if current <= 0.0
                 else current * BACKOFF_MULTIPLIER)
        hint = info.reply_service_contexts.get(BACKPRESSURE_CONTEXT, 0.0)
        self._delay[key] = min(MAX_BACKOFF, max(grown, hint))
